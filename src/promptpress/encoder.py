"""Reference sequence encoder: a small bidirectional self-attention stack.

Implemented directly on numpy (float64) with a hand-written backward
pass, so gradients are exactly checkable against finite differences.
Two pre-norm transformer layers, learned positional embeddings, GELU
feed-forward blocks, and a final layer norm. Deterministic given its
parameters; there is no dropout.

The forward and backward passes take a pack: several sequences back to
back with their lengths. Per-token work runs once over the whole pack
and attention stays within each sequence, so a pack of one computes
exactly what a single sequence does.

Attention has no key bias. A key bias b_k adds q . b_k to every score of
a query, one shift per softmax row, which the softmax removes exactly
(Namazifar et al., "Role of Bias Terms in Dot-Product Attention", ICASSP
2023); so b_k could never learn, and its measured gradient was rounding
noise, near 1e-17. The query, value and output projections keep theirs.

There is one forward pass. Its arithmetic runs in place on arrays it has
just made, never on a parameter, in the order of the plain expressions
it stands for, so its results are bitwise those of that order. Training
asks it for a backward cache; inference (``encode``) asks for none, and
then each intermediate is released as soon as it has been read. An
inference pass only reads the encoder, so several threads may encode
with one encoder at once.

The backward pass recomputes nothing: the cache holds every
intermediate it reads, the layer-norm outputs and the feed-forward
block's pre-GELU input and GELU output included. It writes each gradient
into an array the caller gives, in practice a view of one flat vector.
The cache itself lives in buffers that the encoder keeps from one
training pass to the next (``_BlockCache``), so a training step takes
no fresh memory for its activations or its gradient.

The GELU is the exact one, 0.5 * x * (1 + erf(x / sqrt(2))), and its erf
is computed here on numpy (``_erf_in_place``) to give bitwise the values
of ``scipy.special.erf``: the Cephes ``ndtr.c`` rational approximations,
evaluated in Cephes' operation order. For |x| <= 1 that is
x * T(x^2) / U(x^2) over the whole array; for 1 < |x| < 6 it is
1 - exp(-x^2) * P(|x|) / Q(|x|) with the sign of x, and from |x| = 6 on
exactly +-1. That tail calls libm's ``exp`` (``math.exp``) element by
element, because numpy's vectorized ``exp`` rounds differently from libm
on a few percent of inputs, while Cephes calls libm. GELU inputs past
|x| = sqrt(2) are rare, so the tail is cheap. The kernel keeps its
temporaries in buffers reused from pass to pass, so that a pass does not
fault in fresh pages.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

LN_EPS = 1e-5
INIT_STD = 0.02


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 2
    n_layers: int = 2
    d_ff: int = 256
    max_len: int = 256

    def __post_init__(self) -> None:
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        if min(self.d_model, self.n_heads) < 1:
            raise ValueError("d_model and n_heads must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if min(self.n_layers, self.d_ff, self.max_len) < 1:
            raise ValueError("n_layers, d_ff, max_len must be >= 1")


# Cephes ndtr.c: erf(x) = x * T(x^2) / U(x^2) for |x| <= 1, and
# erfc(x) = exp(-x^2) * P(x) / Q(x) for 1 <= x < 8. U and Q are monic;
# their leading 1 is left out.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# erfc(6) < 2**-54, half an ulp below 1, so from |x| = 6 on 1 - erfc(x)
# rounds to exactly 1.
_ERF_SATURATES = 6.0

# Scratch arrays of shape [2, n] not in use by any pass. A pass takes one
# and puts it back, so there are as many as passes have run at once, and
# they outlive the threads and encoders that used them: compress starts
# new helper threads and loads a new encoder on every call.
_erf_scratch: list[np.ndarray] = []
_NO_TAIL = np.empty(0, dtype=np.intp)


def _erf_tail(x: np.ndarray) -> np.ndarray:
    """erf of values with |x| > 1: the sign of x times 1 - erfc(|x|)."""
    a = np.abs(x)
    out = np.ones_like(a)
    mid = a < _ERF_SATURATES
    a = a[mid]
    p = np.full_like(a, _ERFC_P[0])
    for c in _ERFC_P[1:]:
        p = p * a + c
    q = a + _ERFC_Q[0]
    for c in _ERFC_Q[1:]:
        q = q * a + c
    e = np.array([math.exp(v) for v in (-a * a).tolist()])
    out[mid] = 1.0 - e * p / q
    return np.copysign(out, x)


def _erf_in_place(x: np.ndarray) -> np.ndarray:
    """Overwrite the C-contiguous float64 array ``x`` with erf(x), bitwise
    ``scipy.special.erf`` (see the module docstring); returns ``x``."""
    flat = x.reshape(-1)
    n = flat.size
    try:
        scratch = _erf_scratch.pop()  # atomic: several threads may encode
    except IndexError:
        scratch = np.empty((2, n))
    if scratch.shape[1] < n:
        scratch = np.empty((2, n))
    z, acc = scratch[:, :n]
    # Huge or infinite inputs overflow the polynomials; the tail
    # overwrites those elements.
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(flat, flat, out=z)
        tail = _NO_TAIL
        if not z.max() <= 1.0:  # some |x| > 1, or a NaN
            tail = np.flatnonzero(z > 1.0)
        x_tail = flat[tail]
        # x * T(z) / U(z), with x * T(z) made before U(z) takes acc.
        np.multiply(z, _ERF_T[0], out=acc)
        for c in _ERF_T[1:-1]:
            acc += c
            acc *= z
        acc += _ERF_T[-1]
        flat *= acc
        np.add(z, _ERF_U[0], out=acc)
        for c in _ERF_U[1:]:
            acc *= z
            acc += c
        flat /= acc
    _erf_scratch.append(scratch)
    if tail.size:
        flat[tail] = _erf_tail(x_tail)
    return x


def _gelu_grad(x: np.ndarray, e: np.ndarray, t: np.ndarray) -> np.ndarray:
    """GELU'(x) = 0.5 (1 + erf(x / sqrt 2)) + x exp(-x x / 2) / sqrt(2 pi),
    given e = 1 + erf(x / sqrt 2), in the operation order of that
    expression. Made in place in ``e``, which it returns, with ``t`` (the
    shape of x) as scratch."""
    np.multiply(x, -0.5, out=t)
    t *= x
    np.exp(t, out=t)
    t *= x
    t /= math.sqrt(2.0 * math.pi)
    e *= 0.5
    e += t
    return e


def _affine(x, w, b, out=None):
    """x @ w + b, made in ``out`` (a new array if None), b added in place."""
    out = np.matmul(x, w, out=out)
    out += b
    return out


class _BlockCache(dict):
    """What the backward reads of one block of a training pass, by name.

    ``take`` hands out an entry's storage: a view of a buffer kept in
    ``buffers`` from pass to pass, grown when a pass needs more. Training
    then reuses one set of arrays at every iteration. Arrays made afresh
    at each pass and freed by its backward gather at the top of the heap,
    where the allocator hands them back to the system, so each pass
    faulted in several megabytes of fresh pages, at more cost than the
    recomputation this cache saves. A block cache given a buffer dict of
    its own allocates every entry afresh.
    """

    def __init__(self, buffers: dict[str, np.ndarray]) -> None:
        super().__init__()
        self._buffers = buffers

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """Uninitialized storage of ``shape``, recorded as entry ``name``."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        self[name] = view = buf[:size].reshape(shape)
        return view


def _layer_norm(x, gain, bias, lc=None, key=""):
    """Layer norm over the last axis; ``x`` is only read.

    Without a block cache ``lc`` the output is made in place in a new
    array. With one, the output is its entry ``key``, and xhat and inv,
    which the backward reads, its entries ``key.xhat`` and ``key.inv``.
    """
    xhat = np.empty_like(x) if lc is None else lc.take(key + ".xhat", x.shape)
    np.subtract(x, x.mean(axis=-1, keepdims=True), out=xhat)
    var = (xhat**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    if lc is None:
        out = xhat
    else:
        lc[key + ".inv"] = inv
        out = lc.take(key, x.shape)
    np.multiply(xhat, gain, out=out)
    out += bias
    return out


def _layer_norm_backward(dy, lc, key, gain, dgain, dbias):
    """d(input) of the layer norm kept as ``key`` in the block cache
    ``lc``, given dy = d(output); writes d(gain) and d(bias) into
    ``dgain`` and ``dbias``. Its cached xhat is overwritten."""
    xhat, inv = lc[key + ".xhat"], lc[key + ".inv"]
    prod = dy * xhat
    prod.sum(axis=0, out=dgain)
    dy.sum(axis=0, out=dbias)
    # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), with
    # dxhat = dy * gain.
    dxhat = np.multiply(dy, gain, out=prod)
    dx = dxhat * xhat
    xhat *= dx.mean(axis=-1, keepdims=True)
    np.subtract(dxhat, dxhat.mean(axis=-1, keepdims=True), out=dx)
    dx -= xhat
    dx *= inv
    return dx


def parameter_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every encoder parameter, by name, in the one fixed order
    that initialization, gradients, norms and storage all follow."""
    d, ff = cfg.d_model, cfg.d_ff
    shapes = {
        "tok_emb": (cfg.vocab_size, d),
        "pos_emb": (cfg.max_len, d),
        "lnf_g": (d,),
        "lnf_b": (d,),
    }
    for i in range(cfg.n_layers):
        shapes.update(
            {
                f"l{i}.ln1_g": (d,),
                f"l{i}.ln1_b": (d,),
                f"l{i}.wq": (d, d),
                f"l{i}.bq": (d,),
                f"l{i}.wk": (d, d),
                f"l{i}.wv": (d, d),
                f"l{i}.bv": (d,),
                f"l{i}.wo": (d, d),
                f"l{i}.bo": (d,),
                f"l{i}.ln2_g": (d,),
                f"l{i}.ln2_b": (d,),
                f"l{i}.w1": (d, ff),
                f"l{i}.b1": (ff,),
                f"l{i}.w2": (ff, d),
                f"l{i}.b2": (d,),
            }
        )
    return shapes


class TinyTransformerEncoder:
    """Per-token feature extractor: ids -> [L, d] feature matrix, trainable.

    ``params`` maps each name of ``parameter_shapes`` to its array; the
    encoder reads them and never replaces one, so they may be views into
    storage its owner keeps.

    A training pass (``forward`` with a cache) keeps what its backward
    reads in buffers the encoder makes on the first such pass and reuses
    after, so training passes run one at a time, and a pass's cache is
    valid until the next training pass starts. Inference passes use none
    of it.
    """

    def __init__(self, cfg: EncoderConfig, params: dict[str, np.ndarray]) -> None:
        self.cfg = cfg
        self.params = params
        self._buffers: list[dict[str, np.ndarray]] = []  # one dict per layer
        self._pass: object = None  # the cache of the latest training pass

    def initialize(self, seed: int) -> None:
        """Set every parameter in place to its initial value: the weight
        matrices drawn from ``seed`` (normal, std INIT_STD) in parameter
        order, layer-norm gains one, and biases zero."""
        rng = np.random.default_rng(seed)
        for name, value in self.params.items():
            if value.ndim == 2:
                value[...] = rng.normal(0.0, INIT_STD, size=value.shape)
            else:
                value[...] = 1.0 if name.endswith("_g") else 0.0

    def _check_ids(
        self, ids: Sequence[int], lengths: Sequence[int]
    ) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """Validated id array and the [start, end) bounds of each segment."""
        arr = np.asarray(ids, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("ids must be a non-empty 1-d sequence")
        if min(lengths) < 1:
            raise ValueError("every segment must hold at least one token")
        if sum(lengths) != arr.size:
            raise ValueError(
                f"segment lengths sum to {sum(lengths)}, not to the "
                f"{arr.size} ids given"
            )
        if max(lengths) > self.cfg.max_len:
            raise ValueError(
                f"sequence length {max(lengths)} exceeds encoder max_len "
                f"{self.cfg.max_len}"
            )
        if arr.min() < 0 or arr.max() >= self.cfg.vocab_size:
            raise ValueError("token id out of range for encoder vocabulary")
        ends = list(itertools.accumulate(lengths))
        return arr, list(zip([0] + ends[:-1], ends))

    def encode(self, ids: Sequence[int], lengths: Sequence[int]) -> np.ndarray:
        """Features [T, d] of a pack (see :meth:`forward`), computed
        without a backward cache."""
        h, _ = self.forward(ids, lengths, keep_cache=False)
        return h

    def _heads(self, x: np.ndarray) -> np.ndarray:
        """[L, d] -> [heads, L, d / heads] view."""
        heads = self.cfg.n_heads
        return x.reshape(x.shape[0], heads, -1).transpose(1, 0, 2)

    def forward(
        self,
        ids: Sequence[int],
        lengths: Sequence[int],
        keep_cache: bool = True,
    ):
        """Forward pass over a pack of sequences.

        ``ids`` holds the sequences back to back and ``lengths`` their
        lengths. Per-token work runs once over all T tokens; attention
        stays within each sequence, and positions restart at 0 in each.
        Returns features [T, d] and a backward cache, which is None
        without ``keep_cache``.
        """
        p = self.params
        arr, bounds = self._check_ids(ids, lengths)
        if keep_cache:
            if not self._buffers:
                self._buffers = [{} for _ in range(self.cfg.n_layers)]
            layer_caches = [_BlockCache(b) for b in self._buffers]
        else:
            layer_caches = [None] * self.cfg.n_layers
        x = p["tok_emb"][arr]  # a copy: the residual adds below run in place
        for s, e in bounds:
            x[s:e] += p["pos_emb"][: e - s]
        for i, lc in enumerate(layer_caches):
            x += self._attention(i, x, bounds, lc)
            x += self._ffn(i, x, lc)
        if not keep_cache:
            return _layer_norm(x, p["lnf_g"], p["lnf_b"]), None
        # The features are the caller's to keep, so the final layer norm
        # takes fresh storage.
        cache = _BlockCache({})
        h = _layer_norm(x, p["lnf_g"], p["lnf_b"], cache, "lnf")
        cache.update(ids=arr, bounds=bounds, layers=layer_caches)
        self._pass = cache
        return h, cache

    def _attention(self, i, x, bounds, lc):
        """Attention block of layer i, without its residual. Stores what
        the backward reads in ``lc`` unless it is None."""
        p = self.params
        scale = 1.0 / math.sqrt(self.cfg.d_model // self.cfg.n_heads)
        u = _layer_norm(x, p[f"l{i}.ln1_g"], p[f"l{i}.ln1_b"], lc, "ln1")
        q, k, v = (None if lc is None else lc.take(n, x.shape) for n in "qkv")
        q = _affine(u, p[f"l{i}.wq"], p[f"l{i}.bq"], q)
        k = np.matmul(u, p[f"l{i}.wk"], out=k)  # no key bias
        v = _affine(u, p[f"l{i}.wv"], p[f"l{i}.bv"], v)
        del u
        c = np.empty_like(q) if lc is None else lc.take("c", x.shape)
        atts = []
        for s, e in bounds:
            # Row softmax of the scaled scores, in place.
            att = self._heads(q[s:e]) @ self._heads(k[s:e]).transpose(0, 2, 1)
            att *= scale
            att -= att.max(axis=-1, keepdims=True)
            np.exp(att, out=att)
            att /= att.sum(axis=-1, keepdims=True)
            self._heads(c[s:e])[...] = att @ self._heads(v[s:e])
            if lc is not None:
                atts.append(att)
        if lc is not None:
            lc["atts"] = atts
        del q, k, v, att
        return _affine(c, p[f"l{i}.wo"], p[f"l{i}.bo"])

    def _ffn(self, i, x, lc):
        """Feed-forward block of layer i, without its residual. Stores what
        the backward reads in ``lc`` unless it is None."""
        p = self.params
        w_in = _layer_norm(x, p[f"l{i}.ln2_g"], p[f"l{i}.ln2_b"], lc, "ln2")
        shape = (x.shape[0], self.cfg.d_ff)
        z1 = _affine(w_in, p[f"l{i}.w1"], p[f"l{i}.b1"],
                     None if lc is None else lc.take("z1", shape))
        del w_in
        e1 = np.divide(z1, math.sqrt(2.0),
                       out=None if lc is None else lc.take("e1", shape))
        _erf_in_place(e1)
        e1 += 1.0
        # GELU: 0.5 * z1 * (1 + erf), in place in z1 for inference. Training
        # keeps z1, 1 + erf and the GELU output, so that the backward reads
        # them instead of recomputing them.
        gelu = np.multiply(z1, 0.5, out=z1 if lc is None else lc.take("gelu", shape))
        gelu *= e1
        del z1, e1
        return _affine(gelu, p[f"l{i}.w2"], p[f"l{i}.b2"])

    def backward(self, cache, dh: np.ndarray, grads: dict[str, np.ndarray]) -> None:
        """Gradients of a scalar with upstream dh = d(scalar)/d(features).

        ``dh`` is [T, d] for the pack ``cache`` came from; the gradients
        are summed over every sequence of the pack. ``grads`` maps every
        parameter name to an array of its shape, typically a view of one
        flat vector, and each is overwritten with that parameter's
        gradient. The cache is consumed, and must be the latest training
        pass's.
        """
        if cache is not self._pass:
            raise ValueError(
                "not the cache of the latest training pass: it was used, or a "
                "later pass has overwritten it"
            )
        self._pass = None
        p = self.params
        bounds = cache["bounds"]
        dx = _layer_norm_backward(
            dh, cache, "lnf", p["lnf_g"], grads["lnf_g"], grads["lnf_b"]
        )
        for i, lc in reversed(list(enumerate(cache["layers"]))):
            dx = self._ffn_backward(i, lc, dx, grads)
            dx = self._attention_backward(i, lc, bounds, dx, grads)

        grads["tok_emb"].fill(0.0)
        np.add.at(grads["tok_emb"], cache["ids"], dx)
        pos = grads["pos_emb"]
        pos.fill(0.0)
        for s, e in bounds:
            pos[: e - s] += dx[s:e]

    def _ffn_backward(self, i, lc, dx, grads):
        """Feed-forward block of layer i plus its residual; returns d(x_attn)."""
        p = self.params
        np.matmul(lc["gelu"].T, dx, out=grads[f"l{i}.w2"])
        dx.sum(axis=0, out=grads[f"l{i}.b2"])
        z1 = lc["z1"]
        dz1 = np.matmul(dx, p[f"l{i}.w2"].T, out=lc.take("dz1", z1.shape))
        # The GELU output is read, so its storage is the scratch.
        dz1 *= _gelu_grad(z1, lc["e1"], lc["gelu"])
        np.matmul(lc["ln2"].T, dz1, out=grads[f"l{i}.w1"])
        dz1.sum(axis=0, out=grads[f"l{i}.b1"])
        dx_attn = _layer_norm_backward(
            dz1 @ p[f"l{i}.w1"].T, lc, "ln2", p[f"l{i}.ln2_g"],
            grads[f"l{i}.ln2_g"], grads[f"l{i}.ln2_b"],
        )
        dx_attn += dx  # residual
        return dx_attn

    def _attention_backward(self, i, lc, bounds, da, grads):
        """Attention block of layer i plus its residual; returns d(x)."""
        p = self.params
        d = self.cfg.d_model
        scale = 1.0 / math.sqrt(d // self.cfg.n_heads)
        q, k, v = lc["q"], lc["k"], lc["v"]
        dc = da @ p[f"l{i}.wo"].T
        np.matmul(lc["c"].T, da, out=grads[f"l{i}.wo"])
        da.sum(axis=0, out=grads[f"l{i}.bo"])
        # attention stays within each sequence
        dq, dk, dv = np.empty_like(dc), np.empty_like(dc), np.empty_like(dc)
        for (s, e), att in zip(bounds, lc["atts"]):
            n = e - s
            dctx = self._heads(dc[s:e])
            datt = dctx @ self._heads(v[s:e]).transpose(0, 2, 1)
            dvh = att.transpose(0, 2, 1) @ dctx
            dscores = att * (datt - (datt * att).sum(axis=-1, keepdims=True))
            dqh = dscores @ self._heads(k[s:e]) * scale
            dkh = dscores.transpose(0, 2, 1) @ self._heads(q[s:e]) * scale
            dq[s:e] = dqh.transpose(1, 0, 2).reshape(n, d)
            dk[s:e] = dkh.transpose(1, 0, 2).reshape(n, d)
            dv[s:e] = dvh.transpose(1, 0, 2).reshape(n, d)
        u = lc["ln1"]
        du = dq @ p[f"l{i}.wq"].T + dk @ p[f"l{i}.wk"].T + dv @ p[f"l{i}.wv"].T
        for name, dy in (("q", dq), ("k", dk), ("v", dv)):
            np.matmul(u.T, dy, out=grads[f"l{i}.w{name}"])
        dq.sum(axis=0, out=grads[f"l{i}.bq"])
        dv.sum(axis=0, out=grads[f"l{i}.bv"])
        dx = _layer_norm_backward(
            du, lc, "ln1", p[f"l{i}.ln1_g"], grads[f"l{i}.ln1_g"], grads[f"l{i}.ln1_b"]
        )
        dx += da  # residual
        return dx
