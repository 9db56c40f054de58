"""Reference sequence encoder: a small bidirectional self-attention stack.

Implemented directly on numpy (float64) with a hand-written backward
pass, so gradients are exactly checkable against finite differences.
Two pre-norm transformer layers, learned positional embeddings, GELU
feed-forward blocks, and a final layer norm. Deterministic given its
parameters; there is no dropout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np
from scipy.special import erf

LN_EPS = 1e-5
INIT_STD = 0.02


@runtime_checkable
class SequenceEncoder(Protocol):
    """Per-token feature extractor: ids -> [L, d] feature matrix."""

    def encode(self, ids: Sequence[int]) -> np.ndarray: ...


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
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if min(self.n_layers, self.d_ff, self.max_len) < 1:
            raise ValueError("n_layers, d_ff, max_len must be >= 1")


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf(x / math.sqrt(2.0))) + x * np.exp(-0.5 * x * x) / math.sqrt(
        2.0 * math.pi
    )


def _layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    return gain * xhat + bias, (xhat, inv, gain)


def _layer_norm_backward(dy, cache):
    xhat, inv, gain = cache
    dgain = (dy * xhat).sum(axis=0)
    dbias = dy.sum(axis=0)
    dxhat = dy * gain
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dgain, dbias


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class TinyTransformerEncoder:
    """Trainable reference implementation of :class:`SequenceEncoder`."""

    def __init__(self, cfg: EncoderConfig, params: dict[str, np.ndarray]) -> None:
        self.cfg = cfg
        self.params = params

    @classmethod
    def create(cls, cfg: EncoderConfig, seed: int) -> "TinyTransformerEncoder":
        rng = np.random.default_rng(seed)
        d, ff = cfg.d_model, cfg.d_ff

        def w(*shape):
            return rng.normal(0.0, INIT_STD, size=shape)

        params: dict[str, np.ndarray] = {
            "tok_emb": w(cfg.vocab_size, d),
            "pos_emb": w(cfg.max_len, d),
            "lnf_g": np.ones(d),
            "lnf_b": np.zeros(d),
        }
        for i in range(cfg.n_layers):
            params.update(
                {
                    f"l{i}.ln1_g": np.ones(d),
                    f"l{i}.ln1_b": np.zeros(d),
                    f"l{i}.wq": w(d, d),
                    f"l{i}.bq": np.zeros(d),
                    f"l{i}.wk": w(d, d),
                    f"l{i}.bk": np.zeros(d),
                    f"l{i}.wv": w(d, d),
                    f"l{i}.bv": np.zeros(d),
                    f"l{i}.wo": w(d, d),
                    f"l{i}.bo": np.zeros(d),
                    f"l{i}.ln2_g": np.ones(d),
                    f"l{i}.ln2_b": np.zeros(d),
                    f"l{i}.w1": w(d, ff),
                    f"l{i}.b1": np.zeros(ff),
                    f"l{i}.w2": w(ff, d),
                    f"l{i}.b2": np.zeros(d),
                }
            )
        return cls(cfg, params)

    def num_params(self) -> int:
        return int(sum(v.size for v in self.params.values()))

    def _check_ids(self, ids: Sequence[int]) -> np.ndarray:
        arr = np.asarray(ids, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("ids must be a non-empty 1-d sequence")
        if arr.size > self.cfg.max_len:
            raise ValueError(
                f"sequence length {arr.size} exceeds encoder max_len "
                f"{self.cfg.max_len}"
            )
        if arr.min() < 0 or arr.max() >= self.cfg.vocab_size:
            raise ValueError("token id out of range for encoder vocabulary")
        return arr

    def encode(self, ids: Sequence[int]) -> np.ndarray:
        h, _ = self.forward(ids)
        return h

    def forward(self, ids: Sequence[int]):
        """Full forward pass; returns features [L, d] and a backward cache."""
        p = self.params
        cfg = self.cfg
        arr = self._check_ids(ids)
        L = arr.size
        heads, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
        scale = 1.0 / math.sqrt(dh)

        x = p["tok_emb"][arr] + p["pos_emb"][:L]
        layer_caches = []
        for i in range(cfg.n_layers):
            u, ln1 = _layer_norm(x, p[f"l{i}.ln1_g"], p[f"l{i}.ln1_b"])
            q = u @ p[f"l{i}.wq"] + p[f"l{i}.bq"]
            k = u @ p[f"l{i}.wk"] + p[f"l{i}.bk"]
            v = u @ p[f"l{i}.wv"] + p[f"l{i}.bv"]
            qh = q.reshape(L, heads, dh).transpose(1, 0, 2)
            kh = k.reshape(L, heads, dh).transpose(1, 0, 2)
            vh = v.reshape(L, heads, dh).transpose(1, 0, 2)
            att = _softmax_rows(qh @ kh.transpose(0, 2, 1) * scale)
            ctx = att @ vh
            c = ctx.transpose(1, 0, 2).reshape(L, cfg.d_model)
            x_attn = x + (c @ p[f"l{i}.wo"] + p[f"l{i}.bo"])

            w_in, ln2 = _layer_norm(x_attn, p[f"l{i}.ln2_g"], p[f"l{i}.ln2_b"])
            z1 = w_in @ p[f"l{i}.w1"] + p[f"l{i}.b1"]
            z2 = _gelu(z1)
            x = x_attn + (z2 @ p[f"l{i}.w2"] + p[f"l{i}.b2"])
            layer_caches.append(
                dict(u=u, ln1=ln1, qh=qh, kh=kh, vh=vh, att=att, c=c,
                     w_in=w_in, ln2=ln2, z1=z1, z2=z2)
            )
        h, lnf = _layer_norm(x, p["lnf_g"], p["lnf_b"])
        cache = dict(ids=arr, L=L, layers=layer_caches, lnf=lnf)
        return h, cache

    def backward(self, cache, dh: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar with upstream dh = d(scalar)/d(features)."""
        p = self.params
        cfg = self.cfg
        L = cache["L"]
        heads, dh_dim = cfg.n_heads, cfg.d_model // cfg.n_heads
        scale = 1.0 / math.sqrt(dh_dim)
        grads: dict[str, np.ndarray] = {
            key: np.zeros_like(val) for key, val in p.items()
        }

        dx, grads["lnf_g"], grads["lnf_b"] = _layer_norm_backward(dh, cache["lnf"])
        for i in reversed(range(cfg.n_layers)):
            lc = cache["layers"][i]
            # feed-forward block
            df = dx
            dz2 = df @ p[f"l{i}.w2"].T
            grads[f"l{i}.w2"] = lc["z2"].T @ df
            grads[f"l{i}.b2"] = df.sum(axis=0)
            dz1 = dz2 * _gelu_grad(lc["z1"])
            dw_in = dz1 @ p[f"l{i}.w1"].T
            grads[f"l{i}.w1"] = lc["w_in"].T @ dz1
            grads[f"l{i}.b1"] = dz1.sum(axis=0)
            dx_attn, grads[f"l{i}.ln2_g"], grads[f"l{i}.ln2_b"] = (
                _layer_norm_backward(dw_in, lc["ln2"])
            )
            dx_attn = dx_attn + dx  # residual

            # attention block
            da = dx_attn
            dc = da @ p[f"l{i}.wo"].T
            grads[f"l{i}.wo"] = lc["c"].T @ da
            grads[f"l{i}.bo"] = da.sum(axis=0)
            dctx = dc.reshape(L, heads, dh_dim).transpose(1, 0, 2)
            datt = dctx @ lc["vh"].transpose(0, 2, 1)
            dvh = lc["att"].transpose(0, 2, 1) @ dctx
            att = lc["att"]
            dscores = att * (datt - (datt * att).sum(axis=-1, keepdims=True))
            dqh = dscores @ lc["kh"] * scale
            dkh = dscores.transpose(0, 2, 1) @ lc["qh"] * scale
            dq = dqh.transpose(1, 0, 2).reshape(L, cfg.d_model)
            dk = dkh.transpose(1, 0, 2).reshape(L, cfg.d_model)
            dv = dvh.transpose(1, 0, 2).reshape(L, cfg.d_model)
            u = lc["u"]
            du = dq @ p[f"l{i}.wq"].T + dk @ p[f"l{i}.wk"].T + dv @ p[f"l{i}.wv"].T
            grads[f"l{i}.wq"] = u.T @ dq
            grads[f"l{i}.bq"] = dq.sum(axis=0)
            grads[f"l{i}.wk"] = u.T @ dk
            grads[f"l{i}.bk"] = dk.sum(axis=0)
            grads[f"l{i}.wv"] = u.T @ dv
            grads[f"l{i}.bv"] = dv.sum(axis=0)
            dx_pre, grads[f"l{i}.ln1_g"], grads[f"l{i}.ln1_b"] = (
                _layer_norm_backward(du, lc["ln1"])
            )
            dx = dx_pre + dx_attn  # residual

        np.add.at(grads["tok_emb"], cache["ids"], dx)
        grads["pos_emb"][:L] = dx
        return grads
