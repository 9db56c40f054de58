"""Actor: a per-token keep/drop classifier over a transformer encoder.

The actor adds a linear 2-way head per token to a
:class:`TinyTransformerEncoder`. The head starts at zero, so every token
starts at keep probability 0.5. Keep probabilities are floored away from
{0, 1} so log-probabilities and policy ratios stay finite.

Compression is a sequential decision process. Its state is the current
compressed prompt, a :class:`TokenSequence`; its action is an int array
of per-token labels, 1 keep and 0 drop, from :func:`sample_actions` or
:func:`greedy_actions`; :func:`apply_action` makes the next state. The
caller keeps the original prompt.

Inference has one call, :func:`policy_forward`, over any number of
states: it packs them into encoder passes, optionally run on a thread
pool while the calling thread waits, and gives each state bitwise the
keep probabilities it would get alone. It and
:func:`packed_action_log_probs` encode each distinct state once, however
often it repeats among their inputs.
"""

from __future__ import annotations

import itertools
from concurrent.futures import Executor
from typing import Callable, Sequence

import numpy as np

from .encoder import EncoderConfig, TinyTransformerEncoder, parameter_shapes
from .optim import flat_views
from .text import TokenSequence

PROB_FLOOR = 1e-6


def actor_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every actor parameter, by name, in storage order: the
    encoder's (prefixed ``enc.``), then the head's."""
    shapes = {f"enc.{k}": shape for k, shape in parameter_shapes(cfg).items()}
    shapes["head_w"] = (cfg.d_model, 2)
    shapes["head_b"] = (2,)
    return shapes


def actor_size(cfg: EncoderConfig) -> int:
    """The number of parameters ``actor_shapes`` holds, in Python ints
    and without a loop over layers, so that a huge config costs nothing."""
    d, ff = cfg.d_model, cfg.d_ff
    layer = 4 * d * d + 2 * d * ff + 8 * d + ff
    return (cfg.vocab_size + cfg.max_len + 4) * d + 2 + cfg.n_layers * layer


class Actor:
    """Encoder plus head, with every parameter in one flat vector.

    ``flat`` holds the parameters in ``actor_shapes`` order; the
    encoder's ``params``, ``head_w`` and ``head_b`` are views into it,
    so copying or saving the actor is one copy or write of ``flat``.
    """

    def __init__(self, cfg: EncoderConfig, flat: np.ndarray) -> None:
        self.flat = flat
        self._params = flat_views(flat, actor_shapes(cfg))
        self.encoder = TinyTransformerEncoder(
            cfg, {k: self._params[f"enc.{k}"] for k in parameter_shapes(cfg)}
        )
        self.head_w = self._params["head_w"]
        self.head_b = self._params["head_b"]

    @classmethod
    def build(cls, cfg: EncoderConfig, seed: int) -> "Actor":
        # Zero head: every token starts at keep probability 0.5.
        actor = cls(cfg, np.zeros(actor_size(cfg)))
        actor.encoder.initialize(seed)
        return actor

    def parameters(self) -> dict[str, np.ndarray]:
        """Named views of ``flat``, in storage order."""
        return dict(self._params)


class ActorGradient:
    """Storage for a gradient w.r.t. every actor parameter: one flat
    vector laid out like ``Actor.flat``, and its views.

    ``views`` are named as in ``actor_shapes``; ``encoder`` holds the
    encoder's views under the encoder's own parameter names, as its
    backward pass takes them. Training allocates one and refills it at
    every update iteration; inference never builds one.
    """

    def __init__(self, cfg: EncoderConfig) -> None:
        self.flat = np.zeros(actor_size(cfg))
        self.views = flat_views(self.flat, actor_shapes(cfg))
        self.encoder = {k: self.views[f"enc.{k}"] for k in parameter_shapes(cfg)}


def _softmax2(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _floored(probs: np.ndarray) -> np.ndarray:
    """Keep probabilities from softmax rows, floored away from {0, 1}."""
    return np.clip(probs[:, 1], PROB_FLOOR, 1.0 - PROB_FLOOR)


def _label_log_probs(keep_probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each token's log-probability of its label (1 keep, 0 drop)."""
    log_probs = np.stack([np.log1p(-keep_probs), np.log(keep_probs)], axis=1)
    return log_probs[np.arange(labels.size), labels]


def _packs(lengths: Sequence[int], max_len: int) -> list[list[int]]:
    """Indices of consecutive sequences, grouped greedily into packs of at
    most ``max_len`` tokens; a 1-token sequence is a pack of its own."""
    packs: list[list[int]] = []
    tokens = 0
    for index, n in enumerate(lengths):
        if packs and not (n == 1 or tokens == 1 or tokens + n > max_len):
            packs[-1].append(index)
            tokens += n
        else:
            packs.append([index])
            tokens = n
    return packs


def _firsts(seqs: Sequence[tuple[int, ...]]) -> dict[tuple[int, ...], int]:
    """The index of each distinct sequence's first occurrence, in the
    order of those occurrences, which is the order they are encoded in."""
    firsts: dict[tuple[int, ...], int] = {}
    for j, seq in enumerate(seqs):
        firsts.setdefault(seq, j)
    return firsts


def policy_forward(
    actor: Actor, states: Sequence[TokenSequence], pool: Executor | None = None
) -> list[np.ndarray]:
    """Floored keep probability of each token of each state (a current
    prompt), in input order; an empty state is an error.

    Each distinct state, by its ids, is encoded once; a repeat gets a
    copy of what its first occurrence gets, so no two outputs share
    storage. Consecutive distinct states share an encoder pass of at
    most the encoder's ``max_len`` tokens. A 1-token state has a pass of
    its own, as numpy takes a one-row matmul down another BLAS path, and
    the head runs on each state's rows alone; so each state gets bitwise
    what a call with it alone returns. With ``pool``, the pool's threads
    encode the passes while the calling thread waits; the actor is only
    read. If passes fail, the first failing one in input order is raised.
    """
    seqs = [state.ids for state in states]
    if not all(seqs):
        raise ValueError("empty state")
    firsts = _firsts(seqs)
    distinct = list(firsts)

    def run(pack: list[int]) -> list[np.ndarray]:
        lengths = [len(distinct[i]) for i in pack]
        h = actor.encoder.encode([tid for i in pack for tid in distinct[i]], lengths)
        # The head runs on each state's own rows: a two-column matmul
        # gives a row bits that depend on the rows around it.
        return [
            _floored(_softmax2(h[end - n:end] @ actor.head_w + actor.head_b))
            for n, end in zip(lengths, itertools.accumulate(lengths))
        ]

    packs = _packs([len(seq) for seq in distinct], actor.encoder.cfg.max_len)
    passes = pool.map(run, packs) if pool is not None else map(run, packs)
    by_seq = dict(zip(distinct, (kp for kps in passes for kp in kps)))
    return [
        by_seq[seq] if firsts[seq] == j else by_seq[seq].copy()
        for j, seq in enumerate(seqs)
    ]


def seed_for(*parts: int) -> int:
    """Derive a child seed from integer coordinates, platform-stably."""
    ss = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(ss.generate_state(1)[0])


def sample_actions(keep_probs: np.ndarray, rng_seed: int) -> tuple[np.ndarray, float]:
    """Draw each token's label independently; returns the labels and
    their summed log-prob."""
    rng = np.random.default_rng(rng_seed)
    labels = (rng.random(keep_probs.shape[0]) < keep_probs).astype(int)
    return labels, float(_label_log_probs(keep_probs, labels).sum())


def greedy_actions(keep_probs: np.ndarray, drop_budget: int) -> np.ndarray:
    """Deterministic labels.

    With no budget, drop every token whose keep probability is below
    0.5. With a budget, drop exactly min(budget, L - 1) tokens with the
    lowest keep probabilities (ties drop the higher index first). Both
    variants keep at least one token.
    """
    if drop_budget < 0:
        raise ValueError("drop_budget must be >= 0")
    n = keep_probs.shape[0]
    if drop_budget == 0:
        labels = (keep_probs >= 0.5).astype(int)
        if labels.sum() == 0:
            labels[int(np.argmax(keep_probs))] = 1
        return labels
    n_drop = min(drop_budget, n - 1)
    # ascending keep prob; among equals the higher index sorts first
    order = np.lexsort((-np.arange(n), keep_probs))
    labels = np.ones(n, dtype=int)
    labels[order[:n_drop]] = 0
    return labels


def apply_action(
    current: TokenSequence, labels: np.ndarray, keep_probs: Sequence[float]
) -> TokenSequence:
    """The next state: the tokens of ``current`` labeled 1, in order.

    All-zero labels would empty the prompt, which leaves the compression
    rate and all scorers undefined; instead one token is force-kept: the
    one with the highest keep probability (the first among equals).
    """
    if len(labels) != len(current):
        raise ValueError(
            f"action/sequence length mismatch: {len(labels)} != {len(current)}"
        )
    kept = tuple(tid for tid, label in zip(current.ids, labels) if label == 1)
    if not kept:
        kept = (current.ids[int(np.argmax(keep_probs))],)
    return TokenSequence(kept)


def packed_action_log_probs(
    actor: Actor, seqs: Sequence[Sequence[int]], labels: Sequence[Sequence[int]]
) -> tuple[np.ndarray, Callable[[np.ndarray, ActorGradient], None]]:
    """Log-probability of each action vector ``labels[j]`` on ``seqs[j]``.

    One encoder forward pass covers each distinct sequence once, however
    often it repeats, and each step reads its sequence's rows with its
    own labels. The returned function takes per-step coefficients c and
    an :class:`ActorGradient`, and overwrites the latter with the
    gradient of sum_j c_j * log_prob_j w.r.t. every actor parameter, in
    one backward pass, each step's upstream rows added into its
    sequence's; call it at most once, as the backward consumes the
    forward's cache. Tokens whose keep probability sits at the floor get
    zero gradient, matching the clamped forward value.

    With no repeated sequence the pass holds every step's sequence, back
    to back. A repeat leaves the head's matmul fewer rows, which moves
    the results in their low-order bits only (see ``policy_forward``).
    """
    lengths = [len(seq) for seq in seqs]
    if [len(l) for l in labels] != lengths:
        raise ValueError("each label vector must match its sequence's length")
    keys = [tuple(seq) for seq in seqs]
    firsts = _firsts(keys)
    distinct = list(firsts)
    h, cache = actor.encoder.forward(
        [tid for key in distinct for tid in key], [len(key) for key in distinct]
    )
    # The pass's row of each step's tokens, and whether it is a lead's:
    # the first step on its sequence.
    starts = dict(
        zip(distinct, itertools.accumulate(map(len, distinct[:-1]), initial=0))
    )
    rows = np.concatenate([np.arange(starts[k], starts[k] + len(k)) for k in keys])
    lead = np.repeat([firsts[k] == j for j, k in enumerate(keys)], lengths)
    probs = _softmax2(h @ actor.head_w + actor.head_b)[rows]
    idx = np.concatenate(labels).astype(int, copy=False)
    picked = _label_log_probs(_floored(probs), idx)
    ends = list(itertools.accumulate(lengths))
    log_probs = np.array([picked[s:e].sum() for s, e in zip([0] + ends[:-1], ends)])

    def gradient_into(coeffs: np.ndarray, grad: ActorGradient) -> None:
        dlogits = -probs
        dlogits[np.arange(idx.size), idx] += 1.0
        unclamped = (probs[:, 1] > PROB_FLOOR) & (probs[:, 1] < 1.0 - PROB_FLOOR)
        dlogits[~unclamped] = 0.0
        dlogits *= np.repeat(np.asarray(coeffs, dtype=float), lengths)[:, None]
        # The leads' rows are the pass's rows, in order; each repeat's
        # row is added into the one it reads.
        upstream = dlogits[lead]
        np.add.at(upstream, rows[~lead], dlogits[~lead])
        actor.encoder.backward(cache, upstream @ actor.head_w.T, grad.encoder)
        np.matmul(h.T, upstream, out=grad.views["head_w"])
        upstream.sum(axis=0, out=grad.views["head_b"])

    return log_probs, gradient_into
