"""Actor: a per-token keep/drop classifier over a transformer encoder.

The actor adds a linear 2-way head per token to a
:class:`TinyTransformerEncoder`. The head starts at zero, so every token
starts at keep probability 0.5. Keep probabilities are floored away from
{0, 1} so log-probabilities and policy ratios stay finite.

Inference has one call, :func:`policy_forward`, over any number of
states: it packs them into encoder passes, optionally run on a thread
pool, and gives each state bitwise what it would get alone.
"""

from __future__ import annotations

import itertools
import math
import queue
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .encoder import EncoderConfig, TinyTransformerEncoder, parameter_shapes
from .env import ActionVector, CompressionState
from .optim import flat_views

PROB_FLOOR = 1e-6


@dataclass(frozen=True)
class PolicyOutput:
    """Per-token action distributions for one state.

    ``keep_probs[i]`` is the floored probability of label 1 for token i;
    ``log_probs[i, a]`` is the log-probability of label a, so the
    log-probability of a selected action vector is
    ``log_probs[arange(L), labels].sum()``.
    """

    keep_probs: np.ndarray
    log_probs: np.ndarray


def actor_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every actor parameter, by name, in storage order: the
    encoder's (prefixed ``enc.``), then the head's."""
    shapes = {f"enc.{k}": shape for k, shape in parameter_shapes(cfg).items()}
    shapes["head_w"] = (cfg.d_model, 2)
    shapes["head_b"] = (2,)
    return shapes


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
        size = sum(math.prod(shape) for shape in actor_shapes(cfg).values())
        actor = cls(cfg, np.zeros(size))
        actor.encoder.initialize(seed)
        return actor

    def parameters(self) -> dict[str, np.ndarray]:
        """Named views of ``flat``, in storage order."""
        return dict(self._params)

    def clone(self) -> "Actor":
        return Actor(self.encoder.cfg, self.flat.copy())


def _softmax2(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _output_from_probs(probs: np.ndarray) -> PolicyOutput:
    kp = np.clip(probs[:, 1], PROB_FLOOR, 1.0 - PROB_FLOOR)
    log_probs = np.stack([np.log1p(-kp), np.log(kp)], axis=1)
    return PolicyOutput(keep_probs=kp, log_probs=log_probs)


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


def _run_in_order(run: Callable, items: Sequence, pool: Executor | None) -> list:
    """``[run(item) for item in items]``, with the items shared out between
    the calling thread and ``pool``'s threads.

    Items are taken in input order, and a thread takes none once it sees
    that one has failed; the first failure in input order is raised when
    every item taken has ended.
    """
    if pool is None or len(items) < 2:
        return [run(item) for item in items]
    results = [None] * len(items)
    errors: dict[int, Exception] = {}
    todo: queue.SimpleQueue[int] = queue.SimpleQueue()
    for index in range(len(items)):
        todo.put(index)

    def drain() -> None:
        while not errors:
            try:
                index = todo.get_nowait()
            except queue.Empty:
                return
            try:
                results[index] = run(items[index])
            except Exception as exc:
                errors[index] = exc

    # One helper per further item: the pool runs as many at once as it
    # has threads, and a helper that finds nothing left returns at once.
    helpers = [pool.submit(drain) for _ in items[1:]]
    drain()
    for helper in helpers:
        helper.result()
    if errors:
        raise errors[min(errors)]
    return results


def policy_forward(
    actor: Actor, states: Sequence[CompressionState], pool: Executor | None = None
) -> list[PolicyOutput]:
    """Per-token keep/drop distributions for each state's current prompt,
    in input order.

    Consecutive states share an encoder pass of at most the encoder's
    ``max_len`` tokens. A 1-token state has a pass of its own, as numpy
    takes a one-row matmul down another BLAS path, and the head runs on
    each state's rows alone; so each output is bitwise the one a call
    with that state alone returns. With ``pool``, the calling thread and
    the pool's threads encode the passes together; the actor is only
    read. If passes fail, the first failing one in input order is raised.
    """
    seqs = [state.current.ids for state in states]
    if not all(seqs):
        raise ValueError("empty state")

    def run(pack: list[int]) -> list[PolicyOutput]:
        lengths = [len(seqs[i]) for i in pack]
        h = actor.encoder.encode([tid for i in pack for tid in seqs[i]], lengths)
        # The head runs on each state's own rows: a two-column matmul
        # gives a row bits that depend on the rows around it.
        return [
            _output_from_probs(_softmax2(h[end - n:end] @ actor.head_w + actor.head_b))
            for n, end in zip(lengths, itertools.accumulate(lengths))
        ]

    packs = _packs([len(seq) for seq in seqs], actor.encoder.cfg.max_len)
    return [out for outs in _run_in_order(run, packs, pool) for out in outs]


def sample_actions(output: PolicyOutput, rng_seed: int) -> tuple[ActionVector, float]:
    """Draw each token's label independently; returns the summed log-prob."""
    rng = np.random.default_rng(rng_seed)
    labels = (rng.random(output.keep_probs.shape[0]) < output.keep_probs).astype(int)
    total = float(output.log_probs[np.arange(labels.size), labels].sum())
    return ActionVector(tuple(int(l) for l in labels)), total


def greedy_actions(output: PolicyOutput, drop_budget: int) -> ActionVector:
    """Deterministic action selection.

    With no budget, drop every token whose keep probability is below
    0.5. With a budget, drop exactly min(budget, L - 1) tokens with the
    lowest keep probabilities (ties drop the higher index first). Both
    variants keep at least one token.
    """
    if drop_budget < 0:
        raise ValueError("drop_budget must be >= 0")
    kp = output.keep_probs
    n = kp.shape[0]
    if drop_budget == 0:
        labels = (kp >= 0.5).astype(int)
        if labels.sum() == 0:
            labels[int(np.argmax(kp))] = 1
        return ActionVector(tuple(int(l) for l in labels))
    n_drop = min(drop_budget, n - 1)
    # ascending keep prob; among equals the higher index sorts first
    order = np.lexsort((-np.arange(n), kp))
    labels = np.ones(n, dtype=int)
    labels[order[:n_drop]] = 0
    return ActionVector(tuple(int(l) for l in labels))


def packed_action_log_probs(
    actor: Actor, seqs: Sequence[Sequence[int]], labels: Sequence[Sequence[int]]
) -> tuple[np.ndarray, Callable[[np.ndarray], dict[str, np.ndarray]]]:
    """Log-probability of each action vector ``labels[j]`` on ``seqs[j]``.

    One encoder forward pass covers the whole pack. The returned function
    maps per-sequence coefficients c to the gradient of
    sum_j c_j * log_prob_j w.r.t. every actor parameter, in one backward
    pass; call it at most once, as the backward consumes the forward's
    cache. Tokens whose keep probability sits at the floor get zero
    gradient, matching the clamped forward value. Requires a trainable
    encoder (forward/backward).
    """
    lengths = [len(seq) for seq in seqs]
    if [len(l) for l in labels] != lengths:
        raise ValueError("each label vector must match its sequence's length")
    ids = [tid for seq in seqs for tid in seq]
    h, cache = actor.encoder.forward(ids, lengths)
    logits = h @ actor.head_w + actor.head_b
    probs = _softmax2(logits)
    out = _output_from_probs(probs)
    rows = np.arange(len(ids))
    idx = np.asarray([a for l in labels for a in l], dtype=int)
    picked = out.log_probs[rows, idx]
    ends = list(itertools.accumulate(lengths))
    log_probs = np.array([picked[s:e].sum() for s, e in zip([0] + ends[:-1], ends)])

    def gradient_of(coeffs: np.ndarray) -> dict[str, np.ndarray]:
        dlogits = -probs
        dlogits[rows, idx] += 1.0
        unclamped = (probs[:, 1] > PROB_FLOOR) & (probs[:, 1] < 1.0 - PROB_FLOOR)
        dlogits[~unclamped] = 0.0
        dlogits *= np.repeat(np.asarray(coeffs, dtype=float), lengths)[:, None]
        enc_grads = actor.encoder.backward(cache, dlogits @ actor.head_w.T)
        grads = {f"enc.{k}": v for k, v in enc_grads.items()}
        grads["head_w"] = h.T @ dlogits
        grads["head_b"] = dlogits.sum(axis=0)
        return grads

    return log_probs, gradient_of

