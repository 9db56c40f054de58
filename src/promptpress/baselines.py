"""Comparison compressors: random deletion, self-information ranking, and
the trained policy wrapped behind the same interface."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .policy import Actor, apply_action, greedy_actions, policy_forward, seed_for
from .scoring import NgramLM
from .text import TokenSequence


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def keep_count(length: int, rho_target: float) -> int:
    """Tokens to keep for a target rate: max(1, round(rho * L))."""
    return max(1, _round_half_up(rho_target * length))


class Compressor(Protocol):
    """Corpus-in, kept-subsequences-out: ``compress(seqs)[i]`` is kept
    from ``seqs[i]``, and a seeded method seeds prompt i by its index."""

    name: str

    def compress(self, seqs: Sequence[TokenSequence]) -> list[TokenSequence]: ...


def random_compress(seq: TokenSequence, rho_target: float, seed: int) -> TokenSequence:
    """Keep a uniformly random subset of exactly max(1, round(rho*L)) tokens."""
    if not 0.0 < rho_target <= 1.0:
        raise ValueError("rho_target must be in (0, 1]")
    n = len(seq)
    k = keep_count(n, rho_target)
    rng = np.random.default_rng(seed)
    kept_idx = np.sort(rng.choice(n, size=k, replace=False))
    return TokenSequence(tuple(seq.ids[int(i)] for i in kept_idx))


def selfinfo_compress(
    seq: TokenSequence, lm: NgramLM, rho_target: float
) -> TokenSequence:
    """Keep the tokens with the highest self-information under the model.

    Token i scores -ln P(token_i | tokens_<i), all of them from one
    ``lm.token_probs`` query; ties keep the earlier token. Order is
    preserved.
    """
    if not 0.0 < rho_target <= 1.0:
        raise ValueError("rho_target must be in (0, 1]")
    n = len(seq)
    k = keep_count(n, rho_target)
    scores = np.array([-math.log(max(p, 1e-300)) for p in lm.token_probs(seq)])
    # descending score; among equals the earlier index sorts first
    order = np.lexsort((np.arange(n), -scores))
    kept_idx = np.sort(order[:k])
    return TokenSequence(tuple(seq.ids[int(i)] for i in kept_idx))


@dataclass(frozen=True)
class IdentityCompressor:
    name: str = "identity"

    def compress(self, seqs: Sequence[TokenSequence]) -> list[TokenSequence]:
        return list(seqs)


@dataclass(frozen=True)
class RandomCompressor:
    rho_target: float
    seed: int
    name: str = "random"

    def compress(self, seqs: Sequence[TokenSequence]) -> list[TokenSequence]:
        # deterministic per (seed, index) so prompts get distinct subsets
        return [
            random_compress(seq, self.rho_target, seed_for(self.seed, index))
            for index, seq in enumerate(seqs)
        ]


@dataclass(frozen=True)
class SelfInfoCompressor:
    lm: NgramLM
    rho_target: float
    name: str = "selfinfo"

    def compress(self, seqs: Sequence[TokenSequence]) -> list[TokenSequence]:
        return [selfinfo_compress(seq, self.lm, self.rho_target) for seq in seqs]


@dataclass(frozen=True)
class PolicyCompressor:
    """Greedy inference-time use of a trained actor.

    Each of the k steps drops enough of the lowest-keep-probability
    tokens to land on ``rho_target`` by the final step. A step whose goal
    a prompt already meets skips that prompt: a drop budget of 0 would
    mean 0.5-thresholding and could overshoot the target. The corpus
    moves step by step, with one :func:`policy_forward` call per step
    over the current prompt of every prompt still to compress.
    """

    actor: Actor
    rho_target: float
    steps: int = 1
    name: str = "policy"

    def compress(self, seqs: Sequence[TokenSequence]) -> list[TokenSequence]:
        current = list(seqs)
        for step in range(self.steps):
            # per-step relative keep rate compounding to the target
            per_step = self.rho_target ** ((step + 1) / self.steps)
            budgets = [
                len(cur) - keep_count(len(seq), per_step)
                for cur, seq in zip(current, seqs)
            ]
            active = [i for i, budget in enumerate(budgets) if budget > 0]
            outputs = policy_forward(self.actor, [current[i] for i in active])
            for i, keep_probs in zip(active, outputs):
                labels = greedy_actions(keep_probs, budgets[i])
                current[i] = apply_action(current[i], labels, keep_probs)
        return current
