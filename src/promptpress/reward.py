"""Per-step reward: compression ratio, retention, divergence, band penalties.

The scalar reward for reaching compressed prompt st from original s0 is

    alpha * (1 / rho) + beta * D(s0, st) - gamma * KL_term
        - 1[rho < c_s] * p_s - 1[rho > c_l] * p_l

with rho = |st| / |s0|, D the IDF-weighted retention and KL_term the
proxy LM's output divergence, both from ``scoring``. :class:`Scorers`
holds the retention scorer, the proxy LM and ``n_gen``. The band
(c_s, c_l) is not configuration here: the curriculum schedule owns it,
validates it, and passes each step's band in. The indicator comparisons
are strict, so boundary values are penalty-free.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .scoring import IdfRetentionScorer, NgramLM, output_distribution_kl
from .text import TokenSequence


@dataclass(frozen=True)
class RewardConfig:
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    p_s: float = 200.0
    p_l: float = 100.0

    def __post_init__(self) -> None:
        weights = (self.alpha, self.beta, self.gamma, self.p_s, self.p_l)
        if not all(math.isfinite(w) for w in weights):
            raise ValueError("reward weights and penalties must be finite")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError("alpha, beta, gamma must be >= 0")
        if self.p_s < 0 or self.p_l < 0:
            raise ValueError("penalties must be >= 0")


@dataclass(frozen=True)
class Scorers:
    """Reward ingredients: the retention scorer, the proxy LM and
    ``n_gen``, the number of reference positions the divergence term
    averages over. It scores at most the proxy's ``context_window`` of
    them, the first alone for a bigram proxy, as every later term is 0;
    past that window ``n_gen`` only scales the term, as gamma does."""

    retention: IdfRetentionScorer
    lm: NgramLM
    n_gen: int = 32

    def __post_init__(self) -> None:
        # The divergence term divides by n_gen as a float.
        if not 1 <= self.n_gen <= sys.float_info.max:
            raise ValueError("n_gen must be >= 1 and at most the largest float")


@dataclass(frozen=True)
class RewardBreakdown:
    """Diagnostic decomposition; total is the exact sum of its parts."""

    ratio_term: float
    retention_term: float
    kl_term: float
    penalty: float

    @property
    def total(self) -> float:
        return self.ratio_term + self.retention_term - self.kl_term - self.penalty


def assemble_reward(
    rho: float,
    retention: float,
    kl: float,
    cfg: RewardConfig,
    bounds: tuple[float, float],
) -> RewardBreakdown:
    """Assemble the reward from its three measured ingredients and the
    step's band ``bounds`` = (c_s, c_l); rho must be in (0, 1]."""
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must be in (0, 1]")
    c_s, c_l = bounds
    return RewardBreakdown(
        ratio_term=cfg.alpha * (1.0 / rho),
        retention_term=cfg.beta * retention,
        kl_term=cfg.gamma * kl,
        penalty=cfg.p_s if rho < c_s else cfg.p_l if rho > c_l else 0.0,
    )


def compute_reward(
    s0: TokenSequence,
    st: TokenSequence,
    cfg: RewardConfig,
    bounds: tuple[float, float],
    scorers: Scorers,
) -> RewardBreakdown:
    """Score a compressed prompt st against its original s0 under the
    band ``bounds`` = (c_s, c_l).

    The divergence term averages over ``scorers.n_gen`` positions of
    s0's greedy continuation (``output_distribution_kl``). With gamma = 0
    it is not evaluated at all.
    """
    if len(s0) == 0 or len(st) == 0:
        raise ValueError("empty prompt")
    rho = len(st) / len(s0)
    d = scorers.retention.score(s0, st)
    kl = 0.0
    if cfg.gamma > 0.0:
        kl = output_distribution_kl(scorers.lm, s0, st, scorers.n_gen)
    return assemble_reward(rho, d, kl, cfg, bounds)
