"""Per-step reward: compression ratio, retention, divergence, band penalties.

The scalar reward for reaching compressed prompt st from original s0 is

    alpha * (1 / rho) + beta * D(s0, st) - gamma * KL_term
        - 1[rho < c_s] * p_s - 1[rho > c_l] * p_l

with rho = |st| / |s0|. The band (c_s, c_l) is not configuration here: the
curriculum schedule owns it, validates it, and passes each step's band
in. The indicator comparisons are strict, so boundary values are
penalty-free.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .scoring import IdfRetentionScorer, ProxyLM, output_distribution_kl
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


class Band(enum.Enum):
    BELOW = "below"
    INSIDE = "inside"
    ABOVE = "above"


def in_band(rho: float, bounds: tuple[float, float]) -> Band:
    """Position of rho relative to bounds = (c_s, c_l); boundaries count
    as inside."""
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must be in (0, 1]")
    c_s, c_l = bounds
    if rho < c_s:
        return Band.BELOW
    if rho > c_l:
        return Band.ABOVE
    return Band.INSIDE


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
    step's band."""
    band = in_band(rho, bounds)
    if band is Band.BELOW:
        penalty = cfg.p_s
    elif band is Band.ABOVE:
        penalty = cfg.p_l
    else:
        penalty = 0.0
    return RewardBreakdown(
        ratio_term=cfg.alpha * (1.0 / rho),
        retention_term=cfg.beta * retention,
        kl_term=cfg.gamma * kl,
        penalty=penalty,
    )


def compute_reward(
    s0: TokenSequence,
    st: TokenSequence,
    cfg: RewardConfig,
    bounds: tuple[float, float],
    retention: IdfRetentionScorer,
    lm: ProxyLM,
    n_gen: int,
) -> RewardBreakdown:
    """Score a compressed prompt st against its original s0 under the
    band ``bounds`` = (c_s, c_l).

    The divergence term averages over ``n_gen`` positions of s0's greedy
    continuation (``output_distribution_kl``). With gamma = 0 it is not
    evaluated at all.
    """
    if len(s0) == 0 or len(st) == 0:
        raise ValueError("empty prompt")
    rho = len(st) / len(s0)
    d = retention.score(s0, st)
    kl = 0.0
    if cfg.gamma > 0.0:
        kl = output_distribution_kl(lm, s0, st, n_gen)
    return assemble_reward(rho, d, kl, cfg, bounds)
