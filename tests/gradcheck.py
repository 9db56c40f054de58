"""Central finite-difference gradient checking shared by test modules, the
single-sequence gradient the checks compare against, and the unpacked
scalar objectives the finite differences are taken of."""

import math

import numpy as np

from promptpress.policy import packed_action_log_probs, policy_forward
from promptpress.text import TokenSequence

# Relative error with a small absolute floor: below the floor both the
# analytic and numeric values are dominated by round-off noise.
REL_TOL = 1e-4
DENOM_FLOOR = 1e-4


def max_relative_error(
    params: dict[str, np.ndarray],
    analytic: dict[str, np.ndarray],
    f,
    h_scale: float = 1e-5,
) -> tuple[float, str]:
    """Worst relative error between analytic grads and central differences.

    Perturbs every coordinate of every parameter in place and restores it.
    """
    worst = 0.0
    worst_key = ""
    for key, arr in params.items():
        grad = analytic[key]
        flat = arr.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            h = h_scale * max(1.0, abs(orig))
            flat[i] = orig + h
            f_plus = f()
            flat[i] = orig - h
            f_minus = f()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), DENOM_FLOOR)
            if rel > worst:
                worst = rel
                worst_key = f"{key}[{i}]"
    return worst, worst_key


def packed_log_prob_and_grad(actor, ids, labels):
    """Log-probability of one action vector and its gradient, as a pack of one."""
    log_probs, gradient_of = packed_action_log_probs(actor, [ids], [labels])
    return float(log_probs[0]), gradient_of(np.ones(1))



def action_log_prob(actor, ids, labels):
    """Log-probability of one action vector, from the single-sequence
    inference forward (``policy_forward``)."""
    (keep_probs,) = policy_forward(actor, [TokenSequence(tuple(ids))])
    keep = np.asarray(labels, dtype=int) == 1
    return float(np.where(keep, np.log(keep_probs), np.log1p(-keep_probs)).sum())


def ppo_objective(batch, actor, clip_eps):
    """Mean clipped surrogate min(delta A, clip(delta) A) of (step,
    advantage) pairs, one sequence at a time: the reference the packed
    ``trainer.ppo_objective_and_grads`` is checked against."""
    total = 0.0
    for step, advantage in batch:
        new_lp = action_log_prob(actor, step.current.ids, step.labels)
        delta = math.exp(new_lp - step.old_log_prob)
        clipped = min(max(delta, 1.0 - clip_eps), 1.0 + clip_eps)
        total += min(delta * advantage, clipped * advantage)
    return total / len(batch)
