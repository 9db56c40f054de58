"""Central finite-difference gradient checking shared by test modules, and
the single-sequence gradient the checks compare against."""

import numpy as np

from promptpress.policy import packed_action_log_probs

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

