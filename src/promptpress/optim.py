"""Adam optimizer and global gradient-norm clipping over parameter dicts."""

from __future__ import annotations

import math

import numpy as np


def global_norm(grads: dict[str, np.ndarray]) -> float:
    return math.sqrt(sum(float((g * g).sum()) for g in grads.values()))


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale gradients in place so their global norm is at most max_norm."""
    norm = global_norm(grads)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


class Adam:
    """Standard Adam over a named parameter dict; updates in place."""

    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        # Scratch for the step's intermediates, shared by every parameter:
        # each step uses a view of its first ``size`` entries.
        size = max((v.size for v in params.values()), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One descent step along ``grads`` (pass negated grads to ascend).

        Computes ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
        ``p -= lr (m / bc1) / (sqrt(v / bc2) + eps)`` in that operation
        order, in place on preallocated scratch, so no array memory is
        allocated per step.
        """
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for key, grad in grads.items():
            m = self.m[key]
            v = self.v[key]
            num, den = (a[: grad.size].reshape(grad.shape) for a in self._scratch)
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=num)
            m += num
            v *= self.beta2
            np.multiply(grad, 1.0 - self.beta2, out=num)
            num *= grad
            v += num
            np.divide(m, bc1, out=num)
            num *= self.lr
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            num /= den
            params[key] -= num
