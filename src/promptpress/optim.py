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

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One descent step along ``grads`` (pass negated grads to ascend)."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for key, grad in grads.items():
            m = self.m[key]
            v = self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            params[key] -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
