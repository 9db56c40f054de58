"""Adam optimizer and global gradient-norm clipping over parameter dicts,
and the named views that lay a parameter dict over one flat vector."""

from __future__ import annotations

import math

import numpy as np


def flat_views(
    flat: np.ndarray, shapes: dict[str, tuple[int, ...]]
) -> dict[str, np.ndarray]:
    """Named views into consecutive runs of the 1-d float64 vector
    ``flat``, one per shape in order; the sizes must add up to its length.

    Writing into a view writes into ``flat``, and the reverse.
    """
    sizes = [math.prod(shape) for shape in shapes.values()]
    if flat.dtype != np.float64 or flat.shape != (sum(sizes),):
        raise ValueError(
            f"expected a float64 vector of shape ({sum(sizes)},), got "
            f"{flat.dtype} {flat.shape}"
        )
    views = {}
    offset = 0
    for (name, shape), size in zip(shapes.items(), sizes):
        views[name] = flat[offset:offset + size].reshape(shape)
        offset += size
    return views


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
    """Standard Adam over a named parameter dict; updates in place.

    The first and second moments are one vector each, ``m`` and ``v``,
    laid out like the parameters in dict order; a step works on their
    named views. ``moments`` adopts a saved (m, v) pair as that storage
    instead of zeros.
    """

    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        moments: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        shapes = {k: p.shape for k, p in params.items()}
        if moments is None:
            size = sum(p.size for p in params.values())
            moments = (np.zeros(size), np.zeros(size))
        self.m, self.v = moments
        self._m = flat_views(self.m, shapes)
        self._v = flat_views(self.v, shapes)
        # Scratch for the step's intermediates, shared by every parameter:
        # each step uses a view of its first ``size`` entries.
        size = max((p.size for p in params.values()), default=0)
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
            m = self._m[key]
            v = self._v[key]
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
