"""Adam and global gradient-norm clipping over one flat parameter
vector and its gradient, and the named views that lay the parameters
over such a vector.

Both work on the whole vector at once rather than parameter by
parameter. Clipping still sums the squared norm per parameter view, in
order, and Adam is elementwise, so each gives bitwise what a loop over
the views gives.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

# Adam's moment decay rates and denominator floor (Kingma & Ba, 2015).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


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


def clip_gradients(
    grad: np.ndarray, parts: Iterable[np.ndarray], max_norm: float
) -> float:
    """Scale ``grad`` in place so its norm is at most max_norm; returns
    the norm before scaling.

    ``parts`` are views that tile ``grad``, one per parameter in storage
    order; the squared norm is their partial sums added in that order.
    """
    norm = math.sqrt(sum(float((g * g).sum()) for g in parts))
    if norm > max_norm and norm > 0.0:
        grad *= max_norm / norm
    return norm


class Adam:
    """Standard Adam, at ``BETA1``, ``BETA2`` and ``EPS``, over the
    parameters laid out in one flat vector.

    ``params`` names the parameters, in storage order, only for their
    sizes. The first and second moments are one vector each, ``m`` and
    ``v``, laid out like the parameter vector; ``moments`` adopts a saved
    (m, v) pair as that storage instead of zeros.
    """

    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float,
        moments: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        self.lr = lr
        self.t = 0
        if moments is None:
            size = sum(p.size for p in params.values())
            moments = (np.zeros(size), np.zeros(size))
        self.m, self.v = moments
        # Scratch for the step's intermediates: a step runs over the
        # vector in chunks of its size, no larger than the largest
        # parameter.
        size = max((p.size for p in params.values()), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """One descent step of the flat ``params`` along the flat ``grad``
        (pass a negated gradient to ascend).

        Computes ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
        ``p -= lr (m / bc1) / (sqrt(v / bc2) + eps)`` in that operation
        order, in place on preallocated scratch, so no array memory is
        allocated per step.
        """
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        chunk = self._scratch[0].size
        for start in range(0, grad.size, chunk):
            end = start + chunk
            g, m, v = grad[start:end], self.m[start:end], self.v[start:end]
            num, den = (a[: g.size] for a in self._scratch)
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=num)
            m += num
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=num)
            num *= g
            v += num
            np.divide(m, bc1, out=num)
            num *= self.lr
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += EPS
            num /= den
            params[start:end] -= num
