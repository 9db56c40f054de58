"""Optimizer tests: the in-place Adam step over one flat vector is bitwise
the textbook one, and clipping plus Adam over the flat vector is bitwise
the same steps taken parameter view by parameter view."""

import math

import numpy as np
import pytest

from promptpress.encoder import EncoderConfig
from promptpress.optim import Adam, clip_gradients, flat_views
from promptpress.policy import actor_shapes


def reference_adam(params, grads_per_step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam written as plain array expressions, one temporary per operation."""
    params = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(x) for k, x in params.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        for key, grad in grads.items():
            m[key] *= beta1
            m[key] += (1.0 - beta1) * grad
            v[key] *= beta2
            v[key] += (1.0 - beta2) * grad * grad
            params[key] -= lr * (m[key] / bc1) / (np.sqrt(v[key] / bc2) + eps)
    return params, m, v


def per_view_clip(grads, max_norm):
    """Gradient clipping one named array at a time: the norm summed per
    array in dict order, then each array scaled."""
    norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


class PerViewAdam:
    """Adam stepping one named array at a time, on scratch the size of the
    largest, in the operation order of the program's step."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}
        size = max(p.size for p in params.values())
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, params, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for key, grad in grads.items():
            m, v = self.m[key], self.v[key]
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


def _problem():
    rng = np.random.default_rng(0)
    # Parameters on the scale of an Adam update (about lr), so that a
    # rounding difference in the update shows in the parameter.
    params = {
        "w": rng.normal(scale=1e-3, size=(7, 5)),
        "b": rng.normal(scale=1e-3, size=5),
        "frozen": rng.normal(size=(3, 4)),
    }
    grads_per_step = [
        {
            "w": rng.normal(scale=10.0 ** rng.integers(-6, 3), size=(7, 5)),
            "b": rng.normal(size=5),
            "frozen": np.zeros((3, 4)),  # a parameter whose gradient is zero
        }
        for _ in range(5)
    ]
    return params, grads_per_step


def _flat(arrays):
    """The named arrays laid end to end, in dict order."""
    return np.concatenate([a.ravel() for a in arrays.values()])


def _shapes(arrays):
    return {k: a.shape for k, a in arrays.items()}


def test_five_steps_bitwise_equal_to_reference():
    params, grads_per_step = _problem()
    want, want_m, want_v = reference_adam(params, grads_per_step, lr=1e-3)

    flat = _flat(params)
    got = flat_views(flat, _shapes(params))
    opt = Adam(got, lr=1e-3)
    for grads in grads_per_step:
        opt.step(flat, _flat(grads))
    for key in params:
        assert got[key].tobytes() == want[key].tobytes(), key
    # The moments are one vector each, laid out like the parameters.
    assert opt.m.tobytes() == _flat(want_m).tobytes()
    assert opt.v.tobytes() == _flat(want_v).tobytes()
    assert np.array_equal(got["frozen"], params["frozen"])
    assert opt.t == 5
    # The step's scratch is no larger than the largest parameter.
    assert all(a.size == 35 for a in opt._scratch)


def test_adopted_moments_continue_bitwise():
    # Three steps, then a new optimizer over the same parameters that
    # adopts the saved moments and step count, then two more steps: the
    # result is the five-step run's, and the adopted vectors are the
    # storage the steps write into.
    params, grads_per_step = _problem()
    want, want_m, want_v = reference_adam(params, grads_per_step, lr=1e-3)

    flat = _flat(params)
    got = flat_views(flat, _shapes(params))
    first = Adam(got, lr=1e-3)
    for grads in grads_per_step[:3]:
        first.step(flat, _flat(grads))
    m, v = first.m.copy(), first.v.copy()
    second = Adam(got, lr=1e-3, moments=(m, v))
    second.t = first.t
    for grads in grads_per_step[3:]:
        second.step(flat, _flat(grads))
    assert second.m is m and second.v is v
    assert flat.tobytes() == _flat(want).tobytes()
    assert m.tobytes() == _flat(want_m).tobytes()
    assert v.tobytes() == _flat(want_v).tobytes()


@pytest.mark.parametrize("grad_scale", [1e-3, 3.0], ids=["unclipped", "clipped"])
def test_clipped_ascent_steps_match_per_view_steps_bitwise(grad_scale):
    # Clip, negate and step as training does, on the actor's layout, whose
    # parameters vary in size so that the last chunk of a step is partial,
    # against the same steps taken one parameter view at a time.
    shapes = actor_shapes(EncoderConfig(vocab_size=11, d_model=8, n_heads=2,
                                        n_layers=2, d_ff=16, max_len=8))
    rng = np.random.default_rng(1)
    size = sum(math.prod(s) for s in shapes.values())
    start = rng.normal(scale=0.02, size=size)
    flat = start.copy()
    params = flat_views(flat, shapes)
    ref_params = flat_views(start.copy(), shapes)
    opt = Adam(params, lr=1e-2)
    ref_opt = PerViewAdam(ref_params, lr=1e-2)
    assert size % opt._scratch[0].size != 0
    grad = np.empty(size)
    norms = []
    for _ in range(4):
        grad[...] = rng.normal(scale=grad_scale, size=size)
        ref_grads = {k: v.copy() for k, v in flat_views(grad, shapes).items()}
        norm = clip_gradients(grad, flat_views(grad, shapes).values(), 1.0)
        np.negative(grad, out=grad)
        opt.step(flat, grad)
        assert norm == per_view_clip(ref_grads, 1.0)
        for g in ref_grads.values():
            np.negative(g, out=g)
        ref_opt.step(ref_params, ref_grads)
        assert grad.tobytes() == _flat(ref_grads).tobytes()
        assert flat.tobytes() == _flat(ref_params).tobytes()
        assert opt.m.tobytes() == _flat(ref_opt.m).tobytes()
        assert opt.v.tobytes() == _flat(ref_opt.v).tobytes()
        norms.append(norm)
    assert all((n > 1.0) == (grad_scale > 1.0) for n in norms)


def test_flat_views_share_memory_and_check_length():
    flat = np.arange(10.0)
    views = flat_views(flat, {"a": (2, 3), "b": (4,)})
    assert np.shares_memory(views["a"], flat) and np.shares_memory(views["b"], flat)
    views["b"][...] = -1.0
    assert np.array_equal(flat[6:], [-1.0] * 4)
    assert np.array_equal(views["a"], np.arange(6.0).reshape(2, 3))
    for bad in (np.zeros(9), np.zeros(11), np.zeros((2, 5)), np.zeros(10, dtype=np.float32)):
        with pytest.raises(ValueError, match="expected a float64 vector of shape"):
            flat_views(bad, {"a": (2, 3), "b": (4,)})
