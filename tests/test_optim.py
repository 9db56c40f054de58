"""Optimizer tests: the in-place Adam step is bitwise the textbook one,
on moments kept as one flat vector each."""

import numpy as np
import pytest

from promptpress.optim import Adam, flat_views


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


def test_five_steps_bitwise_equal_to_reference():
    params, grads_per_step = _problem()
    want, want_m, want_v = reference_adam(params, grads_per_step, lr=1e-3)

    got = {k: v.copy() for k, v in params.items()}
    opt = Adam(got, lr=1e-3)
    for grads in grads_per_step:
        opt.step(got, grads)
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
    got = flat_views(flat, {k: v.shape for k, v in params.items()})
    first = Adam(got, lr=1e-3)
    for grads in grads_per_step[:3]:
        first.step(got, grads)
    m, v = first.m.copy(), first.v.copy()
    second = Adam(got, lr=1e-3, moments=(m, v))
    second.t = first.t
    for grads in grads_per_step[3:]:
        second.step(got, grads)
    assert second.m is m and second.v is v
    assert flat.tobytes() == _flat(want).tobytes()
    assert m.tobytes() == _flat(want_m).tobytes()
    assert v.tobytes() == _flat(want_v).tobytes()


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
