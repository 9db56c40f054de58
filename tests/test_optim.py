"""Optimizer tests: the in-place Adam step is bitwise the textbook one."""

import numpy as np

from promptpress.optim import Adam


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


def test_five_steps_bitwise_equal_to_reference():
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
    want, want_m, want_v = reference_adam(params, grads_per_step, lr=1e-3)

    got = {k: v.copy() for k, v in params.items()}
    opt = Adam(got, lr=1e-3)
    for grads in grads_per_step:
        opt.step(got, grads)
    for key in params:
        assert got[key].tobytes() == want[key].tobytes(), key
        assert opt.m[key].tobytes() == want_m[key].tobytes(), key
        assert opt.v[key].tobytes() == want_v[key].tobytes(), key
    assert np.array_equal(got["frozen"], params["frozen"])
    assert opt.t == 5
