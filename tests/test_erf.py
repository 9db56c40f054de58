"""The encoder's numpy erf against ``scipy.special.erf``, the reference it
reproduces: bit for bit, sign bits included, on random samples over many
scales, on edge cases, and through whole encoder passes whose GELU
inputs reach the erfc tail (|erf argument| > 1)."""

import numpy as np
import pytest

from gradcheck import encoder_gradients
from promptpress import encoder
from promptpress.encoder import EncoderConfig, _erf_in_place
from promptpress.policy import Actor

special = pytest.importorskip("scipy.special")


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _assert_erf_bitwise(x):
    expected = special.erf(x)
    got = _erf_in_place(np.array(x, dtype=np.float64))
    mismatched = np.flatnonzero(_bits(got) != _bits(expected))
    assert mismatched.size == 0, (
        f"{mismatched.size} mismatches, first at x={x.flat[mismatched[0]]!r}: "
        f"{got.flat[mismatched[0]]!r} != {expected.flat[mismatched[0]]!r}"
    )


@pytest.mark.parametrize("scale", [0.05, 0.3, 1.0, 3.0, 10.0, 1e3])
def test_random_samples_match_scipy_bitwise(scale):
    # 6 scales x 200,000 = 1.2 M samples.
    x = np.random.default_rng(int(scale * 1000)).normal(0.0, scale, size=(400, 500))
    _assert_erf_bitwise(x)


def test_dense_grid_over_the_tail_matches_scipy_bitwise():
    _assert_erf_bitwise(np.linspace(-6.5, 6.5, 260_001))


def test_edge_cases_match_scipy_bitwise():
    one_up = np.nextafter(1.0, 2.0)
    values = [0.0, 1.0, one_up, 5.999999, 6.0, 8.0, 27.0, 1e308, 5e-324, np.inf]
    x = np.array(values + [-v for v in values] + [np.nan])
    _assert_erf_bitwise(x)
    got = _erf_in_place(x.copy())
    assert np.signbit(got[len(values)])  # erf(-0.0) is -0.0
    assert np.isnan(got[-1])
    assert got[values.index(6.0)] == 1.0 and got[values.index(np.inf)] == 1.0


def test_calls_of_changing_size_match_scipy_bitwise():
    # The scratch buffers are reused: larger and smaller calls alternate.
    rng = np.random.default_rng(5)
    for n in (5000, 7, 1, 20_000, 300):
        _assert_erf_bitwise(rng.normal(0.0, 2.0, size=n))


def _scipy_erf_in_place(x):
    return special.erf(x, out=x)


CFG = EncoderConfig(vocab_size=40, d_model=16, n_heads=2, n_layers=2, d_ff=32,
                    max_len=64)


def _encoder_with_large_gelu_inputs():
    """An encoder whose feed-forward input weights are scaled up, so that
    many erf arguments lie outside [-1, 1]."""
    enc = Actor.build(CFG, seed=0).encoder
    for i in range(CFG.n_layers):
        enc.params[f"l{i}.w1"] *= 60.0
    return enc


def _run_passes(enc, ids, lengths):
    h, cache = enc.forward(ids, lengths)
    grads = encoder_gradients(enc, cache, np.cos(h))
    return enc.encode(ids, lengths), h, grads


def test_encoder_passes_match_scipy_erf_bitwise(monkeypatch):
    enc = _encoder_with_large_gelu_inputs()
    lengths = (30, 1, 64, 9)
    ids = np.random.default_rng(1).integers(0, CFG.vocab_size, sum(lengths))

    largest = []

    def recording(x):
        largest.append(float(np.abs(x).max()))
        return _erf_in_place(x)

    monkeypatch.setattr(encoder, "_erf_in_place", recording)
    encoded, h, grads = _run_passes(enc, ids, lengths)
    assert max(largest) > 6.0  # the tail and the saturated branch both ran

    monkeypatch.setattr(encoder, "_erf_in_place", _scipy_erf_in_place)
    encoded_ref, h_ref, grads_ref = _run_passes(enc, ids, lengths)

    assert np.array_equal(_bits(encoded), _bits(encoded_ref))
    assert np.array_equal(_bits(h), _bits(h_ref))
    for name, grad in grads.items():
        assert np.array_equal(_bits(grad), _bits(grads_ref[name])), name
