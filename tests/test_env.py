"""Environment tests: transitions, compression rate, fuzz."""

import numpy as np
import pytest

from promptpress.env import (
    ActionVector,
    CompressionState,
    apply_action,
    compression_rate,
    reset,
)
from promptpress.text import TokenSequence


def seq(*ids):
    return TokenSequence(tuple(ids))


class TestReset:
    def test_initial_state(self):
        state = reset(seq(1, 2, 3))
        assert state.current == state.original == seq(1, 2, 3)

    def test_rho_is_one_at_reset(self):
        state = reset(TokenSequence(tuple(range(100))))
        assert compression_rate(state) == 1.0

    def test_purity(self):
        prompt = seq(4, 5)
        assert reset(prompt) == reset(prompt)

    def test_empty_prompt(self):
        with pytest.raises(ValueError, match="empty prompt"):
            reset(TokenSequence(()))


class TestApplyAction:
    def test_direct_application(self):
        state = reset(seq(10, 11, 12))
        nxt = apply_action(state, ActionVector((1, 0, 1)), [0.9, 0.1, 0.8])
        assert nxt.current == seq(10, 12)
        assert nxt.original == state.original

    def test_identity_action(self):
        state = reset(seq(1, 2))
        nxt = apply_action(state, ActionVector((1, 1)), [0.9, 0.8])
        assert nxt.current == state.current

    def test_length_mismatch(self):
        state = reset(seq(1, 2, 3))
        with pytest.raises(ValueError, match="action/sequence length mismatch"):
            apply_action(state, ActionVector((1, 0)), [0.9, 0.1])

    def test_input_state_not_mutated(self):
        state = reset(seq(1, 2, 3))
        before = (state.original, state.current)
        apply_action(state, ActionVector((0, 1, 0)), [0.1, 0.9, 0.2])
        assert (state.original, state.current) == before

    def test_all_zeros_force_keeps_highest_keep_prob(self):
        state = reset(seq(7, 8, 9))
        nxt = apply_action(state, ActionVector((0, 0, 0)), keep_probs=[0.1, 0.9, 0.4])
        assert nxt.current == seq(8)

    def test_all_zeros_tie_keeps_lowest_index(self):
        state = reset(seq(7, 8, 9))
        nxt = apply_action(state, ActionVector((0, 0, 0)), keep_probs=[0.5, 0.5, 0.5])
        assert nxt.current == seq(7)

    def test_fuzz_matches_filter_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            n = int(rng.integers(1, 30))
            ids = tuple(int(x) for x in rng.integers(0, 50, size=n))
            labels = tuple(int(x) for x in rng.integers(0, 2, size=n))
            if sum(labels) == 0:
                labels = labels[:-1] + (1,)
            state = reset(TokenSequence(ids))
            nxt = apply_action(state, ActionVector(labels), np.full(n, 0.5))
            expected = tuple(t for t, l in zip(ids, labels) if l == 1)
            assert nxt.current.ids == expected


class TestCompressionRate:
    def test_half(self):
        original = TokenSequence(tuple(range(100)))
        state = CompressionState(
            original=original, current=TokenSequence(tuple(range(50)))
        )
        assert compression_rate(state) == 0.5

    def test_identity(self):
        state = reset(seq(1, 2, 3))
        assert compression_rate(state) == 1.0

    def test_random_episode_recount(self):
        rng = np.random.default_rng(0)
        ids = tuple(int(x) for x in rng.integers(0, 9, size=40))
        state = reset(TokenSequence(ids))
        for _ in range(3):
            labels = tuple(int(x) for x in rng.integers(0, 2, size=len(state.current)))
            state = apply_action(state, ActionVector(labels), keep_probs=rng.random(len(labels)))
            assert compression_rate(state) == len(state.current.ids) / len(ids)


class TestInvariants:
    @staticmethod
    def _is_subsequence(sub, full):
        it = iter(full)
        return all(any(x == y for y in it) for x in sub)

    def test_fuzz_episode_invariants(self):
        rng = np.random.default_rng(123)
        for _ in range(2_000):
            n = int(rng.integers(1, 40))
            ids = tuple(int(x) for x in rng.integers(0, 12, size=n))
            state = reset(TokenSequence(ids))
            prev_len = len(state.current)
            prev_rho = compression_rate(state)
            for _ in range(int(rng.integers(1, 4))):
                labels = tuple(int(x) for x in rng.integers(0, 2, size=len(state.current)))
                probs = rng.random(len(labels))
                state = apply_action(state, ActionVector(labels), keep_probs=probs)
                assert len(state.current) >= 1
                assert len(state.current) <= prev_len
                rho = compression_rate(state)
                assert 0.0 < rho <= 1.0
                assert rho <= prev_rho
                assert self._is_subsequence(state.current.ids, ids)
                prev_len = len(state.current)
                prev_rho = rho

    def test_state_validates_subsequence(self):
        with pytest.raises(ValueError):
            CompressionState(original=seq(1, 2), current=seq(2, 1))

    def test_transitions_skip_the_check_but_build_equal_states(self):
        # reset and apply_action make subsequences by construction and skip
        # the check; what they build equals the checked constructor's.
        original = seq(5, 6, 7, 8)
        state = reset(original)
        checked = CompressionState(original=original, current=original)
        assert state == checked and hash(state) == hash(checked)
        nxt = apply_action(state, ActionVector((0, 1, 0, 1)), [0.2, 0.8, 0.3, 0.7])
        checked = CompressionState(original=original, current=seq(6, 8))
        assert nxt == checked and hash(nxt) == hash(checked)
        with pytest.raises(ValueError):
            CompressionState(original=original, current=seq(8, 6))
