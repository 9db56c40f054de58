"""Baseline compressor tests: keep counts, random deletion, self-information
ranking, and the policy compressor's landing on the target rate."""

import numpy as np
import pytest

from conftest import dense_probs
from promptpress.baselines import (
    PolicyCompressor,
    RandomCompressor,
    keep_count,
    random_compress,
    selfinfo_compress,
)
from promptpress.encoder import EncoderConfig
from promptpress.policy import Actor
from promptpress.scoring import NextTokenDistribution
from promptpress.text import TokenSequence


def _is_subsequence(short, long):
    it = iter(long)
    return all(token in it for token in short)


def _seq(n, offset=0):
    """n distinct ids, so positions can be read back from the ids."""
    return TokenSequence(tuple(range(offset, offset + n)))


class TestKeepCount:
    def test_rounds_half_up(self):
        assert keep_count(5, 0.5) == 3
        assert keep_count(3, 0.5) == 2
        assert keep_count(10, 0.25) == 3

    @pytest.mark.parametrize("rho", [0.01, 0.3, 0.5, 0.99, 1.0])
    def test_one_token_prompt_keeps_it(self, rho):
        assert keep_count(1, rho) == 1


class TestRandomCompress:
    @pytest.mark.parametrize("n, rho", [(1, 0.5), (5, 0.5), (17, 0.3), (40, 0.9)])
    def test_keeps_exactly_keep_count_in_order(self, n, rho):
        seq = _seq(n, offset=3)
        for seed in range(5):
            kept = random_compress(seq, rho, seed).ids
            assert len(kept) == keep_count(n, rho)
            assert list(kept) == sorted(kept)  # ids rise with position
            assert set(kept) <= set(seq.ids)

    def test_deterministic_per_seed_and_key(self):
        # The key is the prompt's index: equal prompts get distinct subsets.
        seqs = [_seq(30)] * 8
        a = RandomCompressor(rho_target=0.5, seed=7)
        b = RandomCompressor(rho_target=0.5, seed=7)
        assert a.compress(seqs) == b.compress(seqs)
        assert a.compress(seqs[:5]) == a.compress(seqs)[:5]
        assert len({kept.ids for kept in a.compress(seqs)}) == 8


class _TableLM:
    """One answer whatever the context: id i counted ``counts[i]`` times."""

    def __init__(self, counts):
        self.dist = NextTokenDistribution(
            counts=dict(enumerate(counts)), total=sum(counts), smoothing=0.1,
            size=len(counts),
        )

    def next_token_dist(self, context):
        return self.dist

    def token_probs(self, seq):
        probs = dense_probs(self.dist)
        return [float(probs[t]) for t in seq.ids]


class TestSelfInfoCompress:
    def test_ties_keep_the_earlier_token(self):
        # Every token equally likely: all scores tie.
        seq = _seq(9)
        kept = selfinfo_compress(seq, _TableLM([1] * 9), 0.5)
        assert kept.ids == (0, 1, 2, 3, 4)

    def test_ties_break_by_position_among_equal_scores(self):
        # ids 0 and 1 are rare (kept first); 2, 3, 4 tie below them.
        seq = TokenSequence((2, 0, 3, 1, 4))
        kept = selfinfo_compress(seq, _TableLM([1, 1, 6, 6, 6]), 0.6)
        assert kept.ids == (2, 0, 1)


class TestPolicyCompressor:
    @pytest.fixture(scope="class")
    def actor(self):
        cfg = EncoderConfig(vocab_size=64, d_model=8, n_heads=2, n_layers=1,
                            d_ff=16, max_len=64)
        actor = Actor.build(cfg, seed=3)
        rng = np.random.default_rng(5)
        actor.head_w[...] = rng.normal(0, 0.5, actor.head_w.shape)
        return actor

    @pytest.mark.parametrize("steps", [1, 2, 3])
    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
    def test_lands_on_keep_count_as_a_subsequence(self, actor, steps, rho):
        rng = np.random.default_rng(steps * 100 + int(rho * 10))
        compressor = PolicyCompressor(actor=actor, rho_target=rho, steps=steps)
        seqs = [TokenSequence(tuple(int(t) for t in rng.integers(0, 64, n)))
                for n in range(1, 41)]
        for seq, got in zip(seqs, compressor.compress(seqs)):
            n = len(seq)
            assert len(got) == keep_count(n, rho), (steps, rho, n)
            assert _is_subsequence(got.ids, seq.ids)

    @pytest.mark.parametrize("steps", [1, 3])
    def test_corpus_equals_each_prompt_alone(self, actor, steps):
        # Prompts of 1-64 tokens, packed up to max_len 64 per encoder pass.
        rng = np.random.default_rng(steps)
        seqs = [TokenSequence(tuple(int(t) for t in rng.integers(0, 64, n)))
                for n in rng.integers(1, 65, 30)]
        compressor = PolicyCompressor(actor=actor, rho_target=0.4, steps=steps)
        alone = [compressor.compress([seq])[0] for seq in seqs]
        assert compressor.compress(seqs) == alone
