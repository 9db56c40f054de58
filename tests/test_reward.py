"""Reward assembly tests: hand-evaluated cases, penalties, ablations."""

import numpy as np
import pytest

from conftest import fit_lm
from promptpress.reward import RewardConfig, Scorers, assemble_reward, compute_reward
from promptpress.text import PromptRecord, TokenSequence, tokenize


def seq(*ids):
    return TokenSequence(tuple(ids))


class StubRetention:
    def __init__(self, value):
        self.value = value

    def score(self, s0, st):
        return self.value


class TestBandPenalty:
    """The band penalty of ``assemble_reward``: p_s strictly below c_s,
    p_l strictly above c_l, none on or between the boundaries."""

    CFG = RewardConfig(p_s=200.0, p_l=100.0)

    def penalty(self, rho, bounds):
        return assemble_reward(rho, 0.5, 0.1, self.CFG, bounds).penalty

    def test_boundaries_are_penalty_free(self):
        bounds = (0.3, 0.7)
        assert self.penalty(0.3, bounds) == 0.0
        assert self.penalty(0.7, bounds) == 0.0

    def test_strictly_outside(self):
        bounds = (0.3, 0.7)
        assert self.penalty(0.29, bounds) == 200.0
        assert self.penalty(0.71, bounds) == 100.0

    def test_random_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            c_s = float(rng.uniform(0.05, 0.5))
            c_l = float(rng.uniform(c_s + 0.01, 1.0))
            rho = float(rng.uniform(0.001, 1.0))
            got = self.penalty(rho, (c_s, c_l))
            if rho < c_s:
                assert got == 200.0
            elif rho > c_l:
                assert got == 100.0
            else:
                assert got == 0.0

    @pytest.mark.parametrize("rho", [0.0, -0.5, 1.2, float("nan")])
    def test_invalid_rho(self, rho):
        with pytest.raises(ValueError, match="rho must be in"):
            self.penalty(rho, (0.5, 0.9))


class TestAssembleReward:
    def test_hand_case_in_band(self):
        cfg = RewardConfig(alpha=1, beta=1, gamma=1)
        b = assemble_reward(rho=0.5, retention=0.9, kl=0.2, cfg=cfg, bounds=(0.5, 0.9))
        assert b.total == pytest.approx(2.0 + 0.9 - 0.2)

    def test_hand_case_over_compressed(self):
        cfg = RewardConfig(alpha=1, beta=1, gamma=1, p_s=200)
        b = assemble_reward(rho=0.4, retention=0.9, kl=0.2, cfg=cfg, bounds=(0.5, 0.9))
        assert b.total == pytest.approx(2.5 + 0.9 - 0.2 - 200)

    def test_hand_case_under_compressed_identity(self):
        cfg = RewardConfig(alpha=1, beta=1, gamma=1, p_l=100)
        b = assemble_reward(rho=1.0, retention=1.0, kl=0.0, cfg=cfg, bounds=(0.5, 0.9))
        assert b.total == pytest.approx(1.0 + 1.0 - 0.0 - 100)

    def test_breakdown_identity_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            cfg = RewardConfig(
                alpha=float(rng.uniform(0, 3)),
                beta=float(rng.uniform(0, 3)),
                gamma=float(rng.uniform(0, 3)),
            )
            b = assemble_reward(
                rho=float(rng.uniform(0.01, 1.0)),
                retention=float(rng.uniform(0, 1)),
                kl=float(rng.uniform(0, 2)),
                cfg=cfg,
                bounds=(0.4, 0.8),
            )
            assert b.total == b.ratio_term + b.retention_term - b.kl_term - b.penalty

    def test_penalty_exclusivity(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            c_s = float(rng.uniform(0.05, 0.6))
            c_l = float(rng.uniform(c_s + 0.05, 1.0))
            cfg = RewardConfig(p_s=200, p_l=100)
            b = assemble_reward(
                rho=float(rng.uniform(0.001, 1.0)),
                retention=0.5,
                kl=0.0,
                cfg=cfg,
                bounds=(c_s, c_l),
            )
            assert b.penalty in (0.0, 200.0, 100.0)

    def test_ratio_term_monotonicity(self):
        cfg = RewardConfig(alpha=1.5)
        totals = [
            assemble_reward(rho, 0.7, 0.1, cfg, (0.2, 0.9)).total
            for rho in (0.25, 0.4, 0.6, 0.85)
        ]
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_zero_weight_ablations(self):
        # alpha = 0: in-band totals no longer depend on rho
        band = (0.2, 0.9)
        cfg = RewardConfig(alpha=0.0)
        t1 = assemble_reward(0.3, 0.5, 0.1, cfg, band).total
        t2 = assemble_reward(0.8, 0.5, 0.1, cfg, band).total
        assert t1 == t2
        # but the band penalty still applies
        assert assemble_reward(0.1, 0.5, 0.1, cfg, band).total == pytest.approx(t1 - 200)
        # beta = 0: retention is ignored
        cfg = RewardConfig(beta=0.0)
        assert (
            assemble_reward(0.5, 0.1, 0.3, cfg, band).total
            == assemble_reward(0.5, 0.9, 0.3, cfg, band).total
        )
        # gamma = 0: divergence is ignored
        cfg = RewardConfig(gamma=0.0)
        assert (
            assemble_reward(0.5, 0.5, 0.0, cfg, band).total
            == assemble_reward(0.5, 0.5, 5.0, cfg, band).total
        )


class TestComputeReward:
    def _fixture(self):
        corpus = [PromptRecord("0", "a b c d a b c d e f")]
        lm = fit_lm(corpus, order=2, smoothing=0.1)
        s0 = tokenize("a b c d e f", lm.vocab)
        return lm, s0, 8

    def test_identity_compression(self):
        lm, s0, n_gen = self._fixture()
        cfg = RewardConfig(p_l=100)
        b = compute_reward(s0, s0, cfg, (0.5, 0.9), Scorers(StubRetention(1.0), lm, n_gen))
        # rho = 1 > c_l, D = 1, KL = 0 exactly
        assert b.kl_term == 0.0
        assert b.total == pytest.approx(1.0 + 1.0 - 0.0 - 100.0)

    def test_matches_assembled_ingredients(self):
        lm, s0, n_gen = self._fixture()
        from promptpress.scoring import output_distribution_kl

        st = TokenSequence(s0.ids[::2])
        cfg = RewardConfig(alpha=1.2, beta=0.8, gamma=1.5)
        b = compute_reward(s0, st, cfg, (0.3, 0.8), Scorers(StubRetention(0.7), lm, n_gen))
        kl = output_distribution_kl(lm, s0, st, n_gen)
        expected = assemble_reward(len(st) / len(s0), 0.7, kl, cfg, (0.3, 0.8))
        assert b.total == pytest.approx(expected.total)

    def test_gamma_zero_skips_divergence(self):
        lm, s0, n_gen = self._fixture()
        cfg = RewardConfig(gamma=0.0)
        st = TokenSequence(s0.ids[:3])
        b = compute_reward(s0, st, cfg, (0.3, 0.9), Scorers(StubRetention(0.5), lm, n_gen))
        assert b.kl_term == 0.0

    def test_empty_sequences_error(self):
        lm, s0, n_gen = self._fixture()
        scorers = Scorers(StubRetention(1), lm, n_gen)
        with pytest.raises(ValueError):
            compute_reward(TokenSequence(()), s0, RewardConfig(), (0.5, 0.9), scorers)
        with pytest.raises(ValueError):
            compute_reward(s0, TokenSequence(()), RewardConfig(), (0.5, 0.9), scorers)


class TestRewardConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RewardConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            RewardConfig(p_s=-5.0)

    def test_defaults_match_documented_values(self):
        cfg = RewardConfig()
        assert (cfg.alpha, cfg.beta, cfg.gamma) == (1.0, 1.0, 1.0)
        assert (cfg.p_s, cfg.p_l) == (200.0, 100.0)
