"""Trainer tests: curriculum schedule, PPO objective, returns and their
leave-one-out advantages, update rounds, round collection, the full
loop, and checkpoint/resume."""

import json
import math
from typing import NamedTuple

import numpy as np
import pytest

from conftest import (
    bump_schema_version,
    cut_vocabulary,
    edit_meta,
    extend_vocabulary,
    rewrite_checkpoint,
    tiny_world,
)
from gradcheck import (
    REL_TOL,
    action_log_prob,
    max_relative_error,
    packed_log_prob_and_grad,
    ppo_objective,
)
from promptpress import policy, trainer
from promptpress.encoder import EncoderConfig, TinyTransformerEncoder
from promptpress.policy import (
    Actor,
    ActorGradient,
    actor_shapes,
    packed_action_log_probs,
    policy_forward,
    seed_for,
)
from promptpress.reward import RewardConfig, Scorers
from promptpress.scoring import fit_ngram_lm
from promptpress.text import TokenSequence
from promptpress.trainer import (
    CHECKPOINT_MEMBERS,
    CurriculumSchedule,
    TrainerConfig,
    collect_trajectory,
    hpc_train,
    init_train_state,
    leave_one_out_advantages,
    load_checkpoint,
    ppo_objective_and_grads,
    save_checkpoint,
)

# Hand-evaluated band grid of the default schedule (psi = 0.1, stages
# (T_max): 1..2 -> 2, 3 -> 1), keyed by (stage, t, T_max).
SCHEDULE_GRID = {
    (1, 0, 2): (0.5, 0.9),
    (1, 1, 2): (0.45, 0.85),
    (1, 2, 2): (0.4, 0.8),
    (2, 0, 2): (0.4, 0.8),
    (2, 1, 2): (0.35, 0.75),
    (2, 2, 2): (0.3, 0.7),
    (3, 0, 1): (0.3, 0.7),
    (3, 1, 1): (0.2, 0.6),
}


class TestCurriculumBounds:
    def test_hand_evaluated_grid(self):
        sched = CurriculumSchedule(psi=0.1)
        for (stage, t, t_max), expected in SCHEDULE_GRID.items():
            assert sched.t_max_for(stage) == t_max
            c_s, c_l = sched.bounds_for(stage, t)
            assert c_s == pytest.approx(expected[0], abs=1e-12)
            assert c_l == pytest.approx(expected[1], abs=1e-12)

    def test_band_width_constant(self):
        sched = CurriculumSchedule(psi=0.1)
        for (stage, t, _) in SCHEDULE_GRID:
            c_s, c_l = sched.bounds_for(stage, t)
            assert c_l - c_s == pytest.approx(0.4, abs=1e-12)

    def test_monotone_in_progress(self):
        sched = CurriculumSchedule(psi=0.1)
        values = [
            sched.bounds_for(stage, t)
            for (stage, t, t_max) in sorted(
                SCHEDULE_GRID, key=lambda k: k[0] + k[1] / k[2]
            )
        ]
        for (s1, l1), (s2, l2) in zip(values, values[1:]):
            assert s2 <= s1 + 1e-12 and l2 <= l1 + 1e-12

    def test_invalid_arguments(self):
        sched = CurriculumSchedule(t_max_per_stage=(2,), epochs_per_stage=(1,))
        with pytest.raises(ValueError):
            sched.bounds_for(0, 0)
        with pytest.raises(ValueError):
            sched.bounds_for(1, 3)
        with pytest.raises(ValueError):
            sched.bounds_for(1, -1)
        with pytest.raises(ValueError):
            CurriculumSchedule(t_max_per_stage=(0,), epochs_per_stage=(1,))

    def test_clamp_far_outside_schedule(self):
        sched = CurriculumSchedule(psi=0.1, t_max_per_stage=(1,) * 9,
                                   epochs_per_stage=(1,) * 9)
        c_s, c_l = sched.bounds_for(9, 1)
        assert c_s == pytest.approx(0.05)
        assert c_s < c_l

    def test_schedule_defaults(self):
        sched = CurriculumSchedule()
        assert sched.bounds_for(1, 0) == pytest.approx((0.5, 0.9))
        assert sched.bounds_for(3, 0) == pytest.approx((0.3, 0.7))
        assert sched.t_max_for(3) == 1

    def test_fixed_bounds_override(self):
        sched = CurriculumSchedule(fixed_bounds=(0.5, 0.9))
        assert sched.bounds_for(1, 0) == (0.5, 0.9)
        assert sched.bounds_for(3, 1) == (0.5, 0.9)

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="t_max_per_stage and epochs_per_stage"):
            CurriculumSchedule(t_max_per_stage=(2,), epochs_per_stage=(1, 1))
        with pytest.raises(ValueError):
            CurriculumSchedule(t_max_per_stage=(2, 0, 1))
        with pytest.raises(ValueError):
            CurriculumSchedule(psi=0.0)
        with pytest.raises(ValueError, match="at least one stage"):
            CurriculumSchedule(t_max_per_stage=(), epochs_per_stage=())

    def test_n_stages_follows_the_per_stage_tuples(self):
        assert CurriculumSchedule().n_stages == 3
        assert CurriculumSchedule(t_max_per_stage=(4,), epochs_per_stage=(2,)).n_stages == 1

    @pytest.mark.parametrize(
        "bounds", [(0.9, 0.5), (0.5, 0.5), (0.0, 0.5), (-0.1, 0.5), (0.5, 1.2)]
    )
    def test_invalid_fixed_bounds_error(self, bounds):
        with pytest.raises(ValueError, match="0 < c_s < c_l <= 1"):
            CurriculumSchedule(fixed_bounds=bounds)

    def test_curriculum_bands_are_valid_far_outside_the_schedule(self):
        # Every band the schedule can hand the reward satisfies the check
        # fixed bounds get, so the reward never validates one.
        for psi in (0.01, 0.1, 0.35, 1.0, 5.0):
            sched = CurriculumSchedule(psi=psi, t_max_per_stage=(3,) * 12,
                                       epochs_per_stage=(1,) * 12)
            for stage in range(1, 13):
                for t in range(4):
                    c_s, c_l = sched.bounds_for(stage, t)
                    assert 0.0 < c_s < c_l <= 1.0, (psi, stage, t)


class Step(NamedTuple):
    """One step of a batch: the labels sampled on a prompt's ids, their
    log-probability when sampled, and the step's advantage."""

    ids: tuple[int, ...]
    labels: np.ndarray
    old_log_prob: float
    advantage: float


def _synthetic_step(actor, ids, labels, delta, advantage):
    """A step whose policy ratio under ``actor`` is exactly ``delta``."""
    new_lp = action_log_prob(actor, ids, labels)
    return Step(tuple(ids), np.array(labels), new_lp - math.log(delta), advantage)


def _objective_and_grads(batch, actor, clip_eps):
    """The program's (packed) clipped-surrogate objective and its
    gradient, as named views of a fresh gradient vector."""
    grad = ActorGradient(actor.encoder.cfg)
    objective = ppo_objective_and_grads(
        [step.ids for step in batch],
        [step.labels for step in batch],
        np.array([step.old_log_prob for step in batch]),
        np.array([step.advantage for step in batch]),
        actor, clip_eps, grad,
    )
    return objective, grad.views


def _objective(batch, actor, clip_eps):
    """The program's (packed) clipped-surrogate objective."""
    return _objective_and_grads(batch, actor, clip_eps)[0]


class TestPpoObjective:
    def _actor(self):
        _, _, _, encoder_cfg = tiny_world()
        actor = Actor.build(encoder_cfg, seed=5)
        rng = np.random.default_rng(7)
        actor.head_w[...] = rng.normal(0, 0.4, actor.head_w.shape)
        return actor

    def test_identical_policies_give_mean_advantage(self):
        actor = self._actor()
        steps = [
            _synthetic_step(actor, (1, 2, 3), (1, 0, 1), 1.0, 2.5),
            _synthetic_step(actor, (4, 5), (0, 1), 1.0, -1.5),
        ]
        obj = _objective(steps, actor, clip_eps=0.15)
        assert obj == pytest.approx((2.5 - 1.5) / 2, abs=1e-6)

    def test_hand_clipped_positive_advantage(self):
        actor = self._actor()
        step = _synthetic_step(actor, (1, 2), (1, 1), delta=1.3, advantage=2.0)
        # min(1.3 * 2, clip(1.3 -> 1.15) * 2) = 2.3
        assert _objective([step], actor, 0.15) == pytest.approx(2.3)

    def test_hand_clipped_negative_advantage(self):
        actor = self._actor()
        step = _synthetic_step(actor, (1, 2), (1, 1), delta=0.7, advantage=-1.0)
        # min(-0.7, clip(0.7 -> 0.85) * -1) = -0.85
        assert _objective([step], actor, 0.15) == pytest.approx(-0.85)

    def test_unclipped_region_matches_plain_term(self):
        actor = self._actor()
        for delta, adv in ((0.9, 1.7), (1.1, -0.3), (1.0, 4.0)):
            step = _synthetic_step(actor, (3, 1), (0, 1), delta, adv)
            assert _objective([step], actor, 0.15) == pytest.approx(delta * adv)

    def test_degenerate_ratio_gives_nan_objective(self):
        # An overflowing ratio is a NaN term with no gradient; the update
        # round reports the NaN objective as divergence.
        actor = self._actor()
        step = Step((1, 2), np.array([1, 1]), old_log_prob=-1e6, advantage=1.0)
        objective, grads = _objective_and_grads([step], actor, 0.15)
        assert math.isnan(objective)
        assert all(np.all(g == 0) for g in grads.values())

    def test_empty_batch_errors(self):
        with pytest.raises(ValueError):
            _objective([], self._actor(), 0.15)

    def test_gradient_zero_when_clipped(self):
        actor = self._actor()
        # positive advantage, ratio far above 1 + eps: objective is flat
        step = _synthetic_step(actor, (1, 2), (1, 1), delta=2.0, advantage=1.0)
        _, grads = _objective_and_grads([step], actor, 0.15)
        assert all(np.all(g == 0) for g in grads.values())

    def test_gradient_matches_finite_difference_through_clip(self):
        from gradcheck import REL_TOL, max_relative_error

        actor = self._actor()
        steps = [
            _synthetic_step(actor, (1, 2, 3), (1, 0, 1), 1.05, 2.0),
            _synthetic_step(actor, (4, 5), (0, 1), 0.95, -1.0),
        ]
        _, grads = _objective_and_grads(steps, actor, 0.15)
        worst, where = max_relative_error(
            actor.parameters(),
            grads,
            lambda: ppo_objective(steps, actor, 0.15),
        )
        assert worst < REL_TOL, f"worst {worst:.2e} at {where}"


def _norm(arrays):
    return math.sqrt(sum(float((g * g).sum()) for g in arrays.values()))


def _relative_gap(got, expected):
    """Global norm of got - expected over the norm of expected."""
    diff = {k: got[k] - expected[k] for k in expected}
    assert set(got) == set(expected)
    return _norm(diff) / _norm(expected)


class TestPackedObjectives:
    """The batch objective runs one encoder pass over the packed batch.

    The reference below is the per-step loop: one single-sequence
    gradient per step, scaled by its coefficient and summed.
    """

    def _models(self):
        _, vocab, _, _ = tiny_world()
        cfg = EncoderConfig(vocab_size=vocab.size, d_model=8, n_heads=2,
                            n_layers=2, d_ff=16, max_len=12)
        rng = np.random.default_rng(17)
        actor = Actor.build(cfg, seed=5)
        actor.head_w[...] = rng.normal(0, 0.4, actor.head_w.shape)
        return cfg, actor

    def _batch(self, cfg, actor):
        """Mixed lengths, including 1 and max_len; two of the four clip."""
        rng = np.random.default_rng(23)
        lengths = (4, 1, cfg.max_len, 7)
        ratios = (1.05, 0.9, 1.4, 0.7)
        advantages = (2.0, -1.0, 1.5, -0.5)
        batch = []
        for n, delta, adv in zip(lengths, ratios, advantages):
            ids = tuple(int(t) for t in rng.integers(0, cfg.vocab_size, n))
            labels = tuple(int(a) for a in rng.integers(0, 2, n))
            batch.append(_synthetic_step(actor, ids, labels, delta, adv))
        return batch

    def test_ppo_matches_per_step_sum(self):
        cfg, actor = self._models()
        batch = self._batch(cfg, actor)
        eps, n = 0.15, len(batch)
        expected = {k: np.zeros_like(v) for k, v in actor.parameters().items()}
        total, flowing = 0.0, 0
        for step in batch:
            advantage = step.advantage
            lp, grads = packed_log_prob_and_grad(actor, step.ids, step.labels)
            delta = math.exp(lp - step.old_log_prob)
            unclipped = delta * advantage
            clipped = min(max(delta, 1 - eps), 1 + eps) * advantage
            total += min(unclipped, clipped)
            if unclipped <= clipped:
                flowing += 1
                for k, g in grads.items():
                    expected[k] += delta * advantage / n * g
        assert flowing == 2
        objective, got = _objective_and_grads(batch, actor, eps)
        assert objective == pytest.approx(total / n, rel=1e-12)
        assert _relative_gap(got, expected) <= 1e-12

    def test_ppo_finite_difference(self):
        cfg, actor = self._models()
        batch = self._batch(cfg, actor)
        _, grads = _objective_and_grads(batch, actor, 0.15)
        worst, where = max_relative_error(
            actor.parameters(), grads, lambda: ppo_objective(batch, actor, 0.15)
        )
        assert worst < REL_TOL, f"worst {worst:.2e} at {where}"

    def _repeated_batch(self, cfg, actor):
        """The mixed batch with its first step twice more, and its
        max_len sequence once more with other labels: a pass encodes the
        four distinct sequences once each."""
        batch = self._batch(cfg, actor)
        ids = batch[2].ids
        relabeled = _synthetic_step(
            actor, ids, tuple(1 - int(a) for a in batch[2].labels), 0.95, 1.2
        )
        return [batch[0], *batch[1:3], batch[0], relabeled, batch[3], batch[0]]

    def test_ppo_with_repeats_matches_per_step_sum(self, monkeypatch):
        cfg, actor = self._models()
        batch = self._repeated_batch(cfg, actor)
        eps, n = 0.15, len(batch)
        expected = {k: np.zeros_like(v) for k, v in actor.parameters().items()}
        total, flowing = 0.0, 0
        for step in batch:
            advantage = step.advantage
            lp, grads = packed_log_prob_and_grad(actor, step.ids, step.labels)
            delta = math.exp(lp - step.old_log_prob)
            unclipped = delta * advantage
            clipped = min(max(delta, 1 - eps), 1 + eps) * advantage
            total += min(unclipped, clipped)
            if unclipped <= clipped:
                flowing += 1
                for k, g in grads.items():
                    expected[k] += delta * advantage / n * g
        # The repeated first step and the relabeled one both flow.
        assert flowing == 5
        passes = []
        forward = TinyTransformerEncoder.forward

        def recording(self, ids, lengths, keep_cache=True):
            passes.append(list(lengths))
            return forward(self, ids, lengths, keep_cache)

        monkeypatch.setattr(TinyTransformerEncoder, "forward", recording)
        objective, got = _objective_and_grads(batch, actor, eps)
        assert passes == [[4, 1, cfg.max_len, 7]]
        assert objective == pytest.approx(total / n, rel=1e-12)
        assert _relative_gap(got, expected) <= 1e-12

    @pytest.mark.parametrize("makes", [
        ("_batch",), ("_repeated_batch",), ("_batch", "_repeated_batch"),
    ], ids=["mixed", "repeated", "both"])
    def test_objective_equals_a_per_step_loop(self, makes):
        # The batch's own packed log-probabilities, folded one step at a
        # time in batch order as scalars: the array expressions give the
        # same bits. The two batches back to back are 11 steps, past the
        # 8 that numpy's sum adds one at a time.
        cfg, actor = self._models()
        batch = [step for make in makes for step in getattr(self, make)(cfg, actor)]
        eps = 0.15
        new_lps, _ = packed_action_log_probs(
            actor, [step.ids for step in batch], [step.labels for step in batch]
        )
        total = 0.0
        for lp, step in zip(new_lps.tolist(), batch):
            delta = float(np.exp(lp - step.old_log_prob))
            unclipped = delta * step.advantage
            clipped = min(max(delta, 1 - eps), 1 + eps) * step.advantage
            total += min(unclipped, clipped)
        assert _objective(batch, actor, eps) == total / len(batch)

    def test_ppo_with_repeats_finite_difference(self):
        cfg, actor = self._models()
        batch = self._repeated_batch(cfg, actor)
        _, grads = _objective_and_grads(batch, actor, 0.15)
        worst, where = max_relative_error(
            actor.parameters(), grads, lambda: ppo_objective(batch, actor, 0.15)
        )
        assert worst < REL_TOL, f"worst {worst:.2e} at {where}"


class TestReturns:
    """Against an episode of zero rewards, an episode's leave-one-out
    advantages are its returns G_t = sum_{k>=t} discount^(k-t) r_k."""

    @pytest.mark.parametrize(
        "discount, returns", [(1.0, [7.0, 6.0, 4.0]), (0.5, [3.0, 4.0, 4.0])]
    )
    def test_hand_sums(self, discount, returns):
        rewards = np.array([[1.0, 2.0, 4.0], [0.0, 0.0, 0.0]])
        advantages = leave_one_out_advantages(rewards, discount)
        assert advantages.tolist() == [returns, [-g for g in returns]]

    def test_each_return_is_summed_from_t_upward(self):
        # The scalar loop adds discount^(k-t) * r_k for k = t upward,
        # starting at 0.0; the array sums give the same bits.
        rewards = np.random.default_rng(5).normal(-150, 60, size=5)
        returns = []
        for t in range(len(rewards)):
            total, factor = 0.0, 1.0
            for r in rewards[t:].tolist():
                total += factor * r
                factor *= 0.9
            returns.append(total)
        advantages = leave_one_out_advantages(np.array([rewards, np.zeros(5)]), 0.9)
        assert advantages[0].tolist() == returns


class TestLeaveOneOut:
    """A[i][t] = G_{i,t} - mean_{j != i} G_{j,t} over an update round."""

    def test_hand_values(self):
        # Returns G (discount 1): [3, 2], [1, 1], [2, -2].
        rewards = np.array([[1.0, 2.0], [0.0, 1.0], [4.0, -2.0]])
        advantages = leave_one_out_advantages(rewards, 1.0)
        # t = 0: 3 - (1 + 2) / 2, 1 - (3 + 2) / 2, 2 - (3 + 1) / 2
        # t = 1: 2 - (1 - 2) / 2, 1 - (2 - 2) / 2, -2 - (2 + 1) / 2
        expected = [[1.5, 2.5], [-1.5, 1.0], [0.0, -3.5]]
        assert np.allclose(advantages, expected, rtol=0, atol=1e-12)

    def test_sums_to_zero_at_each_step_index(self):
        rng = np.random.default_rng(3)
        rewards = np.array([rng.normal(-150, 60, size=2) for _ in range(16)])
        advantages = leave_one_out_advantages(rewards, 0.9)
        assert advantages.shape == (16, 2)
        assert np.abs(advantages.sum(axis=0)).max() <= 1e-10
        assert np.abs(advantages).max() > 1.0

    def test_identical_returns_leave_the_actor_unmoved(self):
        prompts, _, scorers, encoder_cfg, trainer_cfg = _small_training_setup()
        m = trainer_cfg.buffer_capacity
        # One prompt on one seed, M times: M identical episodes.
        round_ = collect_trajectory(
            [prompts[1]] * m, [5] * m, Actor.build(encoder_cfg, seed=3),
            CurriculumSchedule(), 1, RewardConfig(), scorers,
        )
        advantages = leave_one_out_advantages(round_.rewards, 1.0)
        assert advantages.tolist() == [[0.0, 0.0]] * 4
        state = init_train_state(trainer_cfg, encoder_cfg)
        before = {k: v.copy() for k, v in state.actor.parameters().items()}
        trainer._update_round(
            round_, state, trainer_cfg, CurriculumSchedule(), 1, 1, 0,
            ActorGradient(encoder_cfg),
        )
        after = state.actor.parameters()
        assert all(np.array_equal(before[k], after[k]) for k in before)
        assert [r["objective"] for r in state.log] == [0.0] * 4
        # Exact for any M: with M = 6 the uncentred (M G_i - sum_j G_j) / (M - 1)
        # leaves about 5e-14 here.
        six = np.array([[-187.3, 0.1]] * 6)
        assert leave_one_out_advantages(six, 1.0).tolist() == [[0.0, 0.0]] * 6

    def test_each_step_is_scored_with_its_own_advantage(self, monkeypatch):
        prompts, _, scorers, encoder_cfg, trainer_cfg = _small_training_setup()
        state = init_train_state(trainer_cfg, encoder_cfg)
        m = trainer_cfg.buffer_capacity
        round_ = collect_trajectory(
            prompts[:m], list(range(m)), state.actor, CurriculumSchedule(), 1,
            RewardConfig(), scorers,
        )
        advantages = leave_one_out_advantages(round_.rewards, trainer_cfg.discount)
        assert len(set(advantages.ravel().tolist())) == 2 * m
        batches = []
        objective_and_grads = trainer.ppo_objective_and_grads

        def record(seqs, labels, old_log_probs, advantages, *args):
            batches.append(_batch_bits(seqs, labels, old_log_probs, advantages))
            return objective_and_grads(seqs, labels, old_log_probs, advantages, *args)

        monkeypatch.setattr(trainer, "ppo_objective_and_grads", record)
        trainer._update_round(
            round_, state, trainer_cfg, CurriculumSchedule(), 1, 1, 0,
            ActorGradient(encoder_cfg),
        )
        expected = []
        for iteration in range(m):
            rng = np.random.default_rng(
                seed_for(trainer_cfg.seed, trainer._TAG_UPDATE, 1, 1, 0, iteration)
            )
            picks = rng.integers(0, m, size=trainer_cfg.batch_size)
            steps = [(i, t) for i in picks for t in range(len(round_.states))]
            expected.append(_batch_bits(
                [round_.states[t][i].ids for i, t in steps],
                [round_.labels[t][i] for i, t in steps],
                np.array([round_.old_log_probs[i, t] for i, t in steps]),
                np.array([advantages[i, t] for i, t in steps]),
            ))
        assert batches == expected

    def test_buffer_of_one_errors(self):
        with pytest.raises(ValueError, match="leave-one-out"):
            TrainerConfig(batch_size=1, buffer_capacity=1)


def _batch_bits(seqs, labels, old_log_probs, advantages):
    """A batch of ``ppo_objective_and_grads``, labels and arrays as their
    dtypes and bytes, so that two batches compare bitwise."""
    return (
        [tuple(seq) for seq in seqs],
        [(a.dtype, a.tobytes()) for a in labels],
        [(a.dtype, a.shape, a.tobytes()) for a in (old_log_probs, advantages)],
    )


def _episode(round_, i):
    """Every stored value of episode ``i`` of a round, labels and floats
    as their bytes, so that two episodes compare bitwise."""
    steps = [
        (states[i], labels[i].dtype, labels[i].tobytes())
        for states, labels in zip(round_.states, round_.labels)
    ]
    floats = (round_.old_log_probs[i], round_.rewards[i], round_.final_rho[i])
    return steps, [(a.dtype, a.tobytes()) for a in floats]


def _fields(round_):
    """Every stored value of a round, episode by episode, and its shapes."""
    m = len(round_.final_rho)
    shapes = (round_.old_log_probs.shape, round_.rewards.shape, round_.final_rho.shape)
    return shapes, [_episode(round_, i) for i in range(m)]


class TestCollectTrajectory:
    def setup_method(self):
        self.prompts, _, self.scorers, self.encoder_cfg = tiny_world()
        self.actor = Actor.build(self.encoder_cfg, seed=11)
        self.prompt = self.prompts[1]

    def test_stage3_has_one_step(self):
        round_ = collect_trajectory(
            [self.prompt], [9], self.actor,
            CurriculumSchedule(), 3, RewardConfig(), self.scorers,
        )
        assert len(round_.states) == len(round_.labels) == 1
        assert round_.old_log_probs.shape == round_.rewards.shape == (1, 1)

    def test_fixed_seed_repeats_bitwise(self):
        kwargs = dict(
            prompts=[self.prompt], seeds=[4],
            actor=self.actor, schedule=CurriculumSchedule(), stage=1,
            reward_cfg=RewardConfig(), scorers=self.scorers,
        )
        a, b = collect_trajectory(**kwargs), collect_trajectory(**kwargs)
        assert _fields(a) == _fields(b)

    def test_empty_prompt_errors(self):
        with pytest.raises(ValueError, match="empty"):
            collect_trajectory(
                [TokenSequence(())], [0], self.actor,
                CurriculumSchedule(), 1, RewardConfig(), self.scorers,
            )

    @pytest.mark.parametrize("keep_logit, final_len", [(50.0, None), (-50.0, 1)])
    def test_final_rho_is_final_over_original_length(self, keep_logit, final_len):
        # A head pinned at the keep-probability ceiling keeps every token
        # (rho 1); one pinned at the floor drops all but the force-kept one.
        actor = Actor(self.actor.encoder.cfg, self.actor.flat.copy())
        actor.head_w[...] = 0.0
        actor.head_b[...] = (0.0, keep_logit)
        round_ = collect_trajectory(
            [self.prompt], [3], actor,
            CurriculumSchedule(), 1, RewardConfig(), self.scorers,
        )
        n = len(self.prompt)
        assert round_.final_rho.tolist() == [(final_len or n) / n]

    def test_a_round_gives_each_episode_what_it_gets_alone(self):
        # Mixed lengths, a prompt twice and a 1-token prompt (a pass of its
        # own in policy_forward), over the two steps of stage 1. A random
        # head makes the keep probabilities depend on the encoder's bits,
        # and a trigram proxy makes the divergence walk each reference.
        actor = Actor(self.actor.encoder.cfg, self.actor.flat.copy())
        rng = np.random.default_rng(5)
        for head in (actor.head_w, actor.head_b):
            head[...] = rng.normal(0.0, 0.5, size=head.shape)
        lm = fit_ngram_lm(self.prompts, 3, 0.1, self.scorers.lm.vocab)
        scorers = Scorers(self.scorers.retention, lm, n_gen=4)
        p = self.prompts
        prompts = [p[0], p[2], TokenSequence(p[3].ids[:1]), p[4], p[2], p[5]]
        seeds = [31, 32, 33, 34, 35, 36]
        rest = (actor, CurriculumSchedule(), 1, RewardConfig(), scorers)
        together = collect_trajectory(prompts, seeds, *rest)
        alone = [collect_trajectory([q], [seed], *rest) for q, seed in zip(prompts, seeds)]
        assert [len(states) for states in together.states] == [len(prompts)] * 2
        assert together.rewards.shape == (len(prompts), 2)
        assert [_episode(together, i) for i in range(len(prompts))] == [
            _episode(round_, 0) for round_ in alone
        ]
        # The two copies of p[2] ran on their own seeds.
        assert _episode(together, 1) != _episode(together, 4)

    def test_hand_traced_rollout(self):
        """Re-derive every stored field with direct component calls."""
        from promptpress.policy import apply_action, sample_actions
        from promptpress.reward import compute_reward

        schedule = CurriculumSchedule()
        reward_cfg = RewardConfig()
        stage, seed = 1, 21
        round_ = collect_trajectory(
            [self.prompt], [seed], self.actor,
            schedule, stage, reward_cfg, self.scorers,
        )
        current = self.prompt
        old_log_probs, rewards = [], []
        for t in range(schedule.t_max_for(stage)):
            band = schedule.bounds_for(stage, t)
            (keep_probs,) = policy_forward(self.actor, [current])
            labels, lp = sample_actions(keep_probs, seed_for(seed, t))
            assert round_.states[t] == (current,)
            (stored,) = round_.labels[t]
            assert (stored.dtype, stored.tobytes()) == (labels.dtype, labels.tobytes())
            nxt = apply_action(current, labels, keep_probs)
            old_log_probs.append(lp)
            rewards.append(compute_reward(
                self.prompt, nxt, reward_cfg, band, self.scorers
            ).total)
            current = nxt
        assert len(round_.states) == len(round_.labels) == len(rewards)
        assert round_.old_log_probs.tobytes() == np.array([old_log_probs]).tobytes()
        assert round_.rewards.tobytes() == np.array([rewards]).tobytes()
        assert round_.final_rho.tobytes() == np.array([len(current) / len(self.prompt)]).tobytes()


def _small_training_setup(n_prompts=8, n_gen=2):
    prompts, vocab, scorers, encoder_cfg = tiny_world(n_prompts=n_prompts, n_gen=n_gen)
    trainer_cfg = TrainerConfig(
        actor_lr=1e-3, clip_eps=0.15,
        batch_size=2, buffer_capacity=4, discount=1.0, seed=77,
    )
    return prompts, vocab, scorers, encoder_cfg, trainer_cfg


class TestHpcTrain:
    def test_single_buffer_cycle(self):
        prompts, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup(
            n_prompts=4
        )
        schedule = CurriculumSchedule(
            t_max_per_stage=(2,), epochs_per_stage=(1,)
        )
        state = hpc_train(
            prompts, trainer_cfg, schedule, RewardConfig(), scorers, encoder_cfg,
        )
        # corpus size == buffer capacity: exactly one fill/update/empty cycle
        assert len(state.log) == trainer_cfg.buffer_capacity
        assert {r["round"] for r in state.log} == {0}
        assert [r["iteration"] for r in state.log] == list(range(4))

    def test_seeded_determinism(self):
        prompts, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup()
        schedule = CurriculumSchedule(
            t_max_per_stage=(2, 1), epochs_per_stage=(1, 1)
        )
        run = lambda: hpc_train(
            prompts, trainer_cfg, schedule, RewardConfig(), scorers, encoder_cfg,
        )
        a, b = run(), run()
        assert a.log == b.log
        pa, pb = a.actor.parameters(), b.actor.parameters()
        assert all(np.array_equal(pa[k], pb[k]) for k in pa)

    def test_update_changes_parameters(self):
        prompts, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup(
            n_prompts=4
        )
        schedule = CurriculumSchedule(
            t_max_per_stage=(1,), epochs_per_stage=(1,)
        )
        before = Actor.build(encoder_cfg, seed_for(trainer_cfg.seed, 101)).parameters()
        state = hpc_train(
            prompts, trainer_cfg, schedule, RewardConfig(), scorers, encoder_cfg,
        )
        after = state.actor.parameters()
        assert any(not np.array_equal(before[k], after[k]) for k in after)

    def test_log_reports_bounds(self):
        prompts, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup(
            n_prompts=4
        )
        fixed = CurriculumSchedule(
            t_max_per_stage=(2, 1), epochs_per_stage=(1, 1),
            fixed_bounds=(0.5, 0.9),
        )
        state = hpc_train(
            prompts, trainer_cfg, fixed, RewardConfig(), scorers, encoder_cfg,
        )
        assert {r["mean_c_s"] for r in state.log} == {0.5}
        assert {r["mean_c_l"] for r in state.log} == {0.9}

    def test_empty_corpus_errors(self):
        _, _, scorers, encoder_cfg, trainer_cfg = _small_training_setup()
        with pytest.raises(ValueError, match="empty corpus"):
            hpc_train(
                [], trainer_cfg, CurriculumSchedule(), RewardConfig(), scorers,
                encoder_cfg,
            )


class TestCollectionPlan:
    """Only a stage's whole rounds run, each collected in one call with
    one policy pass per step."""

    def _counting(self, monkeypatch, name):
        calls = []
        original = getattr(trainer, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(trainer, name, counted)
        return calls

    def test_corpus_below_buffer_collects_nothing(self, monkeypatch):
        prompts, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup(
            n_prompts=3
        )
        schedule = CurriculumSchedule(
            t_max_per_stage=(2, 1), epochs_per_stage=(1, 1)
        )
        calls = self._counting(monkeypatch, "collect_trajectory")
        state = hpc_train(
            prompts, trainer_cfg, schedule, RewardConfig(), scorers, encoder_cfg,
        )
        assert calls == [] and state.log == [] and state.next_stage == 3
        initial = init_train_state(trainer_cfg, encoder_cfg)
        pg, pw = state.actor.parameters(), initial.actor.parameters()
        assert all(np.array_equal(pg[k], pw[k]) for k in pw)

    def test_collects_whole_rounds_and_walks_no_reference(self, monkeypatch):
        prompts, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup(
            n_prompts=5
        )
        schedule = CurriculumSchedule(
            t_max_per_stage=(1, 1), epochs_per_stage=(1, 2)
        )
        rounds = self._counting(monkeypatch, "collect_trajectory")
        walks = []
        greedy_continue = scorers.lm.greedy_continue

        def counted(context, n):
            walks.append(context)
            return greedy_continue(context, n)

        monkeypatch.setattr(scorers.lm, "greedy_continue", counted)
        state = hpc_train(
            prompts, trainer_cfg, schedule, RewardConfig(), scorers, encoder_cfg,
        )
        # M = 4: stage 1 runs floor(5 / 4) = 1 round, stage 2 runs floor(10 / 4) = 2.
        assert [args[4] for args in rounds] == [1, 2, 2]
        # The bigram proxy's divergence reads only the first reference
        # position, whose context is the prompt itself.
        assert walks == []
        # Stage 2's second round is episodes 4-7: prompt 4 of epoch 1, then
        # prompts 0-2 of epoch 2, each on its episode's seed. It is logged as
        # round 0 of epoch 2, the epoch of its last episode.
        plan = [(1, 4), (2, 0), (2, 1), (2, 2)]
        assert rounds[2][0] == [prompts[i] for _, i in plan]
        assert rounds[2][1] == [
            seed_for(trainer_cfg.seed, trainer._TAG_EPISODE, 2, e, i) for e, i in plan
        ]
        logged = sorted({(r["stage"], r["epoch"], r["round"]) for r in state.log})
        assert logged == [(1, 1, 0), (2, 1, 0), (2, 2, 0)]

    def test_one_policy_pass_per_step_of_each_round(self, monkeypatch):
        prompts, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup(
            n_prompts=5
        )
        schedule = CurriculumSchedule(
            t_max_per_stage=(2, 1), epochs_per_stage=(1, 2)
        )
        passes = self._counting(monkeypatch, "policy_forward")
        hpc_train(
            prompts, trainer_cfg, schedule, RewardConfig(), scorers, encoder_cfg,
        )
        # Stage 1: one round of two steps; stage 2: two rounds of one step.
        # Each pass covers the round's M = 4 episodes.
        assert [len(args[1]) for args in passes] == [4] * 4

    def test_a_round_encodes_each_distinct_prompt_once(self, monkeypatch):
        prompts, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup(
            n_prompts=2
        )
        # M = 4 episodes over P = 2 prompts: one round over two epochs, in
        # which each prompt starts two episodes.
        schedule = CurriculumSchedule(t_max_per_stage=(1,), epochs_per_stage=(2,))
        passes = self._counting(monkeypatch, "policy_forward")
        encoded = []
        real = TinyTransformerEncoder.encode

        def recording(self, ids, lengths):
            encoded.append(list(lengths))
            return real(self, ids, lengths)

        monkeypatch.setattr(TinyTransformerEncoder, "encode", recording)
        hpc_train(
            prompts, trainer_cfg, schedule, RewardConfig(), scorers, encoder_cfg,
        )
        assert [len(args[1]) for args in passes] == [4]
        assert encoded == [[len(prompts[0]), len(prompts[1])]]

    def test_each_epoch_reports_after_its_last_round(self, monkeypatch):
        prompts, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup(
            n_prompts=5
        )
        schedule = CurriculumSchedule(
            t_max_per_stage=(1, 1), epochs_per_stage=(1, 2)
        )
        events = []
        update_round = trainer._update_round

        def recorded(round_, state, cfg, schedule, stage, epoch, round_idx, grad):
            events.append((stage, epoch, round_idx))
            update_round(round_, state, cfg, schedule, stage, epoch, round_idx, grad)

        monkeypatch.setattr(trainer, "_update_round", recorded)
        hpc_train(
            prompts, trainer_cfg, schedule, RewardConfig(), scorers, encoder_cfg,
            progress=events.append,
        )
        assert events == [
            (1, 1, 0), "stage 1 epoch 1 done (1 rounds)",
            (2, 1, 0), "stage 2 epoch 1 done (1 rounds)",
            (2, 2, 0), "stage 2 epoch 2 done (1 rounds)",
        ]


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        prompts, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup(
            n_prompts=4
        )
        schedule = CurriculumSchedule(
            t_max_per_stage=(1,), epochs_per_stage=(1,)
        )
        state = hpc_train(
            prompts, trainer_cfg, schedule, RewardConfig(), scorers, encoder_cfg,
        )
        path = tmp_path / "ckpt.npz"
        save_checkpoint(state, vocab, path)
        loaded, loaded_vocab = load_checkpoint(path)
        assert loaded_vocab == vocab
        assert loaded.next_stage == state.next_stage
        assert loaded.log == state.log
        prompt = prompts[0]
        (a,) = policy_forward(state.actor, [prompt])
        (b,) = policy_forward(loaded.actor, [prompt])
        assert np.array_equal(a, b)
        assert loaded.actor_opt.t == state.actor_opt.t

    def test_truncated_checkpoint_errors(self, tmp_path):
        prompts, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup(
            n_prompts=4
        )
        state = init_train_state(trainer_cfg, encoder_cfg)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(state, vocab, path)
        path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            load_checkpoint(path)

    @staticmethod
    def _fresh_checkpoint(tmp_path):
        _, vocab, _, encoder_cfg, trainer_cfg = _small_training_setup(n_prompts=4)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(init_train_state(trainer_cfg, encoder_cfg), vocab, path)
        return path

    def test_member_order(self, tmp_path):
        # The actor's flat vector, then the optimizer's t, m and v, then
        # the metadata.
        path = self._fresh_checkpoint(tmp_path)
        with np.load(path) as data:
            names = list(data.files)
        assert names == ["actor", "opt_actor.t", "opt_actor.m", "opt_actor.v", "__meta__"]
        assert tuple(names) == CHECKPOINT_MEMBERS

    def test_vectors_follow_the_layout_of_the_encoder_config(self, tmp_path):
        path = self._fresh_checkpoint(tmp_path)
        state, _ = load_checkpoint(path)
        shapes = actor_shapes(state.actor.encoder.cfg)
        size = sum(math.prod(shape) for shape in shapes.values())
        with np.load(path) as data:
            for name in ("actor", "opt_actor.m", "opt_actor.v"):
                assert data[name].dtype == np.float64 and data[name].shape == (size,)
            assert data["opt_actor.t"].shape == ()
        # Each named parameter sits at its offset in the vector.
        offset = 0
        for name, value in state.actor.parameters().items():
            assert value.shape == shapes[name]
            n = value.size
            assert np.array_equal(state.actor.flat[offset:offset + n], value.ravel())
            offset += n
        assert list(state.actor.parameters()) == list(shapes)

    def test_version_mismatch_errors(self, tmp_path):
        path = self._fresh_checkpoint(tmp_path)
        rewrite_checkpoint(path, bump_schema_version)
        with pytest.raises(ValueError, match="schema_version"):
            load_checkpoint(path)

    def test_schema_2_file_errors(self, tmp_path):
        # The previous format: one member per parameter and per moment.
        _, vocab, _, encoder_cfg, trainer_cfg = _small_training_setup(n_prompts=4)
        state = init_train_state(trainer_cfg, encoder_cfg)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(state, vocab, path)
        params = state.actor.parameters()
        arrays = {f"actor.{k}": v for k, v in params.items()}
        arrays["opt_actor.t"] = np.array(0, dtype=np.int64)
        arrays.update({f"opt_actor.m.{k}": np.zeros_like(v) for k, v in params.items()})
        arrays.update({f"opt_actor.v.{k}": np.zeros_like(v) for k, v in params.items()})
        with np.load(path) as data:
            meta = json.loads(data["__meta__"].tobytes().decode())
        meta["schema_version"] = 2
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        for actor_only in (False, True):
            with pytest.raises(ValueError, match="unsupported checkpoint schema_version: 2"):
                load_checkpoint(path, actor_only=actor_only)

    def test_schema_3_file_errors(self, tmp_path):
        # The previous layout: each attention layer also held a key bias.
        _, vocab, _, encoder_cfg, trainer_cfg = _small_training_setup(n_prompts=4)
        state = init_train_state(trainer_cfg, encoder_cfg)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(state, vocab, path)
        extra = np.zeros(encoder_cfg.n_layers * encoder_cfg.d_model)

        def schema_3(arrays):
            for name in ("actor", "opt_actor.m", "opt_actor.v"):
                arrays[name] = np.concatenate([arrays[name], extra])
            edit_meta(lambda meta: meta.update(schema_version=3))(arrays)

        rewrite_checkpoint(path, schema_3)
        for actor_only in (False, True):
            with pytest.raises(ValueError, match="unsupported checkpoint schema_version: 3"):
                load_checkpoint(path, actor_only=actor_only)

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param(lambda a: a[:-1], id="short"),
            pytest.param(lambda a: np.append(a, 0.0), id="long"),
            pytest.param(lambda a: a[:, None], id="extra-axis"),
            pytest.param(lambda a: a.astype(np.float32), id="float32"),
        ],
    )
    @pytest.mark.parametrize("member", ["actor", "opt_actor.m", "opt_actor.v"])
    def test_wrong_shape_errors(self, tmp_path, member, change):
        path = self._fresh_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda arrays: arrays.update({member: change(arrays[member])}))
        match = f"corrupt checkpoint: field {member}: expected a float64 vector of shape"
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("actor_only", [False, True])
    def test_a_claim_of_many_layers_is_refused_before_any_is_laid_out(
        self, tmp_path, monkeypatch, actor_only
    ):
        # A loop over 10**12 layers would never end; the closed-form size
        # refuses the claim first.
        path = self._fresh_checkpoint(tmp_path)
        rewrite_checkpoint(path, edit_meta(lambda m: m["encoder_cfg"].update(n_layers=10**12)))

        def no_layout(cfg):
            raise AssertionError("the actor's layout was built for a claimed config")

        monkeypatch.setattr(policy, "actor_shapes", no_layout)
        match = "corrupt checkpoint: field actor: expected a float64 vector of shape"
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path, actor_only=actor_only)

    @pytest.mark.parametrize(
        "t", [np.array([0, 0]), np.array(1.0), np.array(-1), np.array(True)],
        ids=["vector", "float", "negative", "bool"],
    )
    def test_bad_step_count_errors(self, tmp_path, t):
        path = self._fresh_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda arrays: arrays.update({"opt_actor.t": t}))
        with pytest.raises(ValueError, match="corrupt checkpoint: field opt_actor.t is"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "member", ["actor", "opt_actor.t", "opt_actor.m", "opt_actor.v"]
    )
    def test_missing_member_errors(self, tmp_path, member):
        path = self._fresh_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda arrays: arrays.pop(member))
        for actor_only in (False, True):
            with pytest.raises(ValueError, match="field set mismatch"):
                load_checkpoint(path, actor_only=actor_only)

    def test_missing_meta_errors(self, tmp_path):
        path = self._fresh_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda arrays: arrays.pop("__meta__"))
        with pytest.raises(ValueError, match="corrupt checkpoint: missing field __meta__"):
            load_checkpoint(path)

    def test_extra_member_errors(self, tmp_path):
        path = self._fresh_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda arrays: arrays.update({"actor.stray": np.zeros(2)}))
        for actor_only in (False, True):
            with pytest.raises(ValueError, match="field set mismatch"):
                load_checkpoint(path, actor_only=actor_only)

    def test_not_an_archive_errors(self, tmp_path):
        path = tmp_path / "ckpt.npy"
        np.save(path, np.zeros(3))
        with pytest.raises(ValueError, match="corrupt checkpoint: not an npz archive"):
            load_checkpoint(path)

    def test_actor_only_load_reads_no_optimizer_member(self, tmp_path, monkeypatch):
        path = self._fresh_checkpoint(tmp_path)
        state, vocab = load_checkpoint(path)
        read = {}
        getitem = np.lib.npyio.NpzFile.__getitem__

        def recording(self, key):
            read[key] = getitem(self, key)
            return read[key]

        def no_adam(*args, **kwargs):
            raise AssertionError("an actor-only load built an optimizer")

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recording)
        monkeypatch.setattr(trainer, "Adam", no_adam)
        actor, actor_vocab = load_checkpoint(path, actor_only=True)
        assert sorted(read) == ["__meta__", "actor"]
        assert isinstance(actor, Actor) and actor_vocab == vocab
        # The array read from the file is the actor's storage.
        assert actor.flat is read["actor"]
        assert actor.flat.tobytes() == state.actor.flat.tobytes()

    def test_views_share_the_flat_vector_and_a_clone_shares_nothing(self, tmp_path):
        path = self._fresh_checkpoint(tmp_path)
        state, _ = load_checkpoint(path)
        actor, opt = state.actor, state.actor_opt
        views = [*actor.encoder.params.values(), actor.head_w, actor.head_b]
        assert len(views) == len(actor.parameters())
        assert all(np.shares_memory(v, actor.flat) for v in views)
        assert all(np.shares_memory(v, actor.flat) for v in actor.parameters().values())
        assert opt.m.shape == opt.v.shape == actor.flat.shape
        actor.flat[...] = np.arange(actor.flat.size)
        assert actor.head_b[1] == actor.flat.size - 1
        assert actor.encoder.params["tok_emb"][0, 1] == 1.0
        clone = Actor(actor.encoder.cfg, actor.flat.copy())
        assert clone.flat.tobytes() == actor.flat.tobytes()
        clone_views = [clone.flat, *clone.parameters().values()]
        assert not any(
            np.shares_memory(c, a) for c in clone_views for a in [actor.flat, *views]
        )

    @pytest.mark.parametrize(
        "cut",
        [
            pytest.param(lambda raw: b"\xff" + raw, id="not-utf8"),
            pytest.param(lambda raw: raw[:-20], id="truncated-json"),
        ],
    )
    def test_undecodable_meta_errors(self, tmp_path, cut):
        path = self._fresh_checkpoint(tmp_path)

        def edit(arrays):
            raw = cut(arrays["__meta__"].tobytes())
            arrays["__meta__"] = np.frombuffer(raw, dtype=np.uint8)

        rewrite_checkpoint(path, edit)
        match = "corrupt checkpoint: __meta__ is not UTF-8 JSON"
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, change",
        [
            ("vocab", lambda m: m.pop("vocab")),
            ("vocab", lambda m: m["vocab"].update(surfaces="w0 w1")),
            ("vocab", lambda m: m["vocab"].update(unknown_id="0")),
            ("encoder_cfg", lambda m: m.pop("encoder_cfg")),
            ("encoder_cfg", lambda m: m["encoder_cfg"].update(d_model=8.0)),
            ("encoder_cfg", lambda m: m["encoder_cfg"].pop("max_len")),
            ("actor_lr", lambda m: m.pop("actor_lr")),
            ("actor_lr", lambda m: m.update(actor_lr="0.001")),
            ("actor_lr", lambda m: m.update(actor_lr=float("inf"))),
            ("next_stage", lambda m: m.pop("next_stage")),
            ("next_stage", lambda m: m.update(next_stage=True)),
            ("log", lambda m: m.pop("log")),
            ("log", lambda m: m.update(log="[]")),
            ("kind", lambda m: m.pop("kind")),
            ("kind", lambda m: m.update(kind="promptpress-corpus")),
        ],
    )
    def test_missing_or_ill_typed_meta_field_errors(self, tmp_path, field, change):
        path = self._fresh_checkpoint(tmp_path)
        rewrite_checkpoint(path, edit_meta(change))
        match = f"corrupt checkpoint: __meta__ field {field} is missing or ill-typed"
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda m: m["vocab"].update(unknown_id=10**6), "unknown_id out of range"),
            (lambda m: m["encoder_cfg"].update(n_heads=3), "divisible by n_heads"),
        ],
    )
    def test_invalid_meta_value_errors(self, tmp_path, change, message):
        path = self._fresh_checkpoint(tmp_path)
        rewrite_checkpoint(path, edit_meta(change))
        with pytest.raises(ValueError, match=f"corrupt checkpoint: .*{message}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("actor_only", [False, True])
    @pytest.mark.parametrize("change, size", [(cut_vocabulary, -1), (extend_vocabulary, 1)])
    def test_vocabulary_that_does_not_fit_the_encoder_errors(
        self, tmp_path, change, size, actor_only
    ):
        path = self._fresh_checkpoint(tmp_path)
        _, vocab = load_checkpoint(path)
        rewrite_checkpoint(path, edit_meta(change))
        match = (f"corrupt checkpoint: a vocabulary of {vocab.size + size} surfaces "
                 f"for an encoder of {vocab.size} token ids")
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path, actor_only=actor_only)

    def test_resume_reproduces_full_run(self, tmp_path):
        prompts, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup(
            n_prompts=4, n_gen=2
        )
        full_schedule = CurriculumSchedule(
            t_max_per_stage=(2, 2, 1), epochs_per_stage=(1, 1, 2)
        )
        full = hpc_train(
            prompts, trainer_cfg, full_schedule, RewardConfig(), scorers, encoder_cfg,
        )

        two_stage = CurriculumSchedule(
            t_max_per_stage=(2, 2), epochs_per_stage=(1, 1)
        )
        partial = hpc_train(
            prompts, trainer_cfg, two_stage, RewardConfig(), scorers, encoder_cfg,
        )
        assert partial.next_stage == 3
        path = tmp_path / "stage2.npz"
        save_checkpoint(partial, vocab, path)

        resumed, resumed_vocab = load_checkpoint(path)
        assert resumed_vocab == vocab  # so ``prompts`` are its tokenization too
        done = hpc_train(
            prompts, trainer_cfg, full_schedule, RewardConfig(), scorers,
            encoder_cfg, state=resumed,
        )
        assert done.log == full.log  # log continuity
        pa, pb = done.actor.parameters(), full.actor.parameters()
        assert all(np.array_equal(pa[k], pb[k]) for k in pa)
