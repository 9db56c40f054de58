"""Trainer tests: curriculum schedule, PPO objective, returns, buffer,
trajectory collection, the full loop, and checkpoint/resume."""

import math

import numpy as np
import pytest

from conftest import bump_schema_version, rewrite_checkpoint, tiny_world
from gradcheck import (
    REL_TOL,
    max_relative_error,
    packed_log_prob_and_grad,
    packed_value_and_grad,
)
from promptpress import trainer
from promptpress.encoder import EncoderConfig
from promptpress.env import ActionVector, reset
from promptpress.optim import Adam, clip_gradients, global_norm
from promptpress.policy import (
    Actor,
    Critic,
    action_log_prob,
    policy_forward,
    value_forward,
)
from promptpress.reward import RewardConfig
from promptpress.text import PromptRecord, TokenSequence, tokenize
from promptpress.trainer import (
    CurriculumSchedule,
    ReplayBuffer,
    TrainerConfig,
    TrajectoryStep,
    collect_trajectory,
    critic_loss_and_grads,
    curriculum_bounds,
    hpc_train,
    init_train_state,
    load_checkpoint,
    ppo_objective,
    ppo_objective_and_grads,
    returns_from,
    save_checkpoint,
    seed_for,
    td_error,
)

# Hand-evaluated schedule grid for psi = 0.1, stages (T_max): 1..2 -> 2, 3 -> 1.
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
        for (stage, t, t_max), expected in SCHEDULE_GRID.items():
            c_s, c_l = curriculum_bounds(stage, t, t_max, psi=0.1)
            assert c_s == pytest.approx(expected[0], abs=1e-12)
            assert c_l == pytest.approx(expected[1], abs=1e-12)

    def test_band_width_constant(self):
        for (stage, t, t_max) in SCHEDULE_GRID:
            c_s, c_l = curriculum_bounds(stage, t, t_max, psi=0.1)
            assert c_l - c_s == pytest.approx(0.4, abs=1e-12)

    def test_monotone_in_progress(self):
        values = [
            curriculum_bounds(stage, t, t_max, 0.1)
            for (stage, t, t_max) in sorted(
                SCHEDULE_GRID, key=lambda k: k[0] + k[1] / k[2]
            )
        ]
        for (s1, l1), (s2, l2) in zip(values, values[1:]):
            assert s2 <= s1 + 1e-12 and l2 <= l1 + 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            curriculum_bounds(0, 0, 2, 0.1)
        with pytest.raises(ValueError):
            curriculum_bounds(1, 3, 2, 0.1)
        with pytest.raises(ValueError):
            curriculum_bounds(1, -1, 2, 0.1)
        with pytest.raises(ValueError):
            curriculum_bounds(1, 0, 0, 0.1)

    def test_clamp_far_outside_schedule(self):
        c_s, c_l = curriculum_bounds(9, 1, 1, psi=0.1)
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
        with pytest.raises(ValueError):
            CurriculumSchedule(n_stages=2, t_max_per_stage=(2,), epochs_per_stage=(1, 1))
        with pytest.raises(ValueError):
            CurriculumSchedule(t_max_per_stage=(2, 0, 1))
        with pytest.raises(ValueError):
            CurriculumSchedule(psi=0.0)


def _synthetic_step(actor, ids, labels, delta, advantage):
    """A step whose policy ratio under ``actor`` is exactly ``delta``."""
    new_lp = action_log_prob(actor, ids, labels)
    return TrajectoryStep(
        state=reset(TokenSequence(ids)),
        action=ActionVector(labels),
        old_log_prob=new_lp - math.log(delta),
        reward=advantage,
        value=0.0,
        advantage=advantage,
    )


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
        obj = ppo_objective(steps, actor, clip_eps=0.15)
        assert obj == pytest.approx((2.5 - 1.5) / 2, abs=1e-6)

    def test_hand_clipped_positive_advantage(self):
        actor = self._actor()
        step = _synthetic_step(actor, (1, 2), (1, 1), delta=1.3, advantage=2.0)
        # min(1.3 * 2, clip(1.3 -> 1.15) * 2) = 2.3
        assert ppo_objective([step], actor, 0.15) == pytest.approx(2.3)

    def test_hand_clipped_negative_advantage(self):
        actor = self._actor()
        step = _synthetic_step(actor, (1, 2), (1, 1), delta=0.7, advantage=-1.0)
        # min(-0.7, clip(0.7 -> 0.85) * -1) = -0.85
        assert ppo_objective([step], actor, 0.15) == pytest.approx(-0.85)

    def test_unclipped_region_matches_plain_term(self):
        actor = self._actor()
        for delta, adv in ((0.9, 1.7), (1.1, -0.3), (1.0, 4.0)):
            step = _synthetic_step(actor, (3, 1), (0, 1), delta, adv)
            assert ppo_objective([step], actor, 0.15) == pytest.approx(delta * adv)

    def test_degenerate_ratio_errors(self):
        actor = self._actor()
        step = TrajectoryStep(
            state=reset(TokenSequence((1, 2))),
            action=ActionVector((1, 1)),
            old_log_prob=-1e6,
            reward=0.0,
            value=0.0,
            advantage=1.0,
        )
        with pytest.raises(ValueError, match="degenerate policy ratio"):
            ppo_objective([step], actor, 0.15)

    def test_empty_batch_errors(self):
        with pytest.raises(ValueError):
            ppo_objective([], self._actor(), 0.15)

    def test_gradient_zero_when_clipped(self):
        actor = self._actor()
        # positive advantage, ratio far above 1 + eps: objective is flat
        step = _synthetic_step(actor, (1, 2), (1, 1), delta=2.0, advantage=1.0)
        _, grads = ppo_objective_and_grads([step], actor, 0.15)
        assert all(np.all(g == 0) for g in grads.values())

    def test_gradient_matches_finite_difference_through_clip(self):
        from gradcheck import REL_TOL, max_relative_error

        actor = self._actor()
        steps = [
            _synthetic_step(actor, (1, 2, 3), (1, 0, 1), 1.05, 2.0),
            _synthetic_step(actor, (4, 5), (0, 1), 0.95, -1.0),
        ]
        _, grads = ppo_objective_and_grads(steps, actor, 0.15)
        worst, where = max_relative_error(
            actor.parameters(),
            grads,
            lambda: ppo_objective(steps, actor, 0.15),
        )
        assert worst < REL_TOL, f"worst {worst:.2e} at {where}"


def _relative_gap(got, expected):
    """Global norm of got - expected over the norm of expected."""
    diff = {k: got[k] - expected[k] for k in expected}
    assert set(got) == set(expected)
    return global_norm(diff) / global_norm(expected)


class TestPackedObjectives:
    """Both batch objectives run one encoder pass over the packed batch.

    The references below are the per-step loops: one single-sequence
    gradient per step, scaled by its coefficient and summed.
    """

    def _models(self):
        _, vocab, _, _ = tiny_world()
        cfg = EncoderConfig(vocab_size=vocab.size, d_model=8, n_heads=2,
                            n_layers=2, d_ff=16, max_len=12)
        rng = np.random.default_rng(17)
        actor = Actor.build(cfg, seed=5)
        actor.head_w[...] = rng.normal(0, 0.4, actor.head_w.shape)
        critic = Critic.build(cfg, seed=6)
        critic.vh_w2[...] = rng.normal(0, 0.5, critic.vh_w2.shape)
        critic.vh_b2[...] = 0.2
        return cfg, actor, critic

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
        cfg, actor, _ = self._models()
        batch = self._batch(cfg, actor)
        eps, n = 0.15, len(batch)
        expected = {k: np.zeros_like(v) for k, v in actor.parameters().items()}
        total, flowing = 0.0, 0
        for step in batch:
            lp, grads = packed_log_prob_and_grad(
                actor, step.state.current.ids, step.action.labels
            )
            delta = math.exp(lp - step.old_log_prob)
            unclipped = delta * step.advantage
            clipped = min(max(delta, 1 - eps), 1 + eps) * step.advantage
            total += min(unclipped, clipped)
            if unclipped <= clipped:
                flowing += 1
                for k, g in grads.items():
                    expected[k] += delta * step.advantage / n * g
        assert flowing == 2
        objective, got = ppo_objective_and_grads(batch, actor, eps)
        assert objective == pytest.approx(total / n, rel=1e-12)
        assert _relative_gap(got, expected) <= 1e-12

    def test_critic_matches_per_step_sum(self):
        cfg, actor, critic = self._models()
        batch = list(zip(self._batch(cfg, actor), (3.0, -1.0, 0.5, 2.0)))
        n = len(batch)
        expected = {k: np.zeros_like(v) for k, v in critic.parameters().items()}
        loss = 0.0
        for step, g_t in batch:
            v, grads = packed_value_and_grad(critic, step.state.current.ids)
            loss += (g_t - v) ** 2 / n
            for k, g in grads.items():
                expected[k] += -2.0 * (g_t - v) / n * g
        got_loss, got = critic_loss_and_grads(batch, critic)
        assert got_loss == pytest.approx(loss, rel=1e-12)
        assert _relative_gap(got, expected) <= 1e-12

    def test_ppo_finite_difference(self):
        cfg, actor, _ = self._models()
        batch = self._batch(cfg, actor)
        _, grads = ppo_objective_and_grads(batch, actor, 0.15)
        worst, where = max_relative_error(
            actor.parameters(), grads, lambda: ppo_objective(batch, actor, 0.15)
        )
        assert worst < REL_TOL, f"worst {worst:.2e} at {where}"

    def test_critic_finite_difference(self):
        cfg, actor, critic = self._models()
        batch = list(zip(self._batch(cfg, actor), (3.0, -1.0, 0.5, 2.0)))
        _, grads = critic_loss_and_grads(batch, critic)

        def loss():
            return float(np.mean(
                [(g - value_forward(critic, step.state)) ** 2 for step, g in batch]
            ))

        worst, where = max_relative_error(critic.parameters(), grads, loss)
        assert worst < REL_TOL, f"worst {worst:.2e} at {where}"


class TestReturnsAndTd:
    def test_hand_sums(self):
        assert returns_from([1.0, 2.0], 0, 1.0) == pytest.approx(3.0)
        assert returns_from([1.0, 2.0], 1, 1.0) == pytest.approx(2.0)
        assert returns_from([1.0, 2.0, 4.0], 0, 0.5) == pytest.approx(3.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            returns_from([1.0], 1, 1.0)
        with pytest.raises(ValueError):
            returns_from([1.0], -1, 1.0)

    def test_td_error(self):
        assert td_error(3.0, 1.0) == 2.0
        assert td_error(2.0, 2.0) == 0.0

    def test_batch_mse_hand_value(self):
        _, _, _, encoder_cfg = tiny_world()
        critic = Critic.build(encoder_cfg, seed=2)  # zero value head -> v = 0
        targets = [1.0, -2.0, 0.5, 3.0]
        batch = [
            (
                TrajectoryStep(
                    state=reset(TokenSequence((1, 2))),
                    action=ActionVector((1, 1)),
                    old_log_prob=0.0,
                    reward=g,
                    value=0.0,
                    advantage=g,
                ),
                g,
            )
            for g in targets
        ]
        loss, _ = critic_loss_and_grads(batch, critic)
        assert loss == pytest.approx(np.mean(np.square(targets)))


class TestReplayBuffer:
    def _traj(self):
        corpus, vocab, scorers, encoder_cfg = tiny_world()
        actor = Actor.build(encoder_cfg, seed=1)
        critic = Critic.build(encoder_cfg, seed=2)
        prompt = tokenize(corpus[0].text, vocab)
        return collect_trajectory(
            prompt, actor, critic, CurriculumSchedule(), 1,
            RewardConfig(), scorers, seed=3,
        )

    def test_lifecycle(self):
        traj = self._traj()
        buffer = ReplayBuffer(capacity=3)
        for _ in range(3):
            buffer.add(traj)
        assert buffer.is_full() and len(buffer) == 3
        with pytest.raises(ValueError, match="buffer full"):
            buffer.add(traj)
        buffer.clear()
        assert len(buffer) == 0

    def test_uniform_sample(self):
        traj = self._traj()
        buffer = ReplayBuffer(capacity=2)
        buffer.add(traj)
        buffer.add(traj)
        picked = buffer.sample(np.random.default_rng(0), 5)
        assert len(picked) == 5

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=0)


class TestCollectTrajectory:
    def setup_method(self):
        self.corpus, self.vocab, self.scorers, self.encoder_cfg = tiny_world()
        self.actor = Actor.build(self.encoder_cfg, seed=11)
        self.critic = Critic.build(self.encoder_cfg, seed=12)
        self.prompt = tokenize(self.corpus[1].text, self.vocab)

    def test_stage3_has_one_step(self):
        traj = collect_trajectory(
            self.prompt, self.actor, self.critic, CurriculumSchedule(), 3,
            RewardConfig(), self.scorers, seed=9,
        )
        assert len(traj.steps) == 1
        assert traj.bounds == (pytest.approx((0.3, 0.7)),)

    def test_fixed_seed_repeats_bitwise(self):
        kwargs = dict(
            prompt=self.prompt, actor_old=self.actor, critic_old=self.critic,
            schedule=CurriculumSchedule(), stage=1, reward_cfg=RewardConfig(),
            scorers=self.scorers, seed=4,
        )
        assert collect_trajectory(**kwargs) == collect_trajectory(**kwargs)

    def test_hand_traced_rollout(self):
        """Re-derive every stored field with direct component calls."""
        from promptpress.env import apply_action, compression_rate
        from promptpress.policy import sample_actions
        from promptpress.reward import compute_reward
        from promptpress.scoring import generate_reference

        schedule = CurriculumSchedule()
        reward_cfg = RewardConfig()
        stage, seed = 1, 21
        traj = collect_trajectory(
            self.prompt, self.actor, self.critic, schedule, stage,
            reward_cfg, self.scorers, seed=seed,
        )
        reference = generate_reference(self.scorers.lm, self.prompt, self.scorers.n_gen)
        assert traj.reference == reference
        state = reset(self.prompt)
        for t, step in enumerate(traj.steps):
            c_s, c_l = curriculum_bounds(stage, t, schedule.t_max_for(stage), schedule.psi)
            out = policy_forward(self.actor, state)
            action, lp = sample_actions(out, seed_for(seed, t))
            assert step.state == state
            assert step.action == action
            assert step.old_log_prob == lp
            nxt = apply_action(state, action, out.keep_probs)
            expected_reward = compute_reward(
                self.prompt, nxt.current, reward_cfg.with_bounds(c_s, c_l),
                self.scorers.retention, self.scorers.lm, reference,
            ).total
            assert step.reward == expected_reward
            assert step.value == value_forward(self.critic, state)
            assert step.advantage == step.reward - step.value
            state = nxt
        assert traj.final_state == state
        assert traj.final_rho == compression_rate(state)


class TestCriticConvergence:
    def test_frozen_batch_td_updates_converge(self):
        """TD updates on a frozen batch fit the critic to its return targets.

        Thresholds are relative to var(targets), the least MSE a constant
        predictor reaches (the best a critic whose only live parameter is
        vh_b2 can do). An absolute bound does not fit here: the band
        penalties put these returns near -190..-390, so the gradient norm
        stays far above the clip norm, every Adam step is clipped to unit
        norm, and the attainable precision is set by the learning rate,
        not by the fit. The loss must reach 1e-2 * var and stay below
        0.1 * var over the last 100 steps.
        """
        corpus, vocab, scorers, encoder_cfg = tiny_world(n_prompts=5)
        actor = Actor.build(encoder_cfg, seed=31)
        critic = Critic.build(encoder_cfg, seed=32)
        batch = []
        for i, record in enumerate(corpus[:4]):
            traj = collect_trajectory(
                tokenize(record.text, vocab), actor, critic,
                CurriculumSchedule(), 1, RewardConfig(), scorers, seed=100 + i,
            )
            for t, step in enumerate(traj.steps):
                batch.append((step, returns_from(traj.rewards, t, 1.0)))
        batch = batch[:8]
        assert len(batch) == 8

        opt = Adam(critic.parameters(), lr=0.05)
        params = critic.parameters()
        losses = []
        for _ in range(500):
            loss, grads = critic_loss_and_grads(batch, critic)
            losses.append(loss)
            clip_gradients(grads, 1.0)
            opt.step(params, grads)
        var = float(np.var([g for _, g in batch]))
        rel = np.asarray(losses) / var
        assert rel.min() < 1e-2, (
            f"min loss {rel.min():.2e} * var(targets) never went below 1e-2 * var; "
            f"a constant predictor reaches 1 * var"
        )
        assert rel[-100:].max() < 0.1, (
            f"loss rose to {rel[-100:].max():.2e} * var(targets) in the last 100 "
            f"steps; it must stay below 0.1 * var"
        )


def _small_training_setup(n_prompts=8, n_gen=2):
    corpus, vocab, scorers, encoder_cfg = tiny_world(n_prompts=n_prompts, n_gen=n_gen)
    trainer_cfg = TrainerConfig(
        actor_lr=1e-3, critic_lr=1e-2, clip_eps=0.15,
        batch_size=2, buffer_capacity=4, discount=1.0, seed=77,
    )
    return corpus, vocab, scorers, encoder_cfg, trainer_cfg


class TestHpcTrain:
    def test_single_buffer_cycle(self):
        corpus, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup(
            n_prompts=4
        )
        schedule = CurriculumSchedule(
            n_stages=1, t_max_per_stage=(2,), epochs_per_stage=(1,)
        )
        state = hpc_train(
            corpus, vocab, trainer_cfg, schedule, RewardConfig(), scorers,
            encoder_cfg=encoder_cfg,
        )
        # corpus size == buffer capacity: exactly one fill/update/empty cycle
        assert len(state.log.records) == trainer_cfg.buffer_capacity
        assert {r["round"] for r in state.log.records} == {0}
        assert [r["iteration"] for r in state.log.records] == list(range(4))

    def test_seeded_determinism(self):
        corpus, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup()
        schedule = CurriculumSchedule(
            n_stages=2, t_max_per_stage=(2, 1), epochs_per_stage=(1, 1)
        )
        run = lambda: hpc_train(
            corpus, vocab, trainer_cfg, schedule, RewardConfig(), scorers,
            encoder_cfg=encoder_cfg,
        )
        a, b = run(), run()
        assert a.log.records == b.log.records
        assert a.log.dumps() == b.log.dumps()
        pa, pb = a.actor.parameters(), b.actor.parameters()
        assert all(np.array_equal(pa[k], pb[k]) for k in pa)

    def test_update_changes_parameters(self):
        corpus, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup(
            n_prompts=4
        )
        schedule = CurriculumSchedule(
            n_stages=1, t_max_per_stage=(1,), epochs_per_stage=(1,)
        )
        before = Actor.build(encoder_cfg, seed_for(trainer_cfg.seed, 101)).parameters()
        state = hpc_train(
            corpus, vocab, trainer_cfg, schedule, RewardConfig(), scorers,
            encoder_cfg=encoder_cfg,
        )
        after = state.actor.parameters()
        assert any(not np.array_equal(before[k], after[k]) for k in after)

    def test_log_reports_bounds(self):
        corpus, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup(
            n_prompts=4
        )
        fixed = CurriculumSchedule(
            n_stages=2, t_max_per_stage=(2, 1), epochs_per_stage=(1, 1),
            fixed_bounds=(0.5, 0.9),
        )
        state = hpc_train(
            corpus, vocab, trainer_cfg, fixed, RewardConfig(), scorers,
            encoder_cfg=encoder_cfg,
        )
        assert {r["mean_c_s"] for r in state.log.records} == {0.5}
        assert {r["mean_c_l"] for r in state.log.records} == {0.9}

    def test_empty_corpus_errors(self):
        _, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup()
        with pytest.raises(ValueError, match="empty corpus"):
            hpc_train(
                [], vocab, trainer_cfg, CurriculumSchedule(), RewardConfig(),
                scorers, encoder_cfg=encoder_cfg,
            )


class TestCollectionPlan:
    """Only the episodes that fill a buffer within their stage are run."""

    def _counting(self, monkeypatch, name):
        calls = []
        original = getattr(trainer, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(trainer, name, counted)
        return calls

    def test_corpus_below_buffer_collects_nothing(self, monkeypatch):
        corpus, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup(
            n_prompts=3
        )
        schedule = CurriculumSchedule(
            n_stages=2, t_max_per_stage=(2, 1), epochs_per_stage=(1, 1)
        )
        calls = self._counting(monkeypatch, "collect_trajectory")
        state = hpc_train(
            corpus, vocab, trainer_cfg, schedule, RewardConfig(), scorers,
            encoder_cfg=encoder_cfg,
        )
        assert calls == [] and state.log.records == [] and state.next_stage == 3
        initial = init_train_state(trainer_cfg, encoder_cfg)
        for got, want in ((state.actor, initial.actor), (state.critic, initial.critic)):
            pg, pw = got.parameters(), want.parameters()
            assert all(np.array_equal(pg[k], pw[k]) for k in pw)

    def test_collects_full_buffers_and_each_reference_once(self, monkeypatch):
        corpus, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup(
            n_prompts=5
        )
        schedule = CurriculumSchedule(
            n_stages=2, t_max_per_stage=(1, 1), epochs_per_stage=(1, 2)
        )
        episodes = self._counting(monkeypatch, "collect_trajectory")
        references = self._counting(monkeypatch, "generate_reference")
        hpc_train(
            corpus, vocab, trainer_cfg, schedule, RewardConfig(), scorers,
            encoder_cfg=encoder_cfg,
        )
        # M = 4: stage 1 runs floor(5 / 4) * 4 = 4 episodes, stage 2 runs 8.
        assert [args[4] for args in episodes] == [1] * 4 + [2] * 8
        assert len(references) == 5

    def test_overlong_prompt_fails_before_collection(self):
        corpus, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup(
            n_prompts=2
        )
        long_text = " ".join(["w1"] * (encoder_cfg.max_len + 3))
        corpus = corpus + [PromptRecord("too-long", long_text)]
        with pytest.raises(ValueError, match=r"'too-long' has 35 tokens.*max_len 32"):
            hpc_train(
                corpus, vocab, trainer_cfg, CurriculumSchedule(), RewardConfig(),
                scorers, encoder_cfg=encoder_cfg,
            )


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        corpus, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup(
            n_prompts=4
        )
        schedule = CurriculumSchedule(
            n_stages=1, t_max_per_stage=(1,), epochs_per_stage=(1,)
        )
        state = hpc_train(
            corpus, vocab, trainer_cfg, schedule, RewardConfig(), scorers,
            encoder_cfg=encoder_cfg,
        )
        path = tmp_path / "ckpt.npz"
        save_checkpoint(state, vocab, path)
        loaded, loaded_vocab = load_checkpoint(path)
        assert loaded_vocab == vocab
        assert loaded.next_stage == state.next_stage
        assert loaded.log.records == state.log.records
        prompt = tokenize(corpus[0].text, vocab)
        a = policy_forward(state.actor, reset(prompt))
        b = policy_forward(loaded.actor, reset(prompt))
        assert np.array_equal(a.keep_probs, b.keep_probs)
        assert value_forward(loaded.critic, reset(prompt)) == value_forward(
            state.critic, reset(prompt)
        )
        assert loaded.actor_opt.t == state.actor_opt.t

    def test_truncated_checkpoint_errors(self, tmp_path):
        corpus, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup(
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
        # Parameters, then each optimizer's t, m and v, then the metadata:
        # the order checkpoints have always been written in.
        path = self._fresh_checkpoint(tmp_path)
        state, _ = load_checkpoint(path)
        with np.load(path) as data:
            names = list(data.files)
        expected = [f"actor.{k}" for k in state.actor.parameters()]
        expected += [f"critic.{k}" for k in state.critic.parameters()]
        optimizers = (("opt_actor", state.actor_opt), ("opt_critic", state.critic_opt))
        for prefix, opt in optimizers:
            expected.append(f"{prefix}.t")
            expected += [f"{prefix}.m.{k}" for k in opt.m]
            expected += [f"{prefix}.v.{k}" for k in opt.v]
        assert names == expected + ["__meta__"]

    def test_version_mismatch_errors(self, tmp_path):
        path = self._fresh_checkpoint(tmp_path)
        rewrite_checkpoint(path, bump_schema_version)
        with pytest.raises(ValueError, match="schema_version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("member", ["actor.head_w", "opt_critic.v.vh_w1"])
    def test_wrong_shape_errors(self, tmp_path, member):
        path = self._fresh_checkpoint(tmp_path)

        def reshape(arrays):
            arrays[member] = np.zeros(arrays[member].shape + (1,))

        rewrite_checkpoint(path, reshape)
        match = f"corrupt checkpoint: field {member} has shape"
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "member", ["critic.vh_b2", "opt_actor.t", "opt_actor.m.head_b"]
    )
    def test_missing_member_errors(self, tmp_path, member):
        path = self._fresh_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda arrays: arrays.pop(member))
        with pytest.raises(ValueError, match="field set mismatch"):
            load_checkpoint(path)

    def test_extra_member_errors(self, tmp_path):
        path = self._fresh_checkpoint(tmp_path)
        rewrite_checkpoint(path, lambda arrays: arrays.update({"actor.stray": np.zeros(2)}))
        with pytest.raises(ValueError, match="field set mismatch"):
            load_checkpoint(path)

    def test_resume_reproduces_full_run(self, tmp_path):
        corpus, vocab, scorers, encoder_cfg, trainer_cfg = _small_training_setup(
            n_prompts=4, n_gen=2
        )
        full_schedule = CurriculumSchedule(
            n_stages=3, t_max_per_stage=(2, 2, 1), epochs_per_stage=(1, 1, 2)
        )
        full = hpc_train(
            corpus, vocab, trainer_cfg, full_schedule, RewardConfig(), scorers,
            encoder_cfg=encoder_cfg,
        )

        two_stage = CurriculumSchedule(
            n_stages=2, t_max_per_stage=(2, 2), epochs_per_stage=(1, 1)
        )
        partial = hpc_train(
            corpus, vocab, trainer_cfg, two_stage, RewardConfig(), scorers,
            encoder_cfg=encoder_cfg,
        )
        assert partial.next_stage == 3
        path = tmp_path / "stage2.npz"
        save_checkpoint(partial, vocab, path)

        resumed, resumed_vocab = load_checkpoint(path)
        done = hpc_train(
            corpus, resumed_vocab, trainer_cfg, full_schedule, RewardConfig(),
            scorers, encoder_cfg=encoder_cfg, state=resumed,
        )
        assert done.log.records == full.log.records  # log continuity
        pa, pb = done.actor.parameters(), full.actor.parameters()
        assert all(np.array_equal(pa[k], pb[k]) for k in pa)
