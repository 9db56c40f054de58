"""Training loop: trajectory collection, clipped-surrogate policy updates
against a leave-one-out baseline, and the staged compression curriculum.

Collection always runs with a frozen copy of the actor. Every M
trajectories (M = ``TrainerConfig.buffer_capacity``) form one update
round: the live actor is updated from that list and then copied back to
the frozen one. There is no learned value function: each step's
advantage is its return minus the mean return of the round's other
trajectories at the same step index (the leave-one-out baseline of RLOO,
arXiv:2402.14740). The compression band [c_s, c_l] that the reward
enforces comes from ``CurriculumSchedule``, its one owner: it tightens
with the stage index and, within an episode, with the step index, so the
task hardens gradually. Everything is deterministic
given (seed, corpus, configs): per-episode and per-update RNG streams
are derived from (seed, stage, epoch, index) so a run resumed from a
stage boundary reproduces the uninterrupted run exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .encoder import EncoderConfig
from .optim import Adam, clip_gradients
from .policy import (
    Actor,
    ActorGradient,
    apply_action,
    packed_action_log_probs,
    policy_forward,
    sample_actions,
)
from .reward import RewardConfig, compute_reward
from .scoring import ProxyLM, RetentionScorer
from .text import TokenSequence, Vocabulary

CHECKPOINT_SCHEMA_VERSION = 3
# The members of a checkpoint, in file order.
CHECKPOINT_MEMBERS = ("actor", "opt_actor.t", "opt_actor.m", "opt_actor.v", "__meta__")
GRAD_CLIP_NORM = 1.0

_TAG_ACTOR = 101
_TAG_EPISODE = 103
_TAG_UPDATE = 104


def seed_for(*parts: int) -> int:
    """Derive a child seed from integer coordinates, platform-stably."""
    ss = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(ss.generate_state(1)[0])


class TrainingDiverged(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# curriculum


def curriculum_bounds(
    stage: int, t: int, t_max: int, psi: float
) -> tuple[float, float]:
    """Compression band for stage P_i at within-episode step t.

    c_s = 0.6 - (P_i + t / T_max) * psi and c_l = 1.0 - the same offset,
    so the band keeps width 0.4 and slides down as training progresses.
    Clamps (c_s at 0.05, c_l at 0.1) keep the band usable far outside
    the reference schedule; they are inactive for the default stages.
    """
    if stage < 1:
        raise ValueError("stage must be >= 1")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    if not 0 <= t <= t_max:
        raise ValueError("step t must satisfy 0 <= t <= t_max")
    offset = (stage + t / t_max) * psi
    c_s = max(0.6 - offset, 0.05)
    c_l = max(1.0 - offset, 0.1)
    return c_s, c_l


@dataclass(frozen=True)
class CurriculumSchedule:
    """Stage schedule and the one owner of the reward's compression band.

    Stage i (1-based) runs ``epochs_per_stage[i - 1]`` epochs of episodes
    ``t_max_per_stage[i - 1]`` steps long, so the two tuples have one
    entry per stage. ``bounds_for`` gives each step's band (c_s, c_l):
    the curriculum's, which is always valid, or ``fixed_bounds``, which
    disables the curriculum and is checked here.
    """

    psi: float = 0.1
    t_max_per_stage: tuple[int, ...] = (2, 2, 1)
    epochs_per_stage: tuple[int, ...] = (1, 1, 2)
    fixed_bounds: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not self.t_max_per_stage:
            raise ValueError("the schedule needs at least one stage")
        if len(self.t_max_per_stage) != len(self.epochs_per_stage):
            raise ValueError(
                "t_max_per_stage and epochs_per_stage must have one entry per stage"
            )
        if min(self.t_max_per_stage) < 1 or min(self.epochs_per_stage) < 1:
            raise ValueError("per-stage entries must be >= 1")
        if not 0 < self.psi < math.inf:
            raise ValueError("psi must be > 0 and finite")
        if self.fixed_bounds is not None:
            c_s, c_l = self.fixed_bounds
            if not 0.0 < c_s < c_l <= 1.0:
                raise ValueError("fixed bounds must satisfy 0 < c_s < c_l <= 1")

    @property
    def n_stages(self) -> int:
        return len(self.t_max_per_stage)

    def t_max_for(self, stage: int) -> int:
        self._check_stage(stage)
        return self.t_max_per_stage[stage - 1]

    def bounds_for(self, stage: int, t: int) -> tuple[float, float]:
        self._check_stage(stage)
        if self.fixed_bounds is not None:
            return self.fixed_bounds
        return curriculum_bounds(stage, t, self.t_max_for(stage), self.psi)

    def _check_stage(self, stage: int) -> None:
        if not 1 <= stage <= self.n_stages:
            raise ValueError(f"stage {stage} outside 1..{self.n_stages}")


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class TrajectoryStep:
    """One step: the prompt the actor saw, the labels it sampled on it,
    their log-probability under the frozen actor, and the reward."""

    current: TokenSequence
    labels: np.ndarray
    old_log_prob: float
    reward: float


@dataclass(frozen=True)
class Trajectory:
    """An episode's steps and its final length over the original's."""

    steps: tuple[TrajectoryStep, ...]
    final_rho: float

    @property
    def rewards(self) -> list[float]:
        return [s.reward for s in self.steps]


@dataclass(frozen=True)
class Scorers:
    """Reward ingredients: the retention scorer, the proxy LM and the
    length of each prompt's reference continuation."""

    retention: RetentionScorer
    lm: ProxyLM
    n_gen: int = 32

    def __post_init__(self) -> None:
        if self.n_gen < 1:
            raise ValueError("n_gen must be >= 1")


def collect_trajectory(
    prompt: TokenSequence,
    actor_old: Actor,
    schedule: CurriculumSchedule,
    stage: int,
    reward_cfg: RewardConfig,
    scorers: Scorers,
    seed: int,
    reference: TokenSequence,
) -> Trajectory:
    """Roll out one episode of the stage's length with the frozen actor.

    ``reference`` is the greedy continuation of ``prompt`` under
    ``scorers.lm`` (``greedy_continue``); every step's divergence term
    reuses it. The per-step reward scores the post-action prompt against
    the original under the step's band from ``schedule``. Each step
    starts from the previous step's prompt, the first from ``prompt``.
    """
    current = prompt
    t_max = schedule.t_max_for(stage)
    steps: list[TrajectoryStep] = []
    for t in range(t_max):
        (keep_probs,) = policy_forward(actor_old, [current])
        labels, log_prob = sample_actions(keep_probs, seed_for(seed, t))
        compressed = apply_action(current, labels, keep_probs)
        breakdown = compute_reward(
            prompt,
            compressed,
            reward_cfg,
            schedule.bounds_for(stage, t),
            scorers.retention,
            scorers.lm,
            reference,
        )
        steps.append(
            TrajectoryStep(
                current=current,
                labels=labels,
                old_log_prob=log_prob,
                reward=breakdown.total,
            )
        )
        current = compressed
    return Trajectory(steps=tuple(steps), final_rho=len(current) / len(prompt))


# ---------------------------------------------------------------------------
# objectives


def _clipped_term(
    new_lp: float, step: TrajectoryStep, adv: float, clip_eps: float
) -> tuple[float, bool, float]:
    """One step's min(delta*A, clip(delta)*A); flags whether the
    unclipped branch is active (i.e. gradient flows)."""
    with np.errstate(over="ignore"):
        delta = float(np.exp(new_lp - step.old_log_prob))
    if not math.isfinite(delta):
        raise ValueError("degenerate policy ratio")
    unclipped = delta * adv
    clipped = min(max(delta, 1.0 - clip_eps), 1.0 + clip_eps) * adv
    if unclipped <= clipped:
        return unclipped, True, delta
    return clipped, False, delta


def ppo_objective_and_grads(
    batch: Sequence[tuple[TrajectoryStep, float]],
    actor_new: Actor,
    clip_eps: float,
    grad: ActorGradient,
) -> float:
    """Objective; its gradient w.r.t. the new actor's parameters is
    written into ``grad``.

    One encoder forward and one backward pass cover the whole batch: each
    step's coefficient delta * A / n is applied to its tokens' upstream
    gradient before the backward. Steps where the clipped branch is the
    active minimum get coefficient 0 and so contribute no gradient,
    exactly like the piecewise objective.
    """
    if not batch:
        raise ValueError("empty batch")
    new_lps, gradient_into = packed_action_log_probs(
        actor_new,
        [step.current.ids for step, _ in batch],
        [step.labels for step, _ in batch],
    )
    total = 0.0
    n = len(batch)
    coeffs = np.zeros(n)
    for j, (step, adv) in enumerate(batch):
        term, flows, delta = _clipped_term(float(new_lps[j]), step, adv, clip_eps)
        total += term
        if flows:
            coeffs[j] = delta * adv / n
    gradient_into(coeffs, grad)
    return total / n


def returns_from(rewards: Sequence[float], t: int, discount: float) -> float:
    """Discounted return G_t = sum_{k>=t} discount^(k-t) * r_k."""
    if not 0 <= t < len(rewards):
        raise ValueError(f"t {t} out of range for {len(rewards)} rewards")
    total = 0.0
    factor = 1.0
    for r in rewards[t:]:
        total += factor * r
        factor *= discount
    return total


def leave_one_out_advantages(
    trajs: Sequence[Trajectory], discount: float
) -> list[list[float]]:
    """A[i][t] = G_{i,t} - mean_{j != i} G_{j,t} over M >= 2 trajectories
    of one length.

    G is ``returns_from``. The baseline of trajectory i is the mean return
    of the others at the same step index, so it needs no learned weights
    and is independent of i's own action. Returns are taken relative to
    the first trajectory's, which leaves A unchanged in exact arithmetic
    and makes it exactly 0 when every return at a step index is equal.
    """
    m = len(trajs)
    returns = np.array(
        [
            [returns_from(traj.rewards, t, discount) for t in range(len(traj.steps))]
            for traj in trajs
        ]
    )
    d = returns - returns[0]
    return ((m * d - d.sum(axis=0)) / (m - 1)).tolist()


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainerConfig:
    actor_lr: float = 1e-5
    clip_eps: float = 0.15
    batch_size: int = 4
    buffer_capacity: int = 16
    discount: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.clip_eps < 1.0:
            raise ValueError("clip_eps must be in (0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.buffer_capacity < self.batch_size:
            raise ValueError("buffer capacity must be >= batch_size")
        if self.buffer_capacity < 2:
            raise ValueError("buffer capacity must be >= 2 (leave-one-out baseline)")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError("discount must be in (0, 1]")
        if not 0 < self.actor_lr < math.inf:
            raise ValueError("actor_lr must be > 0 and finite")


@dataclass
class TrainState:
    """Everything needed to continue training from a stage boundary;
    ``log`` holds the training log's records, in order."""

    actor: Actor
    actor_opt: Adam
    log: list[dict]
    next_stage: int = 1


def init_train_state(
    trainer_cfg: TrainerConfig, encoder_cfg: EncoderConfig
) -> TrainState:
    actor = Actor.build(encoder_cfg, seed_for(trainer_cfg.seed, _TAG_ACTOR))
    return TrainState(
        actor=actor,
        actor_opt=Adam(actor.parameters(), lr=trainer_cfg.actor_lr),
        log=[],
        next_stage=1,
    )


def _exact_mean(values: Sequence[float]) -> float:
    """Mean that returns v exactly for a run of identical values v.

    Summing deviations from the first value keeps a fixed band (a
    disabled curriculum) from logging as, e.g., 0.9000000000000001.
    """
    first = values[0]
    return first + sum(v - first for v in values) / len(values)


def _update_round(
    trajs: Sequence[Trajectory],
    state: TrainState,
    trainer_cfg: TrainerConfig,
    schedule: CurriculumSchedule,
    stage: int,
    epoch: int,
    round_idx: int,
    grad: ActorGradient,
) -> None:
    """M = len(trajs) PPO iterations, each on batch_size trajectories drawn
    uniformly with replacement from the round's list. ``grad`` is the
    storage each iteration's gradient is written into."""
    m = len(trajs)
    all_steps = [s for traj in trajs for s in traj.steps]
    mean_reward = sum(s.reward for s in all_steps) / len(all_steps)
    mean_rho = sum(t.final_rho for t in trajs) / len(trajs)
    # A round never spans a stage boundary, so all M trajectories share
    # one stage and one t_max, and step t of each ran under the same band.
    bands = [
        schedule.bounds_for(stage, t) for traj in trajs for t in range(len(traj.steps))
    ]
    mean_c_s = _exact_mean([b[0] for b in bands])
    mean_c_l = _exact_mean([b[1] for b in bands])

    advantages = leave_one_out_advantages(trajs, trainer_cfg.discount)

    for iteration in range(m):
        rng = np.random.default_rng(
            seed_for(trainer_cfg.seed, _TAG_UPDATE, stage, epoch, round_idx, iteration)
        )
        batch = [
            (step, advantages[i][t])
            for i in rng.integers(0, m, size=trainer_cfg.batch_size)
            for t, step in enumerate(trajs[i].steps)
        ]

        objective = ppo_objective_and_grads(
            batch, state.actor, trainer_cfg.clip_eps, grad
        )
        if not math.isfinite(objective):
            state.log.append(
                {
                    "event": "diverged",
                    "stage": stage,
                    "epoch": epoch,
                    "round": round_idx,
                    "iteration": iteration,
                    "objective": objective,
                }
            )
            raise TrainingDiverged(
                f"non-finite objective at stage {stage} epoch {epoch} "
                f"round {round_idx} iteration {iteration}: {objective}"
            )

        clip_gradients(grad.flat, grad.views.values(), GRAD_CLIP_NORM)
        np.negative(grad.flat, out=grad.flat)  # ascend on the surrogate objective
        state.actor_opt.step(state.actor.flat, grad.flat)

        state.log.append(
            {
                "stage": stage,
                "epoch": epoch,
                "round": round_idx,
                "iteration": iteration,
                "objective": objective,
                "mean_reward": mean_reward,
                "mean_rho": mean_rho,
                "mean_c_s": mean_c_s,
                "mean_c_l": mean_c_l,
            }
        )


def hpc_train(
    prompts: Sequence[TokenSequence],
    trainer_cfg: TrainerConfig,
    schedule: CurriculumSchedule,
    reward_cfg: RewardConfig,
    scorers: Scorers,
    encoder_cfg: EncoderConfig,
    state: TrainState | None = None,
    progress: Callable[[str], None] | None = None,
) -> TrainState:
    """Run the staged training loop; returns the final train state.

    ``prompts`` are the checked sequences of ``text.tokenize_corpus``;
    ``encoder_cfg`` shapes the actor when no ``state`` is given. Per
    stage and epoch, every prompt yields one trajectory collected with
    the frozen old actor. Every M = ``buffer_capacity``
    trajectories, each step's leave-one-out advantage is computed over
    those M, M update iterations run (each on a uniformly sampled batch
    of them), and the frozen actor is refreshed. Passing a ``state`` from
    a checkpoint resumes at ``state.next_stage`` and reproduces the
    uninterrupted run exactly.

    A stage's trajectories past its last full round would be dropped
    unread at the stage boundary (they were collected under that stage's
    band), so they are not collected: of the P * E episodes of a stage
    with E epochs, only the first floor(P * E / M) * M run. Each prompt's
    greedy reference is generated once, on its first episode.
    """
    if not prompts:
        raise ValueError("empty corpus")
    if state is None:
        state = init_train_state(trainer_cfg, encoder_cfg)

    references: dict[int, TokenSequence] = {}

    actor_old = state.actor.clone()
    grad = ActorGradient(state.actor.encoder.cfg)
    m = trainer_cfg.buffer_capacity
    trajs: list[Trajectory] = []

    for stage in range(state.next_stage, schedule.n_stages + 1):
        n_epochs = schedule.epochs_per_stage[stage - 1]
        n_used = len(prompts) * n_epochs // m * m
        for epoch in range(1, n_epochs + 1):
            round_idx = 0
            for ep_idx, prompt in enumerate(prompts):
                if (epoch - 1) * len(prompts) + ep_idx >= n_used:
                    break
                if ep_idx not in references:
                    references[ep_idx] = scorers.lm.greedy_continue(
                        prompt, scorers.n_gen
                    )
                trajs.append(collect_trajectory(
                    prompt,
                    actor_old,
                    schedule,
                    stage,
                    reward_cfg,
                    scorers,
                    seed=seed_for(trainer_cfg.seed, _TAG_EPISODE, stage, epoch, ep_idx),
                    reference=references[ep_idx],
                ))
                if len(trajs) == m:
                    _update_round(
                        trajs, state, trainer_cfg, schedule, stage, epoch, round_idx, grad
                    )
                    trajs = []
                    actor_old.flat[...] = state.actor.flat
                    round_idx += 1
            if progress is not None:
                progress(f"stage {stage} epoch {epoch} done ({round_idx} rounds)")
        # n_used is a multiple of M, so no trajectory is pending here and a
        # run resumed from this boundary starts from the same (empty) list.
        state.next_stage = stage + 1
    return state


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(
    state: TrainState, vocab: Vocabulary, path: str | Path
) -> None:
    """Write everything needed to resume training, or to compress, as one
    npz file.

    Its members are ``CHECKPOINT_MEMBERS``: ``actor``, the actor's flat
    parameter vector (``Actor.flat``); ``opt_actor.t``, the optimizer's
    step count (0-d int64); ``opt_actor.m`` and ``opt_actor.v``, its
    flat moment vectors; and ``__meta__``, UTF-8 JSON with the schema
    version, the encoder config, the vocabulary, the actor learning
    rate, the next stage and the training log. The vectors are written
    as they are, with no copy; their layout (names, shapes, offsets) is
    ``policy.actor_shapes`` of the encoder config. The round-trip is
    bitwise: loading and saving again reproduces identical members.
    """
    meta = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "kind": "promptpress-checkpoint",
        "encoder_cfg": dataclasses.asdict(state.actor.encoder.cfg),
        "vocab": {
            "surfaces": list(vocab.surfaces),
            "unknown_id": vocab.unknown_id,
        },
        "actor_lr": state.actor_opt.lr,
        "next_stage": state.next_stage,
        "log": state.log,
    }
    opt = state.actor_opt
    members = (
        state.actor.flat,
        np.array(opt.t, dtype=np.int64),
        opt.m,
        opt.v,
        np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
    )
    with open(path, "wb") as fh:
        np.savez(fh, **dict(zip(CHECKPOINT_MEMBERS, members)))


def _read_meta(raw: np.ndarray) -> dict:
    """Decode ``__meta__`` and check the version and each field's type.

    Any defect other than the version is reported as a corrupt checkpoint,
    naming the field, so a damaged file never surfaces as a bare KeyError.
    """
    try:
        meta = json.loads(raw.tobytes().decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ValueError(
            f"corrupt checkpoint: __meta__ is not UTF-8 JSON: {exc}"
        ) from exc
    if not isinstance(meta, dict):
        raise ValueError("corrupt checkpoint: __meta__ is not a JSON object")
    version = meta.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise ValueError(f"unsupported checkpoint schema_version: {version!r}")
    cfg, vocab, lr, stage, log = (
        meta.get(k) for k in ("encoder_cfg", "vocab", "actor_lr", "next_stage", "log")
    )
    # type(...) is int, unlike isinstance, rejects JSON true and false.
    cfg_names = {f.name for f in dataclasses.fields(EncoderConfig)}
    well_typed = {
        "encoder_cfg": type(cfg) is dict
        and set(cfg) == cfg_names
        and all(type(v) is int for v in cfg.values()),
        "vocab": type(vocab) is dict
        and type(vocab.get("surfaces")) is list
        and all(type(w) is str for w in vocab["surfaces"])
        and type(vocab.get("unknown_id")) is int,
        "actor_lr": type(lr) in (int, float) and 0 < lr < math.inf,
        "next_stage": type(stage) is int and stage >= 1,
        "log": type(log) is list and all(type(r) is dict for r in log),
    }
    for name, ok in well_typed.items():
        if not ok:
            raise ValueError(
                f"corrupt checkpoint: __meta__ field {name} is missing or ill-typed"
            )
    return meta


def _read_member(data: np.lib.npyio.NpzFile, name: str) -> np.ndarray:
    """One member's array; a member that cannot be read is a corrupt file."""
    try:
        return data[name]
    except Exception as exc:
        raise ValueError(f"corrupt checkpoint: field {name}: {exc}") from exc


def load_checkpoint(
    path: str | Path, actor_only: bool = False
) -> tuple[TrainState, Vocabulary] | tuple[Actor, Vocabulary]:
    """Load a checkpoint written by ``save_checkpoint``.

    Every load checks that the file holds exactly ``CHECKPOINT_MEMBERS``,
    the schema version and the metadata, and that the actor's vector has
    the length its encoder config gives; that vector becomes the actor's
    storage as read, with no copy. Returns (train state, vocabulary),
    after also checking the optimizer's step count and moment vectors.
    With ``actor_only`` it returns (actor, vocabulary) instead, reading
    no ``opt_actor.*`` member and building no optimizer: all that
    compressing or evaluating needs.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ValueError(f"corrupt checkpoint: {exc}") from exc
    # The archive reads its members from ``fh``, so every read stays in
    # this block, which closes the file on every path out of it.
    with fh:
        try:
            data = np.load(fh)
        except Exception as exc:
            raise ValueError(f"corrupt checkpoint: {exc}") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("corrupt checkpoint: not an npz archive")
        if "__meta__" not in data.files:
            raise ValueError("corrupt checkpoint: missing field __meta__")
        meta = _read_meta(_read_member(data, "__meta__"))
        if set(data.files) != set(CHECKPOINT_MEMBERS):
            diff = sorted(set(data.files) ^ set(CHECKPOINT_MEMBERS))
            raise ValueError(f"corrupt checkpoint: field set mismatch: {diff}")
        try:
            encoder_cfg = EncoderConfig(**meta["encoder_cfg"])
            vocab = Vocabulary(
                surfaces=tuple(meta["vocab"]["surfaces"]),
                unknown_id=meta["vocab"]["unknown_id"],
            )
        except ValueError as exc:
            raise ValueError(f"corrupt checkpoint: {exc}") from exc
        flat = _read_member(data, "actor")
        try:
            actor = Actor(encoder_cfg, flat)
        except ValueError as exc:
            raise ValueError(f"corrupt checkpoint: field actor: {exc}") from exc
        if actor_only:
            return actor, vocab
        t = _read_member(data, "opt_actor.t")
        if t.shape != () or t.dtype.kind not in "iu" or t < 0:
            raise ValueError(
                f"corrupt checkpoint: field opt_actor.t is {t.dtype} of shape "
                f"{t.shape}, expected a non-negative integer scalar"
            )
        moments = []
        for name in ("opt_actor.m", "opt_actor.v"):
            vec = _read_member(data, name)
            if vec.dtype != np.float64 or vec.shape != actor.flat.shape:
                raise ValueError(
                    f"corrupt checkpoint: field {name}: expected a float64 "
                    f"vector of shape {actor.flat.shape}, got {vec.dtype} {vec.shape}"
                )
            moments.append(vec)
    actor_opt = Adam(
        actor.parameters(), lr=float(meta["actor_lr"]), moments=tuple(moments)
    )
    actor_opt.t = int(t)
    state = TrainState(actor, actor_opt, meta["log"], meta["next_stage"])
    return state, vocab
