"""Training loop: trajectory collection, clipped-surrogate policy updates
against a leave-one-out baseline, and the staged compression curriculum.

Training runs in update rounds of M episodes (M =
``TrainerConfig.buffer_capacity``) of T steps. A round is collected in
one call with the actor as it stands, step by step: each step is one
``policy_forward`` over every episode's current prompt. The round is one
``Round``: each step's prompts and labels, and [M, T] arrays of the
labels' log-probabilities when sampled and of the rewards. The actor is
then updated from it, each update iteration in one forward and one
backward pass over a batch of its episodes, drawn as row indices. A
round over fewer prompts, or a batch that draws one episode twice,
repeats a state; both kinds of pass encode each distinct state once.
There is no learned value function: each step's advantage is its return
minus the mean return of the round's other episodes at the same step
index (the leave-one-out baseline of RLOO, arXiv:2402.14740). The
compression band [c_s, c_l] that the reward enforces comes from
``CurriculumSchedule``, its one owner: it tightens with the stage index
and, within an episode, with the step index, so the task hardens
gradually. The reward's divergence term walks its own reference.
Everything is deterministic given (seed, corpus, configs): per-episode
and per-update RNG streams are derived from (seed, stage, epoch, index)
so a run resumed from a stage boundary reproduces the uninterrupted run
exactly. Resume is a property of the library, which no command offers:
``hpc_train`` given the ``state`` of ``load_checkpoint``.
``tools/replay_equivalence.py`` proves it through ``train``: a run
resumed after stages 1-2 writes the checkpoint and log of the
uninterrupted run, byte for byte.
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
    actor_size,
    apply_action,
    packed_action_log_probs,
    policy_forward,
    sample_actions,
    seed_for,
)
from .reward import RewardConfig, Scorers, compute_reward
from .text import TokenSequence, Vocabulary

CHECKPOINT_SCHEMA_VERSION = 4
CHECKPOINT_KIND = "promptpress-checkpoint"
# The members of a checkpoint, in file order.
CHECKPOINT_MEMBERS = ("actor", "opt_actor.t", "opt_actor.m", "opt_actor.v", "__meta__")
GRAD_CLIP_NORM = 1.0

_TAG_ACTOR = 101
_TAG_EPISODE = 103
_TAG_UPDATE = 104


class TrainingDiverged(RuntimeError):
    """A non-finite objective. ``log`` holds the run's log records, up to
    and including the ``"diverged"`` record."""

    def __init__(self, message: str, log: list[dict]) -> None:
        super().__init__(message)
        self.log = log


# ---------------------------------------------------------------------------
# curriculum


@dataclass(frozen=True)
class CurriculumSchedule:
    """Stage schedule and the one owner of the reward's compression band.

    Stage i (1-based) runs ``epochs_per_stage[i - 1]`` epochs of episodes
    T_max = ``t_max_per_stage[i - 1]`` steps long, so the two tuples have
    one entry per stage. ``bounds_for`` gives each step's band (c_s, c_l):
    ``fixed_bounds`` (``train``'s key ``curriculum.fixed_bounds``), which
    disables the curriculum and is checked here, or at step t of stage i,

        c_s = max(0.6 - offset, 0.05),  c_l = max(1.0 - offset, 0.1),
        offset = (i + t / T_max) * psi,

    so the band keeps width 0.4 and slides down as training progresses.
    The clamps keep it valid, 0 < c_s < c_l <= 1, far outside the
    reference schedule; they are inactive for the default stages.
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
        if not 1 <= stage <= self.n_stages:
            raise ValueError(f"stage {stage} outside 1..{self.n_stages}")
        return self.t_max_per_stage[stage - 1]

    def bounds_for(self, stage: int, t: int) -> tuple[float, float]:
        t_max = self.t_max_for(stage)
        if not 0 <= t <= t_max:
            raise ValueError(f"step {t} outside 0..{t_max}")
        if self.fixed_bounds is not None:
            return self.fixed_bounds
        offset = (stage + t / t_max) * self.psi
        return max(0.6 - offset, 0.05), max(1.0 - offset, 0.1)


# ---------------------------------------------------------------------------
# update rounds


@dataclass(frozen=True)
class Round:
    """An update round of M episodes, T steps each, rolled out with one
    actor. At step t, episode i saw the prompt ``states[t][i]``, sampled
    ``labels[t][i]`` on it with log-probability ``old_log_probs[i, t]``
    and was paid ``rewards[i, t]``; ``final_rho[i]`` is its final length
    over its original's. The three arrays are float64, [M, T], [M, T]
    and [M]."""

    states: tuple[tuple[TokenSequence, ...], ...]
    labels: tuple[tuple[np.ndarray, ...], ...]
    old_log_probs: np.ndarray
    rewards: np.ndarray
    final_rho: np.ndarray


def collect_trajectory(
    prompts: Sequence[TokenSequence],
    seeds: Sequence[int],
    actor: Actor,
    schedule: CurriculumSchedule,
    stage: int,
    reward_cfg: RewardConfig,
    scorers: Scorers,
) -> Round:
    """Roll out one episode of the stage's length per prompt with
    ``actor``, all episodes a step at a time, into one ``Round``: each
    step's prompt and labels, their log-probability and the reward.

    A step is one ``policy_forward`` call over every episode's current
    prompt, which gives each bitwise what it gets alone. Episode j
    samples step t with ``seed_for(seeds[j], t)``. The per-step reward
    scores the post-action prompt against the original under the step's
    band from ``schedule``. Each step starts from the previous step's
    prompt, the first from the original.
    """
    t_max = schedule.t_max_for(stage)
    currents = list(prompts)
    states, labels = [], []
    old_log_probs = np.empty((len(prompts), t_max))
    rewards = np.empty((len(prompts), t_max))
    for t in range(t_max):
        band = schedule.bounds_for(stage, t)
        states.append(tuple(currents))
        step_labels = []
        for j, keep_probs in enumerate(policy_forward(actor, currents)):
            drawn, old_log_probs[j, t] = sample_actions(keep_probs, seed_for(seeds[j], t))
            step_labels.append(drawn)
            currents[j] = apply_action(currents[j], drawn, keep_probs)
            rewards[j, t] = compute_reward(
                prompts[j], currents[j], reward_cfg, band, scorers
            ).total
        labels.append(tuple(step_labels))
    final_rho = np.array([len(c) / len(p) for c, p in zip(currents, prompts)])
    return Round(tuple(states), tuple(labels), old_log_probs, rewards, final_rho)


# ---------------------------------------------------------------------------
# objectives


def ppo_objective_and_grads(
    seqs: Sequence[Sequence[int]],
    labels: Sequence[np.ndarray],
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    actor_new: Actor,
    clip_eps: float,
    grad: ActorGradient,
) -> float:
    """Mean clipped surrogate min(delta * A, clip(delta) * A) over the
    batch of steps j, each ``labels[j]`` on ``seqs[j]`` with its old
    log-probability and advantage; its gradient w.r.t. the new actor's
    parameters is written into ``grad``.

    One encoder forward and one backward pass cover the whole batch, with
    each distinct prompt encoded once: each step's coefficient
    delta * A / n is applied to its tokens' upstream gradient before the
    backward. Steps where the clipped branch is the active minimum get
    coefficient 0 and so contribute no gradient, exactly like the
    piecewise objective. A ratio that is not finite gives a NaN term with
    no gradient, which the update round reports as divergence.
    """
    n = len(seqs)
    if not n:
        raise ValueError("empty batch")
    new_lps, gradient_into = packed_action_log_probs(actor_new, seqs, labels)
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.exp(new_lps - old_log_probs)
        unclipped = ratios * advantages
        clipped = np.clip(ratios, 1.0 - clip_eps, 1.0 + clip_eps) * advantages
        finite = np.isfinite(ratios)
        flows = finite & (unclipped <= clipped)
        terms = np.where(finite, np.where(flows, unclipped, clipped), np.nan)
        coeffs = np.where(flows, unclipped / n, 0.0)
    gradient_into(coeffs, grad)
    # Python's sum, in batch order: numpy's pairwise summation of a long
    # batch would move the objective's low bits.
    return sum(terms.tolist()) / n


def leave_one_out_advantages(rewards: np.ndarray, discount: float) -> np.ndarray:
    """A[i, t] = G[i, t] - mean_{j != i} G[j, t] for the [M, T] rewards of
    M >= 2 episodes.

    G[i, t] = sum_{k>=t} discount^(k-t) * rewards[i, k], summed from
    k = t upward. The baseline of episode i is the mean return of the
    others at the same step index, so it needs no learned weights and is
    independent of i's own action. Returns are taken relative to the
    first episode's, which leaves A unchanged in exact arithmetic and
    makes it exactly 0 when every return at a step index is equal.
    """
    m, t_max = rewards.shape
    returns = np.zeros_like(rewards)
    # Non-finite returns give NaN advantages, and so a NaN objective,
    # which the update round reports; numpy need not warn of them.
    with np.errstate(invalid="ignore", over="ignore"):
        factor = 1.0
        for k in range(t_max):
            returns[:, : t_max - k] += factor * rewards[:, k:]
            factor *= discount
        d = returns - returns[0]
        return (m * d - d.sum(axis=0)) / (m - 1)


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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
    round_: Round,
    state: TrainState,
    trainer_cfg: TrainerConfig,
    schedule: CurriculumSchedule,
    stage: int,
    epoch: int,
    round_idx: int,
    grad: ActorGradient,
) -> None:
    """M PPO iterations, each on every step of batch_size episodes drawn
    uniformly with replacement as row indices into ``round_``. ``grad``
    is the storage each iteration's gradient is written into."""
    m, t_max = round_.rewards.shape
    mean_reward = sum(round_.rewards.ravel().tolist()) / round_.rewards.size
    mean_rho = sum(round_.final_rho.tolist()) / m
    # A round never spans a stage boundary, so step t of every episode
    # ran under the same band.
    bands = [schedule.bounds_for(stage, t) for t in range(t_max)] * m
    mean_c_s = _exact_mean([b[0] for b in bands])
    mean_c_l = _exact_mean([b[1] for b in bands])

    advantages = leave_one_out_advantages(round_.rewards, trainer_cfg.discount)

    for iteration in range(m):
        rng = np.random.default_rng(
            seed_for(trainer_cfg.seed, _TAG_UPDATE, stage, epoch, round_idx, iteration)
        )
        rows = rng.integers(0, m, size=trainer_cfg.batch_size)
        objective = ppo_objective_and_grads(
            [round_.states[t][i].ids for i in rows for t in range(t_max)],
            [round_.labels[t][i] for i in rows for t in range(t_max)],
            round_.old_log_probs[rows].ravel(),
            advantages[rows].ravel(),
            state.actor, trainer_cfg.clip_eps, grad,
        )
        where = {"stage": stage, "epoch": epoch, "round": round_idx, "iteration": iteration}
        if not math.isfinite(objective):
            state.log.append({"event": "diverged", **where, "objective": objective})
            raise TrainingDiverged(
                f"non-finite objective at stage {stage} epoch {epoch} "
                f"round {round_idx} iteration {iteration}: {objective}",
                state.log,
            )

        clip_gradients(grad.flat, grad.views.values(), GRAD_CLIP_NORM)
        np.negative(grad.flat, out=grad.flat)  # ascend on the surrogate objective
        state.actor_opt.step(state.actor.flat, grad.flat)

        state.log.append(
            {
                **where,
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
    ``encoder_cfg`` shapes the actor when no ``state`` is given. A stage
    of E epochs over P prompts has P * E episodes: episode k rolls out
    prompt k mod P in epoch k div P + 1. Round r is episodes rM to
    rM + M - 1 (M = ``buffer_capacity``), collected into one ``Round``
    with the actor the previous round left. Each step's leave-one-out
    advantage is computed over the round's M episodes, and M update
    iterations run, each on a uniformly sampled batch of them.
    A round is logged under the epoch of its last episode, numbered from
    0 within that epoch. Passing a ``state`` from a checkpoint resumes at
    ``state.next_stage`` and reproduces the uninterrupted run exactly.

    Only the floor(P * E / M) whole rounds of a stage run: episodes past
    the last would be dropped unread at the stage boundary, so they are
    not collected.
    """
    if not prompts:
        raise ValueError("empty corpus")
    if state is None:
        state = init_train_state(trainer_cfg, encoder_cfg)

    grad = ActorGradient(state.actor.encoder.cfg)
    m = trainer_cfg.buffer_capacity
    n = len(prompts)

    for stage in range(state.next_stage, schedule.n_stages + 1):
        for epoch in range(1, schedule.epochs_per_stage[stage - 1] + 1):
            # The rounds whose last episode falls in this epoch.
            first, end = (epoch - 1) * n // m, epoch * n // m
            for r in range(first, end):
                episodes = [divmod(k, n) for k in range(r * m, (r + 1) * m)]
                seeds = [
                    seed_for(trainer_cfg.seed, _TAG_EPISODE, stage, e + 1, i)
                    for e, i in episodes
                ]
                round_ = collect_trajectory(
                    [prompts[i] for _, i in episodes],
                    seeds, state.actor, schedule, stage, reward_cfg, scorers,
                )
                _update_round(
                    round_, state, trainer_cfg, schedule, stage, epoch, r - first, grad
                )
            if progress is not None:
                progress(f"stage {stage} epoch {epoch} done ({end - first} rounds)")
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
        "kind": CHECKPOINT_KIND,
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
    """Decode ``__meta__``; check its version, kind and field types.

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
        "kind": meta.get("kind") == CHECKPOINT_KIND,
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
    the schema version and the metadata, and that the vocabulary and the
    actor's vector have the sizes its encoder config gives; that vector
    becomes the actor's storage as read, with no copy. Returns (train
    state, vocabulary), after also checking the optimizer's step count
    and moment vectors. With ``actor_only`` it returns (actor,
    vocabulary) instead, reading no ``opt_actor.*`` member and building
    no optimizer: all that compressing or evaluating needs. A file that
    cannot be opened raises the ``OSError`` of its ``open``; a fault in
    what it holds is a ValueError.
    """
    # The archive reads its members from ``fh``, so every read stays in
    # this block, which closes the file on every path out of it.
    with open(path, "rb") as fh:
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
            if vocab.size != encoder_cfg.vocab_size:
                raise ValueError(f"a vocabulary of {vocab.size} surfaces for an "
                                 f"encoder of {encoder_cfg.vocab_size} token ids")
        except ValueError as exc:
            raise ValueError(f"corrupt checkpoint: {exc}") from exc
        # Checked against the closed-form size before any layer is laid
        # out, so a config that claims many layers costs nothing.
        flat = _read_member(data, "actor")
        size = actor_size(encoder_cfg)
        if flat.dtype != np.float64 or flat.shape != (size,):
            raise ValueError(
                f"corrupt checkpoint: field actor: expected a float64 vector of "
                f"shape ({size},), got {flat.dtype} {flat.shape}"
            )
        actor = Actor(encoder_cfg, flat)
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
