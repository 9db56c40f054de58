"""Operator entry points: make-corpus, train, compress, eval.

Configuration has three layers: built-in defaults, then a flat JSON
config file, then command-line flags. Each ``train`` setting is one key
of ``_KEYS``: the dataclass field that holds it, whose default and
annotated type (one of ``_KINDS``) it takes, or the type and default of
a key no dataclass holds. ``train --seed`` sets ``trainer.seed`` over
the file and ``--set``. The resolved result is frozen in a run manifest
written before any long-running work, so every run is reproducible from
its manifest alone: a ``train`` run reruns on the manifest's input
corpus with its ``config``, as it is, for the ``--config`` file. Exit
codes: 0 success, 2 usage or validation error, 1 runtime failure. An
output that is a directory (as a path with no name is) or names a file
the command reads or another of its outputs is a usage error found
before the manifest; an output path that cannot be written is one found
when the manifest, each command's first write, fails. Each output is
written to a new file in its directory, ``.<8 hex digits>.partial``, and
renamed onto it when complete; a killed run leaves that file. That name
is as long for every output, so an output can be written whenever the
names derived from it fit. A ``train`` run whose objective diverges
writes its log, ending in the ``"diverged"`` record, and no checkpoint,
rewrites its manifest to list the log alone, and exits 1.

``compress`` encodes its prompts in passes of up to the encoder's
``max_len`` tokens, run on a pool of as many threads as the CPUs the
process may use divided by the threads of a BLAS call, while the calling
thread waits; its output does not depend on that number. ``compress``
runs fastest with ``OPENBLAS_NUM_THREADS=1``: unset, each BLAS call
takes every CPU and the pool has one thread; on a 2-vCPU VM, 48 prompts
of 128-256 tokens took 0.33-0.38 s unset against 0.22 s at 1 (medians
of 8 runs). The program does not set it: the caller's environment
decides.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import os
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .baselines import (
    IdentityCompressor,
    PolicyCompressor,
    RandomCompressor,
    SelfInfoCompressor,
)
from .encoder import EncoderConfig
from .evaluation import evaluate, report_records, report_table
from .policy import actor_size, apply_action, greedy_actions, policy_forward
from .reward import RewardConfig, Scorers
from .scoring import IdfRetentionScorer, fit_ngram_lm
from .text import (
    PromptRecord,
    build_vocabulary,
    compute_idf_table,
    load_corpus,
    make_synthetic_corpus,
    save_corpus,
    split_surfaces,
    tokenize_corpus,
)
from .trainer import (
    CurriculumSchedule,
    TrainerConfig,
    TrainingDiverged,
    hpc_train,
    load_checkpoint,
    save_checkpoint,
)

# How an error names each type a config key may have.
_BAND = tuple[float, float] | None
_KINDS = {int: "an integer", float: "a number", tuple[int, ...]: "a JSON list",
          _BAND: "a JSON list of two numbers, or null"}
_hints = functools.cache(typing.get_type_hints)


def _cast(key: str, value: object, kind: type):
    """``value`` as ``kind``; a value that a cast would change (another
    JSON type, a bool, a fraction for an integer) is an error."""
    if type(value) in (int, float) and (kind is float or kind is int and not value % 1):
        return kind(value)
    if kind == tuple[int, ...] and type(value) is list:
        return tuple(_cast(key, v, int) for v in value)
    if kind == _BAND and (value is None or type(value) is list and len(value) == 2):
        return None if value is None else tuple(_cast(key, v, float) for v in value)
    raise ValueError(f"{key} must be {_KINDS[kind]}, got {value!r}")


class _Key(NamedTuple):
    kind: type
    default: object
    owner: type | None = None  # the dataclass whose field holds the value
    field: str = ""


def _held(owner: type, field: str) -> _Key:
    """The key of ``owner``'s ``field``, typed by its annotation."""
    kind = _hints(owner)[field]
    if kind not in _KINDS:
        raise TypeError(f"{owner.__name__}.{field}: no config type {kind}")
    return _Key(kind, getattr(owner, field), owner, field)


# Every ``train`` config key.
_KEYS: dict[str, _Key] = {
    "trainer.seed": _held(TrainerConfig, "seed"),
    "trainer.actor_lr": _held(TrainerConfig, "actor_lr"),
    "trainer.clip_eps": _held(TrainerConfig, "clip_eps"),
    "trainer.batch_size": _held(TrainerConfig, "batch_size"),
    "trainer.buffer_m": _held(TrainerConfig, "buffer_capacity"),
    "trainer.discount": _held(TrainerConfig, "discount"),
    "curriculum.psi": _held(CurriculumSchedule, "psi"),
    "curriculum.t_max": _held(CurriculumSchedule, "t_max_per_stage"),
    "curriculum.epochs": _held(CurriculumSchedule, "epochs_per_stage"),
    "curriculum.fixed_bounds": _held(CurriculumSchedule, "fixed_bounds"),
    "reward.alpha": _held(RewardConfig, "alpha"),
    "reward.beta": _held(RewardConfig, "beta"),
    "reward.gamma": _held(RewardConfig, "gamma"),
    "reward.p_s": _held(RewardConfig, "p_s"),
    "reward.p_l": _held(RewardConfig, "p_l"),
    "scoring.ngram_order": _Key(int, 2),
    "scoring.ngram_k": _Key(float, 0.1),
    "scoring.n_gen": _held(Scorers, "n_gen"),
    "model.d_model": _held(EncoderConfig, "d_model"),
    "model.n_heads": _held(EncoderConfig, "n_heads"),
    "model.n_layers": _held(EncoderConfig, "n_layers"),
    "model.d_ff": _held(EncoderConfig, "d_ff"),
    "model.max_len": _held(EncoderConfig, "max_len"),
    "vocab.max_size": _Key(int, 512),
}

# Each default as a config file gives it; ``eval`` reads these too.
CONFIG_DEFAULTS: dict[str, object] = {
    key: list(k.default) if type(k.default) is tuple else k.default
    for key, k in _KEYS.items()
}

EVAL_METHODS = ("identity", "random", "selfinfo", "policy")


class UsageError(Exception):
    pass


def _atomic(path: Path, content) -> None:
    """Write ``content``, text or a function that writes the path it is
    given, to a new file in ``path``'s directory, created as ``open``
    creates one under a name no entry had, of a length that does not
    depend on ``path``'s; rename it onto ``path``, or remove it if the
    write fails. Text is not reopened: ext4 flushes a truncated file."""
    while True:
        staging = path.with_name(f".{os.urandom(4).hex()}.partial")
        with contextlib.suppress(FileExistsError):
            created = open(staging, "x", encoding="utf-8")
            break
    try:
        with created:
            if isinstance(content, str):
                created.write(content)
            else:
                content(staging)
        os.replace(staging, path)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise


def _jsonl(records) -> str:
    """One JSON object per line, keys sorted: the format of every JSONL
    file the commands write."""
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


def resolve_config(
    config_path: str | None, overrides: dict[str, object]
) -> dict[str, object]:
    """defaults <- config file <- flag overrides; an unknown key is an
    error. Values are checked as they are cast (``_build``, ``_value``)."""
    layers = [("unknown config key", overrides)]
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {config_path}: {exc}")
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold one flat JSON object")
        layers.insert(0, ("unknown config key in file", loaded))
    resolved = dict(CONFIG_DEFAULTS)
    for unknown, layer in layers:
        for key, value in layer.items():
            if key not in resolved:
                raise UsageError(f"{unknown}: {key}")
            resolved[key] = value
    return resolved


def _parse_set_flags(pairs: list[str]) -> dict[str, object]:
    overrides: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def resolve_seed(flag_seed: int | None) -> int:
    """The ``--seed`` flag, or 0 without it; never negative."""
    if flag_seed is not None and flag_seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {flag_seed}")
    return flag_seed or 0


def write_manifest(
    out: Path,
    command: str,
    seed: int,
    config: dict[str, object],
    inputs: dict[str, str],
    artifacts: dict[str, str],
    config_file: str | None = None,
) -> None:
    """Write ``<out>.manifest.json``, a command's first write, before any
    work. An ``out`` with no name (``.``, ``/``) is a directory. Each
    output, the manifest first and then ``artifacts`` in the order they
    are written, is refused if it is a directory, or resolves to a file
    the command reads (``inputs`` and ``config_file``) or to an earlier
    output; these refusals, and an ``OSError`` of the write, are usage
    errors naming the path. A later write that fails is a runtime failure."""
    if not out.name:
        raise UsageError(f"cannot write {out}: {os.strerror(errno.EISDIR)}")
    manifest_path = Path(f"{out}.manifest.json")
    taken = {
        os.path.realpath(path): f"the {role} {path}, which this command reads"
        for role, path in [*inputs.items(), ("config file", config_file)] if path
    }
    for role, path in [("manifest", manifest_path),
                       *((role, Path(path)) for role, path in artifacts.items())]:
        if path.is_dir():
            raise UsageError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
        # Unlike Path.resolve, realpath never raises.
        resolved = os.path.realpath(path)
        if resolved in taken:
            raise UsageError(f"cannot write {path}: the {role} would replace "
                             f"{taken[resolved]}")
        taken[resolved] = f"the {role} {path}"
    manifest = dict(tool="promptpress", version=__version__, command=command, seed=seed,
                    config=config, inputs=inputs, artifacts=artifacts)
    try:
        _atomic(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _build(owner: type, config: dict[str, object], **given):
    """``owner`` from ``given`` and the config keys it holds, each checked
    and cast to its field's type."""
    for key, k in _KEYS.items():
        if k.owner is owner:
            given[k.field] = _cast(key, config[key], k.kind)
    return owner(**given)


def _value(config: dict[str, object], key: str):
    """The value of a key no dataclass holds, checked and cast."""
    return _cast(key, config[key], _KEYS[key].kind)


def _check_memory(cfg: EncoderConfig) -> None:
    """Refuse a model whose training state, four float64 vectors of the
    actor's size (the actor, its gradient and Adam's two moments), is
    larger than physical memory; skipped where ``os.sysconf`` cannot
    tell. Loaded checkpoints are not checked: they were allocated."""
    if not {"SC_PAGE_SIZE", "SC_PHYS_PAGES"} <= set(getattr(os, "sysconf_names", ())):
        return
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 4 * 8 * actor_size(cfg) > physical:
        raise ValueError(
            f"the model's training state exceeds the {physical} bytes of "
            "physical memory"
        )


def _read_corpus(path: str) -> list[PromptRecord]:
    """The records of the JSONL corpus at ``path``; a file that cannot be
    read, a malformed line or no record at all is a usage error naming
    it."""
    try:
        corpus = load_corpus(path)
    except OSError as exc:
        raise UsageError(f"cannot read corpus {path}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not corpus:
        raise UsageError(f"corpus {path} is empty")
    return corpus


def _read_checkpoint(path: str):
    """The actor and vocabulary of the checkpoint at ``path``; a file that
    cannot be read is a usage error naming it, and one that reads but is
    corrupt a runtime failure."""
    try:
        return load_checkpoint(path, actor_only=True)
    except OSError as exc:
        raise UsageError(f"cannot read checkpoint {path}: {exc}") from exc


def cmd_make_corpus(args: argparse.Namespace) -> int:
    if not 0.0 <= args.filler <= 1.0:
        raise UsageError("--filler must be in [0, 1]")
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    seed = resolve_seed(args.seed)
    out = Path(args.out)
    write_manifest(out, command="make-corpus", seed=seed,
                   config={"n": args.n, "filler": args.filler},
                   inputs={}, artifacts={"corpus": str(out)})
    records = make_synthetic_corpus(seed, args.n, args.filler)
    _atomic(out, lambda p: save_corpus(records, p))
    print(f"wrote {len(records)} records to {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = resolve_config(args.config, _parse_set_flags(args.set or []))
    if args.seed is not None:
        config["trainer.seed"] = args.seed

    corpus = _read_corpus(args.corpus)
    # A bad config value, prompt length or scoring setting is a usage
    # error, found before the manifest is written.
    try:
        vocab = build_vocabulary(corpus, _value(config, "vocab.max_size"))
        trainer_cfg = _build(TrainerConfig, config)
        schedule = _build(CurriculumSchedule, config)
        reward_cfg = _build(RewardConfig, config)
        encoder_cfg = _build(EncoderConfig, config, vocab_size=vocab.size)
        _check_memory(encoder_cfg)
        prompts = tokenize_corpus(corpus, vocab, encoder_cfg.max_len)
        lm = fit_ngram_lm(prompts, order=_value(config, "scoring.ngram_order"),
                          smoothing=_value(config, "scoring.ngram_k"), vocab=vocab)
        scorers = _build(Scorers, config, lm=lm,
                         retention=IdfRetentionScorer(compute_idf_table(prompts)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"invalid training config: {exc}") from exc

    out = Path(args.out)
    log_path = Path(args.log) if args.log else Path(f"{out}.log.jsonl")

    def manifest(artifacts: dict[str, str]) -> None:
        write_manifest(out, command="train", seed=trainer_cfg.seed, config=config,
                       inputs={"corpus": str(args.corpus)}, artifacts=artifacts,
                       config_file=args.config)

    manifest({"checkpoint": str(out), "log": str(log_path)})
    try:
        state = hpc_train(prompts, trainer_cfg, schedule, reward_cfg, scorers,
                          encoder_cfg, progress=lambda msg: print(msg, file=sys.stderr))
    except TrainingDiverged as exc:
        # A diverged run writes its log and no checkpoint, and its
        # manifest then names only what it wrote.
        _atomic(log_path, _jsonl(exc.log))
        manifest({"log": str(log_path)})
        raise
    _atomic(out, lambda p: save_checkpoint(state, vocab, p))
    _atomic(log_path, _jsonl(state.log))
    print(f"wrote checkpoint {out} and log {log_path}")
    return 0


def _cpus_per_blas_call() -> int:
    """The CPUs this process may run on over the threads of a BLAS call,
    at least 1. A call takes, as OpenBLAS reads them, the first positive
    ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``, else every CPU."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdecimal() and int(value) > 0:
            return max(cpus // int(value), 1)
    return 1


def _helper_threads(n_items: int):
    """A pool of one thread per BLAS call's share of the CPUs, so that
    the pool's BLAS calls do not compete for them, and at most one per
    item; a null context, which gives None, when one thread is enough.
    Threads start only when work is submitted."""
    workers = min(_cpus_per_blas_call(), n_items)
    return ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext()


def _checked_prompts(corpus, vocab, max_len: int):
    """Every prompt tokenized; an empty or over-long one is a usage error
    naming its record."""
    try:
        return tokenize_corpus(corpus, vocab, max_len)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_compress(args: argparse.Namespace) -> int:
    """Compress every prompt of ``--input`` with the checkpoint's policy:
    ``--steps`` greedy steps, each dropping ``--budget`` tokens (0:
    every token below keep probability 0.5).

    The prompts move step by step. A step is one ``policy_forward`` call
    over every prompt's current compressed form, whose encoder passes run
    on the helper pool, then each prompt's greedy labels, which give its
    next form. If passes fail, the first failing one in input order is
    reported and nothing is written.
    """
    if args.steps < 0:
        raise UsageError("--steps must be >= 0")
    if args.budget < 0:
        raise UsageError("--budget must be >= 0")
    actor, vocab = _read_checkpoint(args.checkpoint)
    corpus = _read_corpus(args.input)
    seqs = _checked_prompts(corpus, vocab, actor.encoder.cfg.max_len)
    out = Path(args.out)
    write_manifest(out, command="compress", seed=0,
                   config={"steps": args.steps, "budget": args.budget},
                   inputs={"checkpoint": str(args.checkpoint), "input": str(args.input)},
                   artifacts={"output": str(out)})

    current = seqs
    # Each prompt's kept word positions, so that the output prints the
    # original words, an out-of-vocabulary one included. Greedy labels
    # keep a token, so they match the current prompt.
    kept = [range(len(seq)) for seq in seqs]
    with _helper_threads(len(seqs)) as pool:
        for _ in range(args.steps):
            outputs = policy_forward(actor, current, pool)
            labels = [greedy_actions(keep_probs, args.budget) for keep_probs in outputs]
            current = [
                apply_action(cur, lab, keep_probs)
                for cur, lab, keep_probs in zip(current, labels, outputs)
            ]
            kept = [
                [p for p, label in zip(positions, lab) if label]
                for positions, lab in zip(kept, labels)
            ]
    rows = []
    for record, seq, cur, positions in zip(corpus, seqs, current, kept):
        words = split_surfaces(record.text)
        rows.append({
            "id": record.id,
            "original": record.text,
            "compressed": " ".join(words[p] for p in positions),
            "rho": len(cur) / len(seq),
            "tokens_before": len(seq),
            "tokens_after": len(cur),
        })
    _atomic(out, _jsonl(rows))
    print(f"wrote {len(rows)} compressed prompts to {out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for method in methods:
        if method not in EVAL_METHODS:
            raise UsageError(
                f"unknown compressor {method!r}; valid names: "
                + ", ".join(EVAL_METHODS)
            )
        if methods.count(method) > 1:
            raise UsageError(f"--methods names {method!r} more than once")
    if not methods:
        raise UsageError("--methods must name at least one compressor")
    if "policy" in methods and not args.checkpoint:
        raise UsageError("--checkpoint is required for the policy method")
    if not 0.0 < args.rho <= 1.0:
        raise UsageError("--rho must be in (0, 1]")
    for flag, value in (("--steps", args.steps), ("--n-gen", args.n_gen),
                        ("--ngram-order", args.ngram_order)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1")
    if args.vocab_size < 2:
        raise UsageError("--vocab-size must be >= 2")
    seed = resolve_seed(args.seed)
    corpus = _read_corpus(args.corpus)
    # One vocabulary, one tokenization and one LM serve every method: the
    # checkpoint's vocabulary when there is one, since the policy reads
    # its ids. Its encoder bounds the prompt length; every method needs a
    # prompt that tokenizes to something.
    if args.checkpoint:
        actor, vocab = _read_checkpoint(args.checkpoint)
        max_len = actor.encoder.cfg.max_len
    else:
        vocab = build_vocabulary(corpus, args.vocab_size)
        max_len = sys.maxsize
    prompts = _checked_prompts(corpus, vocab, max_len)

    prefix = Path(args.out_prefix)
    jsonl_path, table_path = Path(f"{prefix}.jsonl"), Path(f"{prefix}.txt")
    write_manifest(prefix, command="eval", seed=seed,
                   config={"methods": methods, "rho": args.rho,
                           "ngram_order": args.ngram_order, "n_gen": args.n_gen,
                           "steps": args.steps},
                   inputs={"corpus": str(args.corpus), "checkpoint": args.checkpoint or ""},
                   artifacts={"rows": str(jsonl_path), "table": str(table_path)})

    smoothing = _value(CONFIG_DEFAULTS, "scoring.ngram_k")
    lm = fit_ngram_lm(prompts, order=args.ngram_order, smoothing=smoothing, vocab=vocab)
    lm_description = (
        f"add-k n-gram proxy (order={lm.order}, context window "
        f"{lm.context_window} tokens, fit on eval corpus)"
    )
    # The policy runs without helper threads: on short prompts its passes
    # spend most of their time in small numpy calls that hold the GIL,
    # and a helper thread slowed eval instead of speeding it up.
    build = {
        "identity": IdentityCompressor,
        "random": lambda: RandomCompressor(rho_target=args.rho, seed=seed),
        "selfinfo": lambda: SelfInfoCompressor(lm=lm, rho_target=args.rho),
        "policy": lambda: PolicyCompressor(actor, args.rho, steps=args.steps),
    }
    compressors = [build[method]() for method in methods]

    results = evaluate(compressors, corpus, prompts, lm, args.n_gen)
    _atomic(jsonl_path, _jsonl(record for rows, aggregate in results
                               for record in report_records(rows, aggregate, lm_description)))
    _atomic(table_path, "\n".join(report_table(aggregate, lm_description)
                                  for _, aggregate in results))
    print(f"wrote {jsonl_path} and {table_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptpress",
        description="Train and evaluate keep/drop prompt compression policies.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-corpus", help="generate a synthetic corpus")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--filler", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_corpus)

    p = sub.add_parser("train", help="train a compression policy")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", default=None, help="training log path (JSONL)")
    p.add_argument("--config", default=None, help="flat JSON config file")
    p.add_argument("--seed", type=int, default=None, help="sets trainer.seed")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config key")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compress", help="compress prompts with a trained policy")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="JSONL corpus to compress")
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--budget", type=int, default=0,
                   help="tokens dropped per step; 0 uses 0.5-thresholding")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("eval", help="evaluate compressors on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--methods", default="random,selfinfo",
                   help="comma-separated: " + ", ".join(EVAL_METHODS))
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--steps", type=int, default=1, help="policy rollout steps")
    p.add_argument("--ngram-order", type=int,
                   default=CONFIG_DEFAULTS["scoring.ngram_order"])
    p.add_argument("--n-gen", type=int, default=CONFIG_DEFAULTS["scoring.n_gen"])
    p.add_argument("--vocab-size", type=int, default=CONFIG_DEFAULTS["vocab.max_size"],
                   help="vocabulary cap when no --checkpoint supplies one")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
