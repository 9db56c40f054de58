"""Operator entry points: make-corpus, train, compress, eval.

Configuration has three layers: built-in defaults, then a flat JSON
config file, then command-line flags. The resolved result is frozen in
a run manifest written before any long-running work, so every run is
reproducible from its manifest alone. Exit codes: 0 success, 2 usage or
validation error, 1 runtime failure. Artifacts are written to a
``.partial`` path and renamed only when complete.

``compress`` encodes its prompts in passes of up to the encoder's
``max_len`` tokens, run on a pool of one thread per CPU the process may
use while the calling thread waits; its output does not depend on that
number.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import __version__
from .baselines import (
    IdentityCompressor,
    PolicyCompressor,
    RandomCompressor,
    SelfInfoCompressor,
)
from .encoder import EncoderConfig
from .evaluation import EvalSettings, evaluate
from .policy import apply_action, greedy_actions, policy_forward
from .reward import RewardConfig
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
    Scorers,
    TrainerConfig,
    hpc_train,
    load_checkpoint,
    save_checkpoint,
)

# A default that a dataclass owns is read from it, so it changes in one
# place. The n-gram order and smoothing and the vocabulary cap have no
# dataclass; ``eval`` reads them from here too.
CONFIG_DEFAULTS: dict[str, object] = {
    "trainer.actor_lr": TrainerConfig.actor_lr,
    "trainer.clip_eps": TrainerConfig.clip_eps,
    "trainer.batch_size": TrainerConfig.batch_size,
    "trainer.buffer_m": TrainerConfig.buffer_capacity,
    "trainer.discount": TrainerConfig.discount,
    "trainer.seed": None,
    "curriculum.psi": CurriculumSchedule.psi,
    "curriculum.t_max": list(CurriculumSchedule.t_max_per_stage),
    "curriculum.epochs": list(CurriculumSchedule.epochs_per_stage),
    "reward.alpha": RewardConfig.alpha,
    "reward.beta": RewardConfig.beta,
    "reward.gamma": RewardConfig.gamma,
    "reward.p_s": RewardConfig.p_s,
    "reward.p_l": RewardConfig.p_l,
    "scoring.ngram_order": 2,
    "scoring.ngram_k": 0.1,
    "scoring.n_gen": Scorers.n_gen,
    "model.d_model": EncoderConfig.d_model,
    "model.n_heads": EncoderConfig.n_heads,
    "model.n_layers": EncoderConfig.n_layers,
    "model.d_ff": EncoderConfig.d_ff,
    "model.max_len": EncoderConfig.max_len,
    "vocab.max_size": 512,
}

EVAL_METHODS = ("identity", "random", "selfinfo", "policy")


class UsageError(Exception):
    pass


def _atomic(path: Path, content) -> None:
    """Write ``content`` to a .partial path, then rename into place.

    ``content`` is text, written as UTF-8, or a function that writes the
    path it is given.
    """
    partial = path.with_name(path.name + ".partial")
    if isinstance(content, str):
        partial.write_text(content, encoding="utf-8")
    else:
        content(partial)
    os.replace(partial, path)


def _jsonl(records) -> str:
    """One JSON object per line, keys sorted: the format of every JSONL
    file the commands write."""
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


def resolve_config(
    config_path: str | None, overrides: dict[str, object]
) -> dict[str, object]:
    """defaults <- config file <- flag overrides; unknown keys are errors."""
    resolved = dict(CONFIG_DEFAULTS)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {config_path}: {exc}")
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold one flat JSON object")
        for key, value in loaded.items():
            if key not in resolved:
                raise UsageError(f"unknown config key in file: {key}")
            resolved[key] = value
    for key, value in overrides.items():
        if key not in resolved:
            raise UsageError(f"unknown config key: {key}")
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


def resolve_seed(flag_seed: int | None, config_seed: object) -> int:
    """Flag beats config beats 0; a seed is a non-negative integer."""
    raw = flag_seed if flag_seed is not None else config_seed
    if raw is None:
        return 0
    # An int or a string of its digits: no bool, fraction or sign.
    if isinstance(raw, (int, str)) and not isinstance(raw, bool):
        if str(raw).isdecimal():
            return int(raw)
    raise UsageError(f"seed must be a non-negative integer, got {raw!r}")


def write_manifest(
    path: Path,
    command: str,
    seed: int,
    config: dict[str, object],
    inputs: dict[str, str],
    artifacts: dict[str, str],
) -> None:
    manifest = {
        "tool": "promptpress",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": config,
        "inputs": inputs,
        "artifacts": artifacts,
    }
    _atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _as_int(value: object, key: str) -> int:
    """An integer config value; a bool or a fraction is an error, where
    ``int`` would truncate it and run a value the manifest does not hold."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _build_training_pieces(config: dict[str, object], seed: int, no_hpc: bool,
                           fixed_c_s: float, fixed_c_l: float, vocab_size: int):
    trainer_cfg = TrainerConfig(
        actor_lr=float(config["trainer.actor_lr"]),
        clip_eps=float(config["trainer.clip_eps"]),
        batch_size=_as_int(config["trainer.batch_size"], "trainer.batch_size"),
        buffer_capacity=_as_int(config["trainer.buffer_m"], "trainer.buffer_m"),
        discount=float(config["trainer.discount"]),
        seed=seed,
    )
    t_max = tuple(_as_int(v, "curriculum.t_max") for v in config["curriculum.t_max"])
    epochs = tuple(_as_int(v, "curriculum.epochs") for v in config["curriculum.epochs"])
    schedule = CurriculumSchedule(
        psi=float(config["curriculum.psi"]),
        t_max_per_stage=t_max,
        epochs_per_stage=epochs,
        fixed_bounds=(fixed_c_s, fixed_c_l) if no_hpc else None,
    )
    reward_cfg = RewardConfig(
        alpha=float(config["reward.alpha"]),
        beta=float(config["reward.beta"]),
        gamma=float(config["reward.gamma"]),
        p_s=float(config["reward.p_s"]),
        p_l=float(config["reward.p_l"]),
    )
    encoder_cfg = EncoderConfig(
        vocab_size=vocab_size,
        d_model=_as_int(config["model.d_model"], "model.d_model"),
        n_heads=_as_int(config["model.n_heads"], "model.n_heads"),
        n_layers=_as_int(config["model.n_layers"], "model.n_layers"),
        d_ff=_as_int(config["model.d_ff"], "model.d_ff"),
        max_len=_as_int(config["model.max_len"], "model.max_len"),
    )
    return trainer_cfg, schedule, reward_cfg, encoder_cfg


def _read_corpus(path: str) -> list[PromptRecord]:
    """The records of the JSONL corpus at ``path``; a malformed line is a
    usage error naming it."""
    try:
        return load_corpus(path)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_make_corpus(args: argparse.Namespace) -> int:
    if not 0.0 <= args.filler <= 1.0:
        raise UsageError("--filler must be in [0, 1]")
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    seed = resolve_seed(args.seed, None)
    out = Path(args.out)
    write_manifest(
        out.with_name(out.name + ".manifest.json"),
        command="make-corpus",
        seed=seed,
        config={"n": args.n, "filler": args.filler},
        inputs={},
        artifacts={"corpus": str(out)},
    )
    records = make_synthetic_corpus(seed, args.n, args.filler)
    _atomic(out, lambda p: save_corpus(records, p))
    print(f"wrote {len(records)} records to {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    if not args.no_hpc and (args.fixed_c_s, args.fixed_c_l) != (None, None):
        raise UsageError("--fixed-c-s and --fixed-c-l set the band only with --no-hpc")
    fixed_c_s = 0.5 if args.fixed_c_s is None else args.fixed_c_s
    fixed_c_l = 0.9 if args.fixed_c_l is None else args.fixed_c_l
    config = resolve_config(args.config, _parse_set_flags(args.set or []))
    seed = resolve_seed(args.seed, config["trainer.seed"])
    config["trainer.seed"] = seed

    corpus = _read_corpus(args.corpus)
    if not corpus:
        raise UsageError(f"corpus {args.corpus} is empty")
    # A bad config value, band, prompt length or scoring setting is a
    # usage error, found before the manifest is written.
    try:
        vocab = build_vocabulary(
            corpus, _as_int(config["vocab.max_size"], "vocab.max_size")
        )
        trainer_cfg, schedule, reward_cfg, encoder_cfg = _build_training_pieces(
            config, seed, args.no_hpc, fixed_c_s, fixed_c_l, vocab.size
        )
        prompts = tokenize_corpus(corpus, vocab, encoder_cfg.max_len)
        lm = fit_ngram_lm(
            prompts,
            order=_as_int(config["scoring.ngram_order"], "scoring.ngram_order"),
            smoothing=float(config["scoring.ngram_k"]),
            vocab=vocab,
        )
        scorers = Scorers(
            retention=IdfRetentionScorer(compute_idf_table(prompts)),
            lm=lm,
            n_gen=_as_int(config["scoring.n_gen"], "scoring.n_gen"),
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid training config: {exc}") from exc

    out = Path(args.out)
    log_path = Path(args.log) if args.log else out.with_name(out.name + ".log.jsonl")
    write_manifest(
        out.with_name(out.name + ".manifest.json"),
        command="train",
        seed=seed,
        config={**config, "no_hpc": bool(args.no_hpc),
                "fixed_c_s": fixed_c_s, "fixed_c_l": fixed_c_l},
        inputs={"corpus": str(args.corpus)},
        artifacts={"checkpoint": str(out), "log": str(log_path)},
    )

    state = hpc_train(
        prompts,
        trainer_cfg,
        schedule,
        reward_cfg,
        scorers,
        encoder_cfg,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    _atomic(out, lambda p: save_checkpoint(state, vocab, p))
    _atomic(log_path, _jsonl(state.log))
    print(f"wrote checkpoint {out} and log {log_path}")
    return 0


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _helper_threads(n_items: int):
    """A pool of one thread per usable CPU and at most one per item; a
    null context, which gives None, when one thread is enough. Threads
    start only when work is submitted."""
    workers = min(_usable_cpus(), n_items)
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
    actor, vocab = load_checkpoint(args.checkpoint, actor_only=True)
    corpus = _read_corpus(args.input)
    if not corpus:
        raise UsageError(f"input {args.input} is empty")
    seqs = _checked_prompts(corpus, vocab, actor.encoder.cfg.max_len)
    out = Path(args.out)
    write_manifest(
        out.with_name(out.name + ".manifest.json"),
        command="compress",
        seed=0,
        config={"steps": args.steps, "budget": args.budget},
        inputs={"checkpoint": str(args.checkpoint), "input": str(args.input)},
        artifacts={"output": str(out)},
    )

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
    seed = resolve_seed(args.seed, None)
    corpus = _read_corpus(args.corpus)
    if not corpus:
        raise UsageError(f"corpus {args.corpus} is empty")
    # One vocabulary, one tokenization and one LM serve every method: the
    # checkpoint's vocabulary when there is one, since the policy reads
    # its ids. Its encoder bounds the prompt length; every method needs a
    # prompt that tokenizes to something.
    if args.checkpoint:
        actor, vocab = load_checkpoint(args.checkpoint, actor_only=True)
        max_len = actor.encoder.cfg.max_len
    else:
        vocab = build_vocabulary(corpus, args.vocab_size)
        max_len = sys.maxsize
    prompts = _checked_prompts(corpus, vocab, max_len)

    prefix = Path(args.out_prefix)
    jsonl_path = prefix.with_name(prefix.name + ".jsonl")
    table_path = prefix.with_name(prefix.name + ".txt")
    write_manifest(
        prefix.with_name(prefix.name + ".manifest.json"),
        command="eval",
        seed=seed,
        config={
            "methods": methods,
            "rho": args.rho,
            "ngram_order": args.ngram_order,
            "n_gen": args.n_gen,
            "steps": args.steps,
        },
        inputs={"corpus": str(args.corpus), "checkpoint": args.checkpoint or ""},
        artifacts={"rows": str(jsonl_path), "table": str(table_path)},
    )

    smoothing = float(CONFIG_DEFAULTS["scoring.ngram_k"])
    lm = fit_ngram_lm(prompts, order=args.ngram_order, smoothing=smoothing, vocab=vocab)
    settings = EvalSettings(
        vocab=vocab,
        n_gen=args.n_gen,
        lm_description=(
            f"add-k n-gram proxy (order={lm.order}, context window "
            f"{lm.context_window} tokens, fit on eval corpus)"
        ),
    )
    # The policy runs without helper threads: on short prompts its passes
    # spend most of their time in small numpy calls that hold the GIL,
    # and a helper thread slowed eval instead of speeding it up.
    compressors = []
    for method in methods:
        if method == "identity":
            compressors.append(IdentityCompressor())
        elif method == "random":
            compressors.append(RandomCompressor(rho_target=args.rho, seed=seed))
        elif method == "selfinfo":
            compressors.append(SelfInfoCompressor(lm=lm, rho_target=args.rho))
        else:
            compressors.append(
                PolicyCompressor(
                    actor=actor, steps=args.steps, rho_target=args.rho
                )
            )

    reports = evaluate(compressors, corpus, prompts, lm, settings)
    _atomic(jsonl_path, _jsonl(r for report in reports for r in report.jsonl_records()))
    _atomic(table_path, "\n".join(r.table() for r in reports))
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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-hpc", action="store_true",
                   help="freeze the compression band instead of the curriculum")
    p.add_argument("--fixed-c-s", type=float, default=None,
                   help="lower band bound used with --no-hpc")
    p.add_argument("--fixed-c-l", type=float, default=None,
                   help="upper band bound used with --no-hpc")
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
