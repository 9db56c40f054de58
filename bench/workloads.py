"""The three workloads: one ``promptpress`` command each, run in-process.

Each workload makes its inputs from the seed, builds any fixture outside
the timed region, gives the argv of its command, names the first unit of
work (a ``promptpress.cli`` global, whose first call ends set-up), and
checks every output of an invocation. An operation is one training run,
one prompt compressed, or one (prompt, method) evaluated; an operation
fails when the command exits non-zero or its output fails a check.
"""

from __future__ import annotations

import gc
import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

import inputs


@dataclass
class Invocation:
    code: int | None  # None: stopped at the first unit of work
    wall_s: float
    cpu_s: float
    setup_s: float | None  # invocation to first unit of work
    work_s: float | None  # first unit of work to return
    stderr: str


@dataclass
class Outcome:
    attempted: int
    failed: int
    units: float  # work done, in the workload's unit


class _SetupDone(BaseException):
    """Raised at the first unit of work of a set-up probe.

    A BaseException, so the CLI's runtime-failure handler lets it through.
    """


def invoke(cli: ModuleType, argv: list[str], first_unit: str | None = None,
           probe: bool = False) -> Invocation:
    """Run ``promptpress.cli.main(argv)`` with its output captured.

    ``first_unit`` names the ``promptpress.cli`` global whose first call
    ends set-up; with ``probe`` the command stops there.
    """
    marks: list[float] = []
    original = getattr(cli, first_unit) if first_unit else None
    if original is not None:
        def marked(*args, **kwargs):
            if not marks:
                marks.append(time.perf_counter())
                if probe:
                    raise _SetupDone
            return original(*args, **kwargs)

        setattr(cli, first_unit, marked)
    err = io.StringIO()
    gc.collect()  # start from a clean heap, as a fresh process would
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main(argv)
    except _SetupDone:
        code = None
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        if original is not None:
            setattr(cli, first_unit, original)
    first = marks[0] if marks else None
    return Invocation(
        code=code,
        wall_s=t1 - t0,
        cpu_s=cpu1 - cpu0,
        setup_s=None if first is None else first - t0,
        work_s=None if first is None else t1 - first,
        stderr=err.getvalue(),
    )


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


# The output checks below restate the program's contract instead of
# importing its helpers, so that they do not trust the code they check.


def _is_subsequence(sub: list[str], full: list[str]) -> bool:
    """Order-preserving containment; ``<unk>`` stands for any word."""
    it = iter(full)
    return all(any(s == f or s == "<unk>" for f in it) for s in sub)


def keep_count(length: int, rho: float) -> int:
    """Tokens a compressor keeps at target rate rho: max(1, round-half-up)."""
    return max(1, int(math.floor(rho * length + 0.5)))


def _collection_only_train(cli: ModuleType, corpus: Path, out: Path,
                           n_prompts: int) -> None:
    """A checkpoint with untrained weights, written by ``promptpress train``.

    One stage, one epoch, one step, and a buffer larger than the corpus,
    so no update runs; the vocabulary is the corpus's own.
    """
    inv = invoke(cli, [
        "train", "--corpus", str(corpus), "--out", str(out),
        "--set", "curriculum.t_max=[1]", "--set", "curriculum.epochs=[1]",
        "--set", f"trainer.buffer_m={n_prompts + 1}",
    ])
    if inv.code != 0:
        raise RuntimeError(f"fixture checkpoint failed: {inv.stderr.strip()}")


class TrainSynth:
    """``train`` at the CLI defaults on synthetic key/filler prompts."""

    name = "train-synth"
    command = "train"
    first_unit = "hpc_train"
    # Eight prompts, 32 trajectories and two update rounds per invocation:
    # short enough for several invocations, each paired with the
    # baseline's, in one run.
    n_prompts = 8
    lengths = (24, 48)
    recall_prompts = 128
    recall_length = 40  # one length, so one --budget is exactly rho = 0.5

    def prepare(self, cli: ModuleType, work: Path, seed: int) -> None:
        self.work, self.seed = work, seed
        self.recall = inputs.synthetic_corpus(
            seed, inputs.STREAM_RECALL, 0, self.recall_prompts,
            self.recall_length, self.recall_length,
        )
        inputs.write_jsonl(self.recall, work / "recall.jsonl")
        warm = inputs.synthetic_corpus(seed, inputs.STREAM_TRAIN, 10**6, 4, 24, 48)
        inputs.write_jsonl(warm, work / "warm.jsonl")
        self.key_recall: dict[int, float] = {}

    def warmup_argv(self) -> list[str]:
        # A small buffer so the warm-up also runs the update path.
        return ["train", "--corpus", str(self.work / "warm.jsonl"),
                "--out", str(self.work / "warm.ckpt"), "--set", "trainer.buffer_m=4"]

    def argv(self, i: int) -> list[str]:
        corpus = self.work / f"train-{i}.jsonl"
        if not corpus.exists():
            inputs.write_jsonl(
                inputs.synthetic_corpus(
                    self.seed, inputs.STREAM_TRAIN, i, self.n_prompts, *self.lengths
                ),
                corpus,
            )
        # No --seed: the CLI default. The initial weights still depend on
        # the corpus, through the size of its vocabulary.
        return ["train", "--corpus", str(corpus), "--out", str(self._ckpt(i)),
                "--log", str(self.work / f"train-{i}.log.jsonl")]

    def _ckpt(self, i: int) -> Path:
        return self.work / f"train-{i}.ckpt"

    def check(self, cli: ModuleType, i: int, inv: Invocation) -> Outcome:
        if inv.code != 0:
            return Outcome(1, 1, 0.0)
        log = _read_jsonl(self.work / f"train-{i}.log.jsonl")
        losses = [r[k] for r in log for k in ("objective", "critic_loss") if k in r]
        manifest = json.loads(
            (self.work / f"train-{i}.ckpt.manifest.json").read_text(encoding="utf-8")
        )
        epochs = sum(int(e) for e in manifest["config"]["curriculum.epochs"])
        recall = self._key_recall(cli, i)
        ok = bool(losses) and all(_finite(v) for v in losses) and recall is not None
        if recall is not None:
            self.key_recall[i] = recall
        return Outcome(1, 0 if ok else 1, float(self.n_prompts * epochs))

    def _key_recall(self, cli: ModuleType, i: int) -> float | None:
        """Share of key words the checkpoint keeps at rho = 0.5.

        Compressing also proves the checkpoint loads back. Returns None
        when it does not, or when an output breaks the budget.
        """
        out = self.work / "recall-out.jsonl"
        budget = self.recall_length // 2
        inv = invoke(cli, ["compress", "--checkpoint", str(self._ckpt(i)),
                           "--input", str(self.work / "recall.jsonl"),
                           "--out", str(out), "--steps", "1", "--budget", str(budget)])
        if inv.code != 0:
            return None
        rows = _read_jsonl(out)
        if len(rows) != len(self.recall):
            return None
        kept = total = 0
        for record, row in zip(self.recall, rows):
            words = record["text"].split()
            keys = {w for w, f in zip(words, record["filler_mask"]) if not f}
            compressed = row["compressed"].split()
            if len(compressed) != len(words) - budget or not _is_subsequence(compressed, words):
                return None
            total += len(words) - sum(record["filler_mask"])
            kept += sum(w in keys for w in compressed)
        return kept / total


class CompressLong:
    """``compress`` of long Zipf prompts, two steps at a fixed budget."""

    name = "compress-long"
    command = "compress"
    first_unit = "policy_forward"
    n_prompts = 48
    lengths = (128, 256)  # 256 is the encoder's max_len
    steps = 2
    budget = 32
    fixture_prompts = 96

    def prepare(self, cli: ModuleType, work: Path, seed: int) -> None:
        self.work = work
        self.records = inputs.zipf_corpus(seed, inputs.STREAM_ZIPF_LONG,
                                          self.n_prompts, *self.lengths)
        inputs.write_jsonl(self.records, work / "long.jsonl")
        # The policy's vocabulary comes from other prompts of the same
        # distribution, capped at 512 words, so compress meets <unk>.
        fixture = inputs.zipf_corpus(seed, inputs.STREAM_FIXTURE,
                                     self.fixture_prompts, 16, 48)
        inputs.write_jsonl(fixture, work / "fixture.jsonl")
        _collection_only_train(cli, work / "fixture.jsonl", work / "fixture.ckpt",
                               self.fixture_prompts)
        self.tokens = sum(len(r["text"].split()) for r in self.records)

    def warmup_argv(self) -> list[str]:
        return self.argv(0)

    def argv(self, i: int) -> list[str]:
        return ["compress", "--checkpoint", str(self.work / "fixture.ckpt"),
                "--input", str(self.work / "long.jsonl"),
                "--out", str(self.work / "long-out.jsonl"),
                "--steps", str(self.steps), "--budget", str(self.budget)]

    def check(self, cli: ModuleType, i: int, inv: Invocation) -> Outcome:
        n = len(self.records)
        if inv.code != 0:
            return Outcome(n, n, 0.0)
        rows = _read_jsonl(self.work / "long-out.jsonl")
        good = 0
        for record, row in zip(self.records, rows):
            words = record["text"].split()
            compressed = row["compressed"].split()
            expected = len(words) - self.steps * self.budget
            good += (
                row["id"] == record["id"]
                and row["tokens_before"] == len(words)
                and row["tokens_after"] == expected == len(compressed)
                and _is_subsequence(compressed, words)
            )
        return Outcome(n, n - good, float(self.tokens))


class EvalZipf:
    """``eval`` of four compressors on short Zipf prompts at rho = 0.5."""

    name = "eval-zipf"
    command = "eval"
    first_unit = "evaluate"
    # 32 prompts, about 340 distinct words, keep one invocation under a
    # second, so that a run pairs many of them with the baseline's. The
    # checkpoint's vocabulary is this corpus's own: ``eval`` fails with
    # a checkpoint whose vocabulary is larger than the corpus's.
    n_prompts = 32
    lengths = (16, 48)
    methods = ("identity", "random", "selfinfo", "policy")
    rho = 0.5

    def prepare(self, cli: ModuleType, work: Path, seed: int) -> None:
        self.work = work
        self.records = inputs.zipf_corpus(seed, inputs.STREAM_ZIPF_SHORT,
                                          self.n_prompts, *self.lengths)
        inputs.write_jsonl(self.records, work / "short.jsonl")
        _collection_only_train(cli, work / "short.jsonl", work / "fixture.ckpt",
                               self.n_prompts)

    def warmup_argv(self) -> list[str]:
        return self.argv(0)

    def argv(self, i: int) -> list[str]:
        return ["eval", "--corpus", str(self.work / "short.jsonl"),
                "--methods", ",".join(self.methods), "--rho", str(self.rho),
                "--checkpoint", str(self.work / "fixture.ckpt"),
                "--out-prefix", str(self.work / "eval")]

    def check(self, cli: ModuleType, i: int, inv: Invocation) -> Outcome:
        n = len(self.records) * len(self.methods)
        if inv.code != 0:
            return Outcome(n, n, 0.0)
        lengths = {r["id"]: len(r["text"].split()) for r in self.records}
        rows: dict[tuple[str, str], dict] = {}
        sound_aggregate: dict[str, bool] = {}
        for rec in _read_jsonl(self.work / "eval.jsonl"):
            kind = rec.get("record")
            if kind == "row":
                rows[(rec["method"], rec["id"])] = rec
            elif kind == "aggregate":
                values = [v for k, v in rec.items()
                          if k not in ("record", "method") and v is not None]
                sound_aggregate[rec["method"]] = all(_finite(v) for v in values) and (
                    rec["method"] != "identity" or rec["rouge1_f"] == 1.0
                )
        good = 0
        for method in self.methods:
            if not sound_aggregate.get(method, False):
                continue
            for prompt_id, length in lengths.items():
                row = rows.get((method, prompt_id))
                if row is None:
                    continue
                scores = [row[k] for k in ("rouge1_f", "rouge2_f", "rougeL_f",
                                           "token_f1", "rho", "inv_rho")]
                kept = length if method == "identity" else keep_count(length, self.rho)
                good += (
                    all(_finite(v) for v in scores)
                    and row["tokens_before"] == length
                    and row["tokens"] == kept
                    and (method != "identity" or row["rouge1_f"] == 1.0)
                )
        return Outcome(n, n - good, float(n))


WORKLOADS = {w.name: w for w in (TrainSynth, CompressLong, EvalZipf)}
