#!/usr/bin/env python3
"""Replay a fixed set of promptpress commands on two source trees and
compare, byte for byte, everything they write.

    python3 tools/replay_equivalence.py <tree-a> <tree-b> [--work DIR]

Each tree is a checkout with the package under ``src/`` (a clone or a
``git archive`` of a commit). Both trees run the same commands, each in a
directory of its own, as ``python -m promptpress.cli`` with that tree's
``src`` on ``PYTHONPATH`` and one BLAS thread:

* ``make-corpus`` twice, and the three seeded corpora of ``bench/inputs.py``
  (imported read-only from this checkout, so both trees get the same
  bytes) and two larger ones from its generators, 500 Zipf prompts and
  64 synthetic prompts with filler masks, plus an empty corpus and one
  whose ids repeat;
* ``train`` at the defaults and at n-gram orders 1, 3 and 4, with one to
  three steps per trajectory and ``n_gen`` 1, 5 and 32; at order 4 with
  ``n_gen`` 2, where the divergence scores fewer positions than the
  window, and at order 60, past the longest prompt, with ``n_gen`` 32,
  below the window the tables can answer, and 64, past it; once with a
  buffer of 4 and a learning rate of 1e-3, so that every stage trains
  rounds, two-step episodes get updated, and the gradient is clipped at
  some update steps and not at others; twice with update rounds that
  straddle epochs: ``syn24`` with a buffer of 5 (several rounds per
  stage, episodes dropped at each stage's end, a stage-3 round over
  epochs 1 and 2), and ``syn8`` with a buffer of 12 over three epochs of
  two-step episodes (a prompt twice in one round); twice with
  ``CONFIG_AS_FLOATS``, once from a ``--config`` file and once by
  ``--set``, which gives integer keys integral floats and a float key an
  int, each kept as given in the manifest; twice with the fixed band
  [0.5, 0.9] in place of the curriculum, at n-gram order 1, once by
  ``--set curriculum.fixed_bounds=[0.5,0.9]`` and once from a
  ``--config`` file; once with the fixed band [0.05, 0.1] and
  ``reward.gamma=0``, so that every step pays the penalty for rho > c_l
  (its 16 reward evaluations; the other train cases pay it 3 times in
  all) and none evaluates the divergence term; once with rewards
  near the float limit, whose first objective is NaN, so that the run
  fails (exit 1) and writes its log, no checkpoint, and a manifest naming
  the log alone; once on the 64 masked prompts at n-gram order 3 with a
  buffer of 16, so that corpus set-up runs at size and the log's rewards
  read the trigram proxy it fits; once on ``syn8`` with
  ``trainer.discount=0.9``, three-step episodes and a buffer of 4, so
  that updates run on returns summed with a discount below 1; and two
  collection-only fixtures whose head is then set to seeded random
  values: a zero head
  keeps every probability at 0.5, so a change in the encoder's numerics
  would not show in what the policy drops. A second
  copy of each fixture also has its feed-forward w1 scaled by 20, so
  that the GELU's erf runs its |x| > 1 tail;
* ``compress`` and ``eval`` on those checkpoints, over orders 1-4 and 60,
  ``--n-gen`` 1, 5 and 32 and ``--steps`` 1-3, and ``eval`` of the
  identity, random and self-information methods with no checkpoint on
  the 500 Zipf prompts at orders 2 and 4, where the 512-word cap binds
  and ``<unk>`` occurs;
* the float64 keep probabilities of ``policy_forward`` under the two
  w1-scaled fixtures, written raw: every other output is kept words or
  their scores, so it shows a change in the encoder's numerics only
  when that change flips a keep/drop decision;
* resume from a stage boundary, which no command offers: ``train`` on the
  64 masked prompts at the defaults, and again for the first two stages
  alone (``curriculum.t_max=[2,2]``, ``curriculum.epochs=[1,1]``), whose
  checkpoint a snippet loads and hands, as ``hpc_train``'s ``state``, to
  the full ``train`` run through ``promptpress.cli.main``. Within each
  tree, the resumed run's checkpoint and log must equal the
  uninterrupted run's byte for byte, or that is a difference too.

Every command's exit code, stdout and stderr and every file in the two
directories are compared; in manifests the directory's own path is
replaced first. A command that leaves a staging entry, one named
``*.partial``, in either directory fails as a difference, even where
both trees leave one. Exit code 0: the trees agree; 1: a difference,
each one listed; 2: a bad argument. Outputs go to a temporary directory, or to
``--work`` (``a/`` and ``b/`` in it) to be kept.

A train log (``*.log.jsonl``) or checkpoint (``*.ckpt``) whose bytes
differ is still a difference, but its line also says how far apart the
two are: whether every non-float field (of a log record or of the
checkpoint's ``__meta__``) and every non-float member is identical, the
largest relative difference of each float field, by name, and the
largest absolute difference of each float member. That is how a change
whose training arithmetic moves in low-order bits shows its tolerance.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import inputs  # noqa: E402  the benchmark's seeded corpora, only read
import numpy as np  # noqa: E402

INPUT_SEED = 7

# Sets the head of a checkpoint's actor to N(0, 0.5) draws, multiplies
# every feed-forward input matrix w1 by an optional factor (default 1),
# and saves it.
RANDOMIZE_HEAD = """
import sys
import numpy as np
from promptpress.trainer import load_checkpoint, save_checkpoint
src, dst, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
w1_scale = float(sys.argv[4]) if len(sys.argv) > 4 else 1.0
state, vocab = load_checkpoint(src)
rng = np.random.default_rng(seed)
for head in (state.actor.head_w, state.actor.head_b):
    head[...] = rng.normal(0.0, 0.5, size=head.shape)
for name, value in state.actor.encoder.params.items():
    if name.endswith(".w1"):
        value *= w1_scale
save_checkpoint(state, vocab, dst)
"""

# Writes the keep probabilities ``policy_forward`` gives every prompt of
# a corpus under a checkpoint, concatenated as raw float64.
KEEP_PROBS = """
import sys
import numpy as np
from promptpress.policy import policy_forward
from promptpress.text import load_corpus, tokenize_corpus
from promptpress.trainer import load_checkpoint
ckpt, corpus, dst = sys.argv[1:4]
state, vocab = load_checkpoint(ckpt)
prompts = tokenize_corpus(load_corpus(corpus), vocab, state.actor.encoder.cfg.max_len)
np.concatenate(policy_forward(state.actor, prompts)).astype(np.float64).tofile(dst)
"""

# Runs the promptpress command of argv[2:] with ``cli.hpc_train`` given
# the train state of the checkpoint argv[1] to resume from.
RESUME = """
import sys
from promptpress import cli
from promptpress.trainer import load_checkpoint
state, _ = load_checkpoint(sys.argv[1])
train = cli.hpc_train
cli.hpc_train = lambda *args, **kwargs: train(*args, state=state, **kwargs)
sys.exit(cli.main(sys.argv[2:]))
"""

# Snippets a command can name as its argv[0], run with the rest of argv.
SNIPPETS = {"randomize-head": RANDOMIZE_HEAD, "keep-probs": KEEP_PROBS, "resume": RESUME}


def _fixture(corpus: str, out: str, n_prompts: int) -> list[str]:
    """``train`` of one stage, epoch and step with a buffer larger than
    the corpus: no update runs, and the vocabulary is the corpus's own."""
    return ["train", "--corpus", corpus, "--out", out,
            "--set", "curriculum.t_max=[1]", "--set", "curriculum.epochs=[1]",
            "--set", f"trainer.buffer_m={n_prompts + 1}"]


def _eval(corpus: str, ckpt: str | None, order: int, n_gen: int, steps: int,
          out: str, methods: str = "identity,random,selfinfo,policy",
          rho: float = 0.5) -> list[str]:
    argv = ["eval", "--corpus", corpus, "--methods", methods, "--rho", str(rho),
            "--ngram-order", str(order), "--n-gen", str(n_gen),
            "--steps", str(steps), "--seed", "3", "--out-prefix", out]
    return argv + (["--checkpoint", ckpt] if ckpt else [])


def _compress(ckpt: str, corpus: str, steps: int, budget: int, out: str) -> list[str]:
    return ["compress", "--checkpoint", ckpt, "--input", corpus, "--out", out,
            "--steps", str(steps), "--budget", str(budget)]


N_ZIPF, N_LONG = 24, 8
# Corpora large enough that set-up's per-token loops run at size.
N_ZIPF_LARGE, N_SYN_LARGE = 500, 64

# Integer keys given integral floats and a float key given an int, with a
# buffer of 4 so that rounds train.
CONFIG_AS_FLOATS = {"trainer.buffer_m": 4.0, "model.d_model": 32.0,
                    "curriculum.t_max": [1, 2.0, 1], "reward.beta": 2}

# A fixed band in place of the curriculum, at n-gram order 1.
FIXED_BAND = {"curriculum.fixed_bounds": [0.5, 0.9], "scoring.ngram_order": 1,
              "scoring.n_gen": 1, "curriculum.t_max": [1], "curriculum.epochs": [2]}

# (name, argv): argv[0] a key of SNIPPETS runs that snippet, anything
# else is a promptpress command. Paths are relative to the run directory.
COMMANDS: list[tuple[str, list[str]]] = [
    ("make-syn8", ["make-corpus", "--seed", "3", "--n", "8", "--filler", "0.5",
                   "--out", "syn8.jsonl"]),
    ("make-syn24", ["make-corpus", "--seed", "4", "--n", "24", "--filler", "0.3",
                    "--out", "syn24.jsonl"]),
    ("train-defaults", ["train", "--corpus", "syn8.jsonl", "--out", "t1.ckpt",
                        "--seed", "1"]),
    ("train-buffer4-lr1e-3", ["train", "--corpus", "syn8.jsonl", "--out", "t5.ckpt",
                              "--seed", "5", "--set", "trainer.buffer_m=4",
                              "--set", "trainer.actor_lr=1e-3"]),
    ("train-buffer5-syn24", ["train", "--corpus", "syn24.jsonl", "--out", "t6.ckpt",
                             "--seed", "6", "--set", "trainer.buffer_m=5"]),
    ("train-buffer12-epochs3", ["train", "--corpus", "syn8.jsonl", "--out", "t7.ckpt",
                                "--seed", "7", "--set", "trainer.buffer_m=12",
                                "--set", "curriculum.t_max=[2]",
                                "--set", "curriculum.epochs=[3]"]),
    ("train-config-floats", ["train", "--corpus", "syn8.jsonl", "--out", "t8.ckpt",
                             "--seed", "8", "--config", "floats.json"]),
    ("train-set-floats", ["train", "--corpus", "syn8.jsonl", "--out", "t9.ckpt",
                          "--seed", "9",
                          *(f"--set={k}={json.dumps(v)}"
                            for k, v in CONFIG_AS_FLOATS.items())]),
    ("train-order3-steps3", ["train", "--corpus", "bsyn.jsonl", "--out", "t2.ckpt",
                             "--seed", "2", "--set", "scoring.ngram_order=3",
                             "--set", "scoring.n_gen=5", "--set", "curriculum.t_max=[3]",
                             "--set", "curriculum.epochs=[2]"]),
    ("train-order1-nohpc", ["train", "--corpus", "syn8.jsonl", "--out", "t3.ckpt",
                            "--seed", "3",
                            *(f"--set={k}={json.dumps(v)}" for k, v in FIXED_BAND.items())]),
    ("train-order1-nohpc-config", ["train", "--corpus", "syn8.jsonl", "--out", "t14.ckpt",
                                   "--seed", "3", "--config", "band.json"]),
    ("train-order4", ["train", "--corpus", "syn24.jsonl", "--out", "t4.ckpt",
                      "--seed", "4", "--set", "scoring.ngram_order=4",
                      "--set", "curriculum.t_max=[2]", "--set", "curriculum.epochs=[1]"]),
    ("train-order4-ngen2", ["train", "--corpus", "syn8.jsonl", "--out", "t10.ckpt",
                           "--seed", "10", "--set", "scoring.ngram_order=4",
                           "--set", "scoring.n_gen=2"]),
    ("train-order60", ["train", "--corpus", "syn8.jsonl", "--out", "t11.ckpt",
                       "--seed", "11", "--set", "scoring.ngram_order=60"]),
    ("train-order60-ngen64", ["train", "--corpus", "syn8.jsonl", "--out", "t12.ckpt",
                              "--seed", "12", "--set", "scoring.ngram_order=60",
                              "--set", "scoring.n_gen=64"]),
    ("train-above-band-gamma0", ["train", "--corpus", "syn8.jsonl", "--out", "t15.ckpt",
                                 "--seed", "15",
                                 "--set", "curriculum.fixed_bounds=[0.05,0.1]",
                                 "--set", "reward.gamma=0"]),
    ("train-diverges", ["train", "--corpus", "syn8.jsonl", "--out", "t13.ckpt",
                        "--seed", "13", "--set", "trainer.buffer_m=4",
                        *(f"--set=reward.{key}=1e308" for key in ("alpha", "p_s", "p_l"))]),
    ("fixture-zipf", _fixture("zipf.jsonl", "fz.ckpt", N_ZIPF)),
    ("fixture-long", _fixture("long.jsonl", "fl.ckpt", N_LONG)),
    ("randomize-zipf", ["randomize-head", "fz.ckpt", "fz-rand.ckpt", "0"]),
    ("randomize-long", ["randomize-head", "fl.ckpt", "fl-rand.ckpt", "1"]),
    # w1 x 20 puts most erf arguments of the GELU outside [-1, 1], and some
    # past 6: the erf's tail runs, which trained weights seldom reach.
    ("scale-w1-zipf", ["randomize-head", "fz.ckpt", "fz-w1.ckpt", "2", "20"]),
    ("scale-w1-long", ["randomize-head", "fl.ckpt", "fl-w1.ckpt", "3", "20"]),
    ("compress-trained-1", _compress("t1.ckpt", "syn8.jsonl", 1, 0, "c1.jsonl")),
    ("compress-trained-2", _compress("t2.ckpt", "bsyn.jsonl", 2, 3, "c2.jsonl")),
    ("compress-long-3", _compress("fl-rand.ckpt", "long.jsonl", 3, 20, "c3.jsonl")),
    ("compress-long-1", _compress("fl-rand.ckpt", "long.jsonl", 1, 0, "c4.jsonl")),
    ("compress-zipf-2", _compress("fz-rand.ckpt", "zipf.jsonl", 2, 4, "c5.jsonl")),
    ("compress-long-w1", _compress("fl-w1.ckpt", "long.jsonl", 2, 0, "c7.jsonl")),
    ("eval-o1-g1-s1", _eval("zipf.jsonl", "fz-rand.ckpt", 1, 1, 1, "e1")),
    ("eval-o2-g32-s2", _eval("zipf.jsonl", "fz-rand.ckpt", 2, 32, 2, "e2")),
    ("eval-o3-g5-s3", _eval("zipf.jsonl", "fz-rand.ckpt", 3, 5, 3, "e3")),
    ("eval-o4-g32-s1", _eval("zipf.jsonl", "fz-rand.ckpt", 4, 32, 1, "e4")),
    ("eval-o4-g1-s2", _eval("zipf.jsonl", "fz-rand.ckpt", 4, 1, 2, "e5")),
    ("eval-o1-g32-s3", _eval("zipf.jsonl", "fz-rand.ckpt", 1, 32, 3, "e6")),
    ("eval-o60-g32-s2", _eval("zipf.jsonl", "fz-rand.ckpt", 60, 32, 2, "e12")),
    ("eval-long-o4", _eval("long.jsonl", "fl-rand.ckpt", 4, 32, 3, "e7",
                           methods="selfinfo,policy", rho=0.3)),
    ("eval-trained", _eval("syn8.jsonl", "t1.ckpt", 2, 32, 2, "e8", rho=0.3)),
    ("eval-zipf-w1", _eval("zipf.jsonl", "fz-w1.ckpt", 2, 5, 2, "e11",
                           methods="policy")),
    ("keep-probs-long-w1", ["keep-probs", "fl-w1.ckpt", "long.jsonl", "kp-long.f64"]),
    ("keep-probs-zipf-w1", ["keep-probs", "fz-w1.ckpt", "zipf.jsonl", "kp-zipf.f64"]),
    ("eval-no-checkpoint", _eval("syn24.jsonl", None, 3, 5, 1, "e9",
                                 methods="identity,random,selfinfo")),
    ("compress-empty-input", _compress("t1.ckpt", "empty.jsonl", 1, 0, "c6.jsonl")),
    ("eval-duplicate-ids", _eval("dup.jsonl", None, 2, 5, 1, "e10",
                                 methods="random,selfinfo")),
    # Corpus set-up at size: 500 Zipf prompts under the 512-word cap, so
    # that <unk> occurs, and a train whose log reads a trigram proxy fit
    # on 64 masked prompts.
    ("eval-zipf500-o2", _eval("zipf500.jsonl", None, 2, 5, 1, "e13",
                              methods="identity,random,selfinfo")),
    ("eval-zipf500-o4", _eval("zipf500.jsonl", None, 4, 5, 1, "e14",
                              methods="identity,random,selfinfo")),
    ("train-syn64-order3", ["train", "--corpus", "bsyn64.jsonl", "--out", "t16.ckpt",
                            "--seed", "16", "--set", "scoring.ngram_order=3",
                            "--set", "trainer.buffer_m=16"]),
    # Updates on three-step returns summed with a discount below 1.
    ("train-discount0.9-steps3", ["train", "--corpus", "syn8.jsonl", "--out", "t17.ckpt",
                                  "--seed", "17", "--set", "trainer.discount=0.9",
                                  "--set", "curriculum.t_max=[3]",
                                  "--set", "curriculum.epochs=[1]",
                                  "--set", "trainer.buffer_m=4"]),
    # Resume: the first two stages alone, then the full run resumed from
    # their checkpoint, which must equal the uninterrupted run.
    ("train-syn64-defaults", ["train", "--corpus", "bsyn64.jsonl", "--out", "t18.ckpt",
                              "--seed", "18"]),
    ("train-syn64-stages12", ["train", "--corpus", "bsyn64.jsonl", "--out", "t19.ckpt",
                              "--seed", "18", "--set", "curriculum.t_max=[2,2]",
                              "--set", "curriculum.epochs=[1,1]"]),
    ("train-syn64-resumed", ["resume", "t19.ckpt", "train", "--corpus", "bsyn64.jsonl",
                             "--out", "t20.ckpt", "--seed", "18"]),
]

# Each resumed run's file, and the uninterrupted run's it must equal.
RESUMED = {"t20.ckpt": "t18.ckpt", "t20.ckpt.log.jsonl": "t18.ckpt.log.jsonl"}


def write_inputs(run: Path) -> None:
    """The corpora no promptpress command makes, and the config files of
    ``CONFIG_AS_FLOATS`` and ``FIXED_BAND``, the same in every run."""
    inputs.write_jsonl(inputs.zipf_corpus(INPUT_SEED, inputs.STREAM_ZIPF_SHORT,
                                          N_ZIPF, 16, 48), run / "zipf.jsonl")
    inputs.write_jsonl(inputs.zipf_corpus(INPUT_SEED, inputs.STREAM_ZIPF_LONG,
                                          N_LONG, 128, 256), run / "long.jsonl")
    inputs.write_jsonl(inputs.synthetic_corpus(INPUT_SEED, inputs.STREAM_TRAIN, 0,
                                               8, 24, 48), run / "bsyn.jsonl")
    inputs.write_jsonl(inputs.zipf_corpus(INPUT_SEED, inputs.STREAM_ZIPF_SHORT,
                                          N_ZIPF_LARGE, 16, 48), run / "zipf500.jsonl")
    inputs.write_jsonl(inputs.synthetic_corpus(INPUT_SEED, inputs.STREAM_TRAIN, 1,
                                               N_SYN_LARGE, 24, 48), run / "bsyn64.jsonl")
    (run / "empty.jsonl").write_text("", encoding="utf-8")
    (run / "floats.json").write_text(json.dumps(CONFIG_AS_FLOATS), encoding="utf-8")
    (run / "band.json").write_text(json.dumps(FIXED_BAND), encoding="utf-8")
    inputs.write_jsonl([{"id": "same", "text": "a b c"}, {"id": "same", "text": "b c"}],
                       run / "dup.jsonl")


def replay(tree: Path, run: Path) -> dict[str, tuple[int, bytes, bytes, list[str]]]:
    """Run every command with ``tree``'s sources in ``run``; the exit
    code, stdout and stderr of each, by name, and the staging entries it
    left that no earlier command did."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results, staged = {}, set()
    for name, argv in COMMANDS:
        if argv[0] in SNIPPETS:
            cmd = [sys.executable, "-c", SNIPPETS[argv[0]], *argv[1:]]
        else:
            cmd = [sys.executable, "-m", "promptpress.cli", *argv]
        proc = subprocess.run(cmd, cwd=run, env=env, capture_output=True, timeout=900)
        left = {str(path.relative_to(run)) for path in run.rglob("*.partial")} - staged
        staged |= left
        results[name] = (proc.returncode, proc.stdout, proc.stderr, sorted(left))
    return results


def _files(run: Path) -> dict[str, bytes]:
    """Every file under ``run``, by relative path; in manifests the run
    directory's own path reads ``<run>``."""
    files = {}
    for path in sorted(run.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            for prefix in {str(run), str(run.resolve())}:
                data = data.replace(json.dumps(prefix)[1:-1].encode(), b"<run>")
        files[str(path.relative_to(run))] = data
    return files


def _float_gaps(a, b, name: str, gaps: dict[str, float]) -> bool:
    """Walk two JSON values in step: whether everything but their floats
    is identical, with the largest relative difference of the floats
    recorded in ``gaps`` under their dotted dict-key path (list indices
    left out, so a log field's gap is over all its records)."""
    if type(a) is float and type(b) is float:
        if a == b or (math.isnan(a) and math.isnan(b)):
            gap = 0.0
        elif math.isfinite(a) and math.isfinite(b):
            gap = abs(a - b) / max(abs(a), abs(b))
        else:
            gap = math.inf
        gaps[name] = max(gaps.get(name, 0.0), gap)
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        same = a.keys() == b.keys()
        for key in a.keys() & b.keys():
            same &= _float_gaps(a[key], b[key], f"{name}.{key}".lstrip("."), gaps)
        return same
    if isinstance(a, list):
        same = len(a) == len(b)
        for x, y in zip(a, b):
            same &= _float_gaps(x, y, name, gaps)
        return same
    return a == b


def _gap_text(gaps: dict[str, float]) -> str:
    return ", ".join(f"{name} {gap:.2g}" for name, gap in sorted(gaps.items()))


def _log_gaps(data_a: bytes, data_b: bytes) -> str:
    """How far two train logs are apart, as a clause of a diff line."""
    try:
        records = [[json.loads(line) for line in data.decode().splitlines()]
                   for data in (data_a, data_b)]
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        return f"not both readable: {exc}"
    gaps: dict[str, float] = {}
    same = _float_gaps(*records, "", gaps)
    return (f"non-float fields {'identical' if same else 'differ'}; "
            f"largest relative difference: {_gap_text(gaps) or 'no float field'}")


def _checkpoint_gaps(data_a: bytes, data_b: bytes) -> str:
    """How far two checkpoints are apart, member by member, as a clause of
    a diff line; ``__meta__`` is compared as JSON, like a log."""
    try:
        with np.load(io.BytesIO(data_a)) as za, np.load(io.BytesIO(data_b)) as zb:
            a, b = dict(za), dict(zb)
        metas = [json.loads(m["__meta__"].tobytes().decode()) for m in (a, b)]
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        return f"not both readable: {exc!r}"
    same = a.keys() == b.keys()
    absolute: dict[str, float] = {}
    relative: dict[str, float] = {}
    for name in sorted(a.keys() & b.keys()):
        x, y = a[name], b[name]
        if name == "__meta__":
            same &= _float_gaps(*metas, "", relative)
        elif x.dtype != y.dtype or x.shape != y.shape:
            same = False
        elif x.dtype.kind == "f":
            absolute[name] = float(np.max(np.abs(x - y), initial=0.0))
        else:
            same &= bool(np.array_equal(x, y))
    return (f"non-float members and __meta__ fields "
            f"{'identical' if same else 'differ'}; largest absolute difference: "
            f"{_gap_text(absolute) or 'no float member'}; largest relative "
            f"difference in __meta__: {_gap_text(relative) or 'no float field'}")


def compare(results: tuple[dict, dict], files: tuple[dict, dict]) -> list[str]:
    """One line per difference between the two replays."""
    diffs = []
    for name, _ in COMMANDS:
        (code_a, out_a, err_a, left_a), (code_b, out_b, err_b, left_b) = (
            r[name] for r in results)
        if code_a != code_b:
            diffs.append(f"{name}: exit code {code_a} != {code_b}")
        if out_a != out_b:
            diffs.append(f"{name}: stdout differs")
        if err_a != err_b:
            diffs.append(f"{name}: stderr differs")
        for tree, left in (("a", left_a), ("b", left_b)):
            if left:
                diffs.append(f"{name}: tree {tree} left staging entries {', '.join(left)}")
    files_a, files_b = files
    for tree, tree_files in (("a", files_a), ("b", files_b)):
        for resumed, full in RESUMED.items():
            if resumed not in tree_files or tree_files[resumed] != tree_files.get(full):
                diffs.append(f"tree {tree}: resumed {resumed} differs from {full}")
    for rel in sorted(set(files_a) | set(files_b)):
        if rel not in files_b:
            diffs.append(f"{rel}: only in tree a")
        elif rel not in files_a:
            diffs.append(f"{rel}: only in tree b")
        elif files_a[rel] != files_b[rel]:
            detail = ""
            if rel.endswith(".log.jsonl"):
                detail = "; " + _log_gaps(files_a[rel], files_b[rel])
            elif rel.endswith(".ckpt"):
                detail = "; " + _checkpoint_gaps(files_a[rel], files_b[rel])
            diffs.append(f"{rel}: bytes differ{detail}")
    return diffs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--work", type=Path, default=None,
                        help="keep both runs' outputs here, in a/ and b/")
    args = parser.parse_args(argv)
    trees = (args.tree_a.resolve(), args.tree_b.resolve())
    for tree in trees:
        if not (tree / "src" / "promptpress" / "cli.py").is_file():
            print(f"error: {tree} has no src/promptpress/cli.py", file=sys.stderr)
            return 2
    if args.work is not None and args.work.exists() and any(args.work.iterdir()):
        print(f"error: --work {args.work} is not empty", file=sys.stderr)
        return 2
    work = args.work or Path(tempfile.mkdtemp(prefix="replay-"))
    try:
        runs = (work / "a", work / "b")
        results = []
        for tree, run in zip(trees, runs):
            run.mkdir(parents=True)
            write_inputs(run)
            print(f"replaying {len(COMMANDS)} commands on {tree}", file=sys.stderr)
            results.append(replay(tree, run))
        files = tuple(_files(run) for run in runs)
        diffs = compare(tuple(results), files)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    for line in diffs:
        print(line)
    if diffs:
        print(f"{len(diffs)} differences")
        return 1
    print(f"identical: {len(COMMANDS)} commands, {len(files[0])} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
