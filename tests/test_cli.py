"""CLI tests: compress reads what train writes and prints the original
words it keeps, compress and eval of the policy give the same output on
any number of threads, compress sizes its pool by CPUs per BLAS thread,
eval scores every method against one vocabulary/LM pairing and writes no
exact-match key, note or column for a corpus with reference outputs, the
CLI's defaults are the library's, every ``train`` setting, the seed and
the fixed band included, is a config key, a config file's values reach
the run under any ``--set`` and ``--seed`` beats the config's seed, no
command imports scipy, an entry at an output's ``.partial`` path (a
link, a hard link, a dangling link, a directory, an input or another
output) is left as it was, an output whose manifest's name fits is
written, two writers of one path both succeed, a writer that fails
leaves no file, every output has the mode ``open`` gives under the
umask, a corpus holding the word ``<unk>`` trains and evaluates, and bad
training config, a bad config file, a bad eval flag, seed or vocabulary
size, an unknown or repeated eval method, an unfit prompt, a malformed,
missing or empty corpus, a missing checkpoint, or an output in a missing
directory, that is a directory or has no name, or that names a file the
command reads (``train``'s ``--config`` file included) or another of its
outputs is a usage error with nothing written, a diverged train run
writes its log and no checkpoint, and a train run, on the curriculum or
on a fixed band, reruns from its manifest's config as it is. A seeded
fuzz of ``train``'s config values finds no exit but 0, 2 before the
manifest, or 1 when training diverges, and runs a fixed band to exit 0;
one of ``compress`` and ``eval``, outputs that are a directory, that
have no name or that are the input included, and an input corpus at the
output's ``.partial`` path, which is left as it was, finds no exit but
0, 2 with nothing written, or 1 on a corrupt checkpoint, which a
checkpoint whose vocabulary does not fit its encoder is."""

import dataclasses
import errno
import json
import math
import os
import random
import stat
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    bump_schema_version,
    cut_vocabulary,
    edit_meta,
    extend_vocabulary,
    rewrite_checkpoint,
)
from promptpress import cli, encoder
from promptpress.cli import main
from promptpress.encoder import EncoderConfig, TinyTransformerEncoder
from promptpress.optim import Adam
from promptpress.policy import ActorGradient
from promptpress.reward import RewardConfig, Scorers
from promptpress.text import PromptRecord, make_synthetic_corpus, save_corpus
from promptpress.trainer import (
    CurriculumSchedule,
    TrainerConfig,
    load_checkpoint,
    save_checkpoint,
)


def _small_corpus(path):
    save_corpus(make_synthetic_corpus(seed=2, n_prompts=3, filler_fraction=0.5), path)


def _rows(prefix, method):
    with open(f"{prefix}.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return [r for r in records if r["method"] == method]


# A prompt over the encoder's max_len and one that tokenizes to nothing,
# each with the message naming its record.
OVER_MAX_LEN = " ".join(["w"] * 300)
BLANK_MESSAGE = "record 'bad' tokenizes to nothing"
UNFIT_PROMPTS = [
    pytest.param(OVER_MAX_LEN,
                 "record 'bad' has 300 tokens, more than the encoder max_len 256",
                 id="over-max-len"),
    pytest.param("   ", BLANK_MESSAGE, id="blank"),
]


BAND_KIND = "a JSON list of two numbers, or null"

PHYSICAL_MEMORY_KNOWN = {"SC_PAGE_SIZE", "SC_PHYS_PAGES"} <= set(
    getattr(os, "sysconf_names", ()))


def _checkpoint_on_larger_corpus(tmp_path):
    """Untrained checkpoint whose vocabulary covers 64 synthetic prompts.

    The buffer is larger than the corpus, so no episode is collected and
    no update runs; only the vocabulary matters here.
    """
    train = tmp_path / "train.jsonl"
    save_corpus(make_synthetic_corpus(seed=1, n_prompts=64, filler_fraction=0.5), train)
    ckpt = tmp_path / "policy.ckpt"
    code = main([
        "train", "--corpus", str(train), "--out", str(ckpt),
        "--set", "curriculum.t_max=[1]", "--set", "curriculum.epochs=[1]",
        "--set", "trainer.buffer_m=65",
    ])
    assert code == 0
    return ckpt


class TestEvalPairing:
    def test_method_order_gives_identical_selfinfo_rows(self, tmp_path):
        ckpt = _checkpoint_on_larger_corpus(tmp_path)
        small = tmp_path / "eval.jsonl"
        # Fewer prompts than the checkpoint saw: a smaller vocabulary, so
        # checkpoint ids run past the end of an LM fit on this corpus's own.
        _small_corpus(small)
        rows = {}
        for methods in ("selfinfo,policy", "policy,selfinfo", "selfinfo"):
            prefix = tmp_path / methods.replace(",", "-")
            code = main([
                "eval", "--corpus", str(small), "--methods", methods,
                "--checkpoint", str(ckpt), "--out-prefix", str(prefix),
            ])
            assert code == 0, methods
            rows[methods] = _rows(prefix, "selfinfo")
        assert rows["selfinfo,policy"]
        assert rows["selfinfo,policy"] == rows["policy,selfinfo"] == rows["selfinfo"]

    def test_no_exact_match_is_reported(self, tmp_path):
        # Every synthetic record has a reference output, and eval scores
        # no generation against it: no key, note or column is written.
        corpus = tmp_path / "eval.jsonl"
        _small_corpus(corpus)
        assert all(json.loads(line)["reference_output"]
                   for line in corpus.read_text().splitlines())
        prefix = tmp_path / "out"
        assert main(["eval", "--corpus", str(corpus), "--methods", "identity,random",
                     "--out-prefix", str(prefix)]) == 0
        records = [json.loads(line)
                   for line in Path(f"{prefix}.jsonl").read_text().splitlines()]
        assert len(records) == 2 * (1 + 3 + 1)
        assert not any({"em", "note"} & record.keys() for record in records)
        table = Path(f"{prefix}.txt").read_text().splitlines()
        assert not any(line.startswith("# note:") for line in table)
        assert [line.split() for line in table if line.startswith("Method")] == [
            ["Method", "Rouge-1", "Rouge-2", "Rouge-L", "TokenF1", "Tokens", "1/rho"]] * 2

    @pytest.mark.parametrize("methods, message", [
        ("random,bogus", "unknown compressor 'bogus'; valid names: "
                         "identity, random, selfinfo, policy"),
        ("random,random,identity", "--methods names 'random' more than once"),
    ])
    def test_unknown_or_repeated_method_is_usage_error(self, tmp_path, capsys,
                                                       methods, message):
        corpus = tmp_path / "eval.jsonl"
        _small_corpus(corpus)
        code = main(["eval", "--corpus", str(corpus), "--methods", methods,
                     "--out-prefix", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [corpus]  # no manifest, no output

    def test_policy_without_checkpoint_is_usage_error(self, tmp_path, capsys):
        corpus = tmp_path / "eval.jsonl"
        _small_corpus(corpus)
        prefix = tmp_path / "out"
        code = main([
            "eval", "--corpus", str(corpus), "--methods", "random,policy",
            "--out-prefix", str(prefix),
        ])
        assert code == 2
        assert "--checkpoint" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [corpus]  # no manifest, no output


def _randomize_head(ckpt):
    """Give the checkpoint's actor a non-zero head, so which tokens are
    dropped depends on the encoder's features."""
    state, vocab = load_checkpoint(ckpt)
    rng = np.random.default_rng(0)
    for head in (state.actor.head_w, state.actor.head_b):
        head[...] = rng.normal(0.0, 1.0, size=head.shape)
    save_checkpoint(state, vocab, ckpt)


def _set_cpus(monkeypatch, n):
    """Make the process look as if it may run on n CPUs, with one BLAS
    thread per call."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def _compress_input(tmp_path):
    """Three synthetic prompts, then short-1 to short-4: the first 1 to 4
    words of the first one. Returns the corpus path."""
    records = make_synthetic_corpus(seed=2, n_prompts=3, filler_fraction=0.5)
    words = records[0].text.split()
    records += [PromptRecord(f"short-{n}", " ".join(words[:n])) for n in (1, 2, 3, 4)]
    source = tmp_path / "input.jsonl"
    save_corpus(records, source)
    return source


class TestCompressRoundTrip:
    @staticmethod
    def _compress(ckpt, tmp_path, steps=1, name="compressed.jsonl"):
        """``compress --steps N --budget 3`` on synthetic prompts plus ones
        shorter than the budget; returns the exit code and output path."""
        source = _compress_input(tmp_path)
        out = tmp_path / name
        code = main([
            "compress", "--checkpoint", str(ckpt), "--input", str(source),
            "--out", str(out), "--steps", str(steps), "--budget", "3",
        ])
        return code, out

    def test_train_then_compress_drops_the_budget(self, tmp_path):
        code, out = self._compress(_checkpoint_on_larger_corpus(tmp_path), tmp_path)
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 7
        for row in rows:
            before = row["tokens_before"]
            assert row["tokens_after"] == before - min(3, before - 1), row["id"]

    def test_bumped_schema_version_fails_without_output(self, tmp_path, capsys):
        ckpt = _checkpoint_on_larger_corpus(tmp_path)
        rewrite_checkpoint(ckpt, bump_schema_version)
        before = {*tmp_path.iterdir(), _compress_input(tmp_path)}
        code, out = self._compress(ckpt, tmp_path)
        assert code == 1
        assert "schema_version" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before  # no output, no staging file

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(
                edit_meta(lambda meta: meta.update(schema_version=1)),
                "unsupported checkpoint schema_version: 1",
                id="schema-v1",
            ),
            pytest.param(
                edit_meta(lambda meta: meta.pop("vocab")),
                "corrupt checkpoint: __meta__ field vocab is missing or ill-typed",
                id="no-vocab",
            ),
            pytest.param(
                edit_meta(lambda meta: meta["encoder_cfg"].update(n_heads=0)),
                "corrupt checkpoint: d_model and n_heads must be >= 1",
                id="zero-heads",
            ),
            pytest.param(
                edit_meta(cut_vocabulary),
                "corrupt checkpoint: a vocabulary of ",
                id="vocab-cut",
            ),
            pytest.param(
                edit_meta(lambda meta: meta.update(kind="other")),
                "corrupt checkpoint: __meta__ field kind is missing or ill-typed",
                id="wrong-kind",
            ),
        ],
    )
    def test_bad_metadata_fails_without_output(self, tmp_path, capsys, edit, message):
        ckpt = _checkpoint_on_larger_corpus(tmp_path)
        rewrite_checkpoint(ckpt, edit)
        before = {*tmp_path.iterdir(), _compress_input(tmp_path)}
        code, _ = self._compress(ckpt, tmp_path)
        assert code == 1
        assert message in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before  # no output, no staging file


# Imports the CLI and runs one command in a fresh interpreter; prints the
# exit code and every scipy module then loaded, as JSON.
_SCIPY_PROBE = """
import json, sys
import promptpress.cli
code = promptpress.cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps([code, loaded]))
"""


def test_cli_and_compress_import_no_scipy(tmp_path):
    ckpt = _checkpoint_on_larger_corpus(tmp_path)
    _randomize_head(ckpt)
    src = Path(cli.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(src)
    argv = ["compress", "--checkpoint", str(ckpt), "--input",
            str(_compress_input(tmp_path)), "--out", str(tmp_path / "out.jsonl")]
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == []


def test_inference_builds_no_training_storage(tmp_path, monkeypatch):
    # Gradient vectors, optimizer scratch and the buffers of training
    # passes belong to training: loading an actor, compressing and
    # evaluating build none of them.
    ckpt = _checkpoint_on_larger_corpus(tmp_path)
    _randomize_head(ckpt)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"inference built a {type(self).__name__}")

    for cls in (ActorGradient, Adam, encoder._BlockCache):
        monkeypatch.setattr(cls, "__init__", refuse)
    actor, _ = load_checkpoint(ckpt, actor_only=True)
    assert actor.flat.size > 0
    corpus = _compress_input(tmp_path)
    assert main(["compress", "--checkpoint", str(ckpt), "--input", str(corpus),
                 "--out", str(tmp_path / "out.jsonl"), "--steps", "2"]) == 0
    assert main(["eval", "--corpus", str(corpus), "--methods", "policy",
                 "--checkpoint", str(ckpt), "--out-prefix", str(tmp_path / "ev")]) == 0


def _is_subsequence(sub, full):
    it = iter(full)
    return all(any(x == y for y in it) for x in sub)


class TestCompressWords:
    def test_out_of_vocabulary_words_survive_verbatim(self, tmp_path):
        """``compress`` prints the kept words of the original prompt. With
        each out-of-vocabulary word replaced by ``<unk>``, the prompts give
        the same ids and so the same choices; the output is then the same
        with ``<unk>`` in place of each kept out-of-vocabulary word."""
        ckpt = _checkpoint_on_larger_corpus(tmp_path)
        _randomize_head(ckpt)
        _, vocab = load_checkpoint(ckpt, actor_only=True)
        records = make_synthetic_corpus(seed=2, n_prompts=3, filler_fraction=0.5)
        mixed = " ".join(f"{w} word{i}" for i, w in enumerate(records[0].text.split()))
        records += [PromptRecord("oov", " ".join(f"word{i}" for i in range(20))),
                    PromptRecord("mixed", mixed)]

        def masked(text):
            return " ".join(w if w in vocab.surfaces else "<unk>" for w in text.split())

        rows = {}
        for name, corpus in (
            ("raw", records),
            ("masked", [PromptRecord(r.id, masked(r.text)) for r in records]),
        ):
            source, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}-out.jsonl"
            save_corpus(corpus, source)
            assert main(["compress", "--checkpoint", str(ckpt), "--input", str(source),
                         "--out", str(out), "--steps", "2", "--budget", "5"]) == 0
            rows[name] = [json.loads(line) for line in out.read_text().splitlines()]
        for raw, ids_only in zip(rows["raw"], rows["masked"]):
            assert masked(raw["compressed"]) == ids_only["compressed"]
            assert _is_subsequence(raw["compressed"].split(), raw["original"].split())
            for key in ("id", "rho", "tokens_before", "tokens_after"):
                assert raw[key] == ids_only[key]
        kept = [row["compressed"].split() for row in rows["raw"]]
        assert kept[3] == [f"word{i}" for i in range(20) if f"word{i}" in kept[3]]
        assert len(kept[3]) == 10 and "<unk>" not in kept[3]
        assert any(w.startswith("word") for w in kept[4])
        assert any(w in vocab.surfaces and w != "<unk>" for w in kept[4])


class TestCompressThreads:
    """``compress`` runs its encoder passes on a pool of one thread per
    BLAS call's share of the usable CPUs, capped at the number of prompts,
    while the calling thread waits; its output, and that of ``eval
    --methods policy``, is the same whatever that number is."""

    @pytest.mark.parametrize(
        "openblas, omp, n_items, workers",
        [
            pytest.param(None, None, 9, 1, id="unset-one-blas-thread-per-cpu"),
            pytest.param("1", None, 9, 4, id="openblas-1"),
            pytest.param("1", None, 3, 3, id="openblas-1-three-items"),
            pytest.param("2", None, 9, 2, id="openblas-2"),
            pytest.param("3", None, 9, 1, id="openblas-3"),
            pytest.param("64", None, 9, 1, id="openblas-past-the-cpus"),
            pytest.param(None, "2", 9, 2, id="omp-2"),
            pytest.param("1", "4", 9, 4, id="openblas-beats-omp"),
            pytest.param("0", "2", 9, 2, id="openblas-0-reads-omp"),
            pytest.param("abc", None, 9, 1, id="openblas-not-a-number"),
        ],
    )
    def test_pool_size_follows_blas_threads(
        self, monkeypatch, openblas, omp, n_items, workers
    ):
        _set_cpus(monkeypatch, 4)
        for name, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        monkeypatch.setattr(cli, "ThreadPoolExecutor", lambda n: n)
        pool = cli._helper_threads(n_items)
        assert (pool if type(pool) is int else 1) == workers

    @staticmethod
    def _outputs_on_1_4_16_cpus(monkeypatch, run):
        """``run(n_cpus)`` -> output path, at 1, 4 and 16 usable CPUs with
        threads switched as often as possible; returns the output bytes
        and the size of each helper pool made."""
        workers = []

        class RecordingPool(cli.ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
        outputs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n_cpus in (1, 4, 16):
                _set_cpus(monkeypatch, n_cpus)
                outputs.append(run(n_cpus).read_bytes())
        finally:
            sys.setswitchinterval(interval)
        return outputs, workers

    @pytest.mark.parametrize("steps", [1, 2])
    def test_output_does_not_depend_on_worker_count(self, tmp_path, monkeypatch, steps):
        ckpt = _checkpoint_on_larger_corpus(tmp_path)
        _randomize_head(ckpt)

        def run(n_cpus):
            code, out = TestCompressRoundTrip._compress(
                ckpt, tmp_path, steps=steps, name=f"out-{n_cpus}.jsonl"
            )
            assert code == 0
            return out

        outputs, workers = self._outputs_on_1_4_16_cpus(monkeypatch, run)
        assert workers == [4, 7]  # 7 prompts; none on one CPU
        assert outputs[0] == outputs[1] == outputs[2]
        # The head makes the kept tokens depend on the features: at least
        # one prompt keeps something other than its first tokens.
        rows = [json.loads(line) for line in outputs[0].decode().splitlines()]
        assert any(
            row["compressed"].split()
            != row["original"].split()[: row["tokens_after"]]
            for row in rows
        )

    @pytest.mark.parametrize("steps", [1, 2])
    def test_eval_policy_output_does_not_depend_on_cpu_count(
        self, tmp_path, monkeypatch, steps
    ):
        ckpt = _checkpoint_on_larger_corpus(tmp_path)
        _randomize_head(ckpt)
        corpus = _compress_input(tmp_path)

        def run(n_cpus):
            prefix = tmp_path / f"eval-{n_cpus}"
            code = main([
                "eval", "--corpus", str(corpus), "--methods", "policy",
                "--checkpoint", str(ckpt), "--steps", str(steps),
                "--out-prefix", str(prefix),
            ])
            assert code == 0
            return prefix.with_name(prefix.name + ".jsonl")

        outputs, workers = self._outputs_on_1_4_16_cpus(monkeypatch, run)
        assert workers == []  # eval encodes on the calling thread alone
        assert outputs[0] == outputs[1] == outputs[2]
        records = [json.loads(line) for line in outputs[0].decode().splitlines()]
        rows = [rec for rec in records if rec["record"] == "row"]
        assert sum(row["rho"] < 1.0 for row in rows) == 6  # all but short-1

    def test_first_failing_prompt_in_input_order_is_reported(
        self, tmp_path, monkeypatch, capsys
    ):
        # The 7 prompts make three encoder passes: the three synthetic
        # prompts, short-1 alone, then short-2 to short-4. The last two
        # fail, the later one first.
        ckpt = _checkpoint_on_larger_corpus(tmp_path)
        real = TinyTransformerEncoder.encode

        def failing(self, ids, lengths=None):
            if 1 in lengths:
                time.sleep(0.05)
                raise RuntimeError("cannot encode the pass of short-1")
            if 2 in lengths:
                raise RuntimeError("cannot encode the pass of short-2")
            return real(self, ids, lengths)

        monkeypatch.setattr(TinyTransformerEncoder, "encode", failing)
        _set_cpus(monkeypatch, 4)
        before = {*tmp_path.iterdir(), _compress_input(tmp_path)}
        code, out = TestCompressRoundTrip._compress(ckpt, tmp_path)
        assert code == 1
        assert "cannot encode the pass of short-1" in capsys.readouterr().err
        # The manifest, and no output or staging file.
        assert set(tmp_path.iterdir()) == {*before, Path(f"{out}.manifest.json")}


class TestUnfitPrompt:
    """A prompt the encoder cannot take, or one that tokenizes to nothing,
    is a usage error naming its record, found before any file is written."""

    @staticmethod
    def _corpus_with(tmp_path, text):
        corpus = tmp_path / "input.jsonl"
        records = make_synthetic_corpus(seed=2, n_prompts=3, filler_fraction=0.5)
        save_corpus(records + [PromptRecord("bad", text)], corpus)
        return corpus

    @staticmethod
    def _argv(command, ckpt, corpus, tmp_path):
        if command == "compress":
            return ["compress", "--checkpoint", str(ckpt), "--input", str(corpus),
                    "--out", str(tmp_path / "out.jsonl")]
        return ["eval", "--corpus", str(corpus), "--methods", "random,policy",
                "--checkpoint", str(ckpt), "--out-prefix", str(tmp_path / "ev")]

    @pytest.mark.parametrize("command", ["compress", "eval"])
    @pytest.mark.parametrize("text, message", UNFIT_PROMPTS)
    def test_is_usage_error_before_any_output(
        self, tmp_path, capsys, command, text, message
    ):
        ckpt = _checkpoint_on_larger_corpus(tmp_path)
        corpus = self._corpus_with(tmp_path, text)
        before = set(tmp_path.iterdir())
        assert main(self._argv(command, ckpt, corpus, tmp_path)) == 2
        assert message in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before  # no manifest, no output

    def test_eval_without_checkpoint_checks_only_for_empty_prompts(
        self, tmp_path, capsys
    ):
        def run(text):
            corpus = self._corpus_with(tmp_path, text)
            return main(["eval", "--corpus", str(corpus),
                         "--out-prefix", str(tmp_path / "ev")])

        before = set(tmp_path.iterdir()) | {tmp_path / "input.jsonl"}
        assert run("   ") == 2
        assert BLANK_MESSAGE in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before
        # No encoder reads the prompts, so a long one is scored.
        assert run(OVER_MAX_LEN) == 0
        rows = _rows(tmp_path / "ev", "random")
        assert [r["tokens_before"] for r in rows if r.get("id") == "bad"] == [300]

    def test_eval_corrupt_checkpoint_leaves_no_manifest(self, tmp_path, capsys):
        ckpt = _checkpoint_on_larger_corpus(tmp_path)
        rewrite_checkpoint(ckpt, bump_schema_version)
        corpus = self._corpus_with(tmp_path, "a b c")
        before = set(tmp_path.iterdir())
        assert main(self._argv("eval", ckpt, corpus, tmp_path)) == 1
        assert "schema_version" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before


class TestMalformedCorpus:
    """An ill-typed corpus field is a usage error naming its line, and a
    corpus that cannot be read one naming its path, found before any file
    is written, in every command that reads a corpus."""

    @pytest.fixture(scope="class")
    def ckpt(self, tmp_path_factory):
        return _checkpoint_on_larger_corpus(tmp_path_factory.mktemp("ckpt"))

    @pytest.mark.parametrize("command", ["train", "compress", "eval"])
    @pytest.mark.parametrize(
        "line, message",
        [
            pytest.param('{"id": "bad", "text": null}', "'text' is not a string",
                         id="text-null"),
            pytest.param('{"text": "a b", "filler_mask": ["0", "0"]}',
                         "'filler_mask' is not a list of 0/1/true/false",
                         id="filler-mask-strings"),
            pytest.param('{"text": "a b", "reference_output": 5}',
                         "'reference_output' is not a string", id="reference-int"),
            pytest.param('{"id": null, "text": "a b"}', "'id' is not a string",
                         id="id-null"),
            pytest.param('{"id": 5, "text": "a b"}', "'id' is not a string",
                         id="id-int"),
            pytest.param('{"id": "syn-0000", "text": "a b"}',
                         "duplicate id 'syn-0000' (first on line 1)", id="id-duplicate"),
        ],
    )
    def test_is_usage_error_before_any_output(
        self, tmp_path, capsys, ckpt, command, line, message
    ):
        corpus = tmp_path / "corpus.jsonl"
        _small_corpus(corpus)
        good = corpus.read_text().splitlines()[0]
        corpus.write_text(f"{good}\n{line}\n")
        assert main(self._argv(command, corpus, ckpt, tmp_path)) == 2
        assert f"malformed corpus line 2: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [corpus]  # no manifest, no output

    @pytest.mark.parametrize("command", ["train", "compress", "eval"])
    def test_missing_corpus_is_usage_error_before_any_output(
        self, tmp_path, capsys, ckpt, command
    ):
        corpus = tmp_path / "nope.jsonl"
        assert main(self._argv(command, corpus, ckpt, tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"cannot read corpus {corpus}: [Errno 2]" in err
        assert list(tmp_path.iterdir()) == []  # no manifest, no output

    @pytest.mark.parametrize("command", ["compress", "eval"])
    def test_missing_checkpoint_is_usage_error_before_any_output(
        self, tmp_path, capsys, command
    ):
        corpus = tmp_path / "corpus.jsonl"
        _small_corpus(corpus)
        ckpt = tmp_path / "nope.ckpt"
        argv = self._argv(command, corpus, ckpt, tmp_path) + (
            ["--methods", "policy", "--checkpoint", str(ckpt)] if command == "eval" else [])
        assert main(argv) == 2
        assert f"cannot read checkpoint {ckpt}: [Errno 2]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [corpus]  # no manifest, no output

    @staticmethod
    def _argv(command, corpus, ckpt, tmp_path):
        return {
            "train": ["train", "--corpus", str(corpus), "--out", str(tmp_path / "p.ckpt")],
            "compress": ["compress", "--checkpoint", str(ckpt), "--input", str(corpus),
                         "--out", str(tmp_path / "out.jsonl")],
            "eval": ["eval", "--corpus", str(corpus), "--out-prefix", str(tmp_path / "ev")],
        }[command]


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_compress_empty_input_is_usage_error_before_any_output(tmp_path, capsys, text):
    ckpt = _checkpoint_on_larger_corpus(tmp_path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text(text)
    before = set(tmp_path.iterdir())
    code = main(["compress", "--checkpoint", str(ckpt), "--input", str(empty),
                 "--out", str(tmp_path / "out.jsonl")])
    assert code == 2
    assert f"corpus {empty} is empty" in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == before  # no manifest, no output


class TestEvalFlags:
    @pytest.mark.parametrize(
        "flag, value",
        [("--n-gen", "0"), ("--ngram-order", "0"), ("--steps", "0"), ("--steps", "-1")],
    )
    def test_bad_value_is_usage_error_before_any_output(
        self, tmp_path, capsys, flag, value
    ):
        ckpt = _checkpoint_on_larger_corpus(tmp_path)
        corpus = tmp_path / "eval.jsonl"
        _small_corpus(corpus)
        before = set(tmp_path.iterdir())
        code = main(["eval", "--corpus", str(corpus), "--methods", "random,policy",
                     "--checkpoint", str(ckpt), "--out-prefix", str(tmp_path / "ev"),
                     flag, value])
        assert code == 2
        assert f"{flag} must be >= 1" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before  # no manifest, no output


class TestBadSeedOrVocabSize:
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["make-corpus", "--n", "2", "--filler", "0.5",
                          "--out", "{tmp}/c.jsonl", "--seed", "-1"], id="make-corpus-seed"),
            pytest.param(["train", "--corpus", "{corpus}", "--out", "{tmp}/p.ckpt",
                          "--seed", "-1"], id="train-seed"),
            pytest.param(["train", "--corpus", "{corpus}", "--out", "{tmp}/p.ckpt",
                          "--set", 'trainer.seed="abc"'], id="train-config-seed-text"),
            pytest.param(["train", "--corpus", "{corpus}", "--out", "{tmp}/p.ckpt",
                          "--set", "trainer.seed=-2"], id="train-config-seed-negative"),
            pytest.param(["train", "--corpus", "{corpus}", "--out", "{tmp}/p.ckpt",
                          "--set", "trainer.seed=3.7"], id="train-config-seed-fraction"),
            pytest.param(["train", "--corpus", "{corpus}", "--out", "{tmp}/p.ckpt",
                          "--set", "trainer.seed=true"], id="train-config-seed-bool"),
            pytest.param(["eval", "--corpus", "{corpus}", "--out-prefix", "{tmp}/ev",
                          "--seed", "-3"], id="eval-seed"),
            pytest.param(["eval", "--corpus", "{corpus}", "--out-prefix", "{tmp}/ev",
                          "--vocab-size", "1"], id="eval-vocab-size"),
        ],
    )
    def test_is_usage_error_before_any_output(self, tmp_path, capsys, argv):
        corpus = tmp_path / "corpus.jsonl"
        _small_corpus(corpus)
        argv = [a.format(tmp=tmp_path, corpus=corpus) for a in argv]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [corpus]  # no manifest, no output


class TestDefaults:
    """``CONFIG_DEFAULTS`` reads each default a dataclass owns from it, so
    the resolved defaults build the dataclass defaults; ``eval`` takes its
    n-gram order, smoothing, continuation length and vocabulary cap from
    ``CONFIG_DEFAULTS``."""

    def test_config_defaults_build_the_dataclass_defaults(self):
        defaults = cli.CONFIG_DEFAULTS
        assert defaults.keys() == cli._KEYS.keys()
        pieces = (
            cli._build(TrainerConfig, defaults),
            cli._build(CurriculumSchedule, defaults),
            cli._build(RewardConfig, defaults),
            cli._build(EncoderConfig, defaults, vocab_size=100),
        )
        assert pieces == (TrainerConfig(), CurriculumSchedule(), RewardConfig(),
                          EncoderConfig(vocab_size=100))
        assert TrainerConfig().seed == 0 == cli.resolve_seed(None)
        n_gen = {f.name: f.default for f in dataclasses.fields(Scorers)}["n_gen"]
        assert cli.CONFIG_DEFAULTS["scoring.n_gen"] == n_gen

    def test_eval_fits_its_lm_with_the_config_smoothing(self, tmp_path, monkeypatch):
        # eval has no smoothing flag; it reads the config default, so a
        # change of the default reaches it.
        smoothings = []
        fit = cli.fit_ngram_lm

        def recording(prompts, order, smoothing, vocab):
            smoothings.append(smoothing)
            return fit(prompts, order=order, smoothing=smoothing, vocab=vocab)

        monkeypatch.setattr(cli, "fit_ngram_lm", recording)
        monkeypatch.setitem(cli.CONFIG_DEFAULTS, "scoring.ngram_k", 0.37)
        corpus = tmp_path / "eval.jsonl"
        _small_corpus(corpus)
        assert main(["eval", "--corpus", str(corpus), "--methods", "random",
                     "--out-prefix", str(tmp_path / "ev")]) == 0
        assert smoothings == [0.37]

    def test_eval_flag_defaults_are_the_config_defaults(self):
        args = cli.build_parser().parse_args(["eval", "--corpus", "c", "--out-prefix", "p"])
        assert args.n_gen == cli.CONFIG_DEFAULTS["scoring.n_gen"]
        assert args.ngram_order == cli.CONFIG_DEFAULTS["scoring.ngram_order"]
        assert args.vocab_size == cli.CONFIG_DEFAULTS["vocab.max_size"]


class TestTrainConfig:
    @pytest.mark.parametrize(
        "flags, message",
        [
            pytest.param(["--set", "trainer.buffer_m=1"], "invalid training config",
                         id="buffer-below-batch"),
            pytest.param(["--set", "trainer.batch_size=1", "--set", "trainer.buffer_m=1"],
                         "leave-one-out", id="buffer-of-one"),
            pytest.param(["--set", "vocab.max_size=1"], "max_size must be >= 2",
                         id="vocab-max-size"),
            pytest.param(["--set", "trainer.critic_lr=1e-6"],
                         "unknown config key: trainer.critic_lr", id="critic_lr"),
            pytest.param(["--set", "scoring.n_gen=1" + "0" * 400],
                         "n_gen must be >= 1 and at most the largest float",
                         id="n-gen-past-float"),
            pytest.param(["--set", "scoring.n_gen=0"], "n_gen must be >= 1",
                         id="n-gen"),
            pytest.param(["--set", "scoring.ngram_order=0"], "order must be >= 1",
                         id="ngram-order"),
            pytest.param(["--set", "scoring.ngram_k=0"], "smoothing must be > 0",
                         id="ngram-k"),
            # Finite and positive, but k * V overflows or the least
            # probability is subnormal or 0: the run would fail after its
            # manifest.
            *(
                pytest.param(["--set", f"scoring.ngram_k={k}"],
                             "smoothing must keep k * V finite", id=f"ngram-k-{k}")
                for k in ("5e-324", "1e308", "1e-320")
            ),
            # A JSON integer too large for a float.
            pytest.param(["--set", "reward.beta=1" + "0" * 400],
                         "int too large to convert to float", id="reward.beta-huge-int"),
            *(
                pytest.param(["--set", f"{key}={value}"], message, id=f"{key}-{value}")
                for key, value, message in (
                    ("curriculum.psi", "NaN", "psi must be > 0 and finite"),
                    ("reward.p_l", "NaN", "reward weights and penalties must be finite"),
                    ("scoring.ngram_k", "Infinity", "smoothing must be > 0 and finite"),
                    ("trainer.actor_lr", "NaN", "actor_lr must be > 0 and finite"),
                    ("trainer.actor_lr", "Infinity", "actor_lr must be > 0 and finite"),
                    ("reward.alpha", "NaN", "reward weights and penalties must be finite"),
                    ("reward.gamma", "NaN", "reward weights and penalties must be finite"),
                )
            ),
            # int() would truncate these, and the run would not be the one
            # its manifest records.
            *(
                pytest.param(["--set", f"{key}={value}"],
                             f"{key} must be an integer, got {shown}", id=f"{key}-{value}")
                for key, value, shown in (
                    ("scoring.n_gen", "2.9", "2.9"),
                    ("scoring.n_gen", "true", "True"),
                    ("curriculum.t_max", "[1.7,1,1]", "1.7"),
                    ("curriculum.epochs", "[1,false,2]", "False"),
                    ("trainer.buffer_m", "16.5", "16.5"),
                    ("model.d_model", "true", "True"),
                    ("vocab.max_size", "64.5", "64.5"),
                )
            ),
            # A cast would parse these strings, or take a string's characters
            # as a list's entries, and run a value the manifest does not hold.
            *(
                pytest.param(["--set", f"{key}={value}"],
                             f"{key} must be {kind}, got {shown}", id=f"{key}-type-{i}")
                for i, (key, value, kind, shown) in enumerate((
                    ("curriculum.t_max", '"12"', "a JSON list", "'12'"),
                    ("curriculum.epochs", '"11"', "a JSON list", "'11'"),
                    ("curriculum.epochs", "2", "a JSON list", "2"),
                    ("curriculum.t_max", '["2",2,1]', "an integer", "'2'"),
                    ("trainer.batch_size", '"4"', "an integer", "'4'"),
                    ("vocab.max_size", '"64"', "an integer", "'64'"),
                    ("trainer.actor_lr", '"1e-3"', "a number", "'1e-3'"),
                    ("scoring.ngram_k", '"0.1"', "a number", "'0.1'"),
                    ("reward.beta", "true", "a number", "True"),
                    ("trainer.discount", "false", "a number", "False"),
                    ("trainer.seed", '"3"', "an integer", "'3'"),
                    ("curriculum.fixed_bounds", "[0.5]", BAND_KIND, "[0.5]"),
                    ("curriculum.fixed_bounds", "[0.3,0.5,0.9]", BAND_KIND,
                     "[0.3, 0.5, 0.9]"),
                    ("curriculum.fixed_bounds", '"0.5,0.9"', BAND_KIND, "'0.5,0.9'"),
                    ("curriculum.fixed_bounds", "0.5", BAND_KIND, "0.5"),
                    ("curriculum.fixed_bounds", "[true,0.9]", "a number", "True"),
                    ("curriculum.fixed_bounds", '[0.5,"0.9"]', "a number", "'0.9'"),
                ))
            ),
            *(
                pytest.param(["--set", f"model.{key}={value}"],
                             "d_model and n_heads must be >= 1", id=f"{key}-{value}")
                for key, value in (("n_heads", 0), ("n_heads", -2), ("d_model", 0))
            ),
            # A model whose training state would not fit in memory: refused
            # from the config alone, before the actor or its layers are built.
            *(
                pytest.param(["--set", f"model.{key}={value}"],
                             "invalid training config: the model's training state "
                             "exceeds the", id=f"{key}-{value}",
                             marks=pytest.mark.skipif(
                                 not PHYSICAL_MEMORY_KNOWN,
                                 reason="os.sysconf does not report physical memory"))
                for key, value in (("n_layers", "1e300"), ("d_model", "1e300"),
                                   ("d_ff", "1e300"), ("max_len", "1e9"))
            ),
            *(
                pytest.param(["--set", f"curriculum.fixed_bounds=[{c_s},{c_l}]"],
                             "0 < c_s < c_l <= 1", id=f"fixed-band-{c_s}-{c_l}")
                for c_s, c_l in (("0.9", "0.5"), ("0.5", "0.5"), ("0", "0.5"),
                                 ("0.5", "1.5"), ("NaN", "0.9"))
            ),
            pytest.param(["--seed", "-1"], "seed must be >= 0", id="seed-flag-negative"),
            pytest.param(["--set", "trainer.seed=-2"], "seed must be >= 0",
                         id="seed-negative"),
        ],
    )
    def test_bad_value_is_usage_error_before_any_output(
        self, tmp_path, capsys, flags, message
    ):
        corpus = tmp_path / "train.jsonl"
        _small_corpus(corpus)
        argv = ["train", "--corpus", str(corpus), "--out", str(tmp_path / "p.ckpt")]
        assert main(argv + flags) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [corpus]  # no manifest, no checkpoint

    @pytest.mark.parametrize("text, message", UNFIT_PROMPTS)
    def test_unfit_prompt_is_usage_error_before_any_output(
        self, tmp_path, capsys, text, message
    ):
        corpus = tmp_path / "train.jsonl"
        records = make_synthetic_corpus(seed=2, n_prompts=3, filler_fraction=0.5)
        save_corpus(records + [PromptRecord("bad", text)], corpus)
        code = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "p.ckpt")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [corpus]

    @pytest.mark.parametrize("log", ["./p.ckpt", "MANIFEST"], ids=["checkpoint", "manifest"])
    def test_log_naming_the_checkpoint_or_its_manifest_is_usage_error(
        self, tmp_path, capsys, monkeypatch, log
    ):
        # Compared as resolved paths: a relative --out and an absolute or
        # differently spelled --log still collide.
        monkeypatch.chdir(tmp_path)
        corpus = tmp_path / "train.jsonl"
        _small_corpus(corpus)
        replaced = "checkpoint p.ckpt"
        if log == "MANIFEST":
            log = str(tmp_path / "p.ckpt.manifest.json")
            replaced = "manifest p.ckpt.manifest.json"
        code = main(["train", "--corpus", "train.jsonl", "--out", "p.ckpt", "--log", log])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {Path(log)}: the log would replace the {replaced}\n")
        assert list(tmp_path.iterdir()) == [corpus]

    @pytest.mark.parametrize("flag, role", [("--log", "log"), ("--out", "checkpoint")],
                             ids=["log", "out"])
    @pytest.mark.parametrize("target", ["corpus", "config file"], ids=["corpus", "config"])
    def test_output_naming_a_file_train_reads_is_usage_error(
        self, tmp_path, capsys, flag, role, target
    ):
        corpus = tmp_path / "train.jsonl"
        _small_corpus(corpus)
        config = tmp_path / "config.json"
        config.write_text("{}", encoding="utf-8")
        named = corpus if target == "corpus" else config
        argv = {"--corpus": str(corpus), "--out": str(tmp_path / "p.ckpt"),
                "--config": str(config), flag: str(named)}
        assert main(["train", *(x for pair in argv.items() for x in pair)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {named}: the {role} would replace the {target} "
            f"{named}, which this command reads\n")
        assert set(tmp_path.iterdir()) == {corpus, config}


# How each command's output is made unwritable, and the path the error
# names: one in a missing directory, an existing directory, a path with
# no name, which is the working directory, or one of the command's
# inputs; make-corpus reads nothing.
UNWRITABLE = [
    *(pytest.param(command, fault, id=f"{command}-{fault}")
      for command in ("make-corpus", "train", "compress", "eval")
      for fault in ("missing-dir", "dir", "no-name")),
    *(pytest.param(command, "input", id=f"{command}-input")
      for command in ("train", "compress", "eval")),
]


def _argv(command, out, corpus, ckpt, *extra):
    """``command`` on ``corpus``, writing ``out``; compress and eval run
    the policy of ``ckpt``."""
    return {
        "make-corpus": ["make-corpus", "--n", "2", "--filler", "0.5", "--out", str(out)],
        "train": ["train", "--corpus", str(corpus), "--out", str(out)],
        "compress": ["compress", "--checkpoint", str(ckpt), "--input", str(corpus),
                     "--out", str(out)],
        "eval": ["eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                 "--methods", "identity,policy", "--out-prefix", str(out)],
    }[command] + list(extra)


@pytest.mark.parametrize("command, fault", UNWRITABLE)
def test_unwritable_output_is_usage_error(tmp_path, monkeypatch, capsys, fuzz_checkpoints,
                                          command, fault):
    # Every command checks its outputs, then writes its manifest first;
    # when either fails, the path given is at fault, and the error names
    # it, not the manifest.
    out = tmp_path / "out"
    # The file eval writes at out.jsonl; the other commands write out.
    written = tmp_path / "out.jsonl" if command == "eval" else out
    corpus = tmp_path / "corpus.jsonl"
    _small_corpus(corpus)
    role, reads = {"train": ("checkpoint", "corpus"), "compress": ("output", "input"),
                   "eval": ("rows", "corpus")}.get(command, (None, None))
    if fault == "missing-dir":
        out = written = tmp_path / "missing" / "out"
        message = "No such file or directory"
    elif fault == "dir":
        written.mkdir()
        message = "Is a directory"
    elif fault == "no-name":
        monkeypatch.chdir(tmp_path)
        out, written = "", Path(".")
        message = "Is a directory"
    else:  # an input
        out = tmp_path / "corpus" if command == "eval" else corpus
        written = corpus
        message = f"the {role} would replace the {reads} {corpus}, which this command reads"
    before = set(tmp_path.iterdir())
    assert main(_argv(command, out, corpus, fuzz_checkpoints["good"])) == 2
    assert capsys.readouterr().err == f"error: cannot write {written}: {message}\n"
    assert set(tmp_path.iterdir()) == before
    if fault == "dir":
        assert not any(written.iterdir())


# An entry at ``<out>.partial``, the one name every output was once
# staged at: an existing directory, the command's input corpus, or, for
# train, the checkpoint, at its log's.
PARTIAL_ENTRIES = [
    *(pytest.param(command, "partial-dir", id=f"{command}-partial-dir")
      for command in ("make-corpus", "train", "compress", "eval")),
    *(pytest.param(command, "partial-input", id=f"{command}-partial-input")
      for command in ("train", "compress", "eval")),
    pytest.param("train", "partial-output", id="train-partial-output"),
]


@pytest.mark.parametrize("command, entry", PARTIAL_ENTRIES)
def test_an_entry_at_the_partial_path_is_left_as_it_was(tmp_path, fuzz_checkpoints,
                                                         command, entry):
    # Each output is staged under a name no entry had, so the entry at
    # <out>.partial is neither refused, written nor removed.
    out = tmp_path / "out"
    # eval's first output is its rows, at out.jsonl.
    partial = tmp_path / ("out.jsonl.partial" if command == "eval" else "out.partial")
    corpus = partial if entry == "partial-input" else tmp_path / "corpus.jsonl"
    _small_corpus(corpus)
    log = out.with_name("out.log.jsonl")
    if entry == "partial-dir":
        partial.mkdir()
        (partial / "kept.txt").write_text("kept\n", encoding="utf-8")
    elif entry == "partial-output":
        out, log = partial, out
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    extra = ["--log", str(log)] if command == "train" else []
    assert main(_argv(command, out, corpus, fuzz_checkpoints["good"], *extra)) == 0
    outputs = {"make-corpus": [out], "train": [out, log], "compress": [out],
               "eval": [Path(f"{out}.jsonl"), Path(f"{out}.txt")]}[command]
    manifest = Path(f"{out}.manifest.json")
    assert set(tmp_path.rglob("*")) == {*before, *outputs, manifest,
                                        *([partial] if entry == "partial-dir" else [])}
    assert {path: path.read_bytes() for path in before} == before
    artifacts = json.loads(manifest.read_text(encoding="utf-8"))["artifacts"]
    assert sorted(artifacts.values()) == sorted(map(str, outputs))
    if command == "train":  # the log, written last, left the checkpoint whole
        load_checkpoint(out)


@pytest.mark.parametrize("link", ["symlink", "hard-link", "dangling-symlink"])
@pytest.mark.parametrize("command, linked", [
    ("make-corpus", "c.jsonl"), ("train", "t.ckpt"), ("train", "t.ckpt.log.jsonl"),
])
def test_a_link_at_the_partial_path_is_left_in_place(tmp_path, command, linked, link):
    # make-corpus's corpus and train's checkpoint are written by a
    # function, train's log as text; each is written as a new file, and
    # the link at its .partial path stays, pointing where it did.
    victim = tmp_path / "victim.txt"
    victim.write_text("not an output\n", encoding="utf-8")
    corpus = tmp_path / "train.jsonl"
    _small_corpus(corpus)
    out = tmp_path / ("c.jsonl" if command == "make-corpus" else "t.ckpt")
    partial = tmp_path / f"{linked}.partial"
    target = tmp_path / "new.txt" if link == "dangling-symlink" else victim
    if link == "hard-link":
        os.link(victim, partial)
    else:
        partial.symlink_to(target)
    before = {p.name: p.read_bytes() for p in (victim, corpus)}
    argv = {"make-corpus": ["make-corpus", "--n", "2", "--filler", "0.5"],
            "train": ["train", "--corpus", str(corpus)]}[command]
    assert main([*argv, "--out", str(out)]) == 0
    written = {out.name, f"{out.name}.manifest.json",
               *([f"{out.name}.log.jsonl"] if command == "train" else [])}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        {*before, partial.name, *written})
    assert {name: (tmp_path / name).read_bytes() for name in before} == before
    if link == "hard-link":
        assert not partial.is_symlink() and partial.samefile(victim)
    else:
        assert partial.readlink() == target
    for name in written:
        path = tmp_path / name
        assert path.is_file() and not path.is_symlink() and os.stat(path).st_nlink == 1


def test_two_writers_of_one_path_both_succeed(tmp_path):
    # A's writer stops mid-write while B's write of the same path runs to
    # its end; each stages in a file of its own, so A then ends too, and
    # the output is A's whole content.
    out = tmp_path / "out.txt"
    halfway, b_done = threading.Event(), threading.Event()
    raised = []

    def write_a(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("a, first half; ")
            fh.flush()
            halfway.set()
            assert b_done.wait(10)
            fh.write("a, second half\n")

    def run_a():
        try:
            cli._atomic(out, write_a)
        except BaseException as exc:
            raised.append(exc)

    a = threading.Thread(target=run_a)
    a.start()
    try:
        assert halfway.wait(10)
        cli._atomic(out, "b\n")
        assert out.read_text(encoding="utf-8") == "b\n"
    finally:
        b_done.set()
        a.join()
    assert raised == []
    assert out.read_text(encoding="utf-8") == "a, first half; a, second half\n"
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def test_a_writer_that_fails_leaves_no_file(tmp_path, monkeypatch, capsys):
    # The checkpoint's writer fails after writing part of it: train exits
    # 1, and the manifest is all that is left.
    corpus = tmp_path / "train.jsonl"
    _small_corpus(corpus)

    def failing(state, vocab, path):
        Path(path).write_bytes(b"PK\x03\x04 half a checkpoint")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "save_checkpoint", failing)
    out = tmp_path / "t.ckpt"
    assert main(["train", "--corpus", str(corpus), "--out", str(out)]) == 1
    assert capsys.readouterr().err.endswith(
        f"failure: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
    assert set(tmp_path.iterdir()) == {corpus, Path(f"{out}.manifest.json")}


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_every_output_has_the_mode_open_gives(tmp_path, umask):
    # Every output is created as open creates a file: mode 0o666 less the
    # umask, whatever the mode of the file it is staged in.
    corpus, ckpt = tmp_path / "c.jsonl", tmp_path / "t.ckpt"
    previous = os.umask(umask)
    try:
        for command, out in (("make-corpus", corpus), ("train", ckpt),
                             ("compress", tmp_path / "c.out.jsonl"),
                             ("eval", tmp_path / "ev")):
            assert main(_argv(command, out, corpus, ckpt)) == 0, command
    finally:
        os.umask(previous)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(
        ["c.jsonl", "c.jsonl.manifest.json", "t.ckpt", "t.ckpt.log.jsonl",
         "t.ckpt.manifest.json", "c.out.jsonl", "c.out.jsonl.manifest.json",
         "ev.jsonl", "ev.txt", "ev.manifest.json"], 0o666 & ~umask)


def test_an_output_whose_manifest_name_fits_is_written(tmp_path):
    # The manifest's name is the output's and 14 characters more, the
    # longest name a command derives; staging names add nothing to it.
    name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
    out = tmp_path / ("n" * (name_max - len(".manifest.json")))
    assert main(["make-corpus", "--n", "2", "--filler", "0.5", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2
    assert json.loads(Path(f"{out}.manifest.json").read_text())["artifacts"] == {
        "corpus": str(out)}
    assert sorted(p.name for p in tmp_path.iterdir()) == [out.name,
                                                          f"{out.name}.manifest.json"]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_corpus_holding_the_unknown_word_is_read(tmp_path, capsys, command):
    # "<unk>" in a prompt is a word the vocabulary does not rank, so it
    # reads as the unknown token, which prints as "<unk>".
    corpus = tmp_path / "unk.jsonl"
    save_corpus([PromptRecord("a", "the <unk> word here"),
                 PromptRecord("b", "another <unk> word")], corpus)
    out = tmp_path / "out"
    argv = {"train": ["train", "--corpus", str(corpus), "--out", str(out)],
            "eval": ["eval", "--corpus", str(corpus), "--out-prefix", str(out)]}[command]
    assert main(argv) == 0, capsys.readouterr().err
    if command == "train":
        _, vocab = load_checkpoint(out)
        assert vocab.surfaces.count("<unk>") == 1
        assert vocab.surfaces[vocab.unknown_id] == "<unk>"


def test_output_on_a_symlink_loop_replaces_the_link(tmp_path):
    # The output checks resolve the path without raising on the loop, and
    # the rename replaces the link, as it did before those checks.
    out = tmp_path / "loop"
    out.symlink_to(tmp_path / "back")
    (tmp_path / "back").symlink_to(out)
    assert main(["make-corpus", "--n", "2", "--filler", "0.5", "--out", str(out)]) == 0
    assert not out.is_symlink() and len(out.read_text().splitlines()) == 2


def test_diverged_train_writes_its_log_and_no_checkpoint(tmp_path, capsys):
    # Rewards near the float limit overflow, so the first objective is NaN.
    corpus = tmp_path / "train.jsonl"
    save_corpus(make_synthetic_corpus(seed=3, n_prompts=8, filler_fraction=0.5), corpus)
    out = tmp_path / "p.ckpt"
    argv = ["train", "--corpus", str(corpus), "--out", str(out),
            "--set", "trainer.buffer_m=4",
            *(f"--set=reward.{key}=1e308" for key in ("alpha", "p_s", "p_l"))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would fail the run
        assert main(argv) == 1
    assert capsys.readouterr().err == (
        "failure: non-finite objective at stage 1 epoch 1 round 0 iteration 0: nan\n")
    log_path = tmp_path / "p.ckpt.log.jsonl"
    (record,) = [json.loads(line) for line in log_path.read_text().splitlines()]
    objective = record.pop("objective")
    assert math.isnan(objective)
    assert record == {"event": "diverged", "stage": 1, "epoch": 1, "round": 0,
                      "iteration": 0}
    manifest = json.loads((tmp_path / "p.ckpt.manifest.json").read_text())
    assert manifest["artifacts"]["log"] == str(log_path)
    assert "checkpoint" not in manifest["artifacts"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "p.ckpt.log.jsonl", "p.ckpt.manifest.json", "train.jsonl"]


class TestConfigFile:
    """``train --config`` layers a flat JSON file over the defaults, and
    ``--set`` over the file."""

    # A buffer larger than the corpus: no episode runs, so each train is quick.
    FILE = {"trainer.buffer_m": 65, "trainer.actor_lr": 3e-4,
            "curriculum.t_max": [1], "curriculum.epochs": [1],
            "model.d_model": 32, "scoring.n_gen": 5}

    def _train(self, tmp_path, config, *flags):
        corpus = tmp_path / "train.jsonl"
        _small_corpus(corpus)
        path = tmp_path / "config.json"
        if config is not None:  # None: no file at the path given
            path.write_text(config if isinstance(config, str) else json.dumps(config),
                            encoding="utf-8")
        ckpt = tmp_path / "p.ckpt"
        code = main(["train", "--corpus", str(corpus), "--out", str(ckpt),
                     "--config", str(path), *flags])
        return code, ckpt, tmp_path / "p.ckpt.manifest.json"

    def test_file_values_reach_the_run_and_the_manifest(self, tmp_path):
        code, ckpt, manifest_path = self._train(tmp_path, self.FILE)
        assert code == 0
        config = json.loads(manifest_path.read_text(encoding="utf-8"))["config"]
        assert {k: config[k] for k in self.FILE} == self.FILE
        assert config["model.n_layers"] == cli.CONFIG_DEFAULTS["model.n_layers"]
        assert config["curriculum.fixed_bounds"] is None  # the curriculum
        state, _ = load_checkpoint(ckpt)
        assert state.actor.encoder.cfg.d_model == 32
        assert state.actor_opt.lr == 3e-4

    def test_set_overrides_the_file(self, tmp_path):
        code, ckpt, manifest_path = self._train(
            tmp_path, self.FILE, "--set", "model.d_model=16",
            "--set", "trainer.actor_lr=0.002",
        )
        assert code == 0
        config = json.loads(manifest_path.read_text(encoding="utf-8"))["config"]
        assert (config["model.d_model"], config["trainer.actor_lr"]) == (16, 0.002)
        assert config["scoring.n_gen"] == 5
        state, _ = load_checkpoint(ckpt)
        assert state.actor.encoder.cfg.d_model == 16
        assert state.actor_opt.lr == 0.002

    @pytest.mark.parametrize(
        "config, message",
        [
            pytest.param({"trainer.critic_lr": 1e-6},
                         "unknown config key in file: trainer.critic_lr", id="unknown-key"),
            pytest.param([["trainer.seed", 3]], "one flat JSON object", id="not-an-object"),
            pytest.param({"curriculum.t_max": "12"},
                         "curriculum.t_max must be a JSON list, got '12'", id="string-list"),
            pytest.param({"trainer.batch_size": "4"},
                         "trainer.batch_size must be an integer, got '4'", id="string-int"),
            pytest.param("{", "cannot read config file", id="not-json"),
            pytest.param(None, "cannot read config file", id="missing"),
        ],
    )
    def test_bad_file_is_usage_error_before_any_output(
        self, tmp_path, capsys, config, message
    ):
        code, _, _ = self._train(tmp_path, config)
        assert code == 2
        assert message in capsys.readouterr().err
        # No manifest, no checkpoint.
        assert {p.name for p in tmp_path.iterdir()} <= {"train.jsonl", "config.json"}

    @pytest.mark.parametrize("band", [None, [0.3, 0.8]])
    def test_run_reruns_from_its_manifest(self, tmp_path, band):
        # The rule of the cli docstring: the manifest's config, as it is,
        # is the --config file of the rerun.
        corpus = tmp_path / "train.jsonl"
        _small_corpus(corpus)
        first = tmp_path / "first.ckpt"
        assert main(["train", "--corpus", str(corpus), "--out", str(first), "--seed", "5",
                     "--set", "trainer.buffer_m=2", "--set", "trainer.batch_size=2",
                     "--set", "curriculum.t_max=[1]",
                     "--set", "curriculum.epochs=[1]", "--set", "model.d_model=16",
                     "--set", f"curriculum.fixed_bounds={json.dumps(band)}"]) == 0
        manifest = json.loads((tmp_path / "first.ckpt.manifest.json").read_text())
        assert manifest["config"]["curriculum.fixed_bounds"] == band
        (tmp_path / "rerun.json").write_text(json.dumps(manifest["config"]))
        second = tmp_path / "second.ckpt"
        assert main(["train", "--corpus", manifest["inputs"]["corpus"], "--out", str(second),
                     "--config", str(tmp_path / "rerun.json")]) == 0
        rerun = json.loads((tmp_path / "second.ckpt.manifest.json").read_text())
        assert rerun["config"] == manifest["config"]
        log = (tmp_path / "first.ckpt.log.jsonl").read_text()
        records = [json.loads(line) for line in log.splitlines()]
        assert records and all("objective" in r for r in records)  # rounds ran
        if band is not None:  # the band held at every step
            assert {(r["mean_c_s"], r["mean_c_l"]) for r in records} == {tuple(band)}
        assert (tmp_path / "second.ckpt.log.jsonl").read_text() == log
        assert second.read_bytes() == first.read_bytes()

    def test_seed_flag_beats_the_config(self, tmp_path):
        # An integral float is an integer seed, kept as given; --seed then
        # replaces it, in the run and in the manifest's config alike.
        runs = {}
        for name, flags in (("file", []), ("flag", ["--seed", "4"]),
                            ("four", ["--set", "trainer.seed=4"])):
            run = tmp_path / name
            run.mkdir()
            code, ckpt, manifest_path = self._train(
                run, {**self.FILE, "trainer.seed": 3.0}, *flags)
            assert code == 0
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            runs[name] = (manifest["seed"], manifest["config"]["trainer.seed"],
                          ckpt.read_bytes())
        assert runs["file"][:2] == (3, 3.0)
        assert runs["flag"][:2] == (4, 4) == runs["four"][:2]
        assert runs["flag"][2] == runs["four"][2] != runs["file"][2]


def _mutated(rng, default):
    """A value for a key whose default is ``default``: half the time one
    of the default's own type (null or a valid pair for the fixed band,
    whose default is null), else one of any JSON type.

    Numbers stay small: a huge integer count (``curriculum.epochs``) is
    accepted and then loops without bound, so an integer key never gets
    1e308.
    """
    integral = type(default) is not float
    if rng.random() < 0.5:
        if default is None:
            return rng.choice([None, [0.5, 0.9], [rng.uniform(0.01, 0.5), 1]])
        if type(default) is list:
            return [rng.choice([rng.randint(1, 3), float(rng.randint(1, 3))])
                    for _ in default]
        return rng.choice([rng.randint(1, 6), float(rng.randint(1, 6))]
                          + ([] if integral else [rng.uniform(0.0, 6.0)]))
    kinds = [
        lambda: rng.choice(["4", "0.5", "abc", "", "[1, 2]", "true"]),
        lambda: rng.choice([True, False]),
        lambda: None,
        lambda: rng.randint(0, 6),
        lambda: float(rng.randint(0, 6)),
        lambda: rng.uniform(0.0, 6.0),
        lambda: rng.choice([-rng.randint(1, 3), -rng.uniform(0.0, 2.0)]),
        lambda: -0.0,
        lambda: 5e-324,
        lambda: math.nan,
        lambda: math.inf,
        lambda: [rng.choice([rng.randint(1, 3), 2.0, 1.5, "2"])
                 for _ in range(rng.randint(1, 4))],
        lambda: [[1], 2, 1],
        lambda: [],
    ]
    if not integral:
        kinds.append(lambda: 1e308)
    return rng.choice(kinds)()


class TestConfigFuzz:
    """Seeded fuzz of ``train``'s config: one to three keys per run, by
    ``--set`` or a config file, each given a value of a random JSON type.
    A run exits 0 with a manifest that holds every value as given, 2 with
    no manifest, or 1 only when training itself diverges; some run with
    a fixed band exits 0."""

    RUNS = 100
    DIVERGED = "non-finite objective"

    def test_every_exit_is_clean(self, tmp_path, capsys):
        rng = random.Random(20)
        corpus = tmp_path / "train.jsonl"
        _small_corpus(corpus)
        keys = sorted(cli.CONFIG_DEFAULTS)
        codes, fixed_band_codes = [], []
        for i in range(self.RUNS):
            run = tmp_path / f"run{i}"
            run.mkdir()
            given = {
                key: _mutated(rng, cli.CONFIG_DEFAULTS[key])
                for key in rng.sample(keys, rng.randint(1, 3))
            }
            # Most runs keep a buffer larger than the corpus, so no round
            # trains; a buffer of 4 trains one round, in stage 3. One run
            # in four also fixes a valid band, which a given band replaces.
            config = {"trainer.buffer_m": rng.choice([65, 65, 65, 4])}
            if rng.random() < 0.25:
                config["curriculum.fixed_bounds"] = [rng.uniform(0.01, 0.5), 0.9]
            config.update(given)
            argv = ["train", "--corpus", str(corpus), "--out", str(run / "p.ckpt")]
            if rng.random() < 0.5:
                argv += [f"--set={k}={json.dumps(v)}" for k, v in config.items()]
            else:
                (run / "config.json").write_text(json.dumps(config), encoding="utf-8")
                argv += ["--config", str(run / "config.json")]
            code = main(argv)
            err = capsys.readouterr().err
            case = f"run {i}: {config} exited {code}: {err}"
            manifest = run / "p.ckpt.manifest.json"
            assert code in (0, 1, 2), case
            if code == 1:
                assert self.DIVERGED in err, case
            if code == 2:
                assert not manifest.exists() and not (run / "p.ckpt").exists(), case
            if code == 0:
                written = json.loads(manifest.read_text(encoding="utf-8"))["config"]
                for key, value in config.items():
                    assert json.dumps(written[key]) == json.dumps(value), case
            codes.append(code)
            if config.get("curriculum.fixed_bounds") is not None:
                fixed_band_codes.append(code)
        assert {0, 2} <= set(codes)
        assert 0 in fixed_band_codes


# Checkpoint kinds whose stored vocabulary no longer fits the encoder.
MISPAIRED = {"cut": cut_vocabulary, "extended": extend_vocabulary}


@pytest.fixture(scope="module")
def fuzz_checkpoints(tmp_path_factory):
    """A checkpoint over the synthetic vocabulary with a random head, a
    copy of it for each ``MISPAIRED`` edit, and one trained on another
    corpus, whose words the inputs never use."""
    tmp = tmp_path_factory.mktemp("fuzz-ckpt")
    good = _checkpoint_on_larger_corpus(tmp)
    _randomize_head(good)
    mispaired = {}
    for kind, change in MISPAIRED.items():
        mispaired[kind] = tmp / f"{kind}.ckpt"
        mispaired[kind].write_bytes(good.read_bytes())
        rewrite_checkpoint(mispaired[kind], edit_meta(change))
    other_corpus = tmp / "other.jsonl"
    save_corpus([PromptRecord(f"o{i}", " ".join(f"v{(i * j) % 7}" for j in range(9)))
                 for i in range(5)], other_corpus)
    other = tmp / "other.ckpt"
    assert main(["train", "--corpus", str(other_corpus), "--out", str(other),
                 "--set", "curriculum.t_max=[1]", "--set", "curriculum.epochs=[1]",
                 "--set", "trainer.buffer_m=6"]) == 0
    return {"good": good, "other": other, **mispaired}


def _fuzzed_records(rng, p):
    """Three or four synthetic records, in half of the calls with one
    word of one text replaced by ``<unk>``, the unknown token's surface;
    each field, with probability p, given a wrong JSON type, an empty or
    blank value, an over-long or unseen text, another record's id or a
    mask of the wrong length. With probability p / 10 there are none at
    all."""
    records = [
        {"id": r.id, "text": r.text, "reference_output": r.reference_output,
         "filler_mask": [int(v) for v in r.filler_mask]}
        for r in make_synthetic_corpus(rng.randint(0, 3), rng.randint(3, 4), 0.5)
    ]
    if rng.random() < p / 10:
        return []
    if rng.random() < 0.5:
        record = rng.choice(records)
        words = record["text"].split()
        words[rng.randrange(len(words))] = "<unk>"
        record["text"] = " ".join(words)
    for record in records:
        mask = record["filler_mask"]
        choices = {
            "text": [None, 5, ["a"], {"a": 1}, True, "", "   ", OVER_MAX_LEN,
                     "fresh unseen words"],
            "id": [None, 5, [], True, "", " ", records[0]["id"], records[-1]["id"]],
            "reference_output": [None, 5, [], True, "", "  ", "key words"],
            "filler_mask": [None, "0", 5, ["0"], [2], [], mask[:-1], mask + [0],
                            [True] * len(mask)],
        }
        for key, values in choices.items():
            if rng.random() < p:
                record[key] = rng.choice(values)
                if key == "text" and rng.random() < 0.7:
                    record["filler_mask"] = None  # else its length no longer matches
    # A None id or mask stands for the field left out.
    return [{k: v for k, v in r.items() if v is not None or k == "reference_output"}
            for r in records]


def _fuzzed_argv(rng, p, command, corpus, ckpt, out):
    """``command``'s argv: each flag left out, or given a valid value or,
    with probability p, a zero, negative, nan or out-of-range one."""
    def maybe(flag, good, bad):
        if rng.random() < 0.5:
            return []
        return [flag, rng.choice(bad if rng.random() < p else good)]

    if command == "compress":
        return (["compress", "--input", str(corpus), "--out", str(out)]
                + (["--checkpoint", str(ckpt)] if ckpt else [])
                + maybe("--steps", ["0", "1", "2", "3"], ["-1", "nan"])
                + maybe("--budget", ["0", "1", "2", "5"], ["-1", "nan"]))
    names = list(cli.EVAL_METHODS)
    if ckpt is None:
        names.remove("policy")
    if rng.random() < p:
        names += ["bogus", "", "policy"]
    methods = ",".join(rng.choice(names) for _ in range(rng.randint(1, 4)))
    return (["eval", "--corpus", str(corpus), "--out-prefix", str(out),
             "--methods", methods, "--seed", str(rng.randint(0, 9))]
            + (["--checkpoint", str(ckpt)] if ckpt else [])
            + maybe("--steps", ["1", "2", "3"], ["0", "-1", "nan"])
            + maybe("--rho", ["0.5", "0.3", "1", "1e-9"], ["0", "-0.5", "1.5", "nan"])
            + maybe("--n-gen", ["1", "2", "5"], ["0", "-1", "nan"])
            + maybe("--ngram-order", ["1", "2", "3", "60"], ["0", "-2", "nan"])
            + maybe("--vocab-size", ["2", "3", "16"], ["1", "0", "-1", "nan"]))


class TestCompressEvalFuzz:
    """Seeded fuzz of ``compress`` and ``eval``: corpus fields, flags and
    the checkpoint each given bad or edge values. A run exits 0 with
    outputs that parse, every compressed prompt a subsequence of its
    input and every eval number finite, or 2 with nothing written. A
    missing checkpoint cannot be read, and an output in a missing
    directory, one that is a directory, one with no name or one that
    names the input corpus cannot be written, all exit 2; a truncated
    checkpoint, or one whose vocabulary does not fit its encoder, is
    reported as a corrupt checkpoint, exit 1, also with nothing written.
    An eval that names a method twice exits 2 before it reads the
    checkpoint. A run with no other fault on a checkpoint of the wrong
    vocabulary exits 1, and one whose input corpus is at the output's
    ``.partial`` path exits 0, leaving the corpus as it was. The first
    runs force each of these faults and each output fault once per
    command, with no other, so each is reached whatever the seed."""

    RUNS = 200

    @staticmethod
    def _checked_outputs(command, out, records):
        if command == "compress":
            rows = [json.loads(line) for line in out.read_text().splitlines()]
            assert [row["id"] for row in rows] == [r.get("id", f"rec-{i:05d}")
                                                  for i, r in enumerate(records, 1)]
            for row in rows:
                assert _is_subsequence(row["compressed"].split(), row["original"].split())
                assert row["tokens_after"] == len(row["compressed"].split())
                assert 0.0 < row["rho"] <= 1.0
            return
        lines = Path(f"{out}.jsonl").read_text().splitlines()
        assert Path(f"{out}.txt").read_text()
        for record in map(json.loads, lines):
            if record["record"] in ("row", "aggregate"):
                for value in record.values():
                    if isinstance(value, (int, float)):
                        assert math.isfinite(value), record
                assert 0.0 < record["rho"] <= 1.0, record

    def test_every_exit_is_clean(self, tmp_path, monkeypatch, capsys, fuzz_checkpoints):
        rng = random.Random(22)
        codes, mispaired_codes = [], []
        # For each fault of the output, the runs refused with its error.
        unwritable = {"no-out-dir": 0, "out-is-dir": 0, "out-is-input": 0,
                      "out-has-no-name": 0}
        # The exits of the runs whose input corpus is at the output's
        # .partial path.
        partial_codes = []
        forced = [(command, kind) for kind in (*unwritable, "out-partial-is-input",
                                               *MISPAIRED)
                  for command in ("compress", "eval")]
        for i in range(self.RUNS):
            run = tmp_path / f"run{i}"
            run.mkdir()
            # The chance of each fault: most runs have none or one.
            p = 0.0 if i < len(forced) else rng.choice([0.0, 0.0, 0.05, 0.1, 0.3])
            records = _fuzzed_records(rng, p)
            corpus = run / "corpus.jsonl"
            corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
            if i < len(forced):
                command, kind = forced[i]
            else:
                command = rng.choice(["compress", "eval"])
                kinds = (["good", "good", "good", "other", *unwritable,
                          "out-partial-is-input", *MISPAIRED]
                         + (["none"] if command == "eval" else []))
                if rng.random() < p:
                    kinds = ["missing", "truncated"]
                kind = rng.choice(kinds)
            ckpt = fuzz_checkpoints.get(kind)
            out = run / ("out.jsonl" if command == "compress" else "ev")
            if kind == "missing":
                ckpt = run / "missing.ckpt"
            elif kind == "truncated":
                data = fuzz_checkpoints["good"].read_bytes()
                ckpt = run / "truncated.ckpt"
                ckpt.write_bytes(data[:rng.randint(0, len(data) - 1)])
            elif kind in (*unwritable, "out-partial-is-input"):
                ckpt = fuzz_checkpoints["good"]
            # The file the error names: compress writes out, eval out.jsonl.
            written = out if command == "compress" else Path(f"{out}.jsonl")
            if kind == "no-out-dir":
                out = written = run / "missing" / out.name
                expected = "No such file or directory"
            elif kind == "out-is-dir":
                written.mkdir()
                expected = "Is a directory"
            elif kind == "out-is-input":
                out = corpus if command == "compress" else run / "corpus"
                written = corpus
                role = "output would replace the input" if command == "compress" else (
                    "rows would replace the corpus")
                expected = f"the {role} {corpus}, which this command reads"
            elif kind == "out-has-no-name":
                monkeypatch.chdir(run)
                out = rng.choice(["", ".", "/"])
                written = Path(out)
                expected = "Is a directory"
            elif kind == "out-partial-is-input":
                # The one name an output was once staged at.
                corpus = corpus.rename(Path(f"{written}.partial"))
            corpus_bytes = corpus.read_bytes()
            inputs = set(run.iterdir())
            argv = _fuzzed_argv(rng, p, command, corpus, ckpt, out)
            if i < len(forced) and command == "eval":
                # Named once each, so that the run reaches its fault.
                at = argv.index("--methods") + 1
                argv[at] = ",".join(dict.fromkeys(argv[at].split(",")))
            methods = [] if command == "compress" else [
                m for m in argv[argv.index("--methods") + 1].split(",") if m]
            repeated = len(set(methods)) < len(methods)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses a flag's value
                code = exc.code
            err = capsys.readouterr().err
            case = f"run {i}: {argv} on {records} exited {code}: {err}"
            if kind in ("missing", *unwritable):
                assert code == 2, case
            if kind in unwritable and "cannot write" in err:
                assert err == f"error: cannot write {written}: {expected}\n", case
                unwritable[kind] += 1
            if p == 0.0 and repeated:
                assert code == 2 and "more than once" in err, case
            if kind == "out-partial-is-input":
                assert corpus.read_bytes() == corpus_bytes, case
                assert code == 0 if p == 0.0 and not repeated else code in (0, 2), case
                partial_codes.append(code)
            if kind in MISPAIRED:
                assert code == 1 if p == 0.0 and not repeated else code in (1, 2), case
                mispaired_codes.append(code)
            if code == 1:
                assert kind in ("truncated", *MISPAIRED), case
                assert "corrupt checkpoint" in err, case
            else:
                assert code in (0, 2), case
            if code == 0:
                self._checked_outputs(command, out, records)
            else:
                assert set(run.iterdir()) == inputs, case  # no manifest, no output
            codes.append(code)
        assert {0, 1, 2} <= set(codes)
        assert 1 in mispaired_codes
        assert all(unwritable.values()), unwritable
        assert 0 in partial_codes, partial_codes

