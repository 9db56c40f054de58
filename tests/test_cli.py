"""CLI tests: compress reads what train writes and prints the original
words it keeps, compress and eval of the policy give the same output on
any number of threads, eval scores every method against one
vocabulary/LM pairing, the CLI's defaults are the library's, a config
file's values reach the run under any ``--set``, no command imports
scipy, and bad training config, a bad config file, a band flag without
``--no-hpc``, a bad eval flag, seed or vocabulary size, an unfit prompt,
a malformed corpus or an empty compress input is a usage error."""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import bump_schema_version, edit_meta, rewrite_checkpoint
from promptpress import cli, encoder
from promptpress.cli import main
from promptpress.encoder import EncoderConfig, TinyTransformerEncoder
from promptpress.optim import Adam
from promptpress.policy import ActorGradient
from promptpress.reward import RewardConfig
from promptpress.text import PromptRecord, make_synthetic_corpus, save_corpus
from promptpress.trainer import (
    CurriculumSchedule,
    Scorers,
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
    """Make the process look as if it may run on n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


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
        code, out = self._compress(ckpt, tmp_path)
        assert code == 1
        assert "schema_version" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_name(out.name + ".partial").exists()

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
        ],
    )
    def test_bad_metadata_fails_without_output(self, tmp_path, capsys, edit, message):
        ckpt = _checkpoint_on_larger_corpus(tmp_path)
        rewrite_checkpoint(ckpt, edit)
        code, out = self._compress(ckpt, tmp_path)
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_name(out.name + ".partial").exists()


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
    usable CPU, capped at the number of prompts, while the calling thread
    waits; its output, and that of ``eval --methods policy``, is the same
    whatever that number is."""

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
        code, out = TestCompressRoundTrip._compress(ckpt, tmp_path)
        assert code == 1
        assert "cannot encode the pass of short-1" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_name(out.name + ".partial").exists()


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
    """An ill-typed corpus field is a usage error naming its line, found
    before any file is written, in every command that reads a corpus."""

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
        argv = {
            "train": ["train", "--corpus", str(corpus), "--out", str(tmp_path / "p.ckpt")],
            "compress": ["compress", "--checkpoint", str(ckpt), "--input", str(corpus),
                         "--out", str(tmp_path / "out.jsonl")],
            "eval": ["eval", "--corpus", str(corpus), "--out-prefix", str(tmp_path / "ev")],
        }[command]
        assert main(argv) == 2
        assert f"malformed corpus line 2: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [corpus]  # no manifest, no output


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_compress_empty_input_is_usage_error_before_any_output(tmp_path, capsys, text):
    ckpt = _checkpoint_on_larger_corpus(tmp_path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text(text)
    before = set(tmp_path.iterdir())
    code = main(["compress", "--checkpoint", str(ckpt), "--input", str(empty),
                 "--out", str(tmp_path / "out.jsonl")])
    assert code == 2
    assert f"input {empty} is empty" in capsys.readouterr().err
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
        pieces = cli._build_training_pieces(
            cli.CONFIG_DEFAULTS, seed=0, no_hpc=False,
            fixed_c_s=0.5, fixed_c_l=0.9, vocab_size=100,
        )
        assert pieces == (TrainerConfig(), CurriculumSchedule(), RewardConfig(),
                          EncoderConfig(vocab_size=100))
        assert TrainerConfig().seed == 0 == cli.resolve_seed(None, None)
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
            pytest.param(["--set", "scoring.n_gen=0"], "n_gen must be >= 1",
                         id="n-gen"),
            pytest.param(["--set", "scoring.ngram_order=0"], "order must be >= 1",
                         id="ngram-order"),
            pytest.param(["--set", "scoring.ngram_k=0"], "smoothing must be > 0",
                         id="ngram-k"),
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
            *(
                pytest.param(["--set", f"model.{key}={value}"],
                             "d_model and n_heads must be >= 1", id=f"{key}-{value}")
                for key, value in (("n_heads", 0), ("n_heads", -2), ("d_model", 0))
            ),
            # Without --no-hpc the curriculum sets the band, and a band flag
            # would be recorded in the manifest yet ignored.
            *(
                pytest.param(flags, "only with --no-hpc", id=f"band-without-no-hpc-{i}")
                for i, flags in enumerate((
                    ["--fixed-c-s", "0.3", "--fixed-c-l", "0.35"],
                    ["--fixed-c-s", "0.5"],
                    ["--fixed-c-l", "0.9"],
                ))
            ),
            *(
                pytest.param(["--no-hpc", "--fixed-c-s", c_s, "--fixed-c-l", c_l],
                             "0 < c_s < c_l <= 1", id=f"no-hpc-band-{c_s}-{c_l}")
                for c_s, c_l in (("0.9", "0.5"), ("0.5", "0.5"), ("0", "0.5"),
                                 ("0.5", "1.5"))
            ),
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
        # No band flag: the manifest records the --no-hpc band defaults.
        assert (config["no_hpc"], config["fixed_c_s"], config["fixed_c_l"]) == (
            False, 0.5, 0.9)
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
