"""CLI tests: eval scores every method against one vocabulary/LM pairing."""

import json

from promptpress.cli import main
from promptpress.text import make_synthetic_corpus, save_corpus


def _small_corpus(path):
    save_corpus(make_synthetic_corpus(seed=2, n_prompts=3, filler_fraction=0.5), path)


def _rows(prefix, method):
    with open(f"{prefix}.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return [r for r in records if r["method"] == method]


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
