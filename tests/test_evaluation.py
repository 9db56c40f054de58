"""Evaluation tests: one pass over the prompts scores every compressor as
if it ran alone, as the plain prompt-by-prompt loop would, and makes each
original continuation once; the report records and table are built from
the returned rows alone; an empty corpus is refused."""

import numpy as np
import pytest

from promptpress.baselines import (
    IdentityCompressor,
    PolicyCompressor,
    RandomCompressor,
    SelfInfoCompressor,
)
from promptpress.encoder import EncoderConfig
from promptpress.evaluation import evaluate, report_records, report_table
from promptpress.metrics import rouge_l, rouge_n
from promptpress.policy import Actor
from promptpress.scoring import fit_ngram_lm
from promptpress.text import build_vocabulary, make_synthetic_corpus, tokenize_corpus


class CountingLM:
    """Wraps a proxy model and counts its ``greedy_continue`` calls."""

    def __init__(self, lm):
        self.lm = lm
        self.context_window = lm.context_window
        self.continued = []

    def next_token_dist(self, context):
        return self.lm.next_token_dist(context)

    def token_probs(self, seq):
        return self.lm.token_probs(seq)

    def greedy_continue(self, context, n):
        self.continued.append(context)
        return self.lm.greedy_continue(context, n)


@pytest.fixture(scope="module")
def world():
    corpus = make_synthetic_corpus(seed=3, n_prompts=6, filler_fraction=0.5)
    vocab = build_vocabulary(corpus, max_size=64)
    prompts = tokenize_corpus(corpus, vocab, max_len=64)
    lm = fit_ngram_lm(prompts, order=3, smoothing=0.1, vocab=vocab)
    actor = Actor.build(
        EncoderConfig(vocab_size=vocab.size, d_model=8, n_heads=2, n_layers=1,
                      d_ff=16, max_len=64),
        seed=5,
    )
    actor.head_w[...] = np.random.default_rng(6).normal(0, 0.5, actor.head_w.shape)
    compressors = [
        RandomCompressor(rho_target=0.5, seed=2),
        IdentityCompressor(),
        SelfInfoCompressor(lm=lm, rho_target=0.4),
        PolicyCompressor(actor=actor, rho_target=0.5, steps=2),
        RandomCompressor(rho_target=0.5, seed=2),  # a repeated method
    ]
    return corpus, prompts, lm, compressors, 6


def test_one_pass_matches_each_compressor_alone(world):
    corpus, prompts, lm, compressors, n_gen = world
    together = evaluate(compressors, corpus, prompts, lm, n_gen)
    assert [agg["method"] for _, agg in together] == [c.name for c in compressors]
    for compressor, result in zip(compressors, together):
        (alone,) = evaluate([compressor], corpus, prompts, lm, n_gen)
        assert result == alone
    assert together[0] == together[-1]
    assert together[0][0] is not together[-1][0]


def test_rows_rate_the_kept_length(world):
    corpus, prompts, lm, compressors, n_gen = world
    results = evaluate(compressors, corpus, prompts, lm, n_gen)
    identity_rows, identity_aggregate = results[1]
    assert [row["rho"] for row in identity_rows] == [1.0] * len(prompts)
    assert identity_aggregate["rouge1_f"] == 1.0
    for rows, _ in results:
        for seq, row in zip(prompts, rows):
            assert row["tokens_before"] == len(seq)
            assert row["rho"] == row["tokens"] / len(seq)
            assert row["inv_rho"] == 1.0 / row["rho"]


def test_each_original_continuation_is_made_once(world):
    corpus, prompts, lm, compressors, n_gen = world
    counting = CountingLM(lm)
    evaluate(compressors, corpus, prompts, counting, n_gen)
    # the identity method keeps the whole prompt and reuses its original's
    assert len(counting.continued) == len(prompts) * len(compressors)
    originals = [ctx for ctx in counting.continued if ctx in prompts]
    assert sorted(map(tuple, originals)) == sorted(tuple(p) for p in prompts)


def prompt_major_reports(compressors, corpus, prompts, lm, n_gen):
    """(rows, aggregate) per compressor from the plain loop: prompt by
    prompt, every continuation generated and every row scored afresh."""
    rows = [[] for _ in compressors]
    kept_by_method = [compressor.compress(prompts) for compressor in compressors]
    for index, (record, seq) in enumerate(zip(corpus, prompts)):
        gen_o = lm.greedy_continue(seq, n_gen)
        for compressor, kept_all, method_rows in zip(compressors, kept_by_method, rows):
            kept = kept_all[index]
            gen_c = lm.greedy_continue(kept, n_gen)
            rho = len(kept) / len(seq)
            method_rows.append({
                "id": record.id,
                "method": compressor.name,
                "tokens_before": len(seq),
                "tokens": len(kept),
                "rho": rho,
                "inv_rho": 1.0 / rho,
                "rouge1_f": rouge_n(gen_c.ids, gen_o.ids, 1)[2],
                "rouge2_f": rouge_n(gen_c.ids, gen_o.ids, 2)[2],
                "rougeL_f": rouge_l(gen_c.ids, gen_o.ids)[2],
                "token_f1": rouge_n(gen_c.ids, gen_o.ids, 1)[2],
            })
    reports = []
    for compressor, method_rows in zip(compressors, rows):
        aggregate = {"method": compressor.name, "n": len(method_rows)}
        for key in ("tokens", "rho", "inv_rho", "rouge1_f", "rouge2_f", "rougeL_f",
                    "token_f1"):
            values = [row[key] for row in method_rows]
            aggregate[key] = sum(values) / len(values)
        reports.append((method_rows, aggregate))
    return reports


def test_reports_equal_the_prompt_major_loop(world):
    corpus, prompts, lm, compressors, n_gen = world
    fresh = fit_ngram_lm(prompts, order=3, smoothing=0.1,
                         vocab=build_vocabulary(corpus, max_size=64))
    expected = prompt_major_reports(compressors, corpus, prompts, fresh, n_gen)
    got = evaluate(compressors, corpus, prompts, lm, n_gen)
    assert got == expected
    # the world holds both shared and distinct continuations within a prompt
    assert any(row["rouge1_f"] < 1.0 for row in got[0][0])


def test_prompts_must_match_the_corpus(world):
    corpus, prompts, lm, compressors, n_gen = world
    with pytest.raises(ValueError):
        evaluate(compressors, corpus, prompts[:-1], lm, n_gen)


def test_an_empty_corpus_is_refused(world):
    _, _, lm, compressors, n_gen = world
    with pytest.raises(ValueError, match="empty corpus"):
        evaluate(compressors, [], [], lm, n_gen)


def test_report_records_and_table(world):
    corpus, prompts, lm, compressors, n_gen = world
    (rows, aggregate), = evaluate(compressors[2:3], corpus, prompts, lm, n_gen)
    records = report_records(rows, aggregate, "test proxy")
    assert records[0] == {"record": "header", "method": "selfinfo", "lm": "test proxy"}
    assert records[1:-1] == [{"record": "row", **row} for row in rows]
    assert records[-1] == {"record": "aggregate", **aggregate}
    lines = report_table(aggregate, "test proxy").split("\n")
    assert lines[0] == "# generations produced by: test proxy"
    assert lines[1].split() == ["Method", "Rouge-1", "Rouge-2", "Rouge-L", "TokenF1",
                                "Tokens", "1/rho"]
    assert lines[2].split() == [
        "selfinfo", *(f"{aggregate[k]:.4f}" for k in
                      ("rouge1_f", "rouge2_f", "rougeL_f", "token_f1")),
        f"{aggregate['tokens']:.1f}", f"{aggregate['inv_rho']:.4f}",
    ]
    assert [len(line) for line in lines[1:3]] == [len(lines[1])] * 2
    assert lines[3:] == [""]
