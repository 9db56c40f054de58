"""Evaluation tests: one pass over the prompts scores every compressor as
if it ran alone, as the plain prompt-by-prompt loop would, and makes each
original continuation once."""

import numpy as np
import pytest

from promptpress.baselines import (
    IdentityCompressor,
    PolicyCompressor,
    RandomCompressor,
    SelfInfoCompressor,
)
from promptpress.encoder import EncoderConfig
from promptpress.evaluation import EvalSettings, evaluate
from promptpress.metrics import exact_match, rouge_l, rouge_n, token_f1
from promptpress.policy import Actor
from promptpress.scoring import fit_ngram_lm
from promptpress.text import (
    build_vocabulary,
    detokenize,
    make_synthetic_corpus,
    tokenize_corpus,
)


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
    settings = EvalSettings(vocab=vocab, n_gen=6, lm_description="test proxy")
    return corpus, prompts, lm, compressors, settings


def test_one_pass_matches_each_compressor_alone(world):
    corpus, prompts, lm, compressors, settings = world
    together = evaluate(compressors, corpus, prompts, lm, settings)
    assert [r.method for r in together] == [c.name for c in compressors]
    for compressor, report in zip(compressors, together):
        (alone,) = evaluate([compressor], corpus, prompts, lm, settings)
        assert report.jsonl_records() == alone.jsonl_records()
        assert report.table() == alone.table()
    assert together[0].jsonl_records() == together[-1].jsonl_records()
    assert together[0].rows is not together[-1].rows


def test_rows_rate_the_kept_length(world):
    corpus, prompts, lm, compressors, settings = world
    reports = evaluate(compressors, corpus, prompts, lm, settings)
    identity = reports[1]
    assert [row["rho"] for row in identity.rows] == [1.0] * len(prompts)
    assert identity.aggregate["rouge1_f"] == 1.0
    for report in reports:
        for seq, row in zip(prompts, report.rows):
            assert row["tokens_before"] == len(seq)
            assert row["rho"] == row["tokens"] / len(seq)
            assert row["inv_rho"] == 1.0 / row["rho"]


def test_each_original_continuation_is_made_once(world):
    corpus, prompts, lm, compressors, settings = world
    counting = CountingLM(lm)
    evaluate(compressors, corpus, prompts, counting, settings)
    # the identity method keeps the whole prompt and reuses its original's
    assert len(counting.continued) == len(prompts) * len(compressors)
    originals = [ctx for ctx in counting.continued if ctx in prompts]
    assert sorted(map(tuple, originals)) == sorted(tuple(p) for p in prompts)


def prompt_major_reports(compressors, corpus, prompts, lm, settings):
    """(rows, aggregate) per compressor from the plain loop: prompt by
    prompt, every continuation generated and every row scored afresh."""
    rows = [[] for _ in compressors]
    kept_by_method = [compressor.compress(prompts) for compressor in compressors]
    for index, (record, seq) in enumerate(zip(corpus, prompts)):
        gen_o = lm.greedy_continue(seq, settings.n_gen)
        for compressor, kept_all, method_rows in zip(compressors, kept_by_method, rows):
            kept = kept_all[index]
            gen_c = lm.greedy_continue(kept, settings.n_gen)
            em = None
            if record.reference_output is not None:
                em = exact_match(detokenize(gen_c, settings.vocab), record.reference_output)
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
                "token_f1": token_f1(gen_c.ids, gen_o.ids)[2],
                "em": em,
            })
    reports = []
    for compressor, method_rows in zip(compressors, rows):
        aggregate = {"method": compressor.name, "n": len(method_rows)}
        for key in ("tokens", "rho", "inv_rho", "rouge1_f", "rouge2_f", "rougeL_f",
                    "token_f1", "em"):
            values = [row[key] for row in method_rows if row[key] is not None]
            aggregate[key] = sum(values) / len(values) if values else None
        reports.append((method_rows, aggregate))
    return reports


def test_reports_equal_the_prompt_major_loop(world):
    corpus, prompts, lm, compressors, settings = world
    fresh = fit_ngram_lm(prompts, order=3, smoothing=0.1, vocab=settings.vocab)
    expected = prompt_major_reports(compressors, corpus, prompts, fresh, settings)
    got = evaluate(compressors, corpus, prompts, lm, settings)
    assert [(r.rows, r.aggregate) for r in got] == expected
    # the world holds both shared and distinct continuations within a prompt
    assert any(row["rouge1_f"] < 1.0 for row in got[0].rows)
    assert all(row["em"] is not None for report in got for row in report.rows)


def test_prompts_must_match_the_corpus(world):
    corpus, prompts, lm, compressors, settings = world
    with pytest.raises(ValueError):
        evaluate(compressors, corpus, prompts[:-1], lm, settings)
