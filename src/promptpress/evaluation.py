"""Evaluation harness: compress, regenerate, and compare.

The proxy model plays the target LLM's role: for every prompt it
greedy-generates once from the original and, per method, once from the
compressed prompt, and each method's rows score the two generations
against each other (ROUGE-1/2/L). The ROUGE-1 F is written twice, as
``rouge1_f`` and as ``token_f1``: on token ids the two are one clipped
unigram overlap.

Each piece of work is done once. Every compressor compresses the whole
corpus in one call before any continuation is generated, so a model's
compressions run back to back, and the policy batches its encoder
passes across prompts. A prompt's original continuation is generated once
and also serves every method that keeps the whole prompt, and within a
prompt, methods whose continuations are equal share one scoring. No
method's rows depend on which other methods run beside it.

``evaluate`` returns each method's rows and their aggregate; the
report's header record and its table name the model that produced the
generations.
"""

from __future__ import annotations

from typing import Sequence

from .baselines import Compressor
from .metrics import rouge_l, rouge_n
from .scoring import NgramLM
from .text import PromptRecord, TokenSequence

TABLE_COLUMNS = (
    ("method", "Method"),
    ("rouge1_f", "Rouge-1"),
    ("rouge2_f", "Rouge-2"),
    ("rougeL_f", "Rouge-L"),
    ("token_f1", "TokenF1"),
    ("tokens", "Tokens"),
    ("inv_rho", "1/rho"),
)


def report_records(rows: list[dict], aggregate: dict, lm_description: str) -> list[dict]:
    """One method's JSONL records: a header naming the method and the
    model, then its rows, then its aggregate."""
    header = {"record": "header", "method": aggregate["method"], "lm": lm_description}
    return [header, *({"record": "row", **row} for row in rows),
            {"record": "aggregate", **aggregate}]


def report_table(aggregate: dict, lm_description: str) -> str:
    """One method's aggregate as a two-line table under the model."""
    values = []
    for key, _ in TABLE_COLUMNS:
        val = aggregate[key]
        if key == "method":
            values.append(val)
        elif key == "tokens":
            values.append(f"{val:.1f}")
        else:
            values.append(f"{val:.4f}")
    headers = [title for _, title in TABLE_COLUMNS]
    widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
    return "\n".join([
        f"# generations produced by: {lm_description}",
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join(v.ljust(w) for v, w in zip(values, widths)),
    ]) + "\n"


def _scores(gen_c: TokenSequence, gen_o: TokenSequence) -> dict:
    """The row metrics of one compressed-prompt continuation."""
    unigram_f = rouge_n(gen_c.ids, gen_o.ids, 1)[2]
    return {
        "rouge1_f": unigram_f,
        "rouge2_f": rouge_n(gen_c.ids, gen_o.ids, 2)[2],
        "rougeL_f": rouge_l(gen_c.ids, gen_o.ids)[2],
        "token_f1": unigram_f,
    }


def evaluate(
    compressors: Sequence[Compressor],
    corpus: Sequence[PromptRecord],
    prompts: Sequence[TokenSequence],
    lm: NgramLM,
    n_gen: int,
) -> list[tuple[list[dict], dict]]:
    """(rows, aggregate) per compressor, in order: one metric row per
    prompt, scoring ``n_gen``-token continuations, and their
    arithmetic means.

    ``prompts[i]`` is ``corpus[i]`` tokenized. Each compressor gets the
    whole of ``prompts`` in one call.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if len(prompts) != len(corpus):
        raise ValueError(f"{len(prompts)} prompts for {len(corpus)} records")
    kept_by_method = [compressor.compress(prompts) for compressor in compressors]
    rows: list[list[dict]] = [[] for _ in compressors]
    for index, (record, seq) in enumerate(zip(corpus, prompts)):
        gen_o = lm.greedy_continue(seq, n_gen)
        scored: dict[tuple[int, ...], dict] = {}
        for compressor, kept_all, method_rows in zip(compressors, kept_by_method, rows):
            kept = kept_all[index]
            if kept.ids == seq.ids:
                gen_c = gen_o
            else:
                gen_c = lm.greedy_continue(kept, n_gen)
            scores = scored.get(gen_c.ids)
            if scores is None:
                scores = scored[gen_c.ids] = _scores(gen_c, gen_o)
            rho = len(kept) / len(seq)
            method_rows.append(
                {
                    "id": record.id,
                    "method": compressor.name,
                    "tokens_before": len(seq),
                    "tokens": len(kept),
                    "rho": rho,
                    "inv_rho": 1.0 / rho,
                    **scores,
                }
            )
    results = []
    for compressor, method_rows in zip(compressors, rows):
        aggregate = {"method": compressor.name, "n": len(method_rows)}
        for key in ("tokens", "rho", "inv_rho", "rouge1_f", "rouge2_f", "rougeL_f",
                    "token_f1"):
            aggregate[key] = sum(row[key] for row in method_rows) / len(method_rows)
        results.append((method_rows, aggregate))
    return results
