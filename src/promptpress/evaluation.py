"""Evaluation harness: compress, regenerate, and compare.

The proxy model plays the target LLM's role: for every prompt it
greedy-generates once from the original and, per method, once from the
compressed prompt, and each method's report scores the two generations
against each other (ROUGE-1/2/L, token F1) and the compressed
generation against the record's reference output (exact match), when
one is present. On token ids ROUGE-1 F and token F1 are the same
clipped unigram overlap, so one computation fills both columns.

Each piece of work is done once. Every compressor compresses the whole
corpus in one call before any continuation is generated, so a model's
compressions run back to back, and the policy batches its encoder
passes across prompts. A prompt's original continuation is generated once
and also serves every method that keeps the whole prompt, and within a
prompt, methods whose continuations are equal share one scoring. No
report depends on which other methods run beside it.

Exact match is applied to the full normalized generation; the report
header records this, and which model produced the generations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .baselines import Compressor
from .metrics import exact_match, rouge_l, rouge_n, token_f1
from .scoring import ProxyLM
from .text import PromptRecord, TokenSequence, Vocabulary, detokenize

EM_NOTE = "exact match compares the full normalized generation to the reference"

TABLE_COLUMNS = (
    ("method", "Method"),
    ("rouge1_f", "Rouge-1"),
    ("rouge2_f", "Rouge-2"),
    ("rougeL_f", "Rouge-L"),
    ("token_f1", "TokenF1"),
    ("em", "EM"),
    ("tokens", "Tokens"),
    ("inv_rho", "1/rho"),
)


@dataclass(frozen=True)
class EvalSettings:
    vocab: Vocabulary
    lm_description: str
    n_gen: int


@dataclass
class EvalReport:
    method: str
    lm_description: str
    note: str
    rows: list[dict]
    aggregate: dict = field(default_factory=dict)

    def jsonl_records(self) -> list[dict]:
        header = {
            "record": "header",
            "method": self.method,
            "lm": self.lm_description,
            "note": self.note,
        }
        rows = [{"record": "row", **row} for row in self.rows]
        return [header, *rows, {"record": "aggregate", **self.aggregate}]

    def table(self) -> str:
        lines = [
            f"# generations produced by: {self.lm_description}",
            f"# note: {self.note}",
        ]
        values = []
        for key, _ in TABLE_COLUMNS:
            val = self.aggregate.get(key)
            if key == "method":
                values.append(self.method)
            elif val is None:
                values.append("-")
            elif key == "tokens":
                values.append(f"{val:.1f}")
            else:
                values.append(f"{val:.4f}")
        headers = [title for _, title in TABLE_COLUMNS]
        widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join(v.ljust(w) for v, w in zip(values, widths)))
        return "\n".join(lines) + "\n"


def _mean(values: Sequence[float]) -> float | None:
    vals = [v for v in values if v is not None]
    return sum(vals) / len(vals) if vals else None


def _scores(
    gen_c: TokenSequence, gen_o: TokenSequence, record: PromptRecord, vocab: Vocabulary
) -> dict:
    """The row metrics of one compressed-prompt continuation."""
    em = None
    if record.reference_output is not None:
        em = exact_match(detokenize(gen_c, vocab), record.reference_output)
    unigram_f = token_f1(gen_c.ids, gen_o.ids)[2]
    return {
        "rouge1_f": unigram_f,
        "rouge2_f": rouge_n(gen_c.ids, gen_o.ids, 2)[2],
        "rougeL_f": rouge_l(gen_c.ids, gen_o.ids)[2],
        "token_f1": unigram_f,
        "em": em,
    }


def evaluate(
    compressors: Sequence[Compressor],
    corpus: Sequence[PromptRecord],
    prompts: Sequence[TokenSequence],
    lm: ProxyLM,
    settings: EvalSettings,
) -> list[EvalReport]:
    """One report per compressor, in order: per-prompt metric rows plus
    arithmetic-mean aggregates.

    ``prompts[i]`` is ``corpus[i]`` tokenized with ``settings.vocab``.
    Each compressor gets the whole of ``prompts`` in one call.
    """
    if len(prompts) != len(corpus):
        raise ValueError(f"{len(prompts)} prompts for {len(corpus)} records")
    vocab = settings.vocab
    kept_by_method = [compressor.compress(prompts) for compressor in compressors]
    rows: list[list[dict]] = [[] for _ in compressors]
    for index, (record, seq) in enumerate(zip(corpus, prompts)):
        gen_o = lm.greedy_continue(seq, settings.n_gen)
        scored: dict[tuple[int, ...], dict] = {}
        for compressor, kept_all, method_rows in zip(compressors, kept_by_method, rows):
            kept = kept_all[index]
            if kept.ids == seq.ids:
                gen_c = gen_o
            else:
                gen_c = lm.greedy_continue(kept, settings.n_gen)
            scores = scored.get(gen_c.ids)
            if scores is None:
                scores = scored[gen_c.ids] = _scores(gen_c, gen_o, record, vocab)
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
    reports = []
    for compressor, method_rows in zip(compressors, rows):
        aggregate = {"method": compressor.name, "n": len(method_rows)}
        for key in ("tokens", "rho", "inv_rho", "rouge1_f", "rouge2_f", "rougeL_f",
                    "token_f1", "em"):
            aggregate[key] = _mean([row[key] for row in method_rows])
        reports.append(
            EvalReport(
                method=compressor.name,
                lm_description=settings.lm_description,
                note=EM_NOTE,
                rows=method_rows,
                aggregate=aggregate,
            )
        )
    return reports
