"""Seeded input corpora for the benchmark workloads.

The generators live here, not in ``promptpress``, so that a change to the
program cannot change what the benchmark feeds it. Every corpus is a list
of JSON-ready records in the format ``promptpress`` reads (``id``,
``text`` and, for synthetic prompts, ``reference_output`` and
``filler_mask``).

Prompt lengths are stratified: a corpus of ``n`` prompts takes the lengths
``round(linspace(lo, hi, n))`` in a seeded order. The total token count is
then the same for every seed, so the work per run does not drift with the
seed while the words still do.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# The synthetic distribution of ``promptpress.text.make_synthetic_corpus``:
# 64 key words and 6 filler words, each position filler with a fixed
# probability; the key words, in order, are the reference output.
KEY_WORDS = tuple(
    f"{a}{b}"
    for a in (
        "gran", "vel", "mar", "tor", "bel", "cor", "dal", "fen",
        "hol", "jur", "kam", "lin", "mon", "nor", "pol", "quin",
    )
    for b in ("ite", "ak", "um", "or")
)
FILLER_WORDS = ("the", "um", "well", "basically", "just", "so")

# 2000 two-syllable pseudo-words; rank r is drawn with probability
# proportional to r ** -ZIPF_EXPONENT.
_SYLLABLES = tuple(c + v for c in "bdfgklmnprstvz" for v in "aeiou")
ZIPF_LEXICON = tuple(a + b for a in _SYLLABLES for b in _SYLLABLES)[:2000]
ZIPF_EXPONENT = 1.1

# Stream tags keep the corpora of one seed independent of each other.
STREAM_TRAIN = 1
STREAM_RECALL = 2
STREAM_ZIPF_SHORT = 3
STREAM_ZIPF_LONG = 4
STREAM_FIXTURE = 5


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def stratified_lengths(rng: np.random.Generator, n: int, lo: int, hi: int) -> list[int]:
    lengths = np.rint(np.linspace(lo, hi, n)).astype(int)
    rng.shuffle(lengths)
    return [int(v) for v in lengths]


def synthetic_corpus(
    seed: int,
    stream: int,
    index: int,
    n: int,
    lo: int,
    hi: int,
    filler_fraction: float = 0.5,
) -> list[dict]:
    """Key words interleaved with filler words, with a ground-truth mask."""
    rng = _rng(seed, stream, index)
    records = []
    for i, length in enumerate(stratified_lengths(rng, n, lo, hi)):
        is_filler = rng.random(length) < filler_fraction
        words = [
            FILLER_WORDS[int(rng.integers(len(FILLER_WORDS)))]
            if filler
            else KEY_WORDS[int(rng.integers(len(KEY_WORDS)))]
            for filler in is_filler
        ]
        records.append(
            {
                "id": f"syn-{i:04d}",
                "text": " ".join(words),
                "reference_output": " ".join(
                    w for w, f in zip(words, is_filler) if not f
                ),
                "filler_mask": [int(f) for f in is_filler],
            }
        )
    return records


def zipf_corpus(seed: int, stream: int, n: int, lo: int, hi: int) -> list[dict]:
    """Prompts of words drawn i.i.d. from the Zipf lexicon."""
    ranks = np.arange(1, len(ZIPF_LEXICON) + 1, dtype=np.float64)
    probs = ranks**-ZIPF_EXPONENT
    probs /= probs.sum()
    rng = _rng(seed, stream)
    records = []
    for i, length in enumerate(stratified_lengths(rng, n, lo, hi)):
        picks = rng.choice(len(ZIPF_LEXICON), size=length, p=probs)
        records.append(
            {"id": f"zipf-{i:04d}", "text": " ".join(ZIPF_LEXICON[j] for j in picks)}
        )
    return records


def write_jsonl(records: list[dict], path: Path) -> None:
    path.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
        encoding="utf-8",
    )
