"""Tokenization, vocabulary management, and corpus ingestion.

The reference tokenizer splits on whitespace runs, so that joining token
surfaces with single spaces reproduces the whitespace-normalized input,
except that every out-of-vocabulary word comes back as ``<unk>``. Nothing
maps ids back to text: output meant for people (``compress``) joins the
kept words of the input.
Subword tokenizers can be swapped in by building a :class:`Vocabulary`
over their surfaces; everything downstream only sees token ids.

The per-word and per-token loops of corpus set-up run in C: a word
becomes its id through the vocabulary's index, and the vocabulary's
surface counts and the IDF table's document counts are each one
``Counter`` over the chained words or ids. A count table keeps the order
in which its keys were first met, prompt by prompt, as the n-gram
tables of :mod:`promptpress.scoring` do; the IDF table takes each
prompt's distinct ids in the order of their set.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

UNKNOWN_SURFACE = "<unk>"


@dataclass(frozen=True)
class TokenSequence:
    """Immutable ordered list of token ids."""

    ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.ids, tuple):
            object.__setattr__(self, "ids", tuple(int(i) for i in self.ids))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)


@dataclass(frozen=True)
class Vocabulary:
    """Bidirectional token-id/surface map with a dedicated unknown id."""

    surfaces: tuple[str, ...]
    unknown_id: int
    _index: Mapping[str, int] = field(repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if len(set(self.surfaces)) != len(self.surfaces):
            raise ValueError("duplicate surfaces in vocabulary")
        if not 0 <= self.unknown_id < len(self.surfaces):
            raise ValueError("unknown_id out of range")
        object.__setattr__(
            self, "_index", {s: i for i, s in enumerate(self.surfaces)}
        )

    @property
    def size(self) -> int:
        return len(self.surfaces)


@dataclass(frozen=True)
class PromptRecord:
    """One corpus entry: a prompt, plus optional evaluation metadata.

    ``filler_mask`` is only present on synthetic corpora and marks, per
    token of the whitespace-split text, planted redundancy (True = filler).
    """

    id: str
    text: str
    reference_output: str | None = None
    filler_mask: tuple[bool, ...] | None = None


def split_surfaces(text: str) -> list[str]:
    """Reference split: maximal non-whitespace runs, in order."""
    return text.split()


def build_vocabulary(corpus: Sequence[PromptRecord], max_size: int) -> Vocabulary:
    """Build a vocabulary of the ``max_size - 1`` most frequent surfaces
    but ``UNKNOWN_SURFACE``, the unknown token's, which takes the last id.

    Ties are broken by lexicographic order of the surface string.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if max_size < 2:
        raise ValueError("max_size must be >= 2")
    counts = Counter(chain.from_iterable(split_surfaces(r.text) for r in corpus))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [surface for surface, _ in ranked if surface != UNKNOWN_SURFACE][: max_size - 1]
    surfaces = tuple(kept) + (UNKNOWN_SURFACE,)
    return Vocabulary(surfaces=surfaces, unknown_id=len(surfaces) - 1)


def tokenize(text: str, vocab: Vocabulary) -> TokenSequence:
    """Deterministic text -> ids; out-of-vocabulary surfaces become unknown."""
    return TokenSequence(tuple(map(vocab._index.get, split_surfaces(text),
                                   repeat(vocab.unknown_id))))


def tokenize_corpus(
    corpus: Sequence[PromptRecord], vocab: Vocabulary, max_len: int
) -> list[TokenSequence]:
    """Tokenize every record; one that is empty or longer than the
    encoder's ``max_len`` is an error naming the record.

    This is the one place text becomes ids: everything downstream takes
    the sequences it returns.
    """
    prompts: list[TokenSequence] = []
    for record in corpus:
        seq = tokenize(record.text, vocab)
        if len(seq) == 0:
            raise ValueError(f"corpus record {record.id!r} tokenizes to nothing")
        if len(seq) > max_len:
            raise ValueError(
                f"corpus record {record.id!r} has {len(seq)} tokens, more than "
                f"the encoder max_len {max_len}"
            )
        prompts.append(seq)
    return prompts


def load_corpus(path: str | Path) -> list[PromptRecord]:
    """Read a JSONL corpus: one object per line with at least ``text``.

    ``text`` is a string; ``id``, a string; ``reference_output``, a
    string or null; and ``filler_mask``, a list of 0/1/true/false, one per
    word of ``text``. A missing id defaults to ``rec-NNNNN``, NNNNN the
    line number, and no two records share an id. Optional fields stay
    absent when missing. Malformed lines raise an error naming the line
    number.
    """
    records: list[PromptRecord] = []
    first_line: dict[str, int] = {}  # id -> the line that first used it
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"malformed corpus line {lineno}: {exc}") from exc
            if not isinstance(obj, dict) or "text" not in obj:
                raise ValueError(f"malformed corpus line {lineno}: missing 'text'")
            text, reference, mask = (
                obj.get(k) for k in ("text", "reference_output", "filler_mask")
            )
            if not isinstance(text, str):
                raise ValueError(
                    f"malformed corpus line {lineno}: 'text' is not a string"
                )
            record_id = obj.get("id", f"rec-{lineno:05d}")
            if not isinstance(record_id, str):
                raise ValueError(
                    f"malformed corpus line {lineno}: 'id' is not a string"
                )
            if record_id in first_line:
                raise ValueError(
                    f"malformed corpus line {lineno}: duplicate id {record_id!r} "
                    f"(first on line {first_line[record_id]})"
                )
            first_line[record_id] = lineno
            if reference is not None and not isinstance(reference, str):
                raise ValueError(
                    f"malformed corpus line {lineno}: 'reference_output' is not "
                    "a string"
                )
            if mask is not None:
                # type(...) rules out "0" and 0.0, and an unhashable
                # entry before set(mask) meets it; True and False equal 1
                # and 0.
                if not isinstance(mask, list) or not (
                    set(map(type, mask)) <= {bool, int} and set(mask) <= {0, 1}
                ):
                    raise ValueError(
                        f"malformed corpus line {lineno}: 'filler_mask' is not "
                        "a list of 0/1/true/false"
                    )
                mask = tuple(map(bool, mask))
                if len(mask) != len(split_surfaces(text)):
                    raise ValueError(
                        f"malformed corpus line {lineno}: filler_mask length "
                        f"{len(mask)} != token length"
                    )
            records.append(
                PromptRecord(
                    id=record_id,
                    text=text,
                    reference_output=reference,
                    filler_mask=mask,
                )
            )
    return records


def save_corpus(records: Iterable[PromptRecord], path: str | Path) -> None:
    """Write records as JSONL, omitting absent optional fields."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            obj: dict = {"id": record.id, "text": record.text}
            if record.reference_output is not None:
                obj["reference_output"] = record.reference_output
            if record.filler_mask is not None:
                obj["filler_mask"] = [int(v) for v in record.filler_mask]
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


# Disjoint lexicons for synthetic corpora. Key words are the "information"
# a compressor should keep; filler words are planted redundancy.
KEY_LEXICON = tuple(
    f"{a}{b}"
    for a in (
        "gran", "vel", "mar", "tor", "bel", "cor", "dal", "fen",
        "hol", "jur", "kam", "lin", "mon", "nor", "pol", "quin",
    )
    for b in ("ite", "ak", "um", "or")
)
FILLER_LEXICON = ("the", "um", "well", "basically", "just", "so")
# The token counts a synthetic prompt is drawn between, both included.
SYNTHETIC_MIN_TOKENS, SYNTHETIC_MAX_TOKENS = 24, 48


def make_synthetic_corpus(
    seed: int, n_prompts: int, filler_fraction: float
) -> list[PromptRecord]:
    """Generate prompts that interleave key words with filler words.

    Each token position is filler with probability ``filler_fraction``;
    the key words (in order) become the record's ``reference_output``.
    Identical seeds give identical corpora.
    """
    if n_prompts < 1:
        raise ValueError("n_prompts must be >= 1")
    if not 0.0 <= filler_fraction <= 1.0:
        raise ValueError("filler_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_prompts):
        length = int(rng.integers(SYNTHETIC_MIN_TOKENS, SYNTHETIC_MAX_TOKENS + 1))
        is_filler = rng.random(length) < filler_fraction
        words = []
        keys = []
        for filler in is_filler:
            if filler:
                words.append(FILLER_LEXICON[int(rng.integers(len(FILLER_LEXICON)))])
            else:
                word = KEY_LEXICON[int(rng.integers(len(KEY_LEXICON)))]
                words.append(word)
                keys.append(word)
        records.append(
            PromptRecord(
                id=f"syn-{i:04d}",
                text=" ".join(words),
                reference_output=" ".join(keys),
                filler_mask=tuple(bool(v) for v in is_filler),
            )
        )
    return records


def compute_idf_table(prompts: Sequence[TokenSequence]) -> dict[int, float]:
    """Classic inverse document frequency, ln(N / df), per token id.

    Tokens present in every prompt get weight 0 and therefore do not
    count as retained information. Ids never seen in the prompts are
    omitted (scorers fall back to weight 1 for them).
    """
    n_docs = len(prompts)
    if n_docs == 0:
        raise ValueError("empty corpus")
    df = Counter(chain.from_iterable(set(seq.ids) for seq in prompts))
    return {tid: math.log(n_docs / count) for tid, count in df.items()}
