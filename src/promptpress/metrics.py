"""Evaluation metrics: ROUGE (n-gram and LCS) on token ids.

All metrics follow the standard clipped-count definitions with no
stemming or stopword handling, so every value can be recomputed by a
brute-force counter. ROUGE-1 is the clipped unigram overlap that is
also called token F1; the evaluation reports its F under both names.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Sequence


def _prf(overlap: float, n_cand: float, n_ref: float) -> tuple[float, float, float]:
    precision = overlap / n_cand if n_cand else 0.0
    recall = overlap / n_ref if n_ref else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return precision, recall, f1


def _ngrams(tokens: Sequence[Hashable], n: int) -> Counter:
    """The multiset of ``tokens``' n-grams, each a tuple, zipped from n
    shifted slices."""
    return Counter(zip(*(tokens[i:] for i in range(n))))


def rouge_n(
    candidate: Sequence[Hashable], reference: Sequence[Hashable], n: int
) -> tuple[float, float, float]:
    """Clipped n-gram overlap; (0, 0, 0) when either side is degenerate."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cand = _ngrams(candidate, n)
    ref = _ngrams(reference, n)
    overlap = sum(min(count, ref[gram]) for gram, count in cand.items())
    return _prf(overlap, sum(cand.values()), sum(ref.values()))


def lcs_length(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Longest common subsequence length, bit-parallel over ``b``.

    The Allison-Dix / Hyyro recurrence on Python ints: bit j of ``v`` is
    0 where the LCS row grows at b[j], so after every symbol of ``a`` the
    LCS is the number of zero bits. Exact; each symbol of ``a`` costs a
    few big-int operations instead of a row of len(b) table cells.
    """
    if not a or not b:
        return 0
    masks: dict[Hashable, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        m = masks.get(x)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(
    candidate: Sequence[Hashable], reference: Sequence[Hashable]
) -> tuple[float, float, float]:
    """LCS-based precision/recall/F1."""
    lcs = lcs_length(list(candidate), list(reference))
    return _prf(lcs, len(candidate), len(reference))
