"""Learned-signal ingredients of the reward.

Two deterministic scorers:

* :class:`IdfRetentionScorer`, the one retention scorer, measures how much
  of the original prompt's key information survives in the compressed
  prompt, as an IDF-weighted token recall, which keeps it auditable.
* :class:`NgramLM`, the proxy LM, stands in for the target model's output
  distribution: an add-k smoothed n-gram model with backoff, and every
  query is answered from its count tables. A next-token distribution is
  the answering context's continuation counts, and the divergence of two
  of them (:func:`output_distribution_kl`) is a sum over the ids either
  context was followed by plus one closed-form term for the rest. No
  V-length vector is built. A model owns one context window, the
  trailing tokens its answers can depend on; the divergence scores no
  position past it, as every later term is exactly 0, and walks only the
  part of its reference that it reads.

The count tables keep the order in which the fit first met their keys,
prompt by prompt and token by token: each level's contexts, and each
context's continuations. That order is part of the model, as
:func:`kl_divergence` sums over a union of continuation keys and a float
sum depends on its order; a faster fit must keep it, key for key.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

from .text import TokenSequence, Vocabulary


@dataclass(frozen=True)
class NextTokenDistribution:
    """The count-table answer for one context, over ``size`` ids.

    Entry i is (smoothing + counts.get(i, 0)) / (smoothing * size + total),
    with ``total`` the sum of ``counts``. ``counts`` is the model's own
    table dict, shared and never written; no vector is built.
    """

    counts: Mapping[int, int]
    total: int
    smoothing: float
    size: int


@dataclass(frozen=True)
class IdfRetentionScorer:
    """The retention scorer: how much of an original prompt's key
    information a compressed prompt keeps, in [0, 1]."""

    idf: Mapping[int, float]

    def score(self, s0: TokenSequence, st: TokenSequence) -> float:
        """IDF-weighted recall of the original prompt's tokens: 1 when
        everything is retained.

        Σ idf over the multiset intersection of s0 and st, divided by Σ idf
        over s0. Ids missing from the table weigh 1.
        """
        if len(s0) == 0:
            raise ValueError("undefined retention: empty original sequence")
        idf = self.idf
        counts0 = Counter(s0.ids)
        counts_t = Counter(st.ids)
        total = sum(idf.get(tid, 1.0) * n for tid, n in counts0.items())
        if total <= 0.0:
            # Degenerate table (all-zero weights): everything counts equally.
            total = float(len(s0))
            kept = float(sum(min(n, counts_t[tid]) for tid, n in counts0.items()))
            return kept / total
        kept = sum(
            idf.get(tid, 1.0) * min(n, counts_t[tid]) for tid, n in counts0.items()
        )
        return kept / total


def kl_divergence(p: NextTokenDistribution, q: NextTokenDistribution) -> float:
    """KL(P || Q) in nats, read from the two answers' counts.

    A sum over the union of the ids either context was followed by, plus
    one term for the ``size - |union|`` ids neither was: each of those
    has p = k_p / (k_p V + T_p) and q = k_q / (k_q V + T_q). Every entry
    is positive, so nothing is floored, and two answers from the same
    context give exactly 0.0.
    """
    if p.size != q.size:
        raise ValueError(f"dimension mismatch: {p.size} != {q.size}")
    z_p = p.smoothing * p.size + p.total
    z_q = q.smoothing * q.size + q.total
    union = p.counts.keys() | q.counts.keys()
    kl = 0.0
    for tid in union:
        p_i = (p.smoothing + p.counts.get(tid, 0)) / z_p
        kl += p_i * math.log(p_i / ((q.smoothing + q.counts.get(tid, 0)) / z_q))
    p_rest, q_rest = p.smoothing / z_p, q.smoothing / z_q
    return kl + (p.size - len(union)) * p_rest * math.log(p_rest / q_rest)


def _tail(ids: tuple[int, ...], window: int) -> tuple[int, ...]:
    """The trailing ``window`` ids; all of them when fewer."""
    return ids[max(0, len(ids) - window):]


def output_distribution_kl(
    lm: NgramLM,
    s0: TokenSequence,
    st: TokenSequence,
    n_gen: int,
) -> float:
    """Teacher-forced divergence between generating from st and from s0.

    Mean over the first ``n_gen`` positions i of s0's greedy
    continuation ref of KL(P(. | st ++ ref[:i]) || P(. | s0 ++ ref[:i])),
    a factorized surrogate for the divergence between the two generation
    distributions along the fixed s0-conditioned continuation.

    With w = ``lm.context_window``, a position is skipped when both
    contexts end in the same w tokens (or, shorter than w, are equal):
    one context answers both, and the term is exactly 0. That holds for
    every i >= w, where both end in the same reference tokens, so only
    positions i < min(n_gen, w) are scored, and ref is walked up to the
    last of them: not at all for a bigram model, which scores position 0
    alone. The mean still divides by ``n_gen``.
    """
    if n_gen < 1:
        raise ValueError("n_gen must be >= 1: empty reference continuation")
    if st.ids == s0.ids:
        return 0.0
    window = lm.context_window
    scored = min(n_gen, window)
    reference = lm.greedy_continue(s0, scored - 1).ids if scored > 1 else ()
    total = 0.0
    for i in range(scored):
        prefix = reference[:i]
        ctx_t = st.ids + prefix
        ctx_0 = s0.ids + prefix
        if _tail(ctx_t, window) == _tail(ctx_0, window):
            continue
        p = lm.next_token_dist(TokenSequence(ctx_t))
        q = lm.next_token_dist(TokenSequence(ctx_0))
        total += kl_divergence(p, q)
    return total / n_gen


class NgramLM:
    """Add-k smoothed n-gram model with backoff to shorter contexts: the
    proxy LM, a small local model playing the target LLM's
    output-distribution role.

    It answers three queries: the next-token distribution after a
    context, given as counts (:class:`NextTokenDistribution`), which the
    divergence reads; the probability of each token of a sequence given
    the tokens before it, which self-information reads; and a greedy
    continuation, which the divergence's reference and the evaluation
    read. The last two agree with the first bit for bit. A stand-in for
    it needs only the queries its caller reads, under the same contract.

    ``context_window`` is the number of trailing context tokens its
    answers depend on: two contexts that end in the same
    ``context_window`` tokens, or are equal when shorter, get the same
    answers. A stand-in that reads its whole context declares a window
    no context reaches.

    Every query is answered by the longest trailing context (at most
    ``context_window`` tokens) found in the count tables, or by the
    unigram level. The tables stop at the longest fit prompt, as no
    longer context was seen, so ``context_window`` is min(order, levels
    held) - 1: no more than the longest fit prompt's length less one.
    With c the count of a token after that context and total the count
    of the context, the token's probability is (k + c) / (k V + total).

    All three queries read the count tables and build no V-length
    vector: :meth:`next_token_dist` returns the answering context's own
    continuation dict and total, :meth:`token_probs` makes one dict
    lookup per position, and the greedy successor of a tail is the most
    counted continuation. Each entry is computed with the same IEEE
    operations, which is how the three agree bit for bit.

    Greedy decoding has a memo: the greedy successor of each trailing
    tail a walk has passed through, one int per distinct tail walked. A
    tail holds at most ``context_window`` ids, so the memo is bounded by
    the tuples of that many ids over V, and it grows with the variety of
    the prompts continued, not with their number or with ``n``.

    Count tables are immutable after fitting, and memo entries are only
    ever added, each equal to what a fresh model would find; two threads
    that miss on the same tail store equal values. The model is therefore
    safe to share between compressors, episodes and threads.
    """

    def __init__(
        self,
        order: int,
        smoothing: float,
        vocab: Vocabulary,
        counts: Sequence[dict[tuple[int, ...], dict[int, int]]],
    ) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if not 0 < smoothing < math.inf:
            raise ValueError("smoothing must be > 0 and finite")
        self.order = order
        self.smoothing = smoothing
        self.vocab = vocab
        # counts[o - 1] maps a length-(o-1) context to continuation counts.
        self._counts = counts
        # Trailing tokens the tables can answer from.
        self.context_window = min(order, len(counts)) - 1
        self._totals = [
            {ctx: sum(cont.values()) for ctx, cont in level.items()}
            for level in counts
        ]
        # The least probability, k / (k V + the largest total), must be a
        # normal float, else a log or a division meets 0 or inf. An
        # overflowing k V makes it 0.
        largest = max(max(level.values(), default=0) for level in self._totals)
        if smoothing / (smoothing * vocab.size + largest) < sys.float_info.min:
            raise ValueError(
                "smoothing must keep k * V finite and every probability normal"
            )
        # Trailing context_window tokens -> greedy next token.
        self._successor: dict[tuple[int, ...], int] = {}

    def _answering(self, ids: tuple[int, ...], end: int) -> tuple[int, ...]:
        """The context that answers for ``ids[:end]``: its longest tail
        of at most ``context_window`` ids in the count tables, else ()."""
        for o in range(min(self.context_window, end) + 1, 1, -1):
            tail = ids[end - (o - 1): end]
            if tail in self._counts[o - 1]:
                return tail
        return ()

    def next_token_dist(self, context: TokenSequence) -> NextTokenDistribution:
        ctx = self._answering(context.ids, len(context.ids))
        return NextTokenDistribution(
            counts=self._counts[len(ctx)].get(ctx, {}),
            total=self._totals[len(ctx)].get(ctx, 0),
            smoothing=self.smoothing,
            size=self.vocab.size,
        )

    def token_probs(self, seq: TokenSequence) -> list[float]:
        """P(seq[i] | seq[:i]) for every position i, in order: entry i
        equals entry ``seq.ids[i]`` of
        ``next_token_dist(TokenSequence(seq.ids[:i]))`` bit for bit, and an
        empty ``seq`` gives an empty list. Each is read from the counts of
        its answering context."""
        k = self.smoothing
        kv = k * self.vocab.size
        ids = seq.ids
        out = []
        for i, tid in enumerate(ids):
            ctx = self._answering(ids, i)
            cont = self._counts[len(ctx)].get(ctx, {})
            total = self._totals[len(ctx)].get(ctx, 0)
            out.append((k + cont.get(tid, 0)) / (kv + total))
        return out

    def _greedy(self, ctx: tuple[int, ...]) -> int:
        """The argmax of ``ctx``'s distribution: its most counted
        continuation, the lowest id on ties, or id 0 when the context was
        never followed and every entry is k / (k V)."""
        cont = self._counts[len(ctx)].get(ctx)
        if not cont:
            return 0
        top = max(cont.values())
        return min(tid for tid, n in cont.items() if n == top)

    def greedy_continue(self, context: TokenSequence, n: int) -> TokenSequence:
        """Greedy continuation of ``context``: ``n`` argmax steps, each
        conditioned on ``context`` and the tokens generated so far, ties to
        the lowest id; ``n < 1`` is a ValueError. The steps walk the
        successor memo: a step whose tail was walked before is one dict
        lookup, and a new tail is answered from the count tables, so the
        result does not depend on earlier calls."""
        if n < 1:
            raise ValueError("n must be >= 1")
        window = self.context_window
        successor = self._successor
        tail = _tail(context.ids, window)
        out: list[int] = []
        for _ in range(n):
            tid = successor.get(tail)
            if tid is None:
                tid = successor[tail] = self._greedy(self._answering(tail, len(tail)))
            out.append(tid)
            tail = _tail(tail + (tid,), window)
        return TokenSequence(tuple(out))


def fit_ngram_lm(
    prompts: Sequence[TokenSequence],
    order: int,
    smoothing: float,
    vocab: Vocabulary,
) -> NgramLM:
    """Fit the reference proxy model on tokenized prompts over ``vocab``:
    min(``order``, the longest prompt's length) count levels, at least
    one, as no longer context occurs. The model keeps ``order`` and
    reads a window of one token less than the levels it holds.

    The unigram level is one Counter over every token; each longer level
    is one pass over the prompts. Both keep first-occurrence order."""
    if not prompts:
        raise ValueError("empty corpus")
    all_ids = [seq.ids for seq in prompts]
    levels = max(1, min(order, max(map(len, all_ids))))
    unigrams = dict(Counter(chain.from_iterable(all_ids)))
    counts: list[dict[tuple[int, ...], dict[int, int]]] = [{(): unigrams} if unigrams else {}]
    for o in range(1, levels):
        level: dict[tuple[int, ...], dict[int, int]] = {}
        get = level.get
        for ids in all_ids:
            for i in range(o, len(ids)):
                ctx, tid = ids[i - o: i], ids[i]
                cont = get(ctx)
                if cont is None:
                    level[ctx] = {tid: 1}
                else:
                    cont[tid] = cont.get(tid, 0) + 1
        counts.append(level)
    return NgramLM(order=order, smoothing=smoothing, vocab=vocab, counts=counts)
