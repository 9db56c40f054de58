"""Scoring tests: retention oracle, KL properties, n-gram model, divergence."""

import itertools
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from conftest import (
    dense_kl,
    dense_probs,
    fit_every_level,
    fit_lm,
    reference_counts,
    reference_idf,
    reference_tokenize,
    reference_vocabulary,
)
from promptpress.baselines import (
    IdentityCompressor,
    RandomCompressor,
    SelfInfoCompressor,
)
from promptpress.evaluation import evaluate
from promptpress.scoring import (
    IdfRetentionScorer,
    NextTokenDistribution,
    NgramLM,
    fit_ngram_lm,
    kl_divergence,
    output_distribution_kl,
)
from promptpress.text import (
    PromptRecord,
    TokenSequence,
    Vocabulary,
    build_vocabulary,
    compute_idf_table,
    load_corpus,
    make_synthetic_corpus,
    save_corpus,
    tokenize,
    tokenize_corpus,
)


def seq(*ids):
    return TokenSequence(tuple(ids))


def dist(*counts, smoothing=0.1):
    """The answer of a context followed by id i ``counts[i]`` times."""
    return NextTokenDistribution(
        counts=dict(enumerate(counts)), total=sum(counts), smoothing=smoothing,
        size=len(counts),
    )


class LengthLM:
    """Stub that reads its whole context: no context reaches its window.

    On a context of even length entries 0 and 1 tie (greedy takes 0); on
    an odd one entry 2 wins, so the output shows whether every token of
    the growing context was passed.
    """

    context_window = sys.maxsize

    def next_token_dist(self, context):
        if len(context) % 2 == 0:
            return dist(2, 2, 1)
        return dist(1, 2, 7)

    def token_probs(self, seq):
        return [
            float(dense_probs(self.next_token_dist(TokenSequence(seq.ids[:i])))[t])
            for i, t in enumerate(seq.ids)
        ]

    def greedy_continue(self, context, n):
        return TokenSequence(stepwise_argmax_trace(self, context, n))


def stepwise_argmax_trace(lm, context, n):
    """Full-context greedy decoding, one np.argmax per step."""
    expected = []
    trace = context
    for _ in range(n):
        tid = int(np.argmax(dense_probs(lm.next_token_dist(trace))))
        expected.append(tid)
        trace = TokenSequence(trace.ids + (tid,))
    return tuple(expected)


def constant_ngram(probs):
    """An order-1 n-gram model, which ignores its context: token i has
    count probs[i], so the argmax ranking (and its ties) is that of
    ``probs``."""
    vocab = Vocabulary(surfaces=tuple(f"t{i}" for i in range(len(probs))), unknown_id=0)
    counts = [{(): dict(enumerate(probs))}]
    return NgramLM(order=1, smoothing=0.1, vocab=vocab, counts=counts)


# "d" never occurs, so contexts ending in it back off to the unigram level.
MEMO_VOCAB = Vocabulary(surfaces=("a", "b", "c", "d", "<unk>"), unknown_id=4)
MEMO_CORPUS = [
    PromptRecord("0", "a b a c b a b c c a"),
    PromptRecord("1", "b b c a a"),
]


def all_contexts(max_len=4):
    """Every sequence of up to ``max_len`` ids over MEMO_VOCAB."""
    ids = range(MEMO_VOCAB.size)
    for n in range(max_len + 1):
        for ctx in itertools.product(ids, repeat=n):
            yield TokenSequence(ctx)


def brute_force_retention(s0_ids, st_ids, idf):
    """Independent multiset-intersection oracle."""
    c0, ct = Counter(s0_ids), Counter(st_ids)
    inter = []
    for tid in c0:
        inter.extend([tid] * min(c0[tid], ct[tid]))
    num = sum(idf.get(t, 1.0) for t in inter)
    den = sum(idf.get(t, 1.0) for t in s0_ids)
    return num / den


class TestRetention:
    def test_identity_is_one(self):
        s = seq(1, 2, 2, 3)
        assert IdfRetentionScorer({1: 2.0, 2: 0.5, 3: 1.0}).score(s, s) == 1.0

    def test_single_kept_token(self):
        idf = {1: 3.0, 2: 1.0, 3: 0.5}
        s0 = seq(1, 2, 3)
        assert IdfRetentionScorer(idf).score(s0, seq(1)) == pytest.approx(3.0 / 4.5)

    def test_empty_original_errors(self):
        with pytest.raises(ValueError, match="undefined retention"):
            IdfRetentionScorer({}).score(TokenSequence(()), seq(1))

    def test_missing_idf_defaults_to_one(self):
        assert IdfRetentionScorer({}).score(seq(5, 6), seq(5)) == pytest.approx(0.5)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            n = int(rng.integers(1, 30))
            s0_ids = tuple(int(x) for x in rng.integers(0, 10, size=n))
            keep = rng.random(n) < 0.6
            st_ids = tuple(t for t, k in zip(s0_ids, keep) if k)
            idf = {tid: float(w) for tid, w in enumerate(rng.random(10) * 3)}
            got = IdfRetentionScorer(idf).score(seq(*s0_ids), seq(*st_ids))
            assert got == pytest.approx(brute_force_retention(s0_ids, st_ids, idf))
            assert 0.0 <= got <= 1.0

    def test_removal_never_increases(self):
        rng = np.random.default_rng(23)
        idf = {tid: float(w) for tid, w in enumerate(rng.random(8) * 2)}
        for _ in range(500):
            n = int(rng.integers(2, 20))
            s0_ids = tuple(int(x) for x in rng.integers(0, 8, size=n))
            st = list(s0_ids)
            s0 = seq(*s0_ids)
            prev = IdfRetentionScorer(idf).score(s0, seq(*st))
            while len(st) > 1:
                st.pop(int(rng.integers(len(st))))
                score = IdfRetentionScorer(idf).score(s0, seq(*st))
                assert score <= prev + 1e-12
                prev = score

    def test_scorer_wrapper(self):
        scorer = IdfRetentionScorer({1: 2.0})
        assert scorer.score(seq(1, 2), seq(1)) == pytest.approx(2.0 / 3.0)


class TestKLDivergence:
    def test_identical_is_zero(self):
        p = dist(1, 1, 2)
        assert kl_divergence(p, p) == 0.0

    def test_two_term_hand_value(self):
        # p = (5/6, 1/6), q = (1/6, 5/6):
        # 5/6 ln 5 + 1/6 ln(1/5) = 2/3 ln 5 = 1.072959 nats
        got = kl_divergence(dist(4, 0, smoothing=1.0), dist(0, 4, smoothing=1.0))
        assert got == pytest.approx(2 / 3 * np.log(5), rel=1e-14)

    def test_ids_neither_context_was_followed_by(self):
        # V = 3, k = 1: p = (3/5, 1/5, 1/5), q = (1/2, 1/4, 1/4); ids 1
        # and 2 are in neither count dict, so the closed-form term holds
        # both: 3/5 ln(6/5) + 2 * 1/5 ln(4/5) = 0.020136 nats
        p = NextTokenDistribution(counts={0: 2}, total=2, smoothing=1.0, size=3)
        q = NextTokenDistribution(counts={0: 1}, total=1, smoothing=1.0, size=3)
        want = 0.6 * np.log(1.2) + 0.4 * np.log(0.8)
        assert kl_divergence(p, q) == pytest.approx(want, rel=1e-14)

    def test_non_negative_fuzz(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(2, 20))
            p = dist(*rng.integers(0, 6, k).tolist(), smoothing=float(rng.random()))
            q = dist(*rng.integers(0, 6, k).tolist(), smoothing=float(rng.random()))
            assert kl_divergence(p, q) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            kl_divergence(dist(1), dist(1, 1))


class TestGenerateReference:
    """The greedy reference continuation, ``NgramLM.greedy_continue``."""

    def test_constant_lm_repeats_argmax(self):
        lm = constant_ngram([0.1, 0.7, 0.2])
        assert lm.greedy_continue(seq(0), 5).ids == (1,) * 5

    def test_argmax_tie_takes_lowest_id(self):
        lm = constant_ngram([0.4, 0.4, 0.2])
        assert lm.greedy_continue(seq(0), 3).ids == (0, 0, 0)

    def test_determinism(self):
        corpus = [PromptRecord("0", "a b c a b d")]
        lm = fit_lm(corpus, order=2, smoothing=0.1)
        out1 = lm.greedy_continue(tokenize("a b", lm.vocab), 6)
        out2 = lm.greedy_continue(tokenize("a b", lm.vocab), 6)
        fresh = fit_lm(corpus, order=2, smoothing=0.1)
        assert out1 == out2 == fresh.greedy_continue(tokenize("a b", lm.vocab), 6)

    def test_bigram_matches_stepwise_argmax_trace(self):
        corpus = [PromptRecord("0", "a b a c a b")]
        lm = fit_lm(corpus, order=2, smoothing=0.1)
        context = tokenize("a", lm.vocab)
        expected = []
        trace = context
        for _ in range(8):
            tid = int(np.argmax(dense_probs(lm.next_token_dist(trace))))
            expected.append(tid)
            trace = TokenSequence(trace.ids + (tid,))
        assert lm.greedy_continue(context, 8).ids == tuple(expected)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("prompt", ["", "c", "a b", "d a c b b"])
    def test_window_tail_walk_matches_full_context_trace(self, order, prompt):
        lm = fit_lm(MEMO_CORPUS, order=order, smoothing=0.1, vocab=MEMO_VOCAB)
        context = tokenize(prompt, MEMO_VOCAB)
        expected = stepwise_argmax_trace(lm, context, 12)
        assert lm.greedy_continue(context, 12).ids == expected

    @pytest.mark.parametrize("probs", [[0.1, 0.7, 0.2], [0.4, 0.4, 0.2]])
    def test_constant_lm_matches_stepwise_trace(self, probs):
        lm = constant_ngram(probs)
        assert lm.greedy_continue(seq(2, 1), 5).ids == stepwise_argmax_trace(
            lm, seq(2, 1), 5
        )

    def test_greedy_successor_is_lowest_argmax(self):
        assert constant_ngram([4, 4, 2]).greedy_continue(seq(1), 1).ids == (0,)
        assert constant_ngram([1, 2, 7]).greedy_continue(seq(1), 1).ids == (2,)

    @pytest.mark.parametrize("order", [2, 3])
    def test_tie_takes_lowest_id_not_first_counted(self, order):
        # After "c" come b, a and d once each, b first.
        corpus = [PromptRecord("ties", "c b c a d c d")]
        lm = fit_lm(corpus, order=order, smoothing=0.1, vocab=MEMO_VOCAB)
        assert lm.greedy_continue(tokenize("c", MEMO_VOCAB), 1).ids == (0,)


class TestGreedyWalkMemo:
    """The walk over the per-model memo of greedy successors."""

    PROMPTS = ["", "c", "a b", "d a c b b", "b b c a a", "d"]

    @staticmethod
    def fit(order):
        return fit_lm(MEMO_CORPUS, order=order, smoothing=0.1, vocab=MEMO_VOCAB)

    @staticmethod
    def walked_tails(lm, context, n):
        """The trailing-window tail before each of the n greedy steps."""
        window = lm.context_window
        ids = context.ids + stepwise_argmax_trace(lm, context, n)
        return {
            ids[max(0, i - window): i]
            for i in range(len(context), len(context) + n)
        }

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_matches_stepwise_trace(self, order, n):
        # n = 40 walks far past the cycle every greedy walk on a finite
        # model falls into; contexts "" and "c" are shorter than order 3's
        # window.
        lm = self.fit(order)
        for prompt in self.PROMPTS:
            context = tokenize(prompt, MEMO_VOCAB)
            assert lm.greedy_continue(context, n).ids == stepwise_argmax_trace(
                lm, context, n
            ), prompt

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_walk_enters_a_cycle(self, order):
        lm = self.fit(order)
        out = lm.greedy_continue(tokenize("d a c b b", MEMO_VOCAB), 40).ids
        assert len(lm._successor) < 40
        # past the memo's size the walk repeats a period of it
        period = next(
            p for p in range(1, 20) if out[20:] == out[20 - p: 40 - p]
        )
        assert period <= len(lm._successor)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_warm_model_equals_fresh_model(self, order):
        warm = self.fit(order)
        for n in (12, 3, 1, 25, 3):
            for prompt in self.PROMPTS:
                context = tokenize(prompt, MEMO_VOCAB)
                got = warm.greedy_continue(context, n)
                assert got == self.fit(order).greedy_continue(context, n)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_memo_holds_one_entry_per_distinct_tail(self, order, monkeypatch):
        lm = self.fit(order)
        answered = []
        greedy = lm._greedy

        def counted(ctx):
            answered.append(ctx)
            return greedy(ctx)

        def no_distribution(*args):
            raise AssertionError("the walk built a distribution")

        monkeypatch.setattr(lm, "_greedy", counted)
        monkeypatch.setattr(lm, "next_token_dist", no_distribution)
        tails = set()
        for n in (6, 2, 9):
            for prompt in self.PROMPTS:
                context = tokenize(prompt, MEMO_VOCAB)
                lm.greedy_continue(context, n)
                tails |= self.walked_tails(self.fit(order), context, n)
        assert set(lm._successor) == tails
        # each distinct tail cost one count-table answer, once, and no
        # distribution was asked for
        assert len(answered) == len(tails)

    def test_threads_sharing_a_model_agree_with_a_fresh_one(self):
        contexts = [tokenize(prompt, MEMO_VOCAB) for prompt in self.PROMPTS]
        want = [self.fit(3).greedy_continue(c, 30) for c in contexts]
        shared = self.fit(3)
        results = {}

        def work(i):
            results[i] = [shared.greedy_continue(c, 30) for c in reversed(contexts)][::-1]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [results[i] for i in range(8)] == [want] * 8

    def test_n_below_one_errors(self):
        lm = self.fit(2)
        with pytest.raises(ValueError, match="n must be >= 1"):
            lm.greedy_continue(tokenize("a", MEMO_VOCAB), 0)


class TestNgramLM:
    def test_add_k_bigram_hand_count(self):
        corpus = [PromptRecord("0", "a b a b")]
        vocab = Vocabulary(surfaces=("a", "b", "<unk>"), unknown_id=2)
        k = 0.1
        lm = fit_lm(corpus, order=2, smoothing=k, vocab=vocab)
        probs = dense_probs(lm.next_token_dist(tokenize("a", vocab)))
        # count(a b) = 2, count(a .) = 2, V = 3
        a, b = tokenize("a b", vocab).ids
        assert probs[b] == pytest.approx((2 + k) / (2 + k * 3))
        assert probs[a] == pytest.approx(k / (2 + k * 3))

    def test_unseen_context_backs_off_to_unigram(self):
        corpus = [PromptRecord("0", "a b a b c")]
        vocab = Vocabulary(surfaces=("a", "b", "c", "<unk>"), unknown_id=3)
        lm = fit_lm(corpus, order=2, smoothing=0.5, vocab=vocab)
        unseen = lm.next_token_dist(tokenize("c", vocab))  # "c" ends the text
        unigram = lm.next_token_dist(TokenSequence(()))
        assert unseen == unigram

    def test_distributions_sum_to_one(self):
        corpus = [PromptRecord("0", "a b c a b"), PromptRecord("1", "b c d")]
        lm = fit_lm(corpus, order=3, smoothing=0.1, max_vocab=8)
        contexts = [TokenSequence(())]
        for i in range(lm.vocab.size):
            contexts.append(seq(i))
            for j in range(lm.vocab.size):
                contexts.append(seq(i, j))
        for ctx in contexts:
            assert abs(float(dense_probs(lm.next_token_dist(ctx)).sum()) - 1.0) <= 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_ngram_lm([], order=2, smoothing=0.1, vocab=MEMO_VOCAB)
        with pytest.raises(ValueError):
            fit_ngram_lm([seq(0)], order=0, smoothing=0.1, vocab=MEMO_VOCAB)
        for smoothing in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="smoothing must be > 0 and finite"):
                fit_ngram_lm([seq(0)], order=1, smoothing=smoothing, vocab=MEMO_VOCAB)

    # MEMO_CORPUS's longest prompt has 10 tokens.
    @pytest.mark.parametrize("order", range(1, 14))
    def test_fit_answers_as_a_fit_of_every_level(self, order):
        prompts = [tokenize(record.text, MEMO_VOCAB) for record in MEMO_CORPUS]
        lm = fit_ngram_lm(prompts, order=order, smoothing=0.1, vocab=MEMO_VOCAB)
        want = fit_every_level(prompts, order, 0.1, MEMO_VOCAB)
        # the window is what the tables can answer: none past the longest
        assert (lm.order, lm.context_window) == (order, min(order, 10) - 1)
        assert len(lm._counts) == min(order, 10)
        # Short contexts, every slice of each prompt, each prompt after
        # an unseen token, and both prompts joined, past the longest.
        contexts = list(all_contexts(2))
        for p in prompts:
            contexts += [TokenSequence(p.ids[i:j])
                         for i in range(len(p)) for j in range(i + 1, len(p) + 1)]
            contexts.append(TokenSequence((3,) + p.ids))
        contexts.append(TokenSequence(prompts[0].ids + prompts[1].ids))
        for ctx in contexts:
            assert lm.next_token_dist(ctx) == want.next_token_dist(ctx), ctx.ids
            assert lm.token_probs(ctx) == want.token_probs(ctx), ctx.ids
            assert lm.greedy_continue(ctx, 12) == want.greedy_continue(ctx, 12), ctx.ids

    def test_huge_order_fits_one_level_per_token_of_the_longest_prompt(self):
        prompts = [tokenize(record.text, MEMO_VOCAB) for record in MEMO_CORPUS]
        lm = fit_ngram_lm(prompts, order=10**9, smoothing=0.1, vocab=MEMO_VOCAB)
        assert len(lm._counts) == 10
        assert (lm.order, lm.context_window) == (10**9, 9)
        want = fit_every_level(prompts, 11, 0.1, MEMO_VOCAB)
        joined = TokenSequence(prompts[0].ids + prompts[1].ids)
        assert lm.greedy_continue(joined, 12) == want.greedy_continue(joined, 12)
        # the walk's memo keys hold no more than the longest context
        assert max(len(tail) for tail in lm._successor) == 9

    @pytest.mark.parametrize("smoothing", [5e-324, 1e-320, 1e308])
    def test_smoothing_floats_cannot_carry_is_refused(self, smoothing):
        # k V overflows (1e308), or k / (k V + total) is subnormal or 0.
        with pytest.raises(ValueError, match=r"smoothing must keep k \* V finite"):
            fit_ngram_lm([seq(0, 1, 2)], order=2, smoothing=smoothing, vocab=MEMO_VOCAB)

    def test_smallest_normal_probability_is_kept(self):
        # k / (k V + 3) is a normal float here, so k is accepted.
        lm = fit_ngram_lm([seq(0, 1, 2)], order=2, smoothing=1e-300, vocab=MEMO_VOCAB)
        assert min(lm.token_probs(seq(2, 2))) >= sys.float_info.min

    def test_shared_lm_gives_same_rows_as_fresh_lms(self):
        corpus = [
            PromptRecord(str(i), text)
            for i, text in enumerate(
                ["a b a c b a b c c a", "b b c a a d", "c a b", "d d a b c a b b"]
            )
        ]

        def fit():
            return fit_lm(corpus, order=3, smoothing=0.1, vocab=MEMO_VOCAB)

        def compressors(lm):
            return [
                IdentityCompressor(),
                SelfInfoCompressor(lm=lm, rho_target=0.5),
                RandomCompressor(rho_target=0.5, seed=3),
                SelfInfoCompressor(lm=lm, rho_target=0.3),
            ]

        prompts = [tokenize(record.text, MEMO_VOCAB) for record in corpus]
        shared = fit()
        shared_rows = [
            rows
            for rows, _ in evaluate(
                compressors(shared), corpus, prompts, shared, 8
            )
        ]
        fresh_rows = []
        for i in range(4):
            lm = fit()
            ((rows, _),) = evaluate([compressors(lm)[i]], corpus, prompts, lm, 8)
            fresh_rows.append(rows)
        assert shared_rows == fresh_rows


class TestCountAnswers:
    """``token_probs`` and the walk's greedy successors are read from the
    count tables; each must equal what the dense reference vector
    (``conftest.dense_probs``) gives, bit for bit. "d" and "<unk>" never
    occur in MEMO_CORPUS, so the contexts below include backed-off and
    wholly unseen ones."""

    ORDERS = [1, 2, 3, 4]
    SMOOTHINGS = [0.1, 0.5, 1e-3]

    @staticmethod
    def sequences(length=5):
        """Every sequence of ``length`` ids over MEMO_VOCAB: its prefixes
        put every context of up to length - 1 ids before every id."""
        return [
            TokenSequence(ids)
            for ids in itertools.product(range(MEMO_VOCAB.size), repeat=length)
        ]

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("smoothing", SMOOTHINGS)
    def test_token_probs_equal_distribution_entries(self, order, smoothing):
        lm = fit_lm(MEMO_CORPUS, order=order, smoothing=smoothing, vocab=MEMO_VOCAB)
        assert lm.token_probs(TokenSequence(())) == []
        for s in self.sequences():
            got = np.array(lm.token_probs(s), dtype=np.float64)
            want = np.array([
                dense_probs(lm.next_token_dist(TokenSequence(s.ids[:i])))[t]
                for i, t in enumerate(s.ids)
            ])
            assert got.tobytes() == want.tobytes(), s.ids

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("smoothing", SMOOTHINGS)
    def test_successors_equal_distribution_argmax(self, order, smoothing):
        lm = fit_lm(MEMO_CORPUS, order=order, smoothing=smoothing, vocab=MEMO_VOCAB)
        for ctx in all_contexts():
            want = int(np.argmax(dense_probs(lm.next_token_dist(ctx))))
            assert lm.greedy_continue(ctx, 1).ids == (want,), ctx.ids
        # every tail of up to context_window ids was answered from counts
        assert len(lm._successor) == sum(
            MEMO_VOCAB.size ** n for n in range(min(lm.context_window, 4) + 1)
        )


class TestClosedFormKL:
    """``kl_divergence`` read from the counts against the dense reference
    (``conftest.dense_kl``, with its 1e-10 floor, which never binds).
    They differ only in rounding: within 1e-12 relative or 1e-15
    absolute. "d" and "<unk>" never occur in MEMO_CORPUS, so contexts
    back off."""

    PROMPTS = ["a", "c a", "d", "a d", "b b c", "d a c b b", "c b a", "<unk> a b"]

    @staticmethod
    def assert_close(got, want):
        assert abs(got - want) <= max(1e-15, 1e-12 * abs(want)), (got, want)

    @pytest.mark.parametrize("order", TestCountAnswers.ORDERS)
    @pytest.mark.parametrize("smoothing", TestCountAnswers.SMOOTHINGS)
    def test_kl_divergence_matches_dense_reference(self, order, smoothing):
        lm = fit_lm(MEMO_CORPUS, order=order, smoothing=smoothing, vocab=MEMO_VOCAB)
        answers = []  # one per answering context of up to three ids
        for ctx in all_contexts(3):
            answer = lm.next_token_dist(ctx)
            if answer not in answers:
                answers.append(answer)
        for p in answers:
            for q in answers:
                got = kl_divergence(p, q)
                if p == q:
                    assert got == 0.0
                self.assert_close(got, dense_kl(p, q))

    @pytest.mark.parametrize("order", [*TestCountAnswers.ORDERS, 12, 10**9])
    @pytest.mark.parametrize("smoothing", TestCountAnswers.SMOOTHINGS)
    @pytest.mark.parametrize("n_gen", [1, 2, 6, 14])
    def test_output_distribution_kl_matches_dense_reference(self, order, smoothing, n_gen):
        # n_gen 1 and 2 are below the window of order 4, 6 above the
        # windows of orders 1-4. Orders 12 and 10**9 pass MEMO_CORPUS's
        # longest prompt, so their window is 9 tokens, which 14 passes.
        lm = fit_lm(MEMO_CORPUS, order=order, smoothing=smoothing, vocab=MEMO_VOCAB)
        prompts = [tokenize(text, MEMO_VOCAB) for text in self.PROMPTS]
        for s0 in prompts:
            ref = lm.greedy_continue(s0, n_gen)
            for st in prompts:
                want = sum(
                    dense_kl(
                        lm.next_token_dist(TokenSequence(st.ids + ref.ids[:i])),
                        lm.next_token_dist(TokenSequence(s0.ids + ref.ids[:i])),
                    )
                    for i in range(len(ref))
                ) / len(ref)
                self.assert_close(output_distribution_kl(lm, s0, st, n_gen), want)

    def test_contexts_with_one_answering_context_give_exactly_zero(self):
        lm = fit_lm(MEMO_CORPUS, order=3, smoothing=0.1, vocab=MEMO_VOCAB)
        # Neither "d" nor "a d" was seen: both back off to the unigram
        # level. In "c d a" the trigram context "d a" is unseen, so "a"
        # answers.
        for text_p, text_q in [("d", "a d"), ("c d a", "a"), ("d", "")]:
            p = lm.next_token_dist(tokenize(text_p, MEMO_VOCAB))
            q = lm.next_token_dist(tokenize(text_q, MEMO_VOCAB))
            assert p == q
            assert kl_divergence(p, q) == 0.0
        # The prompts' tails differ, so position 0 is scored, but "b d"
        # and "a d" both back off to the unigram level; later positions
        # share their tails.
        s0, st = tokenize("b d", MEMO_VOCAB), tokenize("a d", MEMO_VOCAB)
        assert output_distribution_kl(lm, s0, st, 4) == 0.0


class TestOutputDistributionKL:
    def test_identity_context_is_zero(self):
        corpus = [PromptRecord("0", "a b c a")]
        lm = fit_lm(corpus, order=2, smoothing=0.1)
        s0 = tokenize("a b c", lm.vocab)
        assert output_distribution_kl(lm, s0, s0, 4) == 0.0

    def test_unigram_lm_is_context_insensitive(self):
        corpus = [PromptRecord("0", "a b c a b")]
        lm = fit_lm(corpus, order=1, smoothing=0.1)
        s0 = tokenize("a b c", lm.vocab)
        st = tokenize("c", lm.vocab)
        assert output_distribution_kl(lm, s0, st, 4) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n_gen", [1, 2, 6])
    def test_model_without_window_scores_every_position(self, n_gen):
        lm = LengthLM()
        s0, st = seq(2, 2, 2), seq(2, 2)
        ref = lm.greedy_continue(s0, 6)
        assert ref.ids == (2, 0, 2, 0, 2, 0)
        terms = [
            kl_divergence(
                lm.next_token_dist(TokenSequence(st.ids + ref.ids[:i])),
                lm.next_token_dist(TokenSequence(s0.ids + ref.ids[:i])),
            )
            for i in range(len(ref))
        ]
        assert min(terms) > 0.0  # the two contexts differ in parity everywhere
        got = output_distribution_kl(lm, s0, st, n_gen)
        assert got == pytest.approx(np.mean(terms[:n_gen]))

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_gen", [1, 2, 3, 5])
    def test_walks_only_the_reference_it_scores(self, order, n_gen, monkeypatch):
        # min(n_gen, window) positions are scored; the last reads the
        # reference tokens before it.
        lm = fit_lm(MEMO_CORPUS, order=order, smoothing=0.2, vocab=MEMO_VOCAB)
        walks = []
        greedy_continue = lm.greedy_continue

        def recorded(context, n):
            walks.append((context, n))
            return greedy_continue(context, n)

        monkeypatch.setattr(lm, "greedy_continue", recorded)
        s0, st = tokenize("a b a c b", MEMO_VOCAB), tokenize("c b", MEMO_VOCAB)
        output_distribution_kl(lm, s0, st, n_gen)
        scored = min(n_gen, order - 1)
        assert walks == ([(s0, scored - 1)] if scored > 1 else [])
        output_distribution_kl(lm, s0, s0, n_gen)
        assert len(walks) == (1 if scored > 1 else 0)

    def test_huge_counts_score_at_most_the_window(self, monkeypatch):
        # Order 10**9 on MEMO_CORPUS reads a window of 9 tokens: of 10**6
        # positions, only the first 9 can differ, two answers each.
        lm = fit_lm(MEMO_CORPUS, order=10**9, smoothing=0.2, vocab=MEMO_VOCAB)
        calls = []
        next_token_dist = lm.next_token_dist

        def counted(context):
            calls.append(context)
            return next_token_dist(context)

        monkeypatch.setattr(lm, "next_token_dist", counted)
        s0, st = tokenize("d a c b b", MEMO_VOCAB), tokenize("b b c a a", MEMO_VOCAB)
        got = output_distribution_kl(lm, s0, st, 10**6)
        assert 0 < len(calls) <= 2 * lm.context_window
        assert got > 0.0
        assert got == pytest.approx(output_distribution_kl(lm, s0, st, 9) * 9 / 10**6)

    @pytest.mark.parametrize("n_gen", [0, -1])
    def test_empty_reference_errors(self, n_gen):
        lm = constant_ngram([1, 1])
        with pytest.raises(ValueError, match="reference"):
            output_distribution_kl(lm, seq(0), seq(1), n_gen)

    def test_position_by_position_oracle(self):
        corpus = [PromptRecord("0", "a b a c b a b c c a")]
        lm = fit_lm(corpus, order=2, smoothing=0.2)
        s0 = tokenize("a b a c b", lm.vocab)
        st = tokenize("a c b", lm.vocab)
        ref = lm.greedy_continue(s0, 10)
        expected = np.mean(
            [
                kl_divergence(
                    lm.next_token_dist(TokenSequence(st.ids + ref.ids[:i])),
                    lm.next_token_dist(TokenSequence(s0.ids + ref.ids[:i])),
                )
                for i in range(10)
            ]
        )
        assert output_distribution_kl(lm, s0, st, 10) == pytest.approx(float(expected))
        assert output_distribution_kl(lm, s0, st, 10) >= 0.0

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_context_window_skips_only_zero_terms(self, order):
        corpus = [PromptRecord("0", "a b a c b a b c c a d b a d c")]
        lm = fit_lm(corpus, order=order, smoothing=0.2)
        assert lm.context_window == order - 1
        s0 = tokenize("a b a c b d", lm.vocab)
        st = tokenize("a c b a", lm.vocab)
        ref = lm.greedy_continue(s0, 6)
        all_positions = np.mean(
            [
                kl_divergence(
                    lm.next_token_dist(TokenSequence(st.ids + ref.ids[:i])),
                    lm.next_token_dist(TokenSequence(s0.ids + ref.ids[:i])),
                )
                for i in range(len(ref))
            ]
        )
        got = output_distribution_kl(lm, s0, st, len(ref))
        assert abs(got - all_positions) <= 1e-12

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "s0_text,st_text",
        [("c a", "b a"), ("a b a c b", "c b"), ("d a b", "a b"), ("b", "a")],
    )
    def test_shared_tail_skip_matches_all_positions(self, order, s0_text, st_text):
        lm = fit_lm(MEMO_CORPUS, order=order, smoothing=0.2, vocab=MEMO_VOCAB)
        s0 = tokenize(s0_text, MEMO_VOCAB)
        st = tokenize(st_text, MEMO_VOCAB)
        ref = lm.greedy_continue(s0, 5)
        all_positions = np.mean(
            [
                kl_divergence(
                    lm.next_token_dist(TokenSequence(st.ids + ref.ids[:i])),
                    lm.next_token_dist(TokenSequence(s0.ids + ref.ids[:i])),
                )
                for i in range(len(ref))
            ]
        )
        got = output_distribution_kl(lm, s0, st, len(ref))
        assert abs(got - all_positions) <= 1e-12


def _setup_corpus(kind, rng):
    """(records, vocabulary cap) of one kind of corpus for the set-up
    comparison: synthetic with filler masks, read back from JSONL; Zipf
    over 600 words under a 128-word cap, so that ``<unk>`` occurs; two
    words in long runs, so that ids repeat; or 1-token prompts."""
    if kind == "synthetic":
        return make_synthetic_corpus(seed=int(rng.integers(1000)), n_prompts=40,
                                     filler_fraction=0.5), 512
    if kind == "zipf":
        weights = 1.0 / np.arange(1, 601) ** 1.1
        draws = [rng.choice(600, size=int(rng.integers(16, 49)), p=weights / weights.sum())
                 for _ in range(200)]
        texts = [" ".join(f"z{int(w)}" for w in d) for d in draws]
        return [PromptRecord(f"z{i}", t) for i, t in enumerate(texts)], 128
    if kind == "repeated":
        texts = [" ".join(rng.choice(["a", "a", "a", "b"], size=int(n)))
                 for n in rng.integers(1, 31, size=30)]
        return [PromptRecord(f"r{i}", t) for i, t in enumerate(texts + ["a " * 40])], 512
    words = ["x", "y", "z", "w", "v"]
    return [PromptRecord(f"o{i}", words[int(w)])
            for i, w in enumerate(rng.integers(0, 5, size=25))], 512


class TestCorpusSetUpMatchesReference:
    """Corpus set-up gives what the per-token loops in ``conftest`` give:
    the same ids, vocabulary, IDF table and n-gram count tables, with the
    same key order at every dict level, as ``kl_divergence`` sums in that
    order."""

    @pytest.mark.parametrize("kind", ["synthetic", "zipf", "repeated", "one-token"])
    def test_every_table_equals_the_reference_in_order(self, tmp_path, kind):
        rng = np.random.default_rng(29)
        corpus, cap = _setup_corpus(kind, rng)
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus
        vocab = build_vocabulary(corpus, cap)
        assert vocab == reference_vocabulary(corpus, cap)
        prompts = tokenize_corpus(corpus, vocab, max_len=sys.maxsize)
        assert prompts == [reference_tokenize(r.text, vocab) for r in corpus]
        if kind == "zipf":
            assert any(vocab.unknown_id in p.ids for p in prompts)
        idf = compute_idf_table(prompts)
        assert list(idf.items()) == list(reference_idf(prompts).items())
        longest = max(map(len, prompts))
        for order in (1, 2, 3, 4, 5, longest + 2):
            counts = fit_ngram_lm(prompts, order, 0.1, vocab)._counts
            want = reference_counts(prompts, order)
            assert counts == want, order
            assert [list(level) for level in counts] == [list(level) for level in want]
            assert [[list(cont) for cont in level.values()] for level in counts] == [
                [list(cont) for cont in level.values()] for level in want]
