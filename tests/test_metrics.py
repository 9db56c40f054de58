"""Metric tests: LCS against a dynamic-programming oracle, ROUGE-L values,
and ROUGE-N against a brute-force clipped n-gram count."""

import numpy as np
import pytest

from promptpress.metrics import lcs_length, rouge_l, rouge_n


def dp_lcs(a, b):
    """Textbook (len(a)+1) x (len(b)+1) LCS table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a, start=1):
        for j, y in enumerate(b, start=1):
            if x == y:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[-1][-1]


class TestLcsLength:
    def test_empty_sides(self):
        assert lcs_length([], []) == 0
        assert lcs_length([], [1, 2]) == 0
        assert lcs_length([1, 2], []) == 0

    def test_hand_values(self):
        assert lcs_length("ABCBDAB", "BDCABA") == 4
        assert lcs_length([1, 2, 3], [1, 2, 3]) == 3
        assert lcs_length([1, 2, 3], [4, 5]) == 0
        assert lcs_length([7], [7, 7, 7]) == 1

    def test_matches_dp_oracle_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            alphabet = int(rng.integers(1, 7))
            a = [int(x) for x in rng.integers(0, alphabet, size=int(rng.integers(0, 201)))]
            b = [int(x) for x in rng.integers(0, alphabet, size=int(rng.integers(0, 201)))]
            assert lcs_length(a, b) == dp_lcs(a, b), (alphabet, a, b)

    @pytest.mark.parametrize("n", [63, 64, 65, 130, 200])
    def test_masks_wider_than_a_machine_word(self, n):
        rng = np.random.default_rng(n)
        a = [int(x) for x in rng.integers(0, 3, size=n)]
        b = [int(x) for x in rng.integers(0, 3, size=n)]
        assert lcs_length(a, b) == dp_lcs(a, b)
        assert lcs_length(a, a) == n

    def test_symmetric(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = [int(x) for x in rng.integers(0, 4, size=int(rng.integers(0, 40)))]
            b = [int(x) for x in rng.integers(0, 4, size=int(rng.integers(0, 40)))]
            assert lcs_length(a, b) == lcs_length(b, a)


class TestRougeL:
    def test_hand_value(self):
        # LCS of (1 2 3 4) and (1 3 4 5 6) is 3: P = 3/4, R = 3/5.
        p, r, f = rouge_l((1, 2, 3, 4), (1, 3, 4, 5, 6))
        assert (p, r) == (0.75, 0.6)
        assert f == pytest.approx(2 * 0.75 * 0.6 / 1.35)

    def test_degenerate_is_zero(self):
        assert rouge_l((), (1, 2)) == (0.0, 0.0, 0.0)


def brute_rouge_n(cand, ref, n):
    """Clipped n-gram overlap by counting each distinct n-gram's
    occurrences in both sequences by hand."""
    def grams(seq):
        return [tuple(seq[i:i + n]) for i in range(len(seq) - n + 1)]

    c, r = grams(cand), grams(ref)
    overlap = sum(min(c.count(g), r.count(g)) for g in set(c))
    p = overlap / len(c) if c else 0.0
    rec = overlap / len(r) if r else 0.0
    return p, rec, (2.0 * p * rec / (p + rec) if p + rec > 0 else 0.0)


class TestRougeN:
    def test_hand_values(self):
        # Unigrams: 2 of (1 1 2) clip against (1 2 3 3): P = 2/3, R = 2/4.
        p, r, f = rouge_n((1, 1, 2), (1, 2, 3, 3), 1)
        assert (p, r) == (2 / 3, 0.5)
        assert f == pytest.approx(2 * (2 / 3) * 0.5 / (2 / 3 + 0.5))
        # Bigrams (1 2) and (2 3) of three in the candidate, of two in the
        # reference.
        assert rouge_n((1, 2, 3, 1), (1, 2, 3), 2)[:2] == (2 / 3, 1.0)
        assert rouge_n((1, 2), (1, 2), 3) == (0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            rouge_n((1,), (1,), 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_brute_force_on_random_pairs(self, n):
        # Unigram F is also the evaluation's token F1 column.
        rng = np.random.default_rng(13 + n)
        pairs = [([], []), ([], [1]), ([2, 2], [])]
        for _ in range(400):
            alphabet = int(rng.integers(1, 8))
            pairs.append(tuple(
                tuple(int(x) for x in rng.integers(0, alphabet, size=int(rng.integers(0, 25))))
                for _ in range(2)
            ))
        for cand, ref in pairs:
            assert rouge_n(cand, ref, n) == brute_rouge_n(cand, ref, n), (cand, ref)
            assert rouge_n(list(cand), list(ref), n) == rouge_n(cand, ref, n)
