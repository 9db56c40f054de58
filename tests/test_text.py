"""Tokenizer, vocabulary, corpus IO, and synthetic corpus tests."""

import json
from collections import Counter

import numpy as np
import pytest

from conftest import reference_filler_mask, reference_join
from promptpress.text import (
    PromptRecord,
    Vocabulary,
    build_vocabulary,
    compute_idf_table,
    load_corpus,
    make_synthetic_corpus,
    save_corpus,
    split_surfaces,
    tokenize,
    tokenize_corpus,
)


def _vocab(*surfaces):
    return Vocabulary(surfaces=tuple(surfaces) + ("<unk>",), unknown_id=len(surfaces))


class TestVocabulary:
    def test_frequency_order_forced(self):
        vocab = build_vocabulary([PromptRecord("0", "a b a")], max_size=3)
        assert set(vocab.surfaces) == {"a", "b", "<unk>"}
        assert vocab.surfaces[0] == "a"  # most frequent first

    def test_single_word(self):
        vocab = build_vocabulary([PromptRecord("0", "x")], max_size=2)
        assert set(vocab.surfaces) == {"x", "<unk>"}

    def test_the_unknown_word_is_never_ranked(self):
        # "<unk>", the most frequent word, takes no id of its own: it
        # tokenizes to the unknown id, whose surface it is.
        vocab = build_vocabulary([PromptRecord("0", "<unk> a <unk> b <unk>")], max_size=3)
        assert vocab.surfaces == ("a", "b", "<unk>")
        assert tokenize("b <unk> c", vocab).ids == (1, 2, 2)
        assert reference_join(tokenize("a <unk>", vocab), vocab) == "a <unk>"

    def test_empty_corpus_error(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocabulary([], max_size=8)

    def test_tie_break_lexicographic(self):
        vocab = build_vocabulary([PromptRecord("0", "b a c a b c")], max_size=3)
        # all counts equal: lexicographic wins
        assert vocab.surfaces[:2] == ("a", "b")

    def test_synthetic_coverage(self):
        corpus = make_synthetic_corpus(seed=11, n_prompts=100, filler_fraction=0.5)
        vocab = build_vocabulary(corpus, max_size=512)
        assert vocab.size <= 512
        counts = Counter()
        for record in corpus:
            counts.update(split_surfaces(record.text))
        covered = sum(n for surface, n in counts.items() if surface in vocab.surfaces)
        assert covered / sum(counts.values()) >= 0.95

    def test_inverse_maps(self):
        vocab = _vocab("a", "b", "c")
        for i, surface in enumerate(vocab.surfaces):
            assert tokenize(surface, vocab).ids == (i,)


class TestTokenizeDetokenize:
    def test_basic(self):
        vocab = _vocab("a", "b")
        assert tokenize("a b", vocab).ids == (0, 1)

    def test_unknown_maps_to_unknown_id(self):
        vocab = _vocab("a")
        assert tokenize("a z", vocab).ids == (0, vocab.unknown_id)

    def test_empty_text(self):
        assert len(tokenize("", _vocab("a"))) == 0

    def test_round_trip_on_corpus_sample(self):
        corpus = make_synthetic_corpus(seed=3, n_prompts=5, filler_fraction=0.4)
        vocab = build_vocabulary(corpus, max_size=512)
        for record in corpus:
            text = reference_join(tokenize(record.text, vocab), vocab)
            assert text == " ".join(record.text.split())

    def test_round_trip_fuzz(self):
        rng = np.random.default_rng(7)
        words = ["alpha", "beta-x", "42", "a,b", "zz!"]
        vocab = _vocab(*words)
        separators = [" ", "  ", "\t", "\n", " \t "]
        for _ in range(200):
            n = int(rng.integers(1, 50))
            parts = []
            for i in range(n):
                parts.append(words[int(rng.integers(len(words)))])
                parts.append(separators[int(rng.integers(len(separators)))])
            text = "".join(parts)
            assert reference_join(tokenize(text, vocab), vocab) == " ".join(text.split())

    def test_determinism(self):
        vocab = _vocab("a", "b")
        assert tokenize("a b a", vocab) == tokenize("a b a", vocab)


class TestCorpusIO:
    def test_load_three_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "1", "text": "a b"}\n'
            '{"id": "2", "text": "c", "reference_output": "c"}\n'
            '{"text": "d e f"}\n'
        )
        records = load_corpus(path)
        assert len(records) == 3
        assert records[0].reference_output is None  # absent, not defaulted
        assert records[1].reference_output == "c"
        assert records[2].id.startswith("rec-")

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"text": "ok"}\n{not json}\n{"text": "ok"}\n')
        with pytest.raises(ValueError, match="line 2"):
            load_corpus(path)

    def test_missing_text_field(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "1"}\n')
        with pytest.raises(ValueError, match="line 1"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "line",
        [
            '{"text": null}',
            '{"text": 5}',
            '{"text": "a b", "reference_output": 5}',
            '{"text": "a b", "reference_output": ["a"]}',
            '{"text": "a b", "filler_mask": ["0", "0"]}',
            '{"text": "a b", "filler_mask": [0.0, 1]}',
            '{"text": "a b", "filler_mask": [2, 0]}',
            '{"text": "a b", "filler_mask": "01"}',
            '{"id": null, "text": "a b"}',
            '{"id": 5, "text": "a b"}',
        ],
    )
    def test_ill_typed_field_names_line_number(self, tmp_path, line):
        path = tmp_path / "c.jsonl"
        path.write_text('{"text": "ok"}\n' + line + "\n")
        with pytest.raises(ValueError, match="malformed corpus line 2"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "lines, message",
        [
            pytest.param(['{"id": "5", "text": "a"}', '{"text": "b"}',
                          '{"id": "5", "text": "c"}'],
                         "line 3: duplicate id '5' (first on line 1)", id="explicit"),
            # A defaulted id is taken as well: line 2 defaults to rec-00002.
            pytest.param(['{"id": "a", "text": "a"}', '{"text": "b"}',
                          '{"id": "rec-00002", "text": "c"}'],
                         "line 3: duplicate id 'rec-00002' (first on line 2)",
                         id="defaulted-first"),
            pytest.param(['{"id": "rec-00002", "text": "a"}', '{"text": "b"}'],
                         "line 2: duplicate id 'rec-00002' (first on line 1)",
                         id="defaulted-second"),
        ],
    )
    def test_duplicate_id_names_both_lines(self, tmp_path, lines, message):
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            load_corpus(path)
        assert str(info.value) == f"malformed corpus {message}"

    def test_int_id_is_not_read_as_its_string(self, tmp_path):
        # 5 and "5" would both become "5"; the int is rejected instead.
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "5", "text": "a"}\n{"id": 5, "text": "b"}\n')
        with pytest.raises(ValueError, match="line 2: 'id' is not a string"):
            load_corpus(path)

    def test_mask_of_booleans_and_null_reference_load(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"text": "a b c", "filler_mask": [true, 0, false], "reference_output": null}\n'
        )
        (record,) = load_corpus(path)
        assert record.filler_mask == (True, False, False)
        assert record.reference_output is None

    @pytest.mark.parametrize(
        "mask",
        [["0"], [0.0], [2], [[1]], [None], [True, 0], [1, 0, 1], [1, 0, 1, 1], "01",
         {"0": 1}],
        ids=repr,
    )
    def test_mask_accepted_or_refused_as_the_reference_decides(self, tmp_path, mask):
        text = " ".join("abc"[: len(mask)] if isinstance(mask, list) else "ab")
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"text": text, "filler_mask": mask}) + "\n")
        try:
            want = reference_filler_mask(mask, len(text.split()), 1)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                load_corpus(path)
            assert str(info.value) == str(exc)
        else:
            (record,) = load_corpus(path)
            assert record.filler_mask == want

    def test_filler_mask_length_validated(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"text": "a b c", "filler_mask": [1, 0]}\n')
        with pytest.raises(ValueError, match="line 1"):
            load_corpus(path)

    def test_order_preserved_2048(self, tmp_path):
        path = tmp_path / "big.jsonl"
        with open(path, "w") as fh:
            for i in range(2048):
                fh.write(json.dumps({"id": str(i), "text": f"tok{i}"}) + "\n")
        records = load_corpus(path)
        assert len(records) == 2048
        for i in (0, 1, 511, 1024, 2047):
            assert records[i].id == str(i)
            assert records[i].text == f"tok{i}"

    def test_save_load_round_trip(self, tmp_path):
        records = make_synthetic_corpus(seed=5, n_prompts=10, filler_fraction=0.3)
        path = tmp_path / "c.jsonl"
        save_corpus(records, path)
        assert load_corpus(path) == records


class TestSyntheticCorpus:
    def test_seed_determinism(self, tmp_path):
        a = make_synthetic_corpus(seed=7, n_prompts=20, filler_fraction=0.5)
        b = make_synthetic_corpus(seed=7, n_prompts=20, filler_fraction=0.5)
        assert a == b
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(a, pa)
        save_corpus(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_zero_filler(self):
        for record in make_synthetic_corpus(seed=1, n_prompts=10, filler_fraction=0.0):
            assert not any(record.filler_mask)

    def test_filler_share(self):
        corpus = make_synthetic_corpus(seed=2, n_prompts=100, filler_fraction=0.5)
        filler = sum(sum(r.filler_mask) for r in corpus)
        total = sum(len(r.filler_mask) for r in corpus)
        assert abs(filler / total - 0.5) <= 0.05

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            make_synthetic_corpus(seed=0, n_prompts=1, filler_fraction=1.5)
        with pytest.raises(ValueError):
            make_synthetic_corpus(seed=0, n_prompts=1, filler_fraction=-0.1)

    def test_mask_matches_token_length(self):
        for record in make_synthetic_corpus(seed=4, n_prompts=30, filler_fraction=0.7):
            assert len(record.filler_mask) == len(split_surfaces(record.text))

    def test_reference_output_is_key_subsequence(self):
        for record in make_synthetic_corpus(seed=9, n_prompts=10, filler_fraction=0.5):
            words = split_surfaces(record.text)
            keys = [w for w, f in zip(words, record.filler_mask) if not f]
            assert record.reference_output == " ".join(keys)


class TestIdfTable:
    def test_everywhere_token_weighs_zero(self):
        corpus = [PromptRecord(str(i), f"the key{i}") for i in range(4)]
        vocab = build_vocabulary(corpus, max_size=16)
        table = compute_idf_table([tokenize(r.text, vocab) for r in corpus])
        the, key1 = tokenize("the key1", vocab).ids
        assert table[the] == pytest.approx(0.0)
        assert table[key1] == pytest.approx(np.log(4.0))


class TestTokenizeCorpus:
    def test_tokenizes_each_record_in_order(self):
        corpus = [PromptRecord("a", "x y"), PromptRecord("b", "y z x")]
        vocab = _vocab("x", "y")
        assert tokenize_corpus(corpus, vocab, max_len=3) == [
            tokenize("x y", vocab),
            tokenize("y z x", vocab),
        ]

    def test_overlong_prompt_names_its_record(self):
        corpus = [PromptRecord("ok", "x"), PromptRecord("too-long", "x " * 35)]
        with pytest.raises(ValueError, match=r"'too-long' has 35 tokens.*max_len 32"):
            tokenize_corpus(corpus, _vocab("x"), max_len=32)

    def test_empty_prompt_names_its_record(self):
        corpus = [PromptRecord("blank", "  \n ")]
        with pytest.raises(ValueError, match="'blank' tokenizes to nothing"):
            tokenize_corpus(corpus, _vocab("x"), max_len=32)
