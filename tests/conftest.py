"""Shared builders for small deterministic training worlds, references
that corpus set-up and the proxy are compared against, and checkpoint
edits for the load-validation tests."""

import json
import math
from collections import Counter

import numpy as np

from promptpress.encoder import EncoderConfig
from promptpress.reward import Scorers
from promptpress.scoring import IdfRetentionScorer, NgramLM, fit_ngram_lm
from promptpress.text import (
    UNKNOWN_SURFACE,
    PromptRecord,
    TokenSequence,
    Vocabulary,
    build_vocabulary,
    compute_idf_table,
    tokenize,
    tokenize_corpus,
)
from promptpress.trainer import CHECKPOINT_SCHEMA_VERSION


def tiny_corpus(n_prompts=8, seed=0, min_len=6, max_len=10):
    """Small word-soup corpus over ten surface forms."""
    words = [f"w{i}" for i in range(10)]
    rng = np.random.default_rng(seed)
    records = [PromptRecord("p-all", " ".join(words))]  # pins the vocabulary
    for i in range(n_prompts - 1):
        n = int(rng.integers(min_len, max_len + 1))
        text = " ".join(words[int(j)] for j in rng.integers(0, len(words), size=n))
        records.append(PromptRecord(f"p{i}", text))
    return records


def fit_lm(corpus, order, smoothing, vocab=None, max_vocab=512):
    """An n-gram proxy fit on ``corpus`` records, over ``vocab`` or, when
    none is given, a vocabulary of at most ``max_vocab`` built from them."""
    if vocab is None:
        vocab = build_vocabulary(corpus, max_vocab)
    prompts = [tokenize(record.text, vocab) for record in corpus]
    return fit_ngram_lm(prompts, order=order, smoothing=smoothing, vocab=vocab)


def reference_counts(prompts, order):
    """The n-gram count tables as the proxy was once fit, token by token:
    each token counted after each of its contexts, every level at once,
    a context's dict fetched or made by ``setdefault``; min(``order``,
    the longest prompt's length) levels, at least one."""
    levels = max(1, min(order, max(len(seq) for seq in prompts)))
    counts = [{} for _ in range(levels)]
    for seq in prompts:
        ids = seq.ids
        for i, tid in enumerate(ids):
            for o in range(1, min(i + 1, levels) + 1):
                cont = counts[o - 1].setdefault(ids[i - (o - 1): i], {})
                cont[tid] = cont.get(tid, 0) + 1
    return counts


def fit_every_level(prompts, order, smoothing, vocab):
    """Reference n-gram fit with one count level per order, as the proxy
    was once fit: the levels past the longest prompt are held, empty."""
    counts = reference_counts(prompts, order)
    counts += [{} for _ in range(order - len(counts))]
    return NgramLM(order=order, smoothing=smoothing, vocab=vocab, counts=counts)


def reference_tokenize(text, vocab):
    """Text -> ids as once tokenized, one dict lookup per word."""
    index = {surface: i for i, surface in enumerate(vocab.surfaces)}
    return TokenSequence(tuple(index.get(s, vocab.unknown_id) for s in text.split()))


def reference_join(seq, vocab):
    """Ids -> text: each id's surface, joined by single spaces."""
    return " ".join(vocab.surfaces[i] for i in seq.ids)


def reference_vocabulary(corpus, max_size):
    """The vocabulary as once built: surface counts updated record by
    record, then the ``max_size - 1`` most frequent, ties by surface."""
    counts = Counter()
    for record in corpus:
        counts.update(record.text.split())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    surfaces = tuple(s for s, _ in ranked[: max_size - 1]) + (UNKNOWN_SURFACE,)
    return Vocabulary(surfaces=surfaces, unknown_id=len(surfaces) - 1)


def reference_idf(prompts):
    """The IDF table as once computed: document counts updated prompt by
    prompt with each prompt's set of ids."""
    df = Counter()
    for seq in prompts:
        df.update(set(seq.ids))
    return {tid: math.log(len(prompts) / n) for tid, n in df.items()}


def reference_filler_mask(mask, n_words, lineno):
    """A corpus line's ``filler_mask`` as ``load_corpus`` once checked it,
    entry by entry, and its error when refused."""
    if not isinstance(mask, list) or not all(
        type(v) in (bool, int) and v in (0, 1) for v in mask
    ):
        raise ValueError(f"malformed corpus line {lineno}: 'filler_mask' is not "
                         "a list of 0/1/true/false")
    if len(mask) != n_words:
        raise ValueError(f"malformed corpus line {lineno}: filler_mask length "
                         f"{len(mask)} != token length")
    return tuple(bool(v) for v in mask)


def dense_probs(dist):
    """The V-vector of a count-table answer, built as the proxy once built
    it: (k + c) / (k V + total) per id, in the same float operations, so
    its entries equal the model's count answers bit for bit."""
    probs = np.full(dist.size, dist.smoothing, dtype=np.float64)
    for tid, n in dist.counts.items():
        probs[tid] += n
    probs /= dist.smoothing * dist.size + dist.total
    return probs


def dense_kl(p, q):
    """Reference KL(P || Q) in nats over the dense vectors, as the
    divergence was once computed: Q floored at 1e-10 and renormalized."""
    pv = dense_probs(p)
    qv = np.maximum(dense_probs(q), 1e-10)
    qv = qv / qv.sum()
    mask = pv > 0
    return float(np.sum(pv[mask] * np.log(pv[mask] / qv[mask])))


def tiny_world(n_prompts=8, seed=0, n_gen=4, d_model=8):
    """(prompts, vocab, scorers, encoder_cfg) sized for fast unit tests;
    ``prompts`` are the token sequences of ``tiny_corpus``."""
    corpus = tiny_corpus(n_prompts=n_prompts, seed=seed)
    vocab = build_vocabulary(corpus, max_size=64)
    encoder_cfg = EncoderConfig(
        vocab_size=vocab.size, d_model=d_model, n_heads=2, n_layers=2,
        d_ff=2 * d_model, max_len=32,
    )
    prompts = tokenize_corpus(corpus, vocab, encoder_cfg.max_len)
    lm = fit_ngram_lm(prompts, order=2, smoothing=0.1, vocab=vocab)
    scorers = Scorers(
        retention=IdfRetentionScorer(compute_idf_table(prompts)),
        lm=lm,
        n_gen=n_gen,
    )
    return prompts, vocab, scorers, encoder_cfg


def rewrite_checkpoint(path, edit):
    """Apply ``edit`` to a checkpoint's member dict (file order kept) and save."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def edit_meta(change):
    """A ``rewrite_checkpoint`` edit that applies ``change`` to the decoded
    ``__meta__`` dict."""

    def edit(arrays):
        meta = json.loads(arrays["__meta__"].tobytes().decode())
        change(meta)
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)

    return edit


def bump_schema_version(arrays):
    """A ``rewrite_checkpoint`` edit: the next, unsupported schema version."""
    meta = json.loads(arrays["__meta__"].tobytes().decode())
    meta["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)


def cut_vocabulary(meta):
    """An ``edit_meta`` change: the stored vocabulary loses its last word,
    and the unknown surface keeps the last id."""
    meta["vocab"]["surfaces"].pop(-2)
    meta["vocab"]["unknown_id"] -= 1


def extend_vocabulary(meta):
    """An ``edit_meta`` change: the stored vocabulary gains a word past
    the encoder's ids."""
    meta["vocab"]["surfaces"].append("word-past-the-encoder")
