"""Shared builders for small deterministic training worlds, and checkpoint
edits for the load-validation tests."""

import json

import numpy as np

from promptpress.encoder import EncoderConfig
from promptpress.reward import Scorers
from promptpress.scoring import IdfRetentionScorer, NgramLM, fit_ngram_lm
from promptpress.text import (
    PromptRecord,
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


def fit_every_level(prompts, order, smoothing, vocab):
    """Reference n-gram fit with one count level per order, as the proxy
    was once fit: every token counted after each of its contexts, and
    the levels past the longest prompt left empty."""
    counts = [{} for _ in range(order)]
    for seq in prompts:
        ids = seq.ids
        for i, tid in enumerate(ids):
            for o in range(1, order + 1):
                if i < o - 1:
                    continue
                cont = counts[o - 1].setdefault(ids[i - (o - 1): i], {})
                cont[tid] = cont.get(tid, 0) + 1
    return NgramLM(order=order, smoothing=smoothing, vocab=vocab, counts=counts)


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
