"""Actor tests: forward math, sampling, greedy selection, applying labels,
and gradients."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gradcheck import (
    REL_TOL,
    action_log_prob,
    encoder_gradients,
    max_relative_error,
    packed_log_prob_and_grad,
    reference_backward,
)
from promptpress.encoder import LN_EPS, EncoderConfig, TinyTransformerEncoder
from promptpress.policy import (
    Actor,
    ActorGradient,
    _label_log_probs,
    actor_shapes,
    actor_size,
    apply_action,
    greedy_actions,
    packed_action_log_probs,
    policy_forward,
    sample_actions,
)
from promptpress.text import TokenSequence

TINY = EncoderConfig(vocab_size=11, d_model=8, n_heads=2, n_layers=2, d_ff=16, max_len=8)


def make_passthrough_actor(seed=0):
    """Actor whose encoder reduces to layer-normed embeddings.

    Zeroing the attention value/output projections and the second
    feed-forward matrix turns both transformer layers into identity
    residual blocks, so features are LN(tok_emb + pos_emb) exactly.
    """
    actor = Actor.build(TINY, seed=seed)
    for i in range(TINY.n_layers):
        for name in ("wv", "wo", "w2"):
            actor.encoder.params[f"l{i}.{name}"][...] = 0.0
    return actor


class TestPolicyForward:
    def test_zero_head_gives_half(self):
        actor = Actor.build(TINY, seed=1)
        (out,) = policy_forward(actor, [TokenSequence((1, 2, 3))])
        np.testing.assert_allclose(out, 0.5)

    def test_probabilities_normalize(self):
        actor = Actor.build(TINY, seed=2)
        rng = np.random.default_rng(0)
        actor.head_w[...] = rng.normal(0, 1.0, size=actor.head_w.shape)
        (out,) = policy_forward(actor, [TokenSequence((4, 5, 6, 7))])
        # Each token's log-probabilities of drop and keep exponentiate to 1.
        drop = _label_log_probs(out, np.zeros(out.size, dtype=int))
        keep = _label_log_probs(out, np.ones(out.size, dtype=int))
        np.testing.assert_allclose(np.exp(drop) + np.exp(keep), 1.0, atol=1e-9)
        assert np.all(out > 0) and np.all(out < 1)

    def test_hand_computed_probabilities(self):
        actor = make_passthrough_actor(seed=3)
        rng = np.random.default_rng(9)
        actor.head_w[...] = rng.normal(0, 0.8, size=actor.head_w.shape)
        actor.head_b[...] = rng.normal(0, 0.2, size=actor.head_b.shape)
        ids = (2, 7, 2)
        (out,) = policy_forward(actor, [TokenSequence(ids)])

        # independent arithmetic: embeddings -> layer norm -> head -> softmax
        p = actor.encoder.params
        x = p["tok_emb"][list(ids)] + p["pos_emb"][: len(ids)]
        mu = x.mean(axis=1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
        h = p["lnf_g"] * (x - mu) / np.sqrt(var + LN_EPS) + p["lnf_b"]
        logits = h @ actor.head_w + actor.head_b
        e = np.exp(logits)
        expected = e[:, 1] / e.sum(axis=1)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_empty_state_errors(self):
        actor = Actor.build(TINY, seed=1)
        with pytest.raises(ValueError):
            policy_forward(actor, [TokenSequence(())])

    def test_clone_matches_bitwise(self):
        actor = Actor.build(TINY, seed=4)
        state = TokenSequence((1, 2, 3, 4))
        (a,) = policy_forward(actor, [state])
        (b,) = policy_forward(Actor(TINY, actor.flat.copy()), [state])
        assert a.tobytes() == b.tobytes()


class TestBatchedPolicyForward:
    """Many states (current prompts) in one call: packed encoder passes of
    at most max_len tokens, each output bitwise the one-state call's."""

    CFG = EncoderConfig(vocab_size=100)  # the CLI's model defaults, max_len 256
    LENGTHS = (1, 2, 16, 48, 1, 30, 128, 256, 200, 56, 100, 157, 2, 1, 37, 45)
    # 200 + 56 fills max_len exactly; 100 + 157 is a token over.
    PASSES = [[1], [2, 16, 48], [1], [30, 128], [256], [200, 56], [100],
              [157, 2], [1], [37, 45]]

    @pytest.fixture(scope="class")
    def actor(self):
        actor = Actor.build(self.CFG, seed=6)
        rng = np.random.default_rng(7)
        for value in actor.encoder.params.values():
            value += rng.normal(0.0, 0.1, size=value.shape)
        actor.head_w[...] = rng.normal(0.0, 1.0, size=actor.head_w.shape)
        actor.head_b[...] = rng.normal(0.0, 1.0, size=actor.head_b.shape)
        return actor

    def _states(self):
        rng = np.random.default_rng(8)
        return [
            TokenSequence(tuple(int(t) for t in rng.integers(0, 100, n)))
            for n in self.LENGTHS
        ]

    @pytest.mark.parametrize("workers", [0, 1, 3])
    def test_outputs_equal_one_state_calls_bitwise(self, actor, monkeypatch, workers):
        states = self._states()
        alone = [policy_forward(actor, [state])[0] for state in states]
        passes = []
        real = TinyTransformerEncoder.encode

        def recording(self, ids, lengths=None):
            passes.append(list(lengths))
            return real(self, ids, lengths)

        monkeypatch.setattr(TinyTransformerEncoder, "encode", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(max(workers, 1)) as pool:
                batched = policy_forward(actor, states, pool if workers else None)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(passes) == sorted(self.PASSES)
        if not workers:
            assert passes == self.PASSES
        assert len(batched) == len(states)
        for state, a, b in zip(states, alone, batched):
            assert b.shape == (len(state),)
            assert a.tobytes() == b.tobytes()
        # The head makes keep probabilities vary, not all 0.5.
        assert np.concatenate(batched).std() > 0.1

    @pytest.mark.parametrize("workers", [0, 3])
    def test_a_repeated_state_is_encoded_once(self, actor, monkeypatch, workers):
        states = self._states()[:6]
        # States 0, 2 and 4 (0 and 4 of one token) repeat as the same
        # object, state 3 as equal ids in new objects.
        twins = [TokenSequence(list(states[3].ids)) for _ in range(2)]
        assert twins[0].ids is not states[3].ids
        batch = [states[0], states[3], states[0], twins[0], states[4], states[2],
                 states[4], twins[1], states[2], states[5]]
        alone = [policy_forward(actor, [state])[0] for state in batch]
        encoded = []
        real = TinyTransformerEncoder.encode

        def recording(self, ids, lengths):
            ends = np.cumsum(lengths)
            encoded.extend(tuple(ids[e - n:e]) for n, e in zip(lengths, ends))
            return real(self, ids, lengths)

        monkeypatch.setattr(TinyTransformerEncoder, "encode", recording)
        with ThreadPoolExecutor(max(workers, 1)) as pool:
            batched = policy_forward(actor, batch, pool if workers else None)
        assert sorted(encoded) == sorted({state.ids for state in batch})
        for a, b in zip(alone, batched):
            assert a.tobytes() == b.tobytes()
        # No two outputs share storage: writing one leaves its repeats be.
        for j, k in ((0, 2), (1, 3), (1, 7), (4, 6), (5, 8)):
            before = batched[k].copy()
            batched[j][...] = -1.0
            assert batched[k].tobytes() == before.tobytes()
            assert not np.shares_memory(batched[j], batched[k])

    def test_no_states_give_no_outputs(self, actor):
        assert policy_forward(actor, []) == []

    def test_an_empty_state_among_others_errors(self, actor):
        with pytest.raises(ValueError, match="empty state"):
            policy_forward(actor, [TokenSequence((1, 2)), TokenSequence(())])


class TestSampleActions:
    def test_determinism(self):
        out = np.array([0.3, 0.7, 0.5, 0.9])
        a1, lp1 = sample_actions(out, rng_seed=77)
        a2, lp2 = sample_actions(out, rng_seed=77)
        assert a1.tobytes() == a2.tobytes() and lp1 == lp2

    def test_near_degenerate_keeps_everything(self):
        out = np.array([1.0 - 1e-6] * 20)
        labels, _ = sample_actions(out, rng_seed=5)
        assert labels.tolist() == [1] * 20

    def test_log_prob_is_sum_of_selected(self):
        out = np.array([0.25, 0.75])
        labels, lp = sample_actions(out, rng_seed=3)
        expected = sum(
            np.log(kp) if label else np.log1p(-kp)
            for kp, label in zip(out, labels)
        )
        assert lp == pytest.approx(expected)

    def test_monte_carlo_frequency(self):
        out = np.full(100_000, 0.7)
        labels, _ = sample_actions(out, rng_seed=11)
        assert set(labels.tolist()) == {0, 1}
        assert abs(np.mean(labels) - 0.7) <= 0.01


class TestGreedyActions:
    def test_threshold_at_half(self):
        assert greedy_actions(np.array([0.9, 0.2, 0.8]), 0).tolist() == [1, 0, 1]

    def test_budget_exceeding_length_keeps_argmax(self):
        labels = greedy_actions(np.array([0.4, 0.9, 0.1]), drop_budget=10)
        assert labels.tolist() == [0, 1, 0]

    def test_threshold_never_all_zero(self):
        labels = greedy_actions(np.array([0.1, 0.4, 0.2]), 0)
        assert labels.tolist() == [0, 1, 0]

    def test_tie_drops_higher_index_first(self):
        labels = greedy_actions(np.array([0.5, 0.5, 0.9]), drop_budget=1)
        assert labels.tolist() == [1, 0, 1]

    def test_budget_oracle_fuzz(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            n = int(rng.integers(1, 25))
            kp = rng.random(n)
            budget = int(rng.integers(0, n + 3))
            labels = greedy_actions(kp, budget)
            assert set(labels.tolist()) <= {0, 1} and labels.sum() >= 1
            if budget == 0:
                continue
            n_drop = min(budget, n - 1)
            # brute-force bottom-k with ties dropping the higher index first
            ranked = sorted(range(n), key=lambda i: (kp[i], -i))
            dropped = set(ranked[:n_drop])
            expected = [0 if i in dropped else 1 for i in range(n)]
            assert labels.tolist() == expected


def seq(*ids):
    return TokenSequence(tuple(ids))


def is_subsequence(sub, full):
    it = iter(full)
    return all(any(x == y for y in it) for x in sub)


class TestApplyAction:
    def test_direct_application(self):
        nxt = apply_action(seq(10, 11, 12), np.array([1, 0, 1]), [0.9, 0.1, 0.8])
        assert nxt == seq(10, 12)

    def test_identity_action(self):
        current = seq(1, 2)
        assert apply_action(current, np.array([1, 1]), [0.9, 0.8]) == current

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="action/sequence length mismatch"):
            apply_action(seq(1, 2, 3), np.array([1, 0]), [0.9, 0.1])

    def test_input_state_not_mutated(self):
        current, labels = seq(1, 2, 3), np.array([0, 1, 0])
        apply_action(current, labels, [0.1, 0.9, 0.2])
        assert current == seq(1, 2, 3) and labels.tolist() == [0, 1, 0]

    def test_all_zeros_force_keeps_highest_keep_prob(self):
        nxt = apply_action(seq(7, 8, 9), np.zeros(3, dtype=int), keep_probs=[0.1, 0.9, 0.4])
        assert nxt == seq(8)

    def test_all_zeros_tie_keeps_lowest_index(self):
        nxt = apply_action(seq(7, 8, 9), np.zeros(3, dtype=int), keep_probs=[0.5, 0.5, 0.5])
        assert nxt == seq(7)

    def test_fuzz_matches_filter_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            n = int(rng.integers(1, 30))
            ids = tuple(int(x) for x in rng.integers(0, 50, size=n))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[-1] = 1
            nxt = apply_action(TokenSequence(ids), labels, np.full(n, 0.5))
            assert nxt.ids == tuple(t for t, l in zip(ids, labels) if l == 1)

    def test_fuzz_episode_invariants(self):
        # Over a few steps the result stays a non-empty subsequence of the
        # original, and rho = len / original length is non-increasing in (0, 1].
        rng = np.random.default_rng(123)
        for _ in range(2_000):
            n = int(rng.integers(1, 40))
            ids = tuple(int(x) for x in rng.integers(0, 12, size=n))
            current, prev_rho = TokenSequence(ids), 1.0
            for _ in range(int(rng.integers(1, 4))):
                labels = rng.integers(0, 2, size=len(current))
                current = apply_action(current, labels, keep_probs=rng.random(len(labels)))
                rho = len(current) / n
                assert len(current) >= 1
                assert 0.0 < rho <= prev_rho <= 1.0
                assert is_subsequence(current.ids, ids)
                prev_rho = rho


class TestGradients:
    def _randomized_actor(self):
        actor = Actor.build(TINY, seed=3)
        rng = np.random.default_rng(0)
        actor.head_w[...] = rng.normal(0, 0.5, size=actor.head_w.shape)
        actor.head_b[...] = rng.normal(0, 0.1, size=actor.head_b.shape)
        return actor

    def test_actor_log_prob_gradient(self):
        actor = self._randomized_actor()
        ids, labels = (2, 7, 2), (1, 0, 1)
        _, grads = packed_log_prob_and_grad(actor, ids, labels)
        worst, where = max_relative_error(
            actor.parameters(), grads, lambda: action_log_prob(actor, ids, labels)
        )
        assert worst < REL_TOL, f"worst gradient error {worst:.2e} at {where}"

    def test_floored_tokens_get_zero_gradient(self):
        actor = self._randomized_actor()
        actor.head_w[...] = 0.0
        actor.head_b[...] = (-50.0, 50.0)  # keep prob pinned at the ceiling
        _, grads = packed_log_prob_and_grad(actor, (1, 2), (1, 1))
        assert all(np.all(g == 0) for g in grads.values())


class TestEveryParameterLearns:
    """Every actor parameter moves the objective. On a pack with mixed
    labels and mixed per-sequence coefficients, each parameter's largest
    gradient entry is above 1e-10 of the largest of all. A parameter the
    objective cannot see gets rounding noise: an attention key bias, whose
    score shift q . b_k softmax removes, measured about 1e-17."""

    CFG = EncoderConfig(vocab_size=30, d_model=16, n_heads=2, n_layers=2, d_ff=32,
                        max_len=16)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_gradient_view_is_nonzero(self, seed):
        rng = np.random.default_rng(seed)
        actor = Actor.build(self.CFG, seed=seed)
        actor.head_w[...] = rng.normal(0, 0.5, size=actor.head_w.shape)
        actor.head_b[...] = rng.normal(0, 0.1, size=actor.head_b.shape)
        lengths = (5, 9, self.CFG.max_len, 3)
        seqs = [rng.integers(0, self.CFG.vocab_size, n).tolist() for n in lengths]
        labels = [rng.integers(0, 2, n) for n in lengths]
        _, gradient_into = packed_action_log_probs(actor, seqs, labels)
        grad = ActorGradient(self.CFG)
        gradient_into(rng.normal(size=len(lengths)), grad)
        largest = {name: float(np.abs(g).max()) for name, g in grad.views.items()}
        top = max(largest.values())
        assert {name: g for name, g in largest.items() if not g > 1e-10 * top} == {}


class TestInitialParameters:
    def test_build_draws_in_the_reference_order(self):
        # The weight matrices are drawn one after another from one stream:
        # embeddings, then per layer wq, wk, wv, wo, w1, w2. Gains start at
        # one, biases and the head at zero.
        actor = Actor.build(TINY, seed=3)
        rng = np.random.default_rng(3)
        d, ff = TINY.d_model, TINY.d_ff
        want = {
            "tok_emb": rng.normal(0.0, 0.02, size=(TINY.vocab_size, d)),
            "pos_emb": rng.normal(0.0, 0.02, size=(TINY.max_len, d)),
        }
        for i in range(TINY.n_layers):
            for name, shape in (("wq", (d, d)), ("wk", (d, d)), ("wv", (d, d)),
                                ("wo", (d, d)), ("w1", (d, ff)), ("w2", (ff, d))):
                want[f"l{i}.{name}"] = rng.normal(0.0, 0.02, size=shape)
        for name, value in actor.encoder.params.items():
            if name in want:
                assert value.tobytes() == want[name].tobytes(), name
            else:
                assert np.all(value == (1.0 if name.endswith("_g") else 0.0)), name
        assert not actor.head_w.any() and not actor.head_b.any()
        assert len(actor.encoder.params) == 4 + 15 * TINY.n_layers

    @pytest.mark.parametrize("cfg", [
        TINY,
        EncoderConfig(vocab_size=1, d_model=1, n_heads=1, n_layers=1, d_ff=1, max_len=1),
        EncoderConfig(vocab_size=512),
        EncoderConfig(vocab_size=7, d_model=12, n_heads=3, n_layers=5, d_ff=5, max_len=33),
        EncoderConfig(vocab_size=300, d_model=32, n_heads=4, n_layers=3, d_ff=96,
                      max_len=19),
    ])
    def test_size_is_the_sum_of_the_shapes(self, cfg):
        want = sum(math.prod(shape) for shape in actor_shapes(cfg).values())
        assert actor_size(cfg) == want
        assert Actor.build(cfg, seed=0).flat.size == want


class TestEncoderContract:
    def test_output_length_matches_input(self):
        enc = Actor.build(TINY, seed=0).encoder
        for n in (1, 3, 8):
            assert enc.encode(tuple(range(n)), [n]).shape == (n, TINY.d_model)

    def test_too_long_sequence_errors(self):
        enc = Actor.build(TINY, seed=0).encoder
        with pytest.raises(ValueError, match="max_len"):
            enc.encode(tuple(range(TINY.max_len + 1)), [TINY.max_len + 1])

    def test_out_of_vocab_id_errors(self):
        enc = Actor.build(TINY, seed=0).encoder
        with pytest.raises(ValueError, match="out of range"):
            enc.encode((TINY.vocab_size,), [1])


class TestPackedEncoder:
    """A pack of sequences: one [T] id array plus per-sequence lengths."""

    LENGTHS = (3, 1, TINY.max_len, 5)

    def _pack(self, seed=0):
        rng = np.random.default_rng(seed)
        seqs = [tuple(int(t) for t in rng.integers(0, TINY.vocab_size, n))
                for n in self.LENGTHS]
        return seqs, [t for seq in seqs for t in seq]

    def test_segments_match_solo_encode(self):
        enc = Actor.build(TINY, seed=4).encoder
        seqs, ids = self._pack()
        h, _ = enc.forward(ids, self.LENGTHS)
        assert h.shape == (len(ids), TINY.d_model)
        start = 0
        for seq in seqs:
            solo = enc.encode(seq, [len(seq)])
            got = h[start:start + len(seq)]
            assert np.abs(got - solo).max() <= 1e-12 * np.abs(solo).max()
            start += len(seq)

    def test_packed_backward_finite_difference(self):
        enc = Actor.build(TINY, seed=5).encoder
        _, ids = self._pack(seed=1)
        # Scalar sum(W * h): its upstream gradient is W.
        weight = np.random.default_rng(2).normal(size=(len(ids), TINY.d_model))
        _, cache = enc.forward(ids, self.LENGTHS)
        grads = encoder_gradients(enc, cache, weight)
        worst, where = max_relative_error(
            enc.params, grads,
            lambda: float((weight * enc.forward(ids, self.LENGTHS)[0]).sum()),
        )
        assert worst < REL_TOL, f"worst gradient error {worst:.2e} at {where}"

    def test_bad_lengths_error(self):
        enc = Actor.build(TINY, seed=0).encoder
        with pytest.raises(ValueError, match="sum"):
            enc.forward((1, 2, 3), (1, 1))
        with pytest.raises(ValueError, match="at least one"):
            enc.forward((1, 2, 3), (3, 0))
        with pytest.raises(ValueError, match="max_len"):
            enc.forward((1,) * (TINY.max_len + 2), (1, TINY.max_len + 1))


class TestInferenceForward:
    """``encode`` runs ``forward`` with no backward cache and in-place
    arithmetic; it must give the training forward's features bit for bit
    and write into no parameter."""

    CFG = EncoderConfig(vocab_size=50, d_model=16, n_heads=2, n_layers=2, d_ff=32,
                        max_len=256)

    def _perturbed_encoder(self, seed=0):
        # Gains and biases away from 1 and 0, so every in-place layer-norm
        # and bias step changes the result.
        enc = Actor.build(self.CFG, seed=seed).encoder
        rng = np.random.default_rng(seed + 100)
        for value in enc.params.values():
            value += rng.normal(0.0, 0.3, size=value.shape)
        return enc

    @pytest.mark.parametrize("n", [1, 37, 256])
    def test_encode_matches_training_forward_bitwise(self, n):
        enc = self._perturbed_encoder()
        ids = np.random.default_rng(n).integers(0, self.CFG.vocab_size, n)
        h, cache = enc.forward(ids, [n])
        assert cache is not None
        assert np.array_equal(enc.encode(ids, [n]), h)

    def test_pack_without_cache_matches_training_forward_bitwise(self):
        enc = self._perturbed_encoder(seed=1)
        lengths = (37, 1, 256, 5)
        ids = np.random.default_rng(2).integers(0, self.CFG.vocab_size, sum(lengths))
        h, _ = enc.forward(ids, lengths)
        h_inference, cache = enc.forward(ids, lengths, keep_cache=False)
        assert cache is None
        assert np.array_equal(h_inference, h)

    def test_no_parameter_is_written(self):
        enc = self._perturbed_encoder(seed=2)
        before = {k: v.copy() for k, v in enc.params.items()}
        rng = np.random.default_rng(3)
        enc.encode(rng.integers(0, self.CFG.vocab_size, 200), [200])
        lengths = (3, 256)
        ids = rng.integers(0, self.CFG.vocab_size, sum(lengths))
        h, cache = enc.forward(ids, lengths)
        encoder_gradients(enc, cache, rng.normal(size=h.shape))
        for name, value in enc.params.items():
            assert np.array_equal(value, before[name]), name

    @pytest.mark.parametrize("lengths", [(1,), (37,), (37, 1, 256, 5)],
                             ids=["L1", "L37", "pack"])
    @pytest.mark.parametrize("w1_scale", [1.0, 20.0])
    def test_backward_matches_recomputing_reference_bitwise(self, lengths, w1_scale):
        # The backward reads what the training forward cached, in place,
        # into views of one vector; the reference recomputes the layer-norm
        # outputs, the feed-forward matmul and the GELU with plain
        # expressions. Scaling w1 by 20 sends GELU inputs into the erf's
        # |x| > 1 tail.
        enc = self._perturbed_encoder(seed=len(lengths))
        for i in range(self.CFG.n_layers):
            enc.params[f"l{i}.w1"] *= w1_scale
        rng = np.random.default_rng(sum(lengths))
        ids = rng.integers(0, self.CFG.vocab_size, sum(lengths))
        h, cache = enc.forward(ids, lengths)
        dh = rng.normal(size=h.shape)
        largest_erf = max(float(np.abs(lc["e1"] - 1.0).max()) for lc in cache["layers"])
        want = reference_backward(enc, cache, dh)
        _, fresh = enc.forward(ids, lengths)
        got = encoder_gradients(enc, fresh, dh)
        assert list(got) == list(want)
        for name, grad in got.items():
            assert grad.tobytes() == want[name].tobytes(), name
        # erf(1) is 0.8427: only the tail gives values closer to +-1.
        assert w1_scale == 1.0 or largest_erf > 0.8428

    def test_training_passes_reuse_their_buffers(self):
        # A training pass keeps its cache in buffers the next pass reuses;
        # the features it returns are fresh, and backward refuses a cache
        # that a later pass has overwritten or that was used already.
        enc = self._perturbed_encoder(seed=3)
        ids = np.random.default_rng(4).integers(0, self.CFG.vocab_size, 40)
        h1, first = enc.forward(ids, (30, 10))
        h1_bits = h1.tobytes()
        h2, second = enc.forward(ids[:25], [25])
        for name in ("q", "ln1", "ln1.xhat", "z1", "e1", "gelu"):
            assert np.shares_memory(first["layers"][0][name], second["layers"][0][name])
        assert not np.shares_memory(h1, h2)
        assert h1.tobytes() == h1_bits
        with pytest.raises(ValueError, match="latest training pass"):
            encoder_gradients(enc, first, np.ones_like(h1))
        encoder_gradients(enc, second, np.ones_like(h2))
        with pytest.raises(ValueError, match="latest training pass"):
            encoder_gradients(enc, second, np.ones_like(h2))
        assert enc.encode(ids, [40]).tobytes() == enc.forward(ids, [40])[0].tobytes()

    def test_encode_keeps_its_checks(self):
        enc = self._perturbed_encoder()
        with pytest.raises(ValueError, match="max_len"):
            enc.encode(tuple(range(self.CFG.max_len + 1)), [self.CFG.max_len + 1])
        with pytest.raises(ValueError, match="out of range"):
            enc.encode((self.CFG.vocab_size,), [1])
        with pytest.raises(ValueError, match="non-empty"):
            enc.encode((), [0])
