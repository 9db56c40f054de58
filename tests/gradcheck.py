"""Central finite-difference gradient checking shared by test modules, the
single-sequence gradient the checks compare against, the unpacked scalar
objectives the finite differences are taken of, and the reference
encoder backward that the program's is checked against bit for bit."""

import math

import numpy as np

from promptpress.encoder import parameter_shapes
from promptpress.optim import flat_views
from promptpress.policy import ActorGradient, packed_action_log_probs, policy_forward
from promptpress.text import TokenSequence

# Relative error with a small absolute floor: below the floor both the
# analytic and numeric values are dominated by round-off noise.
REL_TOL = 1e-4
DENOM_FLOOR = 1e-4


def max_relative_error(
    params: dict[str, np.ndarray],
    analytic: dict[str, np.ndarray],
    f,
    h_scale: float = 1e-5,
) -> tuple[float, str]:
    """Worst relative error between analytic grads and central differences.

    Perturbs every coordinate of every parameter in place and restores it.
    """
    worst = 0.0
    worst_key = ""
    for key, arr in params.items():
        grad = analytic[key]
        flat = arr.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            h = h_scale * max(1.0, abs(orig))
            flat[i] = orig + h
            f_plus = f()
            flat[i] = orig - h
            f_minus = f()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), DENOM_FLOOR)
            if rel > worst:
                worst = rel
                worst_key = f"{key}[{i}]"
    return worst, worst_key


def packed_log_prob_and_grad(actor, ids, labels):
    """Log-probability of one action vector and its gradient (named views
    of a fresh gradient vector), as a pack of one."""
    log_probs, gradient_into = packed_action_log_probs(actor, [ids], [labels])
    grad = ActorGradient(actor.encoder.cfg)
    gradient_into(np.ones(1), grad)
    return float(log_probs[0]), grad.views


def encoder_gradients(encoder, cache, dh):
    """The encoder's backward into fresh gradient storage: named views of
    one flat vector, filled with NaN first so that an entry the backward
    leaves unwritten shows."""
    shapes = parameter_shapes(encoder.cfg)
    grads = flat_views(np.full(sum(map(math.prod, shapes.values())), np.nan), shapes)
    encoder.backward(cache, dh, grads)
    return grads


def action_log_prob(actor, ids, labels):
    """Log-probability of one action vector, from the single-sequence
    inference forward (``policy_forward``)."""
    (keep_probs,) = policy_forward(actor, [TokenSequence(tuple(ids))])
    keep = np.asarray(labels, dtype=int) == 1
    return float(np.where(keep, np.log(keep_probs), np.log1p(-keep_probs)).sum())


def ppo_objective(batch, actor, clip_eps):
    """Mean clipped surrogate min(delta A, clip(delta) A) of steps (each
    with ``ids``, ``labels``, ``old_log_prob`` and ``advantage``), one
    sequence at a time: the reference the packed
    ``trainer.ppo_objective_and_grads`` is checked against."""
    total = 0.0
    for step in batch:
        new_lp = action_log_prob(actor, step.ids, step.labels)
        delta = math.exp(new_lp - step.old_log_prob)
        clipped = min(max(delta, 1.0 - clip_eps), 1.0 + clip_eps)
        total += min(delta * step.advantage, clipped * step.advantage)
    return total / len(batch)


# ---------------------------------------------------------------------------
# Reference encoder backward: the plain expressions the program's backward
# stands for. It recomputes the layer-norm outputs, the feed-forward
# block's input matmul and its GELU from the forward's cache instead of
# reading them, and returns fresh arrays; the program's backward must give
# the same bits.


def _ln(cache, key, gain):
    """A layer norm's (xhat, inv, gain) from a training pass's cache."""
    return cache[key + ".xhat"], cache[key + ".inv"], gain


def _ln_output(ln, bias):
    xhat, _, gain = ln
    return gain * xhat + bias


def _ln_backward(dy, ln):
    xhat, inv, gain = ln
    dgain = (dy * xhat).sum(axis=0)
    dbias = dy.sum(axis=0)
    dxhat = dy * gain
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dgain, dbias


def _gelu(x, one_plus_erf):
    return 0.5 * x * one_plus_erf


def _gelu_grad(x, one_plus_erf):
    return 0.5 * one_plus_erf + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def reference_backward(encoder, cache, dh):
    """Gradients of a scalar with upstream ``dh``, by name, from the
    cache of a training forward (which it only reads). Of the cache's
    feed-forward entries it reads only the layer-norm cache and
    ``e1`` (1 + erf of the pre-GELU input over sqrt 2) and of each layer
    norm only xhat and inv."""
    p = encoder.params
    cfg = encoder.cfg
    d = cfg.d_model
    scale = 1.0 / math.sqrt(d // cfg.n_heads)
    heads = encoder._heads
    bounds = cache["bounds"]
    grads = dict.fromkeys(p)
    dx, grads["lnf_g"], grads["lnf_b"] = _ln_backward(dh, _ln(cache, "lnf", p["lnf_g"]))
    for i in reversed(range(cfg.n_layers)):
        lc = cache["layers"][i]
        # feed-forward block plus its residual
        e1, ln2 = lc["e1"], _ln(lc, "ln2", p[f"l{i}.ln2_g"])
        w_in = _ln_output(ln2, p[f"l{i}.ln2_b"])
        z1 = w_in @ p[f"l{i}.w1"] + p[f"l{i}.b1"]
        grads[f"l{i}.w2"] = _gelu(z1, e1).T @ dx
        grads[f"l{i}.b2"] = dx.sum(axis=0)
        dz1 = (dx @ p[f"l{i}.w2"].T) * _gelu_grad(z1, e1)
        grads[f"l{i}.w1"] = w_in.T @ dz1
        grads[f"l{i}.b1"] = dz1.sum(axis=0)
        dx_attn, grads[f"l{i}.ln2_g"], grads[f"l{i}.ln2_b"] = _ln_backward(
            dz1 @ p[f"l{i}.w1"].T, ln2
        )
        da = dx_attn + dx
        # attention block plus its residual
        q, k, v, atts = (lc[key] for key in ("q", "k", "v", "atts"))
        ln1 = _ln(lc, "ln1", p[f"l{i}.ln1_g"])
        dc = da @ p[f"l{i}.wo"].T
        grads[f"l{i}.wo"] = lc["c"].T @ da
        grads[f"l{i}.bo"] = da.sum(axis=0)
        dq, dk, dv = np.empty_like(dc), np.empty_like(dc), np.empty_like(dc)
        for (s, e), att in zip(bounds, atts):
            n = e - s
            dctx = heads(dc[s:e])
            datt = dctx @ heads(v[s:e]).transpose(0, 2, 1)
            dvh = att.transpose(0, 2, 1) @ dctx
            dscores = att * (datt - (datt * att).sum(axis=-1, keepdims=True))
            dqh = dscores @ heads(k[s:e]) * scale
            dkh = dscores.transpose(0, 2, 1) @ heads(q[s:e]) * scale
            dq[s:e] = dqh.transpose(1, 0, 2).reshape(n, d)
            dk[s:e] = dkh.transpose(1, 0, 2).reshape(n, d)
            dv[s:e] = dvh.transpose(1, 0, 2).reshape(n, d)
        u = _ln_output(ln1, p[f"l{i}.ln1_b"])
        du = dq @ p[f"l{i}.wq"].T + dk @ p[f"l{i}.wk"].T + dv @ p[f"l{i}.wv"].T
        for name, dy in (("q", dq), ("k", dk), ("v", dv)):
            grads[f"l{i}.w{name}"] = u.T @ dy
        grads[f"l{i}.bq"] = dq.sum(axis=0)
        grads[f"l{i}.bv"] = dv.sum(axis=0)
        dx_pre, grads[f"l{i}.ln1_g"], grads[f"l{i}.ln1_b"] = _ln_backward(du, ln1)
        dx = dx_pre + da
    grads["tok_emb"] = np.zeros_like(p["tok_emb"])
    np.add.at(grads["tok_emb"], cache["ids"], dx)
    grads["pos_emb"] = np.zeros_like(p["pos_emb"])
    for s, e in bounds:
        grads["pos_emb"][: e - s] += dx[s:e]
    return grads
