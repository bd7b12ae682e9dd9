"""Independent reference implementations used to cross-check the engine.

Everything here is deliberately written as plain loops against the
definitions, sharing no prediction/hit/recall logic with the package;
``exhaustive_sweep`` alone is built on ``evaluate_dataset``, which
``brute_evaluate`` checks. ``retention_parallel`` is the engine's
retention forward from a fresh state: the parallel side that the
recurrent steps are checked against.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.special import erf

from streamstart import kernels, metrics
from streamstart.detector import DEFAULT_POS_CAP, LossBreakdown
from streamstart.errors import ConfigError
from streamstart.kernels import BlockParams


def brute_predictions(scores, fps, threshold, mode):
    """Prediction times by direct scan over the score array."""
    times = []
    prev_above = False
    for i, s in enumerate(scores):
        above = s >= threshold
        if mode == "every_frame":
            if above:
                times.append(i / fps)
        else:
            if above and not prev_above:
                times.append(i / fps)
        prev_above = above
    return times


def brute_hit(t_out, t_s, anticipation, latency):
    """Direct check of the asymmetric window condition."""
    return (t_s - anticipation) <= t_out <= (t_s + latency)


def brute_recall_at_k(pred_times, t_s, k, anticipation, latency):
    for t in pred_times[:k]:
        if brute_hit(t, t_s, anticipation, latency):
            return True
    return False


def brute_smd_at_k(pred_times, t_s, k, horizon):
    best = None
    for t in pred_times[:k]:
        d = abs(t_s - t)
        if best is None or d < best:
            best = d
    return horizon if best is None else best


def brute_evaluate(series_list, annotations, ks, anticipation, latency, mode, threshold, query_id):
    """Dataset-level SR/SMD computed fully independently of metrics.py."""
    lookup = {(s.video_uid, s.query_id): s for s in series_list}
    hits = {k: [] for k in ks}
    dists = {k: [] for k in ks}
    for ann in annotations:
        ser = lookup[(ann.video_uid, query_id(ann))]
        preds = brute_predictions(list(ser.scores), ser.fps, threshold, mode)
        horizon = len(ser.scores) / ser.fps
        for k in ks:
            hits[k].append(brute_recall_at_k(preds, ann.start_sec, k, anticipation, latency))
            dists[k].append(brute_smd_at_k(preds, ann.start_sec, k, horizon))
    sr = {k: float(np.mean(np.array(hits[k], dtype=bool)) * 100.0) for k in ks}
    smd = {k: float(np.mean(np.array(dists[k], dtype=float))) for k in ks}
    return sr, smd


def exhaustive_sweep(series_list, annotations, w, n=20, objective_k=1, ks=None, mode="rising_edge"):
    """The sweep by its definition: ``n`` evenly spaced candidates from the lowest to
    the highest score of the series that an annotation pairs (one when those are equal),
    each evaluated on its own with ``evaluate_dataset``; the best SR@objective_k wins, and
    a tie goes to the later, larger candidate. Returns ``(threshold, report)``."""
    ks = sorted(set((ks or [1, 2, 3]) + [objective_k]))
    paired = {(a.video_uid, metrics.default_query_id(a)) for a in annotations}
    scores = np.concatenate([s.scores for s in series_list if (s.video_uid, s.query_id) in paired])
    lo, hi = float(scores.min()), float(scores.max())
    best = None
    for cand in [lo] if lo == hi else np.linspace(lo, hi, n):
        rep = metrics.evaluate_dataset(series_list, annotations, ks, w, mode, cand)
        if best is None or rep.sr[objective_k] >= best[1].sr[objective_k]:
            best = (cand, rep)
    return best


def finite_difference_grads(model, embeddings, labels, queries, cap, eps=1e-5):
    """Central-difference gradient of the batch loss for every trainable array."""
    from streamstart import detector

    def loss_at(m):
        _, lb = detector.backward(m, embeddings, labels, queries, cap)
        return lb.total

    grads = {}
    for i, (adapter, _) in enumerate(model.blocks):
        for name, arr in adapter.arrays().items():
            g = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                plus = arr.copy()
                plus[idx] += eps
                minus = arr.copy()
                minus[idx] -= eps
                g[idx] = (
                    loss_at(_swap(model, i, name, plus)) - loss_at(_swap(model, i, name, minus))
                ) / (2 * eps)
            grads[f"blocks.{i}.{name}"] = g
    return grads


def per_name_adam(model, embeddings, labels, queries, config):
    """``detector.train`` as per-name Adam with decoupled weight decay: each trainable
    array and its two moments kept apart by name, and the model rebuilt every step."""
    from streamstart import detector

    rng = np.random.default_rng(config.seed)
    work = {name: arr.astype(float) for name, arr in detector.named_arrays(model, frozen=False).items()}
    m1 = {name: np.zeros_like(arr) for name, arr in work.items()}
    m2 = {name: np.zeros_like(arr) for name, arr in work.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    history = []
    for step in range(1, config.steps + 1):
        idx = rng.integers(0, len(embeddings), size=config.batch_size)
        current = detector.with_arrays(model, work)
        grads, lb = detector.backward(current, embeddings[idx], labels[idx], queries[idx], config.pos_weight_cap)
        history.append(lb)
        for name, g in grads.items():
            m1[name] = beta1 * m1[name] + (1.0 - beta1) * g
            m2[name] = beta2 * m2[name] + (1.0 - beta2) * g * g
            mhat = m1[name] / (1.0 - beta1**step)
            vhat = m2[name] / (1.0 - beta2**step)
            work[name] = work[name] - config.learning_rate * mhat / (np.sqrt(vhat) + eps)
            if config.weight_decay:
                work[name] = work[name] - config.learning_rate * config.weight_decay * work[name]
    return detector.with_arrays(model, work), history


def _swap(model, block_idx, name, array):
    blocks = []
    for j, (adapter, frozen) in enumerate(model.blocks):
        if j == block_idx:
            adapter = replace(adapter, **{name: array})
        blocks.append((adapter, frozen))
    return replace(model, blocks=blocks)


def per_bank(arrays):
    """An adapter's arrays with its stacked banks split apart, in the order the
    banks were declared one at a time: qrnn ``w_sf, b_sf`` into ``w_s, b_s,
    w_f, b_f`` and retention ``w_qkv`` into ``w_q, w_k, w_v``."""
    out = {name: a for name, a in arrays.items() if name not in ("w_sf", "b_sf", "w_qkv")}
    if "w_sf" in arrays:
        (w_s, w_f), (b_s, b_f) = np.split(arrays["w_sf"], 2, axis=-1), np.split(arrays["b_sf"], 2)
        out.update(w_s=w_s, b_s=b_s, w_f=w_f, b_f=b_f)
    if "w_qkv" in arrays:
        out.update(zip(("w_q", "w_k", "w_v"), np.split(arrays["w_qkv"], 3, axis=1)))
    return out


def stacked(banks):
    """Inverse of ``per_bank``."""
    out = {name: a for name, a in banks.items()
           if name not in ("w_s", "b_s", "w_f", "b_f", "w_q", "w_k", "w_v")}
    if "w_f" in banks:
        out["w_sf"] = np.concatenate([banks["w_s"], banks["w_f"]], axis=-1)
        out["b_sf"] = np.concatenate([banks["b_s"], banks["b_f"]])
    elif "w_s" in banks:
        out["w_s"] = banks["w_s"]
    if "w_q" in banks:
        out["w_qkv"] = np.concatenate([banks["w_q"], banks["w_k"], banks["w_v"]], axis=1)
    return out


def randomized(params, rng, scale=0.4):
    """``params`` with every trainable array drawn from ``rng``, one bank at a
    time in ``per_bank`` order, so each seed gives the same model whether the
    banks are stored apart or stacked."""
    draws = {name: rng.normal(size=a.shape) * scale for name, a in per_bank(params.arrays()).items()}
    return replace(params, **stacked(draws))


def randomize_adapters(model, seed, scale=0.4):
    """Random trainable parameters so gradients and cores are informative."""
    rng = np.random.default_rng(seed)
    blocks = [(randomized(adapter, rng, scale), frozen) for adapter, frozen in model.blocks]
    return replace(model, blocks=blocks)


def identity_block_params(d, d_mlp):
    """Zeroed frozen sublayers: with an identity adapter the block is the identity."""
    return BlockParams(w_sp=np.zeros((d, d)), w1=np.zeros((d, d_mlp)), w2=np.zeros((d_mlp, d)))


def weighted_bce(p, y, cap=DEFAULT_POS_CAP):
    """Positive-weighted binary cross-entropy in probability space.

    total = w_pos * pos_term + neg_term with w_pos = min(cap, n_neg / n_pos),
    never below 1. Probabilities are clamped to [1e-7, 1 - 1e-7]. The
    detector trains on the stable logit form; this is its reference.
    """
    p = np.clip(np.asarray(p, dtype=float), 1e-7, 1.0 - 1e-7)
    y = np.asarray(y, dtype=float)
    n = y.size
    w_pos = float(min(cap, max(1.0, float(n - y.sum()) / max(1.0, float(y.sum())))))
    pos_term = float(-(y * np.log(p)).sum() / n)
    neg_term = float(-((1.0 - y) * np.log1p(-p)).sum() / n)
    return LossBreakdown(total=w_pos * pos_term + neg_term, pos_term=pos_term,
                         neg_term=neg_term, pos_weight=w_pos)


def tap_loop_conv(x, w, bias=None, context=None):
    """Causal conv as one product per tap over the rows it reaches, and the
    MACs of those taps: ``(y, macs)``. Dense ``[k, d_in, d_out]`` or
    depthwise ``[k, d]`` banks; output t reads rows t - k + 1 .. t, and
    ``context`` rows are read but get no output. No context is k - 1 zero
    rows, whose taps run and count as any others."""
    k = w.shape[0]
    depthwise = w.ndim == 2
    n = x.shape[-2]
    sequences = math.prod(x.shape[:-2])
    if context is None:
        context = np.zeros(x.shape[:-2] + (k - 1, x.shape[-1]))
    c = context.shape[-2]
    x = np.concatenate([context, x], axis=-2)
    d_out = w.shape[1] if depthwise else w.shape[2]
    y = np.zeros(x.shape[:-2] + (n, d_out), dtype=np.result_type(x, w))
    macs = 0
    for j in range(k):
        off = c + j - (k - 1)  # tap j reads output row t from x[t + off]
        lo, hi = max(0, -off), min(n, c + n - off)
        if lo < hi:
            rows = x[..., lo + off : hi + off, :]
            y[..., lo:hi, :] += rows * w[j] if depthwise else rows @ w[j]
            macs += sequences * (hi - lo) * (d_out if depthwise else w.shape[1] * d_out)
    if bias is not None:
        y = y + bias
    return y, macs


def where_sigmoid(x):
    """Stable logistic by selecting between both branches."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def erf_gelu(x):
    """Exact GELU written as its formula."""
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def strided_fo_pool(s, f, h_init):
    """fo_pool's recurrence h_t = f_t h_{t-1} + (1 - f_t) s_t, stepping over strided
    time-major views of ``[..., n, d]``: ``(h, last state)``."""
    h = np.empty_like(s, dtype=float)
    drive = 1.0 - f
    drive *= s
    f_t, drive_t, h_t = (np.moveaxis(a, -2, 0) for a in (f, drive, h))
    prev = np.asarray(h_init, dtype=float)
    for t in range(len(f_t)):
        prev = f_t[t] * prev + drive_t[t]
        h_t[t] = prev
    return h, prev


def strided_fo_pool_vjp(d_h, s, f, h, h_init):
    """fo_pool's VJP ``(d_s, d_f)`` with the carried gradient stepped over strided time-major views."""
    g = np.empty_like(d_h)
    g_t, d_h_t, f_t = (np.moveaxis(a, -2, 0) for a in (g, d_h, f))
    carry = 0.0
    for t in range(len(f_t) - 1, -1, -1):
        carry = d_h_t[t] + carry
        g_t[t] = carry
        carry = carry * f_t[t]
    first = np.broadcast_to(h_init, h.shape[:-2] + h.shape[-1:])[..., None, :]  # h_init against one step
    h_prev = np.concatenate([first, h[..., :-1, :]], axis=-2)
    return g * (1.0 - f), g * (h_prev - s)


def retention_parallel(x, params, tape=None):
    """``kernels.retention_forward`` from a fresh state: every sequence ``[..., n, d']`` from a zero summary."""
    return kernels.retention_forward(x, params, kernels.fresh_state(params.config, x.shape[:-2]), tape)[0]


def receptive_field(m, k):
    """Temporal receptive field of m stacked width-k causal convolutions: k + (m - 1)(k - 1) frames."""
    if m < 1 or k < 1:
        raise ConfigError(f"need m >= 1 and k >= 1, got ({m}, {k})")
    return k + (m - 1) * (k - 1)
