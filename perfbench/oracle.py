"""Brute-force Streaming Recall@k / Streaming Minimum Distance@k.

Plain loops over the definitions, sharing no code with ``streamstart.metrics``:
the sweep workload checks the program's evaluator and threshold sweep against
these on a seeded subsample of its queries.
"""

from __future__ import annotations

import numpy as np


def predictions(scores, fps, threshold, mode):
    """Prediction times: rising edges of ``score >= threshold``, or every such frame."""
    times = []
    prev_above = False
    for i, s in enumerate(scores):
        above = s >= threshold
        if above and (mode == "every_frame" or not prev_above):
            times.append(i / fps)
        prev_above = above
    return times


def evaluate(series, annotations, ks, anticipation, latency, mode, threshold):
    """Dataset SR@k (percent) and SMD@k (seconds), one query at a time."""
    lookup = {(s.video_uid, s.query_id): s for s in series}
    hits = {k: [] for k in ks}
    dists = {k: [] for k in ks}
    for ann in annotations:
        ser = lookup[(ann.video_uid, f"{ann.annotator_uid}-{ann.ann_idx}")]
        preds = predictions(ser.scores.tolist(), ser.fps, threshold, mode)
        horizon = len(ser.scores) / ser.fps
        t_s = ann.start_sec
        for k in ks:
            first = preds[:k]
            hits[k].append(any(t_s - anticipation <= t <= t_s + latency for t in first))
            dists[k].append(min((abs(t_s - t) for t in first), default=horizon))
    sr = {k: float(np.mean(np.array(hits[k], dtype=bool)) * 100.0) for k in ks}
    smd = {k: float(np.mean(np.array(dists[k], dtype=float))) for k in ks}
    return sr, smd


def sweep(series, annotations, ks, anticipation, latency, mode, n, objective_k):
    """Best of ``n`` uniform thresholds between the lowest and highest score,
    by SR@objective_k, ties going to the larger threshold."""
    lo = min(float(s.scores.min()) for s in series)
    hi = max(float(s.scores.max()) for s in series)
    candidates = [lo] if lo == hi else [float(t) for t in np.linspace(lo, hi, n)]
    best = None
    for tau in candidates:
        sr, smd = evaluate(series, annotations, ks, anticipation, latency, mode, tau)
        if best is None or sr[objective_k] >= best[1][objective_k]:
            best = (tau, sr, smd)
    return best
