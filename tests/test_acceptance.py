"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines alongside the test outcomes.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from streamstart import annotations as ann
from streamstart import cli, costmodel, detector, kernels, metrics
from streamstart.kernels import AdapterConfig

import oracles

KINDS = ("vanilla", "st_conv", "qrnn", "retention")


def criterion(n, ok, detail):
    print(f"\n[criterion {n:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def random_prediction_case(rng, n=60):
    """Scores with deliberate empty / early / late / boundary structure."""
    scores = np.zeros(n)
    t_s = float(rng.integers(10, n - 10))
    kind = rng.integers(0, 6)
    if kind == 1:
        scores[max(0, int(t_s) - int(rng.integers(6, 10)))] = 1.0  # early miss
    elif kind == 2:
        scores[min(n - 1, int(t_s) + int(rng.integers(11, 15)))] = 1.0  # late miss
    elif kind == 3:
        scores[int(t_s) - 5] = 1.0  # exactly -anticipation
    elif kind == 4:
        if int(t_s) + 10 < n:
            scores[int(t_s) + 10] = 1.0  # exactly +latency
    elif kind == 5:
        spikes = rng.integers(0, n, size=int(rng.integers(1, 7)))
        scores[spikes] = rng.uniform(0.4, 1.0, size=len(spikes))
    return scores, t_s


class FakeAnn:
    def __init__(self, video_uid, start_sec):
        self.video_uid = video_uid
        self.annotator_uid = "a"
        self.ann_idx = 0
        self.start_sec = start_sec


def test_criterion_01_metric_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    w = metrics.ToleranceWindow(5, 10)
    series, anns = [], []
    for i in range(1000):
        scores, t_s = random_prediction_case(rng)
        series.append(metrics.ScoreSeries(f"v{i}", "a-0", 1.0, scores))
        anns.append(FakeAnn(f"v{i}", t_s))
    exact = True
    for mode in metrics.MODES:
        rep = metrics.evaluate_dataset(series, anns, [1, 2, 3], w, mode, 0.5)
        sr, smd = oracles.brute_evaluate(series, anns, [1, 2, 3], 5, 10, mode, 0.5, metrics.default_query_id)
        exact = exact and rep.sr == sr and rep.smd == smd
    elapsed = time.monotonic() - start
    criterion(1, exact and elapsed < 10.0,
              f"evaluate_dataset == brute-force oracle on 1000 cases, both modes, {elapsed:.2f}s")


def test_criterion_02_tolerance_derivation():
    w = ann.tolerance_from_variance(28.8, fps=1.0)
    ok = (w.anticipation, w.latency) == (5.0, 10.0)
    criterion(2, ok, f"sigma^2 = 28.8 s^2 discretizes to [-{w.anticipation:g}, +{w.latency:g}] at 1 FPS")


def test_criterion_03_retention_duality():
    start = time.monotonic()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        dp = int(rng.integers(1, 17))
        cfg = AdapterConfig(d=dp, d_prime=dp, kind="retention")
        params = init_randomized(cfg, seed)
        n = int(rng.integers(1, 65))
        x = rng.normal(size=(n, dp))
        par = oracles.retention_parallel(x, params)
        state = None
        rec = []
        for t in range(n):
            out, state = kernels.retention_recurrent(x[t], params, state=state)
            rec.append(out)
        worst = max(worst, float(np.abs(par - np.vstack(rec)).max()))
    elapsed = time.monotonic() - start
    criterion(3, worst <= 1e-10 and elapsed < 5.0,
              f"parallel vs recurrent max |diff| = {worst:.2e} over 100 seeds, {elapsed:.2f}s")


def init_randomized(cfg, seed, scale=0.4):
    rng = np.random.default_rng(seed ^ 0x5EED)
    params = kernels.init_params(cfg, seed)
    updates = {n: rng.normal(size=a.shape) * scale for n, a in params.arrays().items()}
    return replace(params, **updates)


def test_criterion_04_streaming_equals_batch():
    start = time.monotonic()
    rng = np.random.default_rng(4004)
    worst = 0.0
    # 80 adapter-level configurations (20 per kind)
    for i in range(80):
        kind = KINDS[i % 4]
        d = int(rng.integers(2, 13))
        dp = int(rng.integers(1, d + 1))
        k = int(rng.integers(1, 4))
        cfg = AdapterConfig(d=d, d_prime=dp, kind=kind, k=k)
        params = init_randomized(cfg, i)
        n = int(rng.integers(1, 33))
        x = rng.normal(size=(n, d))
        batch, _ = kernels.adapter_forward(x, params)
        state = kernels.fresh_state(cfg)
        outs = []
        j = 0
        while j < n:
            c = int(rng.integers(1, n - j + 1))
            y, state = kernels.adapter_forward(x[j : j + c], params, state)
            outs.append(y)
            j += c
        worst = max(worst, float(np.abs(np.vstack(outs) - batch).max()))
    # 20 full block-stack configurations
    for i in range(20):
        kind = KINDS[i % 4]
        d = int(rng.integers(4, 11))
        cfg = AdapterConfig(d=d, d_prime=max(1, d // 2), kind=kind, k=2)
        layers = [
            (init_randomized(cfg, 100 + i * 3 + j), kernels.make_block_params(d, 2 * d, seed=i * 7 + j))
            for j in range(int(rng.integers(1, 4)))
        ]
        n = int(rng.integers(2, 40))
        x = rng.normal(size=(n, d))
        y_batch = x
        for a, b in layers:
            y_batch, _ = kernels.block_forward(y_batch, a, b)
        states = [kernels.fresh_state(cfg) for _ in layers]
        outs = []
        j = 0
        while j < n:
            c = int(rng.integers(1, n - j + 1))
            chunk = x[j : j + c]
            for li, (a, b) in enumerate(layers):
                chunk, states[li] = kernels.block_forward(chunk, a, b, states[li])
            outs.append(chunk)
            j += c
        worst = max(worst, float(np.abs(np.vstack(outs) - y_batch).max()))
    elapsed = time.monotonic() - start
    criterion(4, worst <= 1e-10 and elapsed < 30.0,
              f"chunked == single-pass across 100 random configs, max |diff| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_05_causality_and_identity():
    rng = np.random.default_rng(5005)
    ok = True
    for kind in KINDS:
        cfg = AdapterConfig(d=8, d_prime=4, kind=kind, k=2)
        # identity at init, bitwise
        fresh = kernels.init_params(cfg, seed=55)
        x = rng.normal(size=(16, 8))
        y, _ = kernels.adapter_forward(x, fresh)
        ok = ok and np.array_equal(y, x)
        # future-frame perturbation leaves past outputs bit-identical
        params = init_randomized(cfg, 56)
        base, _ = kernels.adapter_forward(x, params)
        x2 = x.copy()
        x2[9:] += rng.normal(size=(7, 8)) * 2.0
        pert, _ = kernels.adapter_forward(x2, params)
        ok = ok and np.array_equal(base[:9], pert[:9])
    criterion(5, ok, "future perturbations invisible bit-for-bit; fresh adapters are exact identities")


def test_criterion_06_gradient_checks():
    start = time.monotonic()
    worst = 0.0
    for kind in KINDS:
        cfg = AdapterConfig(d=8, d_prime=4, kind=kind, k=2)
        config = detector.ModelConfig(d_in=8, d=8, n_blocks=2, adapter=cfg, seed=66)
        model = oracles.randomize_adapters(detector.build_model(config), seed=67)
        rng = np.random.default_rng(68)
        windows = [(rng.normal(size=(6, 8)), rng.random(6) < 0.4, rng.normal(size=8)) for _ in range(2)]
        batch = [np.stack(column) for column in zip(*windows)]
        grads, _ = detector.backward(model, *batch)
        fd = oracles.finite_difference_grads(model, *batch, detector.DEFAULT_POS_CAP)
        for name, g in grads.items():
            ref = fd[name]
            denom = np.maximum(np.maximum(np.abs(g), np.abs(ref)), 1e-8)
            worst = max(worst, float((np.abs(g - ref) / denom).max()))
    elapsed = time.monotonic() - start
    criterion(6, worst < 1e-5 and elapsed < 60.0,
              f"analytic vs central-difference gradients, worst rel err = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_07_synthetic_end_to_end(tmp_path):
    start = time.monotonic()
    corpus = tmp_path / "corpus"
    run = tmp_path / "run"
    scores = tmp_path / "scores"
    run0 = tmp_path / "run0"
    scores0 = tmp_path / "scores0"

    assert cli.main(["synth", "--out", str(corpus), "--streams", "200", "--val-streams", "50",
                     "--seed", "7", "--dim", "16", "--frames", "60", "--noise", "0.3"]) == 0
    common = ["--data", str(corpus), "--kind", "qrnn", "--blocks", "2", "--d-prime", "16",
              "--lr", "1e-2", "--batch", "32", "--weight-decay", "1e-3",
              "--tau-sim", "0.25", "--seed", "0"]
    assert cli.main(["train", "--out", str(run), "--steps", "100"] + common) == 0
    assert cli.main(["train", "--out", str(run0), "--steps", "0"] + common) == 0

    def evaluate(checkpoint, out_scores):
        assert cli.main(["score", "--checkpoint", checkpoint, "--data", str(corpus),
                         "--split", "val", "--out", str(out_scores)]) == 0
        series = metrics.load_score_series_dir(out_scores / "scores")
        anns = [a for a in ann.parse_annotations((corpus / "annotations.csv").read_bytes())
                if a.split == "val"]
        _, rep = metrics.sweep_thresholds(series, anns, metrics.ToleranceWindow(5, 10),
                                          n=20, objective_k=1)
        return rep

    trained_rep = evaluate(str(run / "checkpoint.sdqk"), scores)
    untrained_rep = evaluate(str(run0 / "checkpoint.sdqk"), scores0)
    elapsed = time.monotonic() - start

    sr, smd = trained_rep.sr[1] / 100.0, trained_rep.smd[1]
    sr0 = untrained_rep.sr[1] / 100.0
    ok = sr >= 0.90 and smd <= 5.0 and sr0 < sr and elapsed < 600.0
    criterion(7, ok,
              f"trained qrnn SR@1 = {sr:.2f} (>= 0.90), SMD@1 = {smd:.2f}s (<= 5), "
              f"untrained SR@1 = {sr0:.2f} (strictly lower), {elapsed:.0f}s")


def test_criterion_08_cost_model_reproductions():
    backbone = costmodel.vit_backbone_stack(d=768, n_blocks=12)
    adapters = costmodel.adapter_stack("vanilla", 768, 384, insertions=24)
    rep = costmodel.cost_report(backbone + adapters, tokens=197, baseline=backbone)
    a_ok = rep.flops_per_frame == 2 * rep.macs_per_frame and 15.7 / 7.85 == 2.0
    sliding = costmodel.sliding_window_overhead(4)
    b_ok = sliding == 300.0 and abs(sliding - 298.5) <= 2.0
    params = costmodel.count_params(adapters)
    pct = params / 180.92e6 * 100.0
    c_ok = params == 14_183_424 and abs(pct - 7.9) <= 0.2
    criterion(8, a_ok and b_ok and c_ok,
              f"flops = 2 x macs; sliding(4) = +{sliding:g}% (vs +298.5%); "
              f"adapter params = {params} = {pct:.2f}% of 180.92M (vs +7.9%)")


def test_criterion_09_metric_monotonicity():
    rng = np.random.default_rng(9009)
    small, big = metrics.ToleranceWindow(2, 5), metrics.ToleranceWindow(5, 10)
    ok = True
    for _ in range(10_000):
        preds = np.sort(rng.uniform(0, 100, int(rng.integers(0, 9))))
        t_s = float(rng.uniform(0, 100))
        sr = [metrics.streaming_recall_at_k(preds, t_s, k, big) for k in (1, 2, 3, 4)]
        ok = ok and all(a <= b for a, b in zip(sr, sr[1:]))
        smd = [metrics.smd_at_k(preds, t_s, k, 120.0) for k in (1, 2, 3, 4)]
        ok = ok and all(a >= b for a, b in zip(smd, smd[1:]))
        ok = ok and metrics.streaming_recall_at_k(preds, t_s, 1, small) <= metrics.streaming_recall_at_k(
            preds, t_s, 1, big
        )
        if not ok:
            break
    criterion(9, ok, "SR@k nondecreasing in k and window size; SMD@k nonincreasing in k (10,000 cases)")


def test_criterion_10_latency_constancy():
    cfg = AdapterConfig(d=128, d_prime=64, kind="qrnn", k=2)
    model = detector.build_model(
        detector.ModelConfig(d_in=128, d=128, n_blocks=2, adapter=cfg, seed=0)
    )
    result = costmodel.bench_latency(model, n_frames=5000, repetitions=3, warmup=10, window=4, seed=1)
    t10 = costmodel.frame_time_at(result, 10)
    t1000 = costmodel.frame_time_at(result, 1000)
    drift = abs(t1000 - t10) / t10
    ratio = result["sliding"]["total"] / result["streaming"]["total"]
    ok = drift <= 0.20 and ratio >= 2.8
    criterion(10, ok,
              f"frame-1000 vs frame-10 time drift = {drift*100:.1f}% (<= 20%); "
              f"sliding/streaming = {ratio:.2f}x (>= 2.8x)")
