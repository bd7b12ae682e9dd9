"""The two number rules of ``errors``, and every numeric input that checks its numbers through them."""

import math
import re

import numpy as np
import pytest

from streamstart import annotations, costmodel, detector, metrics
from streamstart.errors import ConfigError, check_count, check_real
from streamstart.kernels import AdapterConfig


class TestCheckCount:
    @pytest.mark.parametrize("value", [0, 7, np.int64(3), np.uint8(2), 2**70])
    def test_an_integer_at_or_above_the_minimum_passes(self, value):
        check_count("n", value)

    @pytest.mark.parametrize("value", [True, np.bool_(False), 2.0, np.float64(1.0), "1", None])
    def test_anything_else_is_no_integer(self, value):
        with pytest.raises(ConfigError, match=rf"^n must be an integer, got {re.escape(repr(value))}$"):
            check_count("n", value)

    def test_bounds_are_inclusive(self):
        check_count("n", 1, 1, 4)
        check_count("n", 4, 1, 4)
        with pytest.raises(ConfigError, match=r"^n must be >= 1, got 0$"):
            check_count("n", 0, 1, 4)
        with pytest.raises(ConfigError, match=r"^n must be <= 4, got 5$"):
            check_count("n", 5, 1, 4)


class TestCheckReal:
    @pytest.mark.parametrize("value", [0.0, -3.5, 2, np.float64(0.5), np.float32(-1.0), np.int64(4), 10**400])
    def test_a_finite_real_passes(self, value):
        check_real("x", value)

    @pytest.mark.parametrize("value", [True, np.bool_(True), "1.0", None, 1j, np.array([1.0]),
                                       math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_anything_else_is_no_finite_real(self, value):
        with pytest.raises(ConfigError, match=rf"^x must be a finite real number, got {re.escape(repr(value))}$"):
            check_real("x", value)

    @pytest.mark.parametrize("sign, good, bad", [
        ("positive", [1e-300, 1, 5.0], [0, 0.0, -1.0, math.nan, math.inf]),
        ("nonnegative", [0, 0.0, -0.0, 5.0], [-1e-300, -1, math.nan, math.inf]),
    ])
    def test_a_sign(self, sign, good, bad):
        for value in good:
            check_real("x", value, sign)
        for value in bad:
            with pytest.raises(ConfigError, match=rf"^x must be finite and {sign}, got {value}$"):
                check_real("x", value, sign)

    def test_a_sign_still_needs_a_real(self):
        with pytest.raises(ConfigError, match=r"^x must be a finite real number, got 'x'$"):
            check_real("x", "x", "positive")


def _fields(make, base: dict, names):
    """(id, name, call) for each named argument of ``make``, the call passing one value for it."""
    return [(f"{make.__name__}.{name}", name, lambda value, name=name: make(**base | {name: value}))
            for name in names]


ADAPTER = dict(d=4, d_prime=2, kind="qrnn")
MODEL = dict(d_in=4, d=4, n_blocks=1, adapter=AdapterConfig(**ADAPTER))
SPEC = dict(n_frames=60, dim=4, event_interval=annotations.Interval(10.0, 20.0), noise_scale=0.1, seed=0,
            query_seed=1)
ANNOTATION = dict(split="val", source="synthetic", video_uid="v", clip_uid="v", annotator_uid="a", ann_idx=0,
                  query="q", response="", start_sec=1.0, end_sec=2.0, video_fps=1.0, video_length=10.0)
LATENCY = dict(model=detector.build_model(detector.ModelConfig(**MODEL)), n_frames=20, repetitions=1, warmup=2,
               window=2, seed=0)
WINDOW = metrics.ToleranceWindow(5.0, 10.0)
WINDOW_DRAW = dict(annotation=annotations.EventAnnotation(**ANNOTATION), frames=np.zeros((10, 4)), w_s=3, fps=1.0,
                   seed=0)


def _paired():
    a = annotations.EventAnnotation(**ANNOTATION)
    return [metrics.ScoreSeries("v", metrics.default_query_id(a), 1.0, np.full(10, 0.5))], [a]


def _evaluate(ks):
    return metrics.evaluate_dataset(*_paired(), ks, WINDOW)


def _sweep(**ks):
    return metrics.sweep_thresholds(*_paired(), WINDOW, **ks)


COUNTS = [
    *_fields(AdapterConfig, ADAPTER, ("d", "d_prime", "k")),
    *_fields(detector.ModelConfig, MODEL, ("d_in", "d", "n_blocks", "seed")),
    *_fields(detector.TrainConfig, {}, ("steps", "batch_size", "seed")),
    *_fields(annotations.SyntheticStreamSpec, SPEC, ("n_frames", "dim", "seed", "query_seed")),
    *_fields(costmodel.LayerSpec, dict(kind="linear", d_in=4, d_out=4), ("d_in", "d_out", "k", "count")),
    *_fields(annotations.EventAnnotation, ANNOTATION, ("ann_idx",)),
    *_fields(annotations.make_corpus_specs, dict(n_streams=2, seed=0),
             ("n_streams", "seed", "dim", "n_frames", "n_distractors", "n_queries")),
    *_fields(costmodel.count_macs, dict(stack=[]), ("tokens",)),
    *_fields(costmodel.sliding_window_overhead, {}, ("window",)),
    *_fields(costmodel.bench_latency, LATENCY, ("n_frames", "repetitions", "warmup", "window", "seed")),
    *_fields(metrics.sweep_thresholds, dict(series=[], annotations=[], w=WINDOW), ("n",)),
    ("evaluate_dataset.ks", "k", lambda value: _evaluate([1, value])),
    ("sweep_thresholds.ks", "k", lambda value: _sweep(ks=[1, value])),
    ("sweep_thresholds.objective_k", "k", lambda value: _sweep(objective_k=value)),
    ("streaming_recall_at_k.k", "k", lambda value: metrics.streaming_recall_at_k(np.array([1.0]), 1.0, value, WINDOW)),
    ("smd_at_k.k", "k", lambda value: metrics.smd_at_k(np.array([1.0]), 1.0, value, 10.0)),
    *_fields(annotations.sample_windows, WINDOW_DRAW, ("w_s", "seed")),
]

REALS = [
    *_fields(AdapterConfig, ADAPTER, ("gamma", "theta", "forget_bias_init")),
    *_fields(detector.ModelConfig, MODEL, ("tau_sim",)),
    *_fields(detector.TrainConfig, {}, ("learning_rate", "pos_weight_cap", "weight_decay")),
    *_fields(annotations.SyntheticStreamSpec, SPEC, ("noise_scale", "fps")),
    *_fields(annotations.EventAnnotation, ANNOTATION, ("start_sec", "end_sec", "video_fps", "video_length")),
    *_fields(annotations.Interval, dict(lo=1.0, hi=2.0), ("lo", "hi")),
    *_fields(metrics.ToleranceWindow, dict(anticipation=5.0, latency=10.0), ("anticipation", "latency")),
    *_fields(annotations.make_corpus_specs, dict(n_streams=2, seed=0), ("fps", "noise_scale")),
    *_fields(annotations.tolerance_from_variance, dict(sigma_sq=28.8, fps=1.0), ("sigma_sq", "fps")),
    ("extract_predictions.threshold", "threshold",
     lambda value: metrics.extract_predictions(metrics.ScoreSeries("v", "q", 1.0, [0.5]), value)),
    ("evaluate_dataset.threshold", "threshold",
     lambda value: metrics.evaluate_dataset(*_paired(), [1], WINDOW, threshold=value)),
]


@pytest.mark.parametrize("value", [True, "3", 2.5], ids=repr)
@pytest.mark.parametrize("name, call", [case[1:] for case in COUNTS], ids=[case[0] for case in COUNTS])
def test_every_count_is_checked_by_the_count_rule(name, call, value):
    with pytest.raises(ConfigError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("value", [True, "x", math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("name, call", [case[1:] for case in REALS], ids=[case[0] for case in REALS])
def test_every_real_is_checked_by_the_real_rule(name, call, value):
    with pytest.raises(ConfigError, match=rf"^{name} must be (a finite real number|finite and \w+), got "):
        call(value)


@pytest.mark.parametrize("name, value, minimum", [("w_s", 0, 1), ("seed", -1, 0)])
def test_sample_windows_counts_below_their_minimum(name, value, minimum):
    # checked before the window is sliced or its generator seeded
    with pytest.raises(ConfigError, match=rf"^{name} must be >= {minimum}, got {value}$"):
        annotations.sample_windows(**WINDOW_DRAW | {name: value})
