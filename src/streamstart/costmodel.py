"""Symbolic parameter/MAC/FLOP accounting and a wall-clock latency harness.

MAC conventions per layer kind (the formula sheet; counts are per processed
frame, `tokens` spatial tokens wide):

* linear          params d_in*d_out (+ d_out bias), macs tokens*d_in*d_out
* attention       params 4*d^2 + 4*d, macs 4*tokens*d^2 + 2*tokens^2*d
                  (q/k/v/out projections, score and value matmuls)
* conv1d (new frame) params k*d_in*d_out (+ d_out); dense macs
                  k*d_in*d_out*tokens, depthwise k*d_out*tokens
* fo_pool         params 0, macs 2*d_out*tokens (two elementwise products)
* retention_step  params 3*d^2, macs 3*d^2*tokens (QKV) + 2*d^2*tokens
                  (state update + readout) + 2*d*tokens (q.k and its v)
* layernorm       params 2*d, macs 2*d*tokens
* pointwise       params 0, macs d*tokens

FLOPs are reported as exactly 2x MACs. Wall-clock latency figures are
hardware-bound; the harness verifies ratios and constancy, not absolutes.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass

import numpy as np

from .detector import DetectorModel, StreamingScorer
from .errors import ConfigError, check_count

LAYER_KINDS = ("linear", "attention", "conv1d", "fo_pool", "retention_step", "layernorm", "pointwise")


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    d_in: int = 0
    d_out: int = 0
    k: int = 1
    depthwise: bool = False
    bias: bool = True
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in LAYER_KINDS:
            raise ConfigError(f"layer kind must be one of {LAYER_KINDS}, got {self.kind!r}")
        width = 0 if self.kind == "pointwise" else 1
        for name, minimum in (("d_in", width), ("d_out", width), ("k", 1), ("count", 1)):
            check_count(name, getattr(self, name), minimum)


@dataclass(frozen=True)
class CostReport:
    params: int
    macs_per_frame: int
    flops_per_frame: int
    overhead_params_pct: float | None = None
    overhead_macs_pct: float | None = None


def _layer_params(spec: LayerSpec) -> int:
    if spec.kind == "linear":
        return spec.d_in * spec.d_out + (spec.d_out if spec.bias else 0)
    if spec.kind == "attention":
        d = spec.d_in
        return 4 * d * d + (4 * d if spec.bias else 0)
    if spec.kind == "conv1d":
        if spec.depthwise:
            return spec.k * spec.d_out + (spec.d_out if spec.bias else 0)
        return spec.k * spec.d_in * spec.d_out + (spec.d_out if spec.bias else 0)
    if spec.kind == "retention_step":
        return 3 * spec.d_in * spec.d_out
    if spec.kind == "layernorm":
        return 2 * spec.d_in
    return 0  # fo_pool, pointwise


def _layer_macs(spec: LayerSpec, t: int) -> int:
    if spec.kind == "linear":
        return t * spec.d_in * spec.d_out
    if spec.kind == "attention":
        d = spec.d_in
        return 4 * t * d * d + 2 * t * t * d
    if spec.kind == "conv1d":
        if spec.depthwise:
            return spec.k * spec.d_out * t
        return spec.k * spec.d_in * spec.d_out * t
    if spec.kind == "fo_pool":
        return 2 * spec.d_out * t
    if spec.kind == "retention_step":
        d = spec.d_out
        return 3 * d * d * t + 2 * d * d * t + 2 * d * t
    if spec.kind == "layernorm":
        return 2 * spec.d_in * t
    return spec.d_in * t if spec.d_in else t  # pointwise


def count_params(stack: list[LayerSpec]) -> int:
    """Exact parameter count including biases."""
    return sum(_layer_params(spec) * spec.count for spec in stack)


def count_macs(stack: list[LayerSpec], tokens: int = 1) -> int:
    """Multiply-accumulates to process one new frame through the stack."""
    check_count("tokens", tokens, 1)
    return sum(_layer_macs(spec, tokens) * spec.count for spec in stack)


def cost_report(
    stack: list[LayerSpec],
    tokens: int = 1,
    baseline: list[LayerSpec] | None = None,
) -> CostReport:
    """Build a report; overhead percentages compare against the ``baseline`` stack."""
    params = count_params(stack)
    macs = count_macs(stack, tokens)
    overhead_params = overhead_macs = None
    if baseline is not None:
        base_params = count_params(baseline)
        base_macs = count_macs(baseline, tokens)
        overhead_params = (params - base_params) / base_params * 100.0
        overhead_macs = (macs - base_macs) / base_macs * 100.0
    return CostReport(
        params=params,
        macs_per_frame=macs,
        flops_per_frame=2 * macs,
        overhead_params_pct=overhead_params,
        overhead_macs_pct=overhead_macs,
    )


def sliding_window_overhead(window: int) -> float:
    """Extra MACs (percent) of re-running the backbone over the last `window`
    frames at every arrival, relative to one single-frame pass: ``window - 1``
    passes more, whatever a pass costs."""
    check_count("window", window, 1)
    return (window - 1) * 100.0


# -- reference stacks ----------------------------------------------------------


def vit_backbone_stack(d: int = 768, n_blocks: int = 12, d_mlp: int | None = None) -> list[LayerSpec]:
    """Documented approximation of a ViT encoder block stack (no patch stem)."""
    d_mlp = 4 * d if d_mlp is None else d_mlp
    return [
        LayerSpec(kind="layernorm", d_in=d, d_out=d, count=n_blocks),
        LayerSpec(kind="attention", d_in=d, d_out=d, count=n_blocks),
        LayerSpec(kind="layernorm", d_in=d, d_out=d, count=n_blocks),
        LayerSpec(kind="linear", d_in=d, d_out=d_mlp, count=n_blocks),
        LayerSpec(kind="linear", d_in=d_mlp, d_out=d, count=n_blocks),
    ]


def adapter_stack(
    kind: str, d: int, d_prime: int, k: int = 2, insertions: int = 1, depthwise: bool = False
) -> list[LayerSpec]:
    """Layer stack of one adapter kind repeated `insertions` times."""
    layers = [
        LayerSpec(kind="linear", d_in=d, d_out=d_prime, count=insertions),
        LayerSpec(kind="linear", d_in=d_prime, d_out=d, count=insertions),
    ]
    if kind == "st_conv":
        layers.append(
            LayerSpec(kind="conv1d", d_in=d_prime, d_out=d_prime, k=k, bias=False,
                      depthwise=depthwise, count=insertions)
        )
    elif kind == "qrnn":
        layers.append(
            LayerSpec(kind="conv1d", d_in=d_prime, d_out=d_prime, k=k,
                      depthwise=depthwise, count=2 * insertions)
        )
        layers.append(LayerSpec(kind="fo_pool", d_in=d_prime, d_out=d_prime, count=insertions))
    elif kind == "retention":
        layers.append(LayerSpec(kind="retention_step", d_in=d_prime, d_out=d_prime, count=insertions))
    elif kind != "vanilla":
        raise ConfigError(f"unknown adapter kind {kind!r}")
    if kind == "vanilla":
        layers.append(LayerSpec(kind="pointwise", d_in=d_prime, d_out=d_prime, count=insertions))
    return layers


def default_reduced_dim(kind: str, d: int, k: int = 2) -> int:
    """Reduced width for a kind: d/2 for st_conv; another kind takes the narrowest
    width whose parameter count is nearest st_conv's."""
    half = max(1, d // 2)
    if kind == "st_conv":
        return half
    target = count_params(adapter_stack("st_conv", d, half, k))
    return min(range(1, d + 1), key=lambda dp: abs(count_params(adapter_stack(kind, d, dp, k)) - target))


# -- latency harness -----------------------------------------------------------

# rounds of probe pushes per repetition; each round pushes once at every position
_PROBE_ROUNDS = 50


def _probe_positions(n_frames: int) -> list[int]:
    """Stream positions 10, 100, 1000, ... below `n_frames`."""
    out = []
    p = 10
    while p < n_frames:
        out.append(p)
        p *= 10
    return out


def bench_latency(
    model: DetectorModel,
    n_frames: int,
    repetitions: int = 3,
    warmup: int = 10,
    window: int = 4,
    seed: int = 0,
) -> dict:
    """Per-frame streaming wall times plus the sliding-window comparator.

    Streams `n_frames` seeded random frames through the model `repetitions`
    times, excluding the first `warmup` frames from the summary statistics.
    Right after each streaming pass, a sliding pass re-scores the last
    `window` frames per arrival on the same weights, so that a change of CPU
    speed during the run hits both sides of the comparison alike.

    For the cost at a stream position, the first pass keeps a copy of the
    scorer, with its own list of states, at positions 10, 100, 1000, ...
    below `n_frames`. Single pushes are then timed from those copies
    round-robin, one position after another, so that a change of CPU speed
    during the run hits every position alike; ``probe_times`` holds them
    by position.

    Benchmarks are single-worker: run them one at a time.
    """
    check_count("n_frames", n_frames, 1)
    check_count("warmup", warmup, 0, n_frames - 1)
    check_count("repetitions", repetitions, 1)
    check_count("window", window, 1)
    check_count("seed", seed)
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(n_frames, model.config.d))
    query = rng.normal(size=model.config.d)
    positions = _probe_positions(n_frames)

    runs = []
    sliding_totals = []
    snapshots = {}
    for _ in range(repetitions):
        scorer = StreamingScorer(model, query)
        times = np.empty(n_frames)
        for i in range(n_frames):
            if not runs and i in positions:
                snapshots[i] = _copy_scorer(scorer)
            t0 = time.perf_counter_ns()
            scorer.push(frames[i])
            times[i] = (time.perf_counter_ns() - t0) / 1e9
        runs.append(times)

        # sliding-window baseline: every arrival re-runs the single-frame model
        # over the last `window` frames from a fresh state, so each arrival
        # costs `window` frame passes instead of one state update
        t0 = time.perf_counter_ns()
        for i in range(warmup, n_frames):
            lo = max(0, i - window + 1)
            comparator = StreamingScorer(model, query)
            for j in range(lo, i + 1):
                comparator.push(frames[j])
        sliding_totals.append((time.perf_counter_ns() - t0) / 1e9)

    probe_times: dict[int, list[float]] = {p: [] for p in positions}
    for _ in range(repetitions * _PROBE_ROUNDS):
        for p in positions:
            probe = _copy_scorer(snapshots[p])
            t0 = time.perf_counter_ns()
            probe.push(frames[p])
            probe_times[p].append((time.perf_counter_ns() - t0) / 1e9)

    timed = np.concatenate([r[warmup:] for r in runs])
    streaming_totals = [float(r[warmup:].sum()) for r in runs]
    return {
        "n_frames": n_frames,
        "repetitions": repetitions,
        "warmup": warmup,
        "window": window,
        "streaming": {
            "mean": float(np.mean(timed)),
            "p50": float(np.percentile(timed, 50)),
            "p99": float(np.percentile(timed, 99)),
            "total": float(np.mean(streaming_totals)),
            "totals": streaming_totals,
        },
        "sliding": {
            "total": float(np.mean(sliding_totals)),
            "totals": sliding_totals,
            "mean": float(np.mean(sliding_totals) / (n_frames - warmup)),
        },
        "frame_times": [r.tolist() for r in runs],
        "probe_times": probe_times,
    }


def _copy_scorer(scorer: StreamingScorer) -> StreamingScorer:
    # each push replaces the scorer's state objects and never mutates them,
    # so a copy with its own states list continues from the same position
    out = copy.copy(scorer)
    out.states = list(scorer.states)
    return out


def frame_time_at(result: dict, frame: int) -> float:
    """Median time of one push at stream position `frame`, from the probe
    pushes of ``bench_latency``; `frame` must be one of its probe positions."""
    times = result["probe_times"].get(frame)
    if times is None:
        raise ConfigError(f"no probe at frame {frame}; probed positions are {sorted(result['probe_times'])}")
    return float(np.median(times))
