"""Outside-in tracing of the program's modules, for the per-layer metrics.

``Tracer.install`` replaces, by name, every public function of the traced
modules (wherever it is bound, so ``detector.gelu`` is ``kernels.gelu``) and
``StreamingScorer.push`` with a wrapper that records one span per call:
name, start, end, parent span and run id. Spans stay in memory, in compact
arrays; ``write_spans`` writes them out once the run ends. Nothing in the
program is edited, and a function that is no longer there is reported absent.

``layer_metrics`` turns the spans into the per-layer metrics. A span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import statistics
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = ("cli", "annotations", "kernels", "detector", "metrics")
TRACED_METHODS = (("detector", "StreamingScorer", "push"),)
# Called once per prediction or per annotation inside evaluate_dataset: a span
# each would cost more than the work it times. Their time shows in the caller.
UNTRACED = {"metrics.is_hit", "metrics.default_query_id"}
# Spans that also record the MACs the kernels executed inside them.
COUNTED = {"kernels.adapter_forward"}
KINDS = ("vanilla", "st_conv", "qrnn", "retention")
PUSH = "detector.StreamingScorer.push"


class Tracer:
    """Holds the spans of one traced run and the patches that produce them.

    Span ``i`` is ``names[name_id[i]]``, running from ``start[i]`` to
    ``end[i]`` (ns) under span ``parent[i]`` (-1 for none) in the run that
    root span ``root[i]`` started. ``tags`` maps a span name to a function
    of the call's arguments that labels the run its root span starts.
    """

    def __init__(self, tags: dict | None = None):
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.root = array("q")
        self.macs: dict[int, tuple[int, int]] = {}  # span -> (MACs executed, input rows)
        self.labels: dict[int, str] = {}  # root span -> run label
        self.tags = tags or {}
        self.wrapped: set[str] = set()
        self.absent: list[str] = []
        self.counter = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._set_counter = None

    def __len__(self) -> int:
        return len(self.start)

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = {}
        for name in TRACED_MODULES:
            try:
                modules[name] = importlib.import_module(f"streamstart.{name}")
            except ImportError:
                self.absent.append(f"module {name}")
        kernels = modules.get("kernels")
        counter_cls = getattr(kernels, "OpCounter", None)
        set_counter = getattr(kernels, "set_op_counter", None)
        if counter_cls is None or set_counter is None:
            self.absent.append("kernels.OpCounter/set_op_counter")
        else:
            self.counter = counter_cls()
            self._set_counter = set_counter
        owners = [m for n, m in sys.modules.items() if n == "streamstart" or n.startswith("streamstart.")]
        for name, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                span = f"{name}.{attr}"
                if attr.startswith("_") or span in UNTRACED:
                    continue
                wrapper = self._wrap(span, fn)
                for owner in owners:
                    for bound, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, bound, wrapper)
                self.wrapped.add(span)
        for mod_name, cls_name, meth in TRACED_METHODS:
            cls = getattr(modules.get(mod_name), cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            span = f"{mod_name}.{cls_name}.{meth}"
            if fn is None:
                self.absent.append(span)
                continue
            self._patch(cls, meth, self._wrap(span, fn))
            self.wrapped.add(span)
        if self._set_counter is not None:
            self._set_counter(self.counter)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._set_counter is not None:
            self._set_counter(None)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ids, starts, ends, parents, roots = self.name_id, self.start, self.end, self.parent, self.root
        stack, labels, macs, clock = self._stack, self.labels, self.macs, time.perf_counter_ns
        tag = self.tags.get(name)
        counter = self.counter if name in COUNTED else None

        def traced(*args, **kwargs):
            idx = len(starts)
            if stack:
                parent = stack[-1]
                root = roots[parent]
            else:
                parent = -1
                root = idx
                labels[idx] = tag(args) if tag else name
            name_ids.append(nid)
            parents.append(parent)
            roots.append(root)
            ends.append(0)
            stack.append(idx)
            macs0 = counter.total if counter is not None else 0
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if counter is not None:
                    macs[idx] = (counter.total - macs0, len(args[0]))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def write_spans(tracer: Tracer, path) -> None:
    """One CSV row per span; times in ns from the first span's start."""
    t0 = tracer.start[0] if len(tracer) else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["span", "name", "start_ns", "end_ns", "parent", "run_id"])
        for i in range(len(tracer)):
            root = tracer.root[i]
            out.writerow([i, tracer.names[tracer.name_id[i]], tracer.start[i] - t0, tracer.end[i] - t0,
                          tracer.parent[i], f"{tracer.labels[root]}#{root}"])


def _kind(label: str) -> str:
    for part in label.split("/"):
        if part in KINDS:
            return part
    return ""


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, first_measured: int, ctx: dict) -> tuple[dict, dict]:
    """Per-layer metrics and a breakdown record from the spans of one traced run.

    Totals (``*_s``, ``*_calls``) cover the traced set-up and measurement;
    per-frame medians cover the spans from ``first_measured`` on. ``ctx``
    holds what the workload measured itself: ``kind_configs``, ``busy_s``,
    ``overhead_pct``, ``frame_wait_ms``, ``state_bytes`` and ``drift_positions``.
    A metric whose function was not found is left out and listed as absent.
    """
    n = len(tracer)
    name_id = np.frombuffer(tracer.name_id, dtype=np.uint16)
    dur = (np.frombuffer(tracer.end, dtype=np.int64) - np.frombuffer(tracer.start, dtype=np.int64)) / 1e9
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    root = np.frombuffer(tracer.root, dtype=np.int64)
    has_parent = parent >= 0
    child_cover = np.zeros(n)
    np.add.at(child_cover, parent[has_parent], dur[has_parent])
    self_s = dur - child_cover
    ids = {name: i for i, name in enumerate(tracer.names)}
    measured = np.arange(n) >= first_measured

    def where(name, only_measured=False):
        mask = name_id == ids.get(name, -1)
        return np.flatnonzero(mask & measured if only_measured else mask)

    def total(name):
        return float(dur[where(name)].sum())

    def calls(name):
        return len(where(name))

    def self_of(name):
        return float(self_s[where(name)].sum())

    def enclosing(name):
        """For every span, the nearest span with this name that holds it (itself included)."""
        target = ids.get(name, -1)
        out = np.full(n, -1)
        for i in np.flatnonzero((name_id == target) | has_parent):  # parents come first
            out[i] = i if name_id[i] == target else out[parent[i]]
        return out

    push_of = enclosing(PUSH)
    stream_of = enclosing("detector.infer_streaming")
    backward_of = enclosing("detector.backward")

    pushes = where(PUSH, only_measured=True)
    push_kind = np.array([_kind(tracer.labels[r]) for r in root[pushes]], dtype=object)
    block = where("kernels.block_forward")
    block = block[(push_of[block] >= 0) & (parent[block] == push_of[block])]
    adapter = where("kernels.adapter_forward")
    adapter = adapter[push_of[adapter] >= 0]
    block_sum, adapter_sum = np.zeros(n), np.zeros(n)
    np.add.at(block_sum, push_of[block], dur[block])
    np.add.at(adapter_sum, push_of[adapter], dur[adapter])

    m: dict[str, float] = {}
    absent: list[str] = []
    macs_exact: dict[str, bool] = {}  # one executed-MAC count for every frame of a kind

    def put(metric, value, needs=()):
        if all(name in tracer.wrapped for name in needs):
            m[metric] = float(value)
        else:
            absent.append(metric)

    put("cli.write_manifest_s", total("cli.write_manifest"), ["cli.write_manifest"])
    put("cli.self_s", sum(self_of(x) for x in tracer.names if x.startswith("cli.")), ["cli.main"])
    for f in ("gen_synthetic", "load_stream", "sample_windows"):
        put(f"annotations.{f}_s", total(f"annotations.{f}"), [f"annotations.{f}"])
    put("annotations.load_stream_calls", calls("annotations.load_stream"), ["annotations.load_stream"])

    costmodel = sys.modules.get("streamstart.costmodel")  # the formula sheet, if it is still there
    for kind in KINDS:
        mine = pushes[push_kind == kind]
        put(f"kernels.block_forward_us.{kind}", _median(block_sum[mine]) * 1e6,
            [PUSH, "kernels.block_forward"])
        put(f"kernels.adapter_forward_us.{kind}", _median(adapter_sum[mine]) * 1e6,
            [PUSH, "kernels.adapter_forward"])
        put(f"detector.push_us.{kind}", _median(dur[mine]) * 1e6, [PUSH])
        put(f"detector.push_self_us.{kind}", _median(dur[mine] - block_sum[mine]) * 1e6,
            [PUSH, "kernels.block_forward"])
        put(f"detector.push_drift_pct.{kind}",
            _drift(mine, dur, stream_of, root, tracer.labels, ctx.get("drift_positions")), [PUSH])

        if tracer.counter is None or "kernels.adapter_forward" not in tracer.wrapped:
            absent += [f"kernels.executed_macs_per_frame.{kind}", f"kernels.useful_mac_ratio.{kind}"]
        else:
            mine_set = set(mine.tolist())
            executed = [tracer.macs[i][0] / tracer.macs[i][1] for i in adapter
                        if push_of[i] in mine_set and tracer.macs.get(i, (0, 0))[1]]
            macs_exact[kind] = len(set(executed)) <= 1
            m[f"kernels.executed_macs_per_frame.{kind}"] = _median(executed)
            config = ctx["kind_configs"].get(kind)
            if not executed or not config:
                m[f"kernels.useful_mac_ratio.{kind}"] = 0.0
            else:
                try:
                    d, dp, k = config
                    formula = costmodel.count_macs(costmodel.adapter_stack(kind, d, dp, k=k))
                    m[f"kernels.useful_mac_ratio.{kind}"] = formula / _median(executed)
                except (AttributeError, TypeError):
                    absent.append(f"kernels.useful_mac_ratio.{kind}")
        state = ctx.get("state_bytes")
        if state is None:
            absent.append(f"kernels.state_bytes.{kind}")
        else:
            m[f"kernels.state_bytes.{kind}"] = float(state.get(kind, 0))

    put("kernels.gelu_s", total("kernels.gelu"), ["kernels.gelu"])
    for f in ("fo_pool", "causal_conv"):
        put(f"kernels.{f}_s", total(f"kernels.{f}"), [f"kernels.{f}"])
        put(f"kernels.{f}_calls", calls(f"kernels.{f}"), [f"kernels.{f}"])
    put("kernels.retention_recurrent_us",
        _median(dur[where("kernels.retention_recurrent", only_measured=True)]) * 1e6,
        ["kernels.retention_recurrent"])

    wait = ctx.get("frame_wait_ms")
    m["detector.frame_wait_ms_p50"] = float(np.percentile(wait, 50)) if wait is not None and len(wait) else 0.0
    put("detector.backward_s", total("detector.backward"), ["detector.backward"])
    put("detector.backward_calls", calls("detector.backward"), ["detector.backward"])
    detector_ids = [i for name, i in ids.items() if name.startswith("detector.")]
    in_backward = (backward_of >= 0) & np.isin(name_id, detector_ids)
    put("detector.backward_self_s", float(self_s[in_backward].sum()), ["detector.backward"])
    put("detector.train_self_s", self_of("detector.train"), ["detector.train", "detector.backward"])
    put("detector.infer_streaming_s", total("detector.infer_streaming"), ["detector.infer_streaming"])

    put("metrics.sweep_thresholds_s", total("metrics.sweep_thresholds"), ["metrics.sweep_thresholds"])
    put("metrics.evaluate_dataset_calls", calls("metrics.evaluate_dataset"), ["metrics.evaluate_dataset"])
    put("metrics.evaluate_dataset_self_s", self_of("metrics.evaluate_dataset"), ["metrics.evaluate_dataset"])
    put("metrics.extract_predictions_s", total("metrics.extract_predictions"), ["metrics.extract_predictions"])
    put("metrics.extract_predictions_calls", calls("metrics.extract_predictions"),
        ["metrics.extract_predictions"])
    put("metrics.recall_smd_s", total("metrics.streaming_recall_at_k") + total("metrics.smd_at_k"),
        ["metrics.streaming_recall_at_k", "metrics.smd_at_k"])
    put("metrics.save_score_series_s", total("metrics.save_score_series"), ["metrics.save_score_series"])
    put("metrics.load_score_series_dir_s", total("metrics.load_score_series_dir"),
        ["metrics.load_score_series_dir"])

    m["trace.overhead_pct"] = ctx["overhead_pct"]
    m["trace.self_sum_pct"] = 100.0 * float(self_s[measured].sum()) / ctx["busy_s"] if ctx["busy_s"] > 0 else 0.0

    modules: dict[str, float] = {}
    for name, i in ids.items():
        layer = name.split(".", 1)[0]
        modules[layer] = modules.get(layer, 0.0) + float(self_s[(name_id == i) & measured].sum())
    record = {
        "spans": n,
        "measured_spans": n - first_measured,
        "self_s_by_module": modules,
        "busy_s": ctx["busy_s"],
        "push_samples": {k: int((push_kind == k).sum()) for k in KINDS},
        "macs_same_every_frame": macs_exact,
        "absent": tracer.absent + absent,
    }
    return m, record


def _drift(pushes, dur, stream_of, root, labels, positions) -> float:
    """Median push time over the last tenth of each stream against its first tenth, in %.

    Pushes are grouped into streams by the ``infer_streaming`` call they sit
    in or, outside one, by their run label (one scorer each). ``positions``,
    when given, masks the stream positions that count.
    """
    streams: dict = {}
    for i in pushes:
        key = stream_of[i] if stream_of[i] >= 0 else labels[root[i]]
        streams.setdefault(key, []).append(dur[i])
    first, last = [], []
    for times in streams.values():
        if positions is not None:
            times = [t for t, keep in zip(times, positions) if keep]
        tenth = len(times) // 10
        if tenth:
            first += times[:tenth]
            last += times[-tenth:]
    if not first:
        return 0.0
    return 100.0 * (statistics.median(last) / statistics.median(first) - 1.0)
