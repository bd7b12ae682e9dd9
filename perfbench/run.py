"""Run one benchmark workload of streamstart and print its metrics.

    python3 perfbench/run.py --workload live --seed 1 --seconds 4 --trace 0

Run from a checkout: the program is imported from ``src/`` next to this
directory. An untraced run (``--trace 0``) sets up and measures all three
workloads, ``pipeline``, ``live`` and ``sweep``, in this one process, and
reports every end-to-end metric, timed by ``refclock.RefClock``: wall time
scaled to a fixed reference speed of the machine. A traced run
(``--trace 1``) measures the named workload twice, untraced and then traced,
in wall time, and reports the per-layer metrics. The last line of standard output is the result as JSON; the line
before it records the environment and the details behind the numbers.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Cap BLAS threads before numpy loads. numpy and scipy each load their own
# OpenBLAS, and each adds (cap - 1) worker threads to the main one, so this
# cap keeps the whole process within NPROC threads.
BLAS_CAP = max(1, (NPROC + 1) // 2)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(BLAS_CAP)

ORDER = ("pipeline", "live", "sweep")
SETUP_REPS = 5
WORK_DIR = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_out"


def _import_program():
    """Import the program from this checkout's ``src/``, or exit if it is not there."""
    src = ROOT / "src"
    if not (src / "streamstart" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}/streamstart; run from a full checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import streamstart

    if Path(streamstart.__file__).resolve().parent != (src / "streamstart").resolve():
        sys.exit(f"perfbench: imported streamstart from {streamstart.__file__}, not from {src}")
    import refclock
    import workloads

    return workloads, refclock


def _threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _environment(seed: int, workload: str, trace: bool) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": workload,
        "trace": trace,
        "seed": seed,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_thread_cap": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "loadavg_at_start": os.getloadavg(),
    }


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(wl, clock, seed: int, seconds: float, workdir: Path, imported: float, record: dict):
    """All three workloads: set up several times (median), then measure them
    interleaved, then check each. Times are read from ``clock``."""
    clock.start()
    try:
        setup_spans, inputs = [], None
        for _ in range(SETUP_REPS):
            inputs = None  # let the previous inputs go before building the next
            t0 = time.perf_counter()
            inputs = {name: wl.WORKLOADS[name].setup(seed, seconds, workdir) for name in ORDER}
            setup_spans.append((t0, time.perf_counter()))
        # The workloads share this process only here. Keep the inputs out of the
        # garbage collector's full passes, so one workload's inputs do not
        # lengthen the collection pauses that another's frames wait behind.
        gc.freeze()
        raws = wl.run_interleaved({name: (wl.WORKLOADS[name].measure(inputs[name], clock),
                                          wl.WORKLOADS[name].tasks) for name in ORDER})
    finally:
        clock.stop()
    # the imports ran before the first probe, at the speed the first probes found
    import_s = clock.elapsed(T_START, imported)
    setup_times = [clock.elapsed(t0, t1) for t0, t1 in setup_spans]
    metrics = {"setup_s": import_s + statistics.median(setup_times)}
    attempted = failed = 0
    record["threads"] = _threads()
    for name in ORDER:
        w, raw = wl.WORKLOADS[name], raws[name]
        t0 = time.perf_counter()
        checked = w.check(inputs[name], raw)
        raw.record["check_s"] = time.perf_counter() - t0
        metrics.update(raw.metrics)
        attempted += checked.attempted
        failed += checked.failed
        record[name] = {**raw.record, **checked.record,
                        "attempted": checked.attempted, "failed": checked.failed}
    metrics["peak_rss_mib"] = _peak_rss_mib()
    record["setup"] = {"import_s": import_s, "reps_s": setup_times,
                       "import_wall_s": imported - T_START, "reps_wall_s": [t1 - t0 for t0, t1 in setup_spans]}
    record["clock"] = clock.summary()
    return metrics, attempted, failed


def traced_run(wl, clock, name: str, seed: int, seconds: float, workdir: Path, record: dict):
    """One workload untraced, then set up and measured again under the tracer.

    Repetitions are off in both passes: the breakdown needs one of each. Both
    are timed in wall time (``clock`` is a ``WallClock``), which the spans use.
    """
    import tracing

    w = wl.WORKLOADS[name]
    t0 = time.perf_counter()
    inputs = w.setup(seed, seconds, workdir)
    plain_setup = time.perf_counter() - t0
    gc.freeze()
    plain = wl.run_interleaved({name: (w.measure(inputs, clock, repeat=False), 1)})[name]
    checked = w.check(inputs, plain)
    attempted, failed = checked.attempted, checked.failed

    # run ids: the stream a push serves, or the command cli.main runs
    current = [inputs]
    tags = {
        "detector.StreamingScorer.push": lambda args: current[0].labels.get(id(args[0]), "push"),
        "cli.main": lambda args: current[0].labels.get(tuple(args[0]), "cli"),
    }
    tracer = tracing.Tracer(tags)
    tracer.install()
    try:
        t0 = time.perf_counter()
        current[0] = inputs = w.setup(seed, seconds, workdir)
        traced_setup = time.perf_counter() - t0
        gc.freeze()
        first_measured = len(tracer)
        traced = wl.run_interleaved({name: (w.measure(inputs, clock, repeat=False), 1)})[name]
    finally:
        tracer.uninstall()
    checked = w.check(inputs, traced)
    attempted += checked.attempted
    failed += checked.failed

    ctx = {
        "kind_configs": w.kind_configs,
        "busy_s": traced.busy_s,
        "overhead_pct": 100.0 * ((traced_setup + traced.busy_s) / (plain_setup + plain.busy_s) - 1.0),
        "frame_wait_ms": traced.outputs.get("wait_ms"),
        "state_bytes": _state_bytes(traced.outputs.get("scorers"), inputs),
        "drift_positions": traced.outputs.get("closed"),
    }
    metrics, layer_record = tracing.layer_metrics(tracer, first_measured, ctx)
    TRACE_DIR.mkdir(exist_ok=True)
    spans_path = TRACE_DIR / f"spans-{name}.csv"
    tracing.write_spans(tracer, spans_path)
    record["peak_rss_mib"] = _peak_rss_mib()
    record["threads"] = _threads()
    if "scorers" in traced.outputs:  # carried state must not grow with stream length
        record["state_bytes_fresh"] = _state_bytes(
            [wl.detector.StreamingScorer(inputs.models[s[0]], s[3]) for s in inputs.streams], inputs)
    record[name] = {**traced.record, **checked.record, **layer_record,
                    "untraced_busy_s": plain.busy_s, "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, attempted, failed


def _state_bytes(scorers, inputs) -> dict | None:
    """Bytes of carried state per stream, by kind, from each scorer's ``states``."""
    if not scorers:
        return {}
    out = {}
    for scorer, (kind, *_rest) in zip(scorers, inputs.streams):
        states = getattr(scorer, "states", None)
        if states is None:
            return None
        out[kind] = max(out.get(kind, 0), _nbytes(states))
    return out


def _nbytes(obj) -> int:
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(x) for x in obj)
    if hasattr(obj, "__dict__"):
        return sum(_nbytes(x) for x in vars(obj).values())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ORDER)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the live workload's open-loop phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl, refclock = _import_program()
    imported = time.perf_counter()
    record = _environment(args.seed, args.workload, bool(args.trace))
    workdir = WORK_DIR / f"run-{os.getpid()}"
    try:
        if args.trace:
            metrics, attempted, failed = traced_run(wl, refclock.WallClock(), args.workload, args.seed,
                                                    args.seconds, workdir, record)
        else:
            metrics, attempted, failed = untraced_run(wl, refclock.RefClock(), args.seed, args.seconds,
                                                      workdir, imported, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = _declared_units("per_layer" if args.trace else "end_to_end")
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    record["not_reported"] = sorted(set(declared) - set(metrics))
    print(json.dumps({"record": record}, default=str))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _declared_units(section: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


if __name__ == "__main__":
    sys.exit(main())
