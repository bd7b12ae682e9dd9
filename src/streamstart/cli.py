"""Command-line entry point: ingest, synth, train, score, eval, bench.

JSON results go to stdout, diagnostics to stderr, artifacts into ``--out``
directories, each with exactly one run manifest. Exit codes: 0 success,
2 schema error, 3 id mismatch, 4 numeric failure, 5 configuration error.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, annotations, costmodel, detector, kernels, metrics
from .errors import ConfigError, IdMismatchError, NumericError, RowError, SchemaError

EXIT_SCHEMA = 2
EXIT_ID_MISMATCH = 3
EXIT_NUMERIC = 4
EXIT_CONFIG = 5

# the paper's window: a start-time variance of 28.8 s^2 gives [-5 s, +10 s] at 1 FPS
DEFAULT_WINDOW = annotations.tolerance_from_variance(28.8, fps=1.0)
DEFAULT_KS = "1,2,3"

# duration and start-time histogram bin edges (seconds) for --stats
DURATION_BINS = [0.0, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, float("inf")]
START_BINS = [0.0, 60.0, 120.0, 300.0, 600.0, 1200.0, 1800.0, 3600.0, float("inf")]

# Streams per score_streams call in `score`: one chunk holds at most
# SCORE_STACK x kernels.CHUNK frames.
SCORE_STACK = 64

# A training step frees ~8 MB at the acceptance shapes, and glibc hands the freed
# top of its heap back to the kernel, to fault it in again on the next step. A
# 16 MiB pad keeps it: a standalone qrnn `train` fell from ~2000 minor faults per
# step to the process's floor (8 MiB was the knee, 4 MiB kept a quarter of them).
M_TOP_PAD = -2  # glibc's mallopt parameter number
HEAP_TOP_PAD = 16 << 20


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise ConfigError(message)


def _input_digest(root: Path, digests: dict[Path, str]) -> str:
    """SHA-256 of what a command read of one input: a file's own digest; for a
    directory, the digest of one ``"<sha256>  <path>\\n"`` line (``sha256sum``'s
    format) per file read under it, path relative to it, in path order."""
    if root in digests:
        return digests[root]
    n = len(root.parts)  # comparing parts costs a fraction of Path.relative_to
    lines = sorted(("/".join(p.parts[n:]), d) for p, d in digests.items() if p.parts[:n] == root.parts)
    return hashlib.sha256("".join(f"{d}  {rel}\n" for rel, d in lines).encode("utf-8")).hexdigest()


class _HashingReader:
    """Reads whole files for one command and keeps the SHA-256 of each for its manifest."""

    def __init__(self) -> None:
        self.digests: dict[Path, str] = {}

    def __call__(self, path: Path) -> bytes:
        data = path.read_bytes()
        self.digests[path] = hashlib.sha256(data).hexdigest()
        return data


def write_manifest(out_dir: Path, args: argparse.Namespace, inputs: list[Path], digests: dict[Path, str],
                   **resolved) -> None:
    """The run's record. ``config`` is every flag ``args`` parsed but ``out``, the directory
    that holds the record, with ``resolved``, the values used in place of a flag's "auto"
    value, laid over it. ``digests`` maps each file the command read to its SHA-256; each
    input gets one digest of them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    manifest = {
        "command": args.command,
        "config": config | resolved,
        "seed": getattr(args, "seed", None),
        "input_hashes": {str(p): _input_digest(p, digests) for p in inputs},
        "tool_version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _histogram(values: list[float], edges: list[float]) -> dict[str, int]:
    out = {}
    for lo, hi in zip(edges[:-1], edges[1:]):
        label = f"[{lo:g},{hi:g})" if hi != float("inf") else f"[{lo:g},inf)"
        out[label] = int(sum(1 for v in values if lo <= v < hi))
    return out


# -- commands -------------------------------------------------------------------


def cmd_ingest(args) -> int:
    path = Path(args.annotations)
    read = _HashingReader()
    anns = annotations.parse_annotations(read(path))
    payload: dict = {
        "annotations": len(anns),
        "videos": len({a.video_uid for a in anns}),
    }
    if args.stats:
        by_split: dict[str, int] = {}
        by_source: dict[str, int] = {}
        for a in anns:
            by_split[a.split] = by_split.get(a.split, 0) + 1
            by_source[a.source] = by_source.get(a.source, 0) + 1
        payload["by_split"] = by_split
        payload["by_source"] = by_source
        payload["event_duration_bins"] = _histogram([a.end_sec - a.start_sec for a in anns], DURATION_BINS)
        payload["start_time_bins"] = _histogram([a.start_sec for a in anns], START_BINS)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "ingest_stats.json").write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
        write_manifest(out, args, [path], read.digests)
    _emit(payload)
    return 0


def _corpus_annotations(specs, n_train: int) -> list:
    # a corpus's streams share one dim, so they share one backbone map
    backbone = annotations.backbone_map(specs[0].dim) if specs else None
    anns = []
    for i, spec in enumerate(specs):
        frames, query, ann = annotations.gen_synthetic(spec, backbone)
        ann = replace(ann, split="train" if i < n_train else "val")
        anns.append((spec, frames, query, ann))
    return anns


def cmd_synth(args) -> int:
    out = Path(args.out)
    for flag, count in (("--streams", args.streams), ("--val-streams", args.val_streams),
                        ("--distractors", args.distractors)):
        if count < 0:
            raise ConfigError(f"{flag} must be nonnegative, got {count}")
    specs = annotations.make_corpus_specs(
        n_streams=args.streams + args.val_streams,
        seed=args.seed,
        dim=args.dim,
        n_frames=args.frames,
        noise_scale=args.noise,
        fps=args.fps,
        n_distractors=args.distractors,
        n_queries=args.queries,
    )
    rows = _corpus_annotations(specs, args.streams)
    out.mkdir(parents=True, exist_ok=True)  # an empty corpus saves no stream that would make it
    streams_dir = out / "streams"
    anns = []
    for spec, frames, query, ann in rows:
        sidecar = {
            "video_uid": ann.video_uid,
            "fps": spec.fps,
            "dim": spec.dim,
            "n_frames": spec.n_frames,
            "seed": spec.seed,
        }
        annotations.save_stream(streams_dir / f"{ann.video_uid}.f32", frames, sidecar, query)
        anns.append(ann)
    (out / "annotations.csv").write_bytes(annotations.serialize_annotations(anns))
    write_manifest(out, args, [], {})
    _emit({"out": str(out), "train_streams": args.streams, "val_streams": args.val_streams})
    return 0


def _load_corpus(data_dir: Path, split: str, read: _HashingReader):
    """The split's annotations, its streams and their one dim; ``read`` reads annotations.csv
    and the split's stream files, nothing else. An empty split, or streams of two dims (the
    training set stacks their windows, and one model scores them), raise ConfigError."""
    anns = annotations.parse_annotations(read(data_dir / "annotations.csv"))
    picked = [a for a in anns if a.split == split]
    if not picked:
        raise ConfigError(f"no {split}-split annotations in {data_dir}")
    texts: dict[str, set[str]] = {}
    for a in picked:
        texts.setdefault(a.video_uid, set()).add(a.query)
    streams = {}
    for uid, queries in texts.items():
        if len(queries) > 1:  # the stream has one query embedding file
            raise SchemaError(f"video {uid} has {len(queries)} distinct {split}-split queries; "
                              f"its one {uid}.query.f32 embeds one")
        frames, sidecar, query = annotations.load_stream(data_dir / "streams" / f"{uid}.f32", read)
        if query is None:
            raise SchemaError(f"stream {uid} has no query embedding file")
        streams[uid] = (frames, sidecar, query)
    first = picked[0].video_uid
    dim = streams[first][0].shape[1]
    for uid, (frames, _, _) in streams.items():
        if frames.shape[1] != dim:
            raise ConfigError(f"stream {uid} has dim {frames.shape[1]}, stream {first} has dim {dim}")
    return picked, streams, dim


def _adapter_config(kind: str, d: int, d_prime: int | None, k: int) -> kernels.AdapterConfig:
    dp = d_prime if d_prime else costmodel.default_reduced_dim(kind, d, k)
    return kernels.AdapterConfig(d=d, d_prime=dp, kind=kind, k=k)


def cmd_train(args) -> int:
    data_dir = Path(args.data)
    out = Path(args.out)
    read = _HashingReader()
    anns, streams, dim = _load_corpus(data_dir, "train", read)
    adapter = _adapter_config(args.kind, dim, args.d_prime, args.k)
    w_s = args.ws if args.ws else (30 if args.kind == "retention" else 60)
    model_config = detector.ModelConfig(
        d_in=dim, d=dim, n_blocks=args.blocks, adapter=adapter, tau_sim=args.tau_sim, seed=args.seed
    )
    model = detector.build_model(model_config)
    train_config = detector.TrainConfig(
        learning_rate=args.lr,
        steps=args.steps,
        batch_size=args.batch,
        pos_weight_cap=args.pos_cap,
        seed=args.seed,
        weight_decay=args.weight_decay,
    )

    if args.windows_per_annotation < 1:
        raise ConfigError(f"--windows-per-annotation must be >= 1, got {args.windows_per_annotation}")
    rng = np.random.default_rng(args.seed)
    windows, labels, queries = [], [], []
    for a in anns:
        frames, sidecar, query = streams[a.video_uid]
        for _ in range(args.windows_per_annotation):
            window, window_labels = annotations.sample_windows(
                a, frames, w_s, float(sidecar["fps"]), int(rng.integers(2**31 - 1)))
            windows.append(window)
            labels.append(window_labels)
            queries.append(query)

    trained, history = detector.train(model, np.stack(windows), np.stack(labels), np.stack(queries), train_config)

    detector.save_model(out / "checkpoint.sdqk", trained)
    (out / "curve.csv").write_text(detector.loss_curve_csv(history), encoding="utf-8")
    write_manifest(out, args, [data_dir], read.digests, ws=w_s, d_prime=adapter.d_prime)
    _emit({"checkpoint": str(out / "checkpoint.sdqk"), "steps": len(history),
           "final_loss": history[-1].total if history else None})
    return 0


def cmd_score(args) -> int:
    data_dir = Path(args.data)
    out = Path(args.out)
    read = _HashingReader()
    model = detector.load_model(Path(args.checkpoint), read)
    anns, streams, dim = _load_corpus(data_dir, args.split, read)
    if dim != model.config.d:
        raise ConfigError(f"stream {anns[0].video_uid} has dim {dim}, the checkpoint takes d_in={model.config.d}")
    # score every stream once before writing any series, so a failure leaves no
    # partial output; streams of one length share score_streams calls
    by_length: dict[int, list[str]] = {}
    for uid, (frames, _, _) in streams.items():
        by_length.setdefault(len(frames), []).append(uid)
    probs = {}
    for uids in by_length.values():
        for i in range(0, len(uids), SCORE_STACK):
            group = uids[i : i + SCORE_STACK]
            p = detector.score_streams(model, np.stack([streams[uid][0] for uid in group]),
                                       np.stack([streams[uid][2] for uid in group]))
            probs.update(zip(group, p))
    scored = [metrics.ScoreSeries(a.video_uid, metrics.default_query_id(a), float(streams[a.video_uid][1]["fps"]),
                                  probs[a.video_uid]) for a in anns]
    scores_dir = out / "scores"
    metrics.save_score_series(scores_dir, scored)
    write_manifest(out, args, [Path(args.checkpoint), data_dir], read.digests)
    _emit({"scores": str(scores_dir), "series": len(scored)})
    return 0


def _parse_ks(text: str) -> list[int]:
    ks = []
    for part in text.split(","):
        try:
            ks.append(int(part))
        except ValueError:
            raise ConfigError(f"--k takes comma-separated integers, got {part!r} in {text!r}") from None
    return ks


def cmd_eval(args) -> int:
    scores_dir = Path(args.scores)
    ann_path = Path(args.annotations)
    read = _HashingReader()
    series = metrics.load_score_series_dir(scores_dir, read)
    anns = annotations.parse_annotations(read(ann_path))
    if args.split:
        anns = [a for a in anns if a.split == args.split]
    if not anns:
        raise ConfigError("no annotations selected for evaluation")
    window = metrics.ToleranceWindow(args.anticipation, args.latency)
    ks = _parse_ks(args.k)
    mode = "rising_edge" if args.mode == "edge" else "every_frame"

    if args.sweep:
        threshold, report = metrics.sweep_thresholds(
            series, anns, window, n=args.sweep, objective_k=min(ks), ks=ks, mode=mode
        )
    else:
        threshold = args.threshold
        report = metrics.evaluate_dataset(series, anns, ks, window, mode, threshold)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(report.to_json(), encoding="utf-8")
        write_manifest(out, args, [scores_dir, ann_path], read.digests, threshold=threshold)
    print(report.to_json())
    return 0


def cmd_bench(args) -> int:
    backbone = costmodel.vit_backbone_stack(d=args.d, n_blocks=args.blocks)
    dp = _adapter_config(args.kind, args.d, args.d_prime, args.k).d_prime
    adapters = costmodel.adapter_stack(
        args.kind, args.d, dp, k=args.k, insertions=args.insertions_per_block * args.blocks
    )
    report = costmodel.cost_report(backbone + adapters, tokens=args.tokens, baseline=backbone)
    payload: dict = {
        "cost": report.to_dict(),
        "sliding_window_overhead_pct": costmodel.sliding_window_overhead(args.window),
    }

    if args.frames:
        adapter = _adapter_config(args.kind, args.latency_d, None, args.k)
        model = detector.build_model(
            detector.ModelConfig(
                d_in=args.latency_d, d=args.latency_d, n_blocks=args.latency_blocks,
                adapter=adapter, seed=args.seed,
            )
        )
        latency = costmodel.bench_latency(
            model, n_frames=args.frames, repetitions=args.reps, window=args.window, seed=args.seed
        )
        latency_out = {k: v for k, v in latency.items() if k not in ("frame_times", "probe_times")}
        latency_out["frame_time_probes"] = {
            str(i): costmodel.frame_time_at(latency, i) for i in latency["probe_times"]
        }
        payload["latency"] = latency_out

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "bench.json").write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
        write_manifest(out, args, [], {}, d_prime=dp)
    _emit(payload)
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="streamstart", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate an annotation CSV and emit stats")
    p.add_argument("--annotations", required=True)
    p.add_argument("--stats", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="materialize a seeded synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--streams", type=int, default=200, help="train-split streams")
    p.add_argument("--val-streams", type=int, default=50)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--frames", type=int, default=60)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--fps", type=float, default=1.0)
    p.add_argument("--distractors", type=int, default=1)
    p.add_argument("--queries", type=int, default=8)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train adapters on a corpus")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=kernels.KINDS, default="qrnn")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--ws", type=int, default=0, help="window frames (0 = kind default: 60, 30 for retention)")
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--d-prime", type=int, default=0)
    p.add_argument("--pos-cap", type=float, default=detector.DEFAULT_POS_CAP)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--tau-sim", type=float, default=detector.DEFAULT_TAU_SIM)
    p.add_argument("--windows-per-annotation", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score a corpus split through a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=annotations.SPLITS, default="val")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="compute SR@k / SMD@k from score series")
    p.add_argument("--scores", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--anticipation", type=float, default=DEFAULT_WINDOW.anticipation)
    p.add_argument("--latency", type=float, default=DEFAULT_WINDOW.latency)
    p.add_argument("--k", default=DEFAULT_KS)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--sweep", type=int, default=0, help="sweep N uniform thresholds instead of --threshold")
    p.add_argument("--mode", choices=("edge", "frame"), default="edge")
    p.add_argument("--split", choices=annotations.SPLITS, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="cost accounting and the latency harness")
    p.add_argument("--kind", choices=kernels.KINDS, default="vanilla")
    p.add_argument("--d", type=int, default=768)
    p.add_argument("--d-prime", type=int, default=0)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--tokens", type=int, default=197)
    p.add_argument("--blocks", type=int, default=12)
    p.add_argument("--insertions-per-block", type=int, default=2)
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--frames", type=int, default=0, help="run the wall-clock harness over N frames")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--latency-d", type=int, default=128)
    p.add_argument("--latency-blocks", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


@functools.cache  # once per process
def _pad_heap_top() -> None:
    """Keep HEAP_TOP_PAD bytes of freed heap top in the process; nothing where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_TOP_PAD, HEAP_TOP_PAD)


def main(argv: list[str] | None = None) -> int:
    _pad_heap_top()  # the process's allocator is the entry point's to set, never a library's
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # every command's --seed, before it runs or writes
            raise ConfigError(f"seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (SchemaError, RowError) as err:
        print(f"schema error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except IdMismatchError as err:
        print(f"id mismatch: {err}", file=sys.stderr)
        return EXIT_ID_MISMATCH
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:  # a path that is missing, a directory, or an existing file where one is made
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
