"""Annotation ingest, tolerance-window derivation and synthetic data.

The dataset schema is a UTF-8, RFC-4180 CSV with one event annotation per
row and the twelve columns listed in ``COLUMNS`` (header names exact,
column order free).
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericError, RowError, SchemaError
from .metrics import ToleranceWindow

COLUMNS = (
    "split",
    "source",
    "video_uid",
    "clip_uid",
    "annotator_uid",
    "ann_idx",
    "query",
    "response",
    "start_sec",
    "end_sec",
    "video_fps",
    "video_length",
)

SPLITS = ("train", "val")
# `synthetic` marks desk-scale generated corpora alongside the released sources.
SOURCES = ("moments", "nlq", "narration", "synthetic")


@dataclass(frozen=True)
class EventAnnotation:
    """One query with its event interval and video metadata."""

    split: str
    source: str
    video_uid: str
    clip_uid: str
    annotator_uid: str
    ann_idx: int
    query: str
    response: str
    start_sec: float
    end_sec: float
    video_fps: float
    video_length: float

    def __post_init__(self) -> None:
        if self.split not in SPLITS:
            raise ConfigError(f"split must be one of {SPLITS}, got {self.split!r}")
        if not self.query:
            raise ConfigError("query must be non-empty")
        # ids reach file names: <video_uid>.f32 and <video_uid>__<annotator_uid>-<ann_idx>.csv
        if self.video_uid in ("", ".", "..") or any(c in self.video_uid for c in ("__", "/", "\\")):
            raise ConfigError(f"video_uid {self.video_uid!r} cannot name a file: it must not be empty, "
                              "'.' or '..', nor contain '__', '/' or '\\'")
        if any(c in self.annotator_uid for c in ("/", "\\")):
            raise ConfigError(f"annotator_uid {self.annotator_uid!r} cannot name a file: "
                              "it must not contain '/' or '\\'")
        if self.ann_idx < 0:
            raise ConfigError(f"ann_idx must be nonnegative, got {self.ann_idx}")
        for name in ("video_fps", "video_length"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        if not 0 <= self.start_sec <= self.end_sec <= self.video_length:
            raise ConfigError(
                f"need 0 <= start_sec <= end_sec <= video_length, got "
                f"({self.start_sec}, {self.end_sec}, {self.video_length})"
            )


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ConfigError(f"interval must have lo <= hi, got ({self.lo}, {self.hi})")

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class SyntheticStreamSpec:
    """Recipe for one synthetic embedding stream standing in for real video.

    ``distractor_times`` optionally places isolated single-frame flashes of
    the query direction outside the event: indistinguishable from event
    frames one frame at a time, so only temporal aggregation separates the
    sustained event from the flashes.
    """

    n_frames: int
    dim: int
    event_interval: Interval
    noise_scale: float
    seed: int
    fps: float = 1.0
    video_uid: str = ""
    distractor_times: tuple[float, ...] = ()
    # streams sharing a query_seed share the same latent event direction,
    # mirroring repeated event types across real videos; None derives the
    # query from the stream seed
    query_seed: int | None = None
    query_text: str = ""

    def __post_init__(self) -> None:
        if self.n_frames < 1:
            raise ConfigError(f"n_frames must be >= 1, got {self.n_frames}")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ConfigError(f"noise_scale must be finite and nonnegative, got {self.noise_scale}")
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ConfigError(f"fps must be finite and positive, got {self.fps}")
        span = self.n_frames / self.fps
        if not (0 <= self.event_interval.lo and self.event_interval.hi <= span):
            raise ConfigError(
                f"event_interval {self.event_interval} must lie inside [0, {span}]"
            )
        for t in self.distractor_times:
            if not 0 <= t < span:
                raise ConfigError(f"distractor time {t} outside [0, {span})")
            if self.event_interval.lo <= t <= self.event_interval.hi:
                raise ConfigError(f"distractor time {t} overlaps the event interval")
        if not self.video_uid:
            object.__setattr__(self, "video_uid", f"synth-{self.seed:08d}")


# -- parsing ------------------------------------------------------------------

_TIME_FIELDS = ("start_sec", "end_sec", "video_fps", "video_length")


def parse_annotations(data: bytes | str) -> list[EventAnnotation]:
    """Parse the annotation CSV, enforcing schema and row invariants.

    Raises SchemaError when a required column is absent, RowError with the
    1-based data row number for unparsable or invariant-violating rows.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    reader = csv.DictReader(io.StringIO(data))
    header = reader.fieldnames or []
    missing = [c for c in COLUMNS if c not in header]
    if missing:
        raise SchemaError(f"annotation CSV is missing column(s): {', '.join(missing)}")

    out: list[EventAnnotation] = []
    for i, row in enumerate(reader, start=1):
        values: dict = {c: row[c] for c in COLUMNS}
        for name in _TIME_FIELDS:
            try:
                values[name] = float(values[name])
            except (TypeError, ValueError):
                raise RowError(i, f"non-numeric value {values[name]!r} in column {name}") from None
        try:
            values["ann_idx"] = int(values["ann_idx"])
        except (TypeError, ValueError):
            raise RowError(i, f"non-integer ann_idx {values['ann_idx']!r}") from None
        try:
            out.append(EventAnnotation(**values))
        except ConfigError as err:
            raise RowError(i, str(err)) from None
    return out


def serialize_annotations(annotations: list[EventAnnotation]) -> bytes:
    """Inverse of parse_annotations; round-trips to an identical list."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for a in annotations:
        writer.writerow(
            [
                a.split, a.source, a.video_uid, a.clip_uid, a.annotator_uid, a.ann_idx,
                a.query, a.response, repr(a.start_sec), repr(a.end_sec),
                repr(a.video_fps), repr(a.video_length),
            ]
        )
    return buf.getvalue().encode("utf-8")


# -- tolerance derivation -----------------------------------------------------


def interval_iou(a: Interval, b: Interval) -> float:
    """Intersection-over-union of two intervals; 0 when the union is degenerate."""
    inter = max(0.0, min(a.hi, b.hi) - max(a.lo, b.lo))
    union = a.length + b.length - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def tolerance_from_variance(sigma_sq: float, fps: float) -> ToleranceWindow:
    """Discretize a start-time variance onto the frame grid.

    anticipation = floor(sigma * fps) / fps and latency = floor(2 sigma * fps) / fps,
    so one standard deviation of early slack and two of late slack.
    """
    if not (math.isfinite(sigma_sq) and sigma_sq >= 0 and math.isfinite(fps) and fps > 0):
        raise ConfigError(f"need finite sigma_sq >= 0 and finite fps > 0, got ({sigma_sq}, {fps})")
    sigma = math.sqrt(sigma_sq)
    return ToleranceWindow(
        anticipation=math.floor(sigma * fps) / fps,
        latency=math.floor(2.0 * sigma * fps) / fps,
    )


def derive_tolerance(
    annotations: list[EventAnnotation], iou_threshold: float = 0.7, fps: float = 1.0
) -> ToleranceWindow:
    """Derive the metric window from annotation collisions.

    Annotations with identical query text whose intervals overlap with
    IoU >= iou_threshold form collision groups (connected components of the
    pairwise-overlap graph). The window is the frame-grid discretization of
    the mean over groups of the per-group population variance of start_sec.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ConfigError(f"iou_threshold must be in (0, 1], got {iou_threshold}")

    by_label: dict[str, list[int]] = {}
    for i, a in enumerate(annotations):
        by_label.setdefault(a.query, []).append(i)

    parent = list(range(len(annotations)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    n_pairs = 0
    for members in by_label.values():
        for pos, i in enumerate(members):
            a = Interval(annotations[i].start_sec, annotations[i].end_sec)
            for j in members[pos + 1 :]:
                b = Interval(annotations[j].start_sec, annotations[j].end_sec)
                if interval_iou(a, b) >= iou_threshold:
                    union(i, j)
                    n_pairs += 1
    if n_pairs == 0:
        raise ConfigError(
            "no annotation collisions at the given IoU threshold; "
            "supply an explicit tolerance window instead"
        )

    groups: dict[int, list[float]] = {}
    for i, a in enumerate(annotations):
        groups.setdefault(find(i), []).append(a.start_sec)
    variances = [float(np.var(starts)) for starts in groups.values() if len(starts) >= 2]
    sigma_sq = float(np.mean(variances))
    return tolerance_from_variance(sigma_sq, fps)


# -- training-window sampling -------------------------------------------------


def sample_windows(
    annotation: EventAnnotation,
    frames: np.ndarray,
    w_s: int,
    fps: float,
    seed: int,
    p_pos: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """One training window of an annotated stream ``frames [n, d]``: the slice
    ``frames[m : m + w_s]`` and its dense in-event labels ``[w_s]``, by the rule
    docs/formats.md states ("Training windows"). ``p_pos`` is the chance that
    m is drawn among the starts whose window holds an in-event frame. A stream
    shorter than the annotation's frame grid raises SchemaError.
    """
    n_grid = math.ceil(annotation.video_length * fps - 1e-9)  # frames m / fps in [0, video_length)
    if n_grid > len(frames):
        raise SchemaError(f"video {annotation.video_uid}: video_length {annotation.video_length}s at {fps} fps "
                          f"needs {n_grid} frames, its stream holds {len(frames)}")
    if not 1 <= w_s <= n_grid:
        raise ConfigError(f"need 1 <= w_s <= {n_grid}, the frames of a {annotation.video_length}s video "
                          f"at {fps} FPS; got w_s={w_s}")
    if not 0.0 <= p_pos <= 1.0:
        raise ConfigError(f"p_pos must be in [0, 1], got {p_pos}")
    m_max = n_grid - w_s

    lo_frame = math.ceil(annotation.start_sec * fps)
    hi_frame = math.floor(annotation.end_sec * fps)
    # positions m with some j in [0, w_s) satisfying lo_frame <= m + j <= hi_frame
    pos_lo = max(0, lo_frame - (w_s - 1))
    pos_hi = min(m_max, hi_frame)

    rng = np.random.default_rng(seed)
    if rng.random() < p_pos and pos_lo <= pos_hi:
        m = int(rng.integers(pos_lo, pos_hi + 1))
    else:
        m = int(rng.integers(0, m_max + 1))

    times = (m + np.arange(w_s)) / fps
    return frames[m : m + w_s], (times >= annotation.start_sec) & (times <= annotation.end_sec)


# -- synthetic streams --------------------------------------------------------

_BACKBONE_SEED = 1489  # fixed default seed for the frozen stand-in map


def _backbone_map(dim: int, seed: int) -> np.ndarray:
    # a seeded random rotation: full-rank mixing without spectrum artifacts
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def gen_synthetic(
    spec: SyntheticStreamSpec, query_dim: int, backbone_seed: int = _BACKBONE_SEED
) -> tuple[np.ndarray, np.ndarray, EventAnnotation]:
    """Generate one synthetic embedding stream, its query embedding and annotation.

    A seeded unit-norm latent query vector defines the event: in-event
    frames are the query plus scaled Gaussian noise, out-of-event frames are
    independent Gaussian noise whose expected norm matches the in-event
    frames. All frames and the query pass through one fixed seeded linear
    map standing in for the frozen backbone, shared across streams.
    """
    if spec.dim != query_dim:
        raise ConfigError(f"spec.dim ({spec.dim}) must equal query_dim ({query_dim})")
    q_entropy, noise_entropy = np.random.SeedSequence(spec.seed).spawn(2)
    q_rng = np.random.default_rng(
        q_entropy if spec.query_seed is None else np.random.SeedSequence(spec.query_seed)
    )
    q = q_rng.normal(size=spec.dim)
    q /= np.linalg.norm(q)
    noise = np.random.default_rng(noise_entropy).normal(size=(spec.n_frames, spec.dim))

    times = np.arange(spec.n_frames) / spec.fps
    inside = (times >= spec.event_interval.lo) & (times <= spec.event_interval.hi)
    for t in spec.distractor_times:
        inside = inside | (np.abs(times - t) < 0.5 / spec.fps)
    out_scale = math.sqrt(1.0 / spec.dim + spec.noise_scale**2)
    latent = np.where(inside[:, None], q[None, :] + spec.noise_scale * noise, out_scale * noise)

    backbone = _backbone_map(spec.dim, backbone_seed)
    frames = latent @ backbone
    query_emb = q @ backbone

    query_text = spec.query_text or f"synthetic event {spec.query_seed if spec.query_seed is not None else spec.seed}"
    annotation = EventAnnotation(
        split="val",
        source="synthetic",
        video_uid=spec.video_uid,
        clip_uid=spec.video_uid,
        annotator_uid="synth",
        ann_idx=0,
        query=query_text,
        response="event started",
        start_sec=spec.event_interval.lo,
        end_sec=spec.event_interval.hi,
        video_fps=spec.fps,
        video_length=spec.n_frames / spec.fps,
    )
    return frames, query_emb, annotation


def make_corpus_specs(
    n_streams: int,
    seed: int,
    dim: int = 16,
    n_frames: int = 60,
    noise_scale: float = 0.3,
    fps: float = 1.0,
    n_distractors: int = 1,
    n_queries: int = 8,
) -> list[SyntheticStreamSpec]:
    """Derive per-stream specs (seeds, event intervals, distractor flashes)
    from one master seed.

    Defaults produce one-minute clips at 1 FPS, matching the training window
    so clip-level training and streaming evaluation see the same
    distribution. Streams cycle through a pool of ``n_queries`` shared event
    directions, the way real corpora repeat event types across videos.
    Distractor flashes sit at least 8 s before the event start (outside the
    anticipation side of the default tolerance window) or 3 s after its end,
    pairwise at least 4 s apart, so a hit on one is always a false positive.
    """
    if not (math.isfinite(fps) and fps > 0):
        raise ConfigError(f"fps must be finite and positive, got {fps}")
    span = n_frames / fps
    if span < 30.0:
        raise ConfigError(f"stream span {span}s too short for corpus event placement")
    if n_queries < 1:
        raise ConfigError(f"n_queries must be >= 1, got {n_queries}")
    rng = np.random.default_rng(seed)
    query_seeds = [int(rng.integers(0, 2**31 - 1)) for _ in range(n_queries)]
    lo_start, hi_start = 0.2 * span, span - 10.0 - 0.15 * span
    specs = []
    for i in range(n_streams):
        stream_seed = int(rng.integers(0, 2**31 - 1))
        duration = float(rng.uniform(4.0, 10.0))
        start = float(rng.uniform(lo_start, hi_start))
        end = start + duration
        distractors: list[float] = []
        candidates = [t for t in range(2, n_frames - 2) if t / fps < start - 8.0 or t / fps > end + 3.0]
        rng.shuffle(candidates)
        for t in candidates:
            if len(distractors) >= n_distractors:
                break
            if all(abs(t / fps - u) >= 4.0 for u in distractors):
                distractors.append(t / fps)
        qid = i % n_queries
        specs.append(
            SyntheticStreamSpec(
                n_frames=n_frames,
                dim=dim,
                event_interval=Interval(start, end),
                noise_scale=noise_scale,
                seed=stream_seed,
                fps=fps,
                video_uid=f"synth-{seed:04d}-{i:05d}",
                distractor_times=tuple(sorted(distractors)),
                query_seed=query_seeds[qid],
                query_text=f"synthetic event type {qid:03d}",
            )
        )
    return specs


# -- embedding stream files ---------------------------------------------------
#
# Streams are stored as little-endian float32, row-major [n_frames x dim],
# with a JSON sidecar `<name>.json` next to the `<name>.f32` payload and the
# query embedding in `<name>.query.f32`.


def save_stream(
    path: str | Path, frames: np.ndarray, sidecar: dict, query_emb: np.ndarray | None = None
) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arr = np.ascontiguousarray(frames, dtype="<f4")
    path.write_bytes(arr.tobytes())
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True), encoding="utf-8"
    )
    if query_emb is not None:
        query_path = path.with_name(path.stem + ".query.f32")
        query_path.write_bytes(np.ascontiguousarray(query_emb, dtype="<f4").tobytes())


def load_stream(
    path: str | Path, read: Callable[[Path], bytes] = Path.read_bytes
) -> tuple[np.ndarray, dict, np.ndarray | None]:
    """Frames, sidecar and query embedding (None without a query file) of a stream.

    ``read`` reads each of the three files whole, once.
    """
    path = Path(path)
    sidecar_path = path.with_suffix(path.suffix + ".json")
    try:
        sidecar = json.loads(read(sidecar_path).decode("utf-8"))
        n, dim = sidecar["n_frames"], sidecar["dim"]
    except (ValueError, KeyError, TypeError) as err:
        raise SchemaError(f"sidecar {sidecar_path} is not JSON with integer n_frames and dim "
                          f"({type(err).__name__}: {err})") from None
    if not all(type(v) is int and v >= 1 for v in (n, dim)):  # a bool is no count
        raise SchemaError(f"sidecar {sidecar_path} needs integers n_frames and dim of at least 1, "
                          f"got {n!r} and {dim!r}")
    fps = sidecar.get("fps")
    if type(fps) not in (int, float) or not 0 < fps < math.inf:
        raise SchemaError(f"sidecar {sidecar_path} needs a finite positive number fps, got {fps!r}")
    raw = np.frombuffer(read(path), dtype="<f4")
    if raw.size != n * dim:
        raise NumericError(
            f"stream {path} holds {raw.size} floats, sidecar promises {n}x{dim}"
        )
    frames = raw.reshape(n, dim).astype(float)
    _check_finite(path, frames)
    query_path = path.with_name(path.stem + ".query.f32")
    query = None
    if query_path.exists():
        query = np.frombuffer(read(query_path), dtype="<f4").astype(float)
        if query.size != dim:
            raise NumericError(f"query {query_path} holds {query.size} floats, sidecar promises {dim}")
        _check_finite(query_path, query)
    return frames, sidecar, query


def _check_finite(path: Path, values: np.ndarray) -> None:
    bad = int(values.size - np.isfinite(values).sum())
    if bad:
        raise NumericError(f"{path} holds {bad} non-finite value(s)")
