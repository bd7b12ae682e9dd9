"""Annotation ingest, the tolerance window from a start-time variance, training
windows and synthetic data.

The dataset schema is a UTF-8, RFC-4180 CSV with one event annotation per
row and the twelve columns listed in ``COLUMNS`` (header names exact,
column order free).
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import framing
from .errors import ConfigError, NumericError, RowError, SchemaError, check_count, check_real
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
        if self.source not in SOURCES:
            raise ConfigError(f"source must be one of {SOURCES}, got {self.source!r}")
        if not self.query:
            raise ConfigError("query must be non-empty")
        # the video_uid names its stream file, streams/<video_uid>.f32
        if self.video_uid in ("", ".", "..") or any(c in self.video_uid for c in "/\\\0"):
            raise ConfigError(f"video_uid {self.video_uid!r} cannot name a file: it must not be empty, "
                              "'.' or '..', nor contain '/', '\\' or NUL")
        check_count("ann_idx", self.ann_idx)
        check_real("start_sec", self.start_sec)
        check_real("end_sec", self.end_sec)
        check_real("video_fps", self.video_fps, "positive")
        check_real("video_length", self.video_length, "positive")
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
        check_real("lo", self.lo)
        check_real("hi", self.hi)
        if self.lo > self.hi:
            raise ConfigError(f"interval must have lo <= hi, got ({self.lo}, {self.hi})")


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
        for name, minimum in (("n_frames", 1), ("dim", 1), ("seed", 0)):
            check_count(name, getattr(self, name), minimum)
        if self.query_seed is not None:
            check_count("query_seed", self.query_seed)
        check_real("noise_scale", self.noise_scale, "nonnegative")
        check_real("fps", self.fps, "positive")
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

    Raises SchemaError for bytes that are not UTF-8 (naming the first bad
    byte's offset), a header that is not CSV or lacks a required column, and
    RowError with the 1-based data row number for rows that are not CSV,
    have more or fewer fields than the header, are unparsable or
    invariant-violating, and for a row that repeats an earlier row's
    (video_uid, annotator_uid, ann_idx).
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as err:
            raise SchemaError(f"annotation CSV is not UTF-8: byte {err.start} {err.reason}") from None
    reader = csv.reader(io.StringIO(data))
    try:
        header = next(reader, [])
    except csv.Error as err:  # a bare CR in an unquoted field, say
        raise SchemaError(f"annotation CSV header is not CSV: {err}") from None
    missing = [c for c in COLUMNS if c not in header]
    if missing:
        raise SchemaError(f"annotation CSV is missing column(s): {', '.join(missing)}")
    column = {name: j for j, name in enumerate(header)}  # a repeated name reads its last column
    picks = [(c, column[c]) for c in COLUMNS]
    last = max(column[c] for c in COLUMNS)
    rows: list[list[str]] = []
    try:
        for row in reader:
            if row:  # a blank line is no row
                rows.append(row)
    except csv.Error as err:
        raise RowError(len(rows) + 1, f"is not CSV: {err}") from None

    out: list[EventAnnotation] = []
    first_rows: dict[tuple[str, str, int], int] = {}
    for i, row in enumerate(rows, start=1):
        if len(row) > len(header):
            raise RowError(i, f"has more fields than the header's {len(header)}")
        if len(row) <= last:  # a short row lacks a column the schema needs
            raise RowError(i, f"has fewer fields than the header's {len(header)}")
        values: dict = {c: row[j] for c, j in picks}
        for name in _TIME_FIELDS:
            try:
                values[name] = float(values[name])
            except ValueError:
                raise RowError(i, f"non-numeric value {values[name]!r} in column {name}") from None
        try:
            values["ann_idx"] = int(values["ann_idx"])
        except ValueError:
            raise RowError(i, f"non-integer ann_idx {values['ann_idx']!r}") from None
        try:
            a = EventAnnotation(**values)
        except ConfigError as err:
            raise RowError(i, str(err)) from None
        first = first_rows.setdefault((a.video_uid, a.annotator_uid, a.ann_idx), i)
        if first != i:
            raise RowError(i, f"repeats the (video_uid, annotator_uid, ann_idx) of row {first}: "
                              f"({a.video_uid}, {a.annotator_uid}, {a.ann_idx})")
        out.append(a)
    return out


def serialize_annotations(annotations: list[EventAnnotation]) -> bytes:
    """Inverse of parse_annotations; round-trips to an identical list."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    writer.writerows([getattr(a, name) for name in COLUMNS] for a in annotations)  # a float's str is its repr
    return buf.getvalue().encode("utf-8")


# -- tolerance window ---------------------------------------------------------


def _frame_grid(seconds: float, fps: float, least: int = 0) -> int:
    """How many frames m / fps lie in [0, seconds); ConfigError, naming that grid, unless finite and >= ``least``."""
    frames = seconds * fps
    grid = math.ceil(frames - 1e-9) if frames < math.inf else frames
    if not least <= grid < math.inf:
        raise ConfigError(f"{seconds}s at {fps} FPS gives a frame grid of {grid} frames, not a finite count >= {least}")
    return grid


def tolerance_from_variance(sigma_sq: float, fps: float) -> ToleranceWindow:
    """Discretize a start-time variance onto the frame grid.

    anticipation = floor(sigma * fps) / fps and latency = floor(2 sigma * fps) / fps,
    so one standard deviation of early slack and two of late slack.
    """
    check_real("sigma_sq", sigma_sq, "nonnegative")
    check_real("fps", fps, "positive")
    sigma = math.sqrt(sigma_sq)
    _frame_grid(2.0 * sigma, fps)  # the latency's span, the wider one, on a finite grid
    return ToleranceWindow(
        anticipation=math.floor(sigma * fps) / fps,
        latency=math.floor(2.0 * sigma * fps) / fps,
    )


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
    check_count("w_s", w_s, 1)
    check_count("seed", seed)
    check_real("fps", fps, "positive")
    check_real("p_pos", p_pos)
    if not 0.0 <= p_pos <= 1.0:
        raise ConfigError(f"p_pos must be in [0, 1], got {p_pos}")
    n_grid = _frame_grid(annotation.video_length, fps, 1)
    if n_grid > len(frames):
        raise SchemaError(f"video {annotation.video_uid}: video_length {annotation.video_length}s at {fps} fps "
                          f"needs {n_grid} frames, its stream holds {len(frames)}")
    if w_s > n_grid:
        raise ConfigError(f"need 1 <= w_s <= {n_grid}, the frames of a {annotation.video_length}s video "
                          f"at {fps} FPS; got w_s={w_s}")
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

_BACKBONE_SEED = 1489  # fixed seed of the frozen stand-in map


def backbone_map(dim: int) -> np.ndarray:
    """The fixed ``[dim, dim]`` linear map standing in for the frozen backbone: a
    seeded random rotation, full-rank mixing without spectrum artifacts."""
    rng = np.random.default_rng(_BACKBONE_SEED)
    g = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def gen_synthetic(
    spec: SyntheticStreamSpec, backbone: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, EventAnnotation]:
    """Generate one synthetic embedding stream, its query embedding and annotation.

    A seeded unit-norm latent query vector defines the event: in-event
    frames are the query plus scaled Gaussian noise, out-of-event frames are
    independent Gaussian noise whose expected norm matches the in-event
    frames. All frames and the query pass through one fixed seeded linear
    map standing in for the frozen backbone, shared across streams:
    ``backbone_map(spec.dim)``, which a caller generating many streams may
    build once and pass as ``backbone``.
    """
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
    out_scale = math.sqrt(1.0 / spec.dim + spec.noise_scale * spec.noise_scale)  # x * x is inf where x**2 raises
    if backbone is None:
        backbone = backbone_map(spec.dim)
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing frames: refused by stream_arrays
        latent = np.where(inside[:, None], q[None, :] + spec.noise_scale * noise, out_scale * noise)
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
    # checked before any spec is built, so an empty corpus is checked too
    check_real("fps", fps, "positive")
    check_real("noise_scale", noise_scale, "nonnegative")
    for name, value, minimum in (("n_streams", n_streams, 0), ("seed", seed, 0), ("dim", dim, 1),
                                 ("n_frames", n_frames, 1), ("n_distractors", n_distractors, 0),
                                 ("n_queries", n_queries, 1)):
        check_count(name, value, minimum)
    span = n_frames / fps
    if span < 30.0:
        raise ConfigError(f"stream span {span}s too short for corpus event placement")
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
# One file per stream, framed by framing.py: magic "SDQS", the header {dim, fps, n_frames}, then
# the query [dim] and the frames [n_frames, dim] as little-endian float32 (docs/formats.md).

STREAM_MAGIC = b"SDQS"
STREAM_VERSION = 1


def stream_arrays(name: str, frames: np.ndarray, query_emb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frames and query as the contiguous little-endian float32 a stream file stores; a value that
    is not finite as float32 (one beyond ±3.4e38 included) raises NumericError naming ``name``."""
    with np.errstate(over="ignore"):  # an overflowing cast is reported below, not warned about
        arr, query = (np.ascontiguousarray(values, dtype="<f4") for values in (frames, query_emb))
    if not (np.isfinite(arr).all() and np.isfinite(query).all()):
        raise NumericError(f"{name}: its frames or query are not finite as the float32 a stream file stores")
    return arr, query


def save_stream(path: str | Path, frames: np.ndarray, query_emb: np.ndarray, fps: float) -> None:
    path = Path(path)
    arr, query = stream_arrays(str(path), frames, query_emb)
    path.parent.mkdir(parents=True, exist_ok=True)
    head = {"dim": arr.shape[1], "fps": float(fps), "n_frames": arr.shape[0]}
    framing.write(path, STREAM_MAGIC, STREAM_VERSION, head, [query, arr])


def load_stream(
    path: str | Path, read: Callable[[Path], bytes] = Path.read_bytes
) -> tuple[np.ndarray, float, np.ndarray]:
    """Frames, fps and query embedding of a stream file, which ``read`` reads whole, once. A bad
    magic (a corpus of three files per stream, written before this layout, included), another
    version, a file cut inside its head or a header that is not what ``save_stream`` writes
    raises SchemaError; a header key it does not read is ignored."""
    path = Path(path)
    raw = read(path)
    head, end = framing.unframe(
        path, raw, STREAM_MAGIC, STREAM_VERSION, "stream", SchemaError, f"{path} is not a stream file (bad "
        f"magic {raw[:4]!r}); a corpus of three files per stream predates the one-file layout: re-run synth")
    n, dim = head.get("n_frames"), head.get("dim")
    if not all(type(v) is int and v >= 1 for v in (n, dim)):  # a bool is no count
        raise SchemaError(f"{path}: its header needs integers n_frames and dim of at least 1, "
                          f"got {n!r} and {dim!r}")
    fps = head.get("fps")
    if type(fps) not in (int, float) or not 0 < fps < math.inf:
        raise SchemaError(f"{path}: its header needs a finite positive number fps, got {fps!r}")
    # the query is row 0, the frames the n rows after it
    if len(raw) - end != 4 * (n + 1) * dim:
        raise NumericError(f"{path} holds {len(raw) - end} bytes after its header, which promises "
                           f"{n + 1}x{dim} float32 values (the query, then {n} frames)")
    values = np.frombuffer(raw, dtype="<f4", offset=end).reshape(n + 1, dim).astype(float)
    bad = int(values.size - np.isfinite(values).sum())
    if bad:
        raise NumericError(f"{path} holds {bad} non-finite value(s)")
    return values[1:], float(fps), values[0]
