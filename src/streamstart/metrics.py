"""Streaming event-start metrics.

Implements Streaming Recall@k and Streaming Minimum Distance@k over
per-frame detection probabilities, plus prediction extraction, dataset
aggregation and the validation threshold sweep.

A prediction at time ``t_out`` counts as a hit for a ground-truth start
``t_s`` when ``t_s - anticipation <= t_out <= t_s + latency``: early by at
most ``anticipation`` seconds, late by at most ``latency`` seconds.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, IdMismatchError, NumericError, SchemaError

MODES = ("rising_edge", "every_frame")
# Elements that one evaluation block's padded working arrays may hold: its [b, C, T]
# prediction mask, or the [b, T] scores of the record search.
_BLOCK = 2**18
# Frames per chunk of the record search, a power of two: a pairwise tree of maxima
# gives each chunk's maximum, and only a chunk whose maximum beats every frame
# before it holds a record.
_RECORD_CHUNK = 16
SWEEP_MAX = 1000  # most sweep candidates: the selection's [Q, N] arrays take 8 KB per query each


@dataclass(frozen=True)
class ToleranceWindow:
    """Asymmetric acceptance interval around an event start, in seconds."""

    anticipation: float
    latency: float

    def __post_init__(self) -> None:
        a, l = float(self.anticipation), float(self.latency)
        if not (math.isfinite(a) and math.isfinite(l)) or a < 0 or l < 0:
            raise ConfigError(f"tolerance window must be nonnegative and finite, got ({a}, {l})")


@dataclass(frozen=True)
class ScoreSeries:
    """Per-frame detection probabilities for one (video, query) pair.

    ``scores[i]`` is the probability assigned to the frame at time ``i / fps``.
    """

    video_uid: str
    query_id: str
    fps: float
    scores: np.ndarray

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "scores", scores)
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ConfigError(f"fps must be finite and positive, got {self.fps}")
        if scores.ndim != 1:
            raise ConfigError(f"scores must be 1-D, got shape {scores.shape}")
        # NaN fails both comparisons, so finiteness is only diagnosed on failure
        if scores.size and not (scores.min() >= 0.0 and scores.max() <= 1.0):
            bad = int((~np.isfinite(scores)).sum())
            if bad:
                raise NumericError(
                    f"scores of ({self.video_uid}, {self.query_id}) must be finite, "
                    f"got {bad} non-finite value(s)"
                )
            raise ConfigError(f"scores of ({self.video_uid}, {self.query_id}) must lie in [0, 1]")


@dataclass(frozen=True)
class MetricReport:
    """Dataset-level metric summary (SR as percentages, SMD in seconds)."""

    threshold: float
    window: ToleranceWindow
    sr: dict[int, float]
    smd: dict[int, float]
    n_queries: int

    def to_json(self) -> str:
        payload = {
            "threshold": self.threshold,
            "window": {"anticipation": self.window.anticipation, "latency": self.window.latency},
            "sr": {str(k): v for k, v in sorted(self.sr.items())},
            "smd": {str(k): v for k, v in sorted(self.smd.items())},
            "n_queries": self.n_queries,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def default_query_id(annotation) -> str:
    """The key pairing an annotation with its score series, which ``score`` writes.

    Annotations carry no explicit query id; ``annotator_uid-ann_idx`` is
    unique within a video, for ``parse_annotations`` rejects a repeated
    ``(video_uid, annotator_uid, ann_idx)``, and the nonnegative ``ann_idx``
    after the last ``-`` makes the join injective whatever the ``annotator_uid``.
    """
    return f"{annotation.annotator_uid}-{annotation.ann_idx}"


def _check_evaluation(thresholds, mode: str, ks) -> None:
    for threshold in thresholds:
        if not 0.0 <= threshold <= 1.0:
            raise ConfigError(f"threshold must be in [0, 1], got {threshold}")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    for k in ks:
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")


def _prediction_mask(scores: np.ndarray, thresholds: np.ndarray, mode: str) -> np.ndarray:
    """``[..., C, T]`` mask of the ``[..., T]`` frames that emit a prediction at each of C thresholds."""
    above = scores[..., None, :] >= thresholds[:, None]
    if mode == "rising_edge":
        above[..., 1:] &= ~above[..., :-1]
    return above


def extract_predictions(series: ScoreSeries, threshold: float, mode: str = "rising_edge") -> np.ndarray:
    """Turn a score series into an increasing array of prediction times.

    ``rising_edge`` emits ``i / fps`` whenever the score crosses the
    threshold from below; ``every_frame`` emits every frame at or above it.
    """
    _check_evaluation([threshold], mode, [])
    idx = np.flatnonzero(_prediction_mask(series.scores, np.array([threshold], dtype=float), mode)[0])
    return idx.astype(float) / series.fps


def is_hit(t_out, t_s: float, w: ToleranceWindow):
    """True iff ``t_out`` falls inside ``[t_s - anticipation, t_s + latency]``; elementwise on arrays."""
    return (t_s - w.anticipation <= t_out) & (t_out <= t_s + w.latency)


def _first_k(preds, k: int) -> np.ndarray:
    """The first k of ``[..., K]`` prediction times, stored k-major: a reduction over
    the last axis then runs one whole column at a time, not one short row at a time."""
    return np.asfortranarray(np.asarray(preds, dtype=float)[..., :k])


def streaming_recall_at_k(preds, t_s, k: int, w: ToleranceWindow):
    """True iff any of the first ``min(k, len(preds))`` predictions is a hit.

    Elementwise over the leading axes of ``[..., K]`` prediction times padded with
    inf past each row's last prediction, ``t_s`` broadcasting over them; a 1-D
    ``preds`` gives a ``bool``.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    hit = np.any(is_hit(_first_k(preds, k), np.asarray(t_s)[..., None], w), axis=-1)
    return hit if hit.ndim else bool(hit)


def smd_at_k(preds, t_s, k: int, horizon):
    """Smallest ``|t_s - t_out|`` among the first k predictions.

    No prediction falls back to ``horizon``, the worst error realizable over
    the evaluation span. Elementwise like ``streaming_recall_at_k``, ``horizon``
    broadcasting too; a 1-D ``preds`` gives a ``float``.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if np.any(np.asarray(horizon) <= 0):
        raise ConfigError(f"horizon must be positive, got {horizon}")
    nearest = np.abs(_first_k(preds, k) - np.asarray(t_s)[..., None]).min(axis=-1, initial=np.inf)
    nearest = np.where(nearest == np.inf, horizon, nearest)
    return nearest if nearest.ndim else float(nearest)


@dataclass(frozen=True)
class _Queries:
    """The evaluated queries in annotation order: each one's series, frame count, fps
    and ground-truth start."""

    series: list[ScoreSeries]
    lengths: np.ndarray
    fps: np.ndarray
    starts: np.ndarray


def _pair(series, annotations, thresholds, mode: str, ks) -> _Queries:
    """Pair every annotation with its series and validate the evaluation.

    A missing ``(video_uid, default_query_id)`` raises IdMismatchError listing them
    all; then no annotations, a bad threshold, mode or k, and a series
    without frames raise ConfigError, in that order.
    """
    by_key = {(s.video_uid, s.query_id): s for s in series}
    keys = [(a.video_uid, default_query_id(a)) for a in annotations]
    missing = [key for key in keys if key not in by_key]
    if missing:
        raise IdMismatchError(missing)
    if not annotations:
        raise ConfigError("no annotations to evaluate")
    _check_evaluation(thresholds, mode, ks)
    paired = [by_key[key] for key in keys]
    lengths = np.fromiter((s.scores.size for s in paired), dtype=np.intp, count=len(paired))
    if not lengths.all():
        ser = paired[int(np.argmin(lengths))]
        raise ConfigError(f"score series ({ser.video_uid}, {ser.query_id}) has no frames")
    return _Queries(
        series=paired, lengths=lengths,
        fps=np.fromiter((s.fps for s in paired), dtype=float, count=len(paired)),
        starts=np.fromiter((a.start_sec for a in annotations), dtype=float, count=len(paired)),
    )


def _blocks(lengths: np.ndarray, width: int):
    """Query indices in length order, cut into blocks whose padded ``[b, width, T]``
    working arrays hold at most ``_BLOCK`` elements, T being the block's longest
    length; a query longer than that gets a block of its own."""
    order = np.argsort(lengths, kind="stable")
    start = 0
    while start < len(order):
        # b grows while b * width * T fits, T being the b-th length of the sorted run
        room = max(1, _BLOCK // (width * int(lengths[order[start]])))
        ahead = lengths[order[start:start + room]]
        fits = np.arange(1, len(ahead) + 1) * ahead * width <= _BLOCK  # True, then False
        block = order[start:start + max(1, int(np.count_nonzero(fits)))]
        start += len(block)
        yield block


def _stack(queries: _Queries, block: np.ndarray, multiple: int = 1) -> np.ndarray:
    """``[b, T]`` scores of a block's queries, each row padded with -1 to T, the block's
    longest length rounded up to a multiple of ``multiple``: one concatenate. Padding is
    below every threshold, so it never fires."""
    lengths = queries.lengths[block]
    t = -(-int(lengths.max()) // multiple) * multiple
    rows = [queries.series[q].scores for q in block.tolist()]
    if lengths.min() < t:  # each row, then a slice of one -1 row as long as its padding
        fill = np.full(t, -1.0)
        rows = [part for scores in rows for part in (scores, fill[scores.size:])]
    return np.concatenate(rows).reshape(len(block), t)


def _first_predictions(queries: _Queries, taus: np.ndarray, mode: str, n_first: int) -> np.ndarray:
    """``[Q, C, n_first]`` frame of each query's j-th prediction at each threshold; inf past its last.

    Each block of ``_blocks(lengths, C)`` is stacked by ``_stack`` and builds
    its ``[b, C, T]`` prediction mask; each of ``n_first`` passes takes every
    row's first set frame and clears it.
    """
    first = np.full((len(queries.series), len(taus), n_first), np.inf)
    for block in _blocks(queries.lengths, len(taus)):
        pad = _stack(queries, block)
        mask = _prediction_mask(pad, taus, mode).reshape(-1, pad.shape[1])
        rows = np.arange(len(mask))
        found = np.empty((len(mask), n_first))
        for j in range(n_first):
            frame = mask.argmax(axis=1)
            found[:, j] = np.where(mask[rows, frame], frame, np.inf)
            mask[rows, frame] = False
        first[block] = found.reshape(len(block), len(taus), n_first)
    return first


@dataclass(frozen=True)
class _Records:
    """The queries' running-maximum records, query by query (the query indices in
    ``order``) and frame by frame: where a query's running maximum rises from ``old``
    (-inf at frame 0) to ``new``, the score at ``frame``. A query's last record is its
    maximum, ``top``."""

    order: np.ndarray
    frame: np.ndarray
    old: np.ndarray
    new: np.ndarray
    top: np.ndarray


def _record_chunks(top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the chunks, of ``[b, n]`` chunk maxima ``top``, whose maximum beats
    the maximum of every chunk before them in their row, and that maximum (-inf for a
    row's first chunk). Only these chunks hold running-maximum records."""
    before = np.empty_like(top)
    before[:, 0] = -np.inf
    np.maximum.accumulate(top[:, :-1], axis=1, out=before[:, 1:])
    picked = np.flatnonzero(top > before)
    return picked, before.ravel()[picked]


def _records(queries: _Queries) -> tuple[float, float, _Records]:
    """The lowest and the highest score of the queries, and their records: one pass over
    the blocks of ``_blocks(lengths, 1)``.

    Each row is cut into ``_RECORD_CHUNK``-frame chunks (padding is -1, below every
    score), and a pairwise tree of maxima gives each chunk's maximum. The running
    maximum then runs only over the chunks that ``_record_chunks`` picks, each seeded
    with the maximum before it. A record is a strict rise, as in the running maximum
    itself.
    """
    lo, hi, kept = np.inf, -np.inf, []
    for block in _blocks(queries.lengths, 1):
        pad = _stack(queries, block, _RECORD_CHUNK)
        chunks = pad.reshape(-1, _RECORD_CHUNK)
        top = np.maximum(chunks[:, 0::2], chunks[:, 1::2])  # stride-2 halves, one flat loop each
        while top.shape[1] > 1:
            top = np.maximum(top[:, 0::2], top[:, 1::2])
        top = top.reshape(len(block), -1)
        picked, seed = _record_chunks(top)
        # run[j] holds frame j of every picked chunk: one np.maximum per frame runs the
        # seeded maximum faster than np.maximum.accumulate along 16-frame rows
        run = np.ascontiguousarray(chunks[picked].T)
        np.maximum(run[0], seed, out=run[0])
        for j in range(1, _RECORD_CHUNK):
            np.maximum(run[j], run[j - 1], out=run[j])
        rise = np.empty(run.shape, dtype=bool)
        np.greater(run[0], seed, out=rise[0])
        np.greater(run[1:], run[:-1], out=rise[1:])
        chunk, j = np.nonzero(rise.T)  # row-major: picked ascends, and frames ascend in a chunk
        row_top = top.max(axis=1)
        kept.append((block, picked[chunk] % top.shape[1] * _RECORD_CHUNK + j,
                     np.where(j > 0, run[j - 1, chunk], seed[chunk]), run[j, chunk], row_top))
        # every row is real up to the block's shortest length; past it, leave the padding out
        shortest = int(queries.lengths[block].min())
        tail = pad[:, shortest:]
        lo = min(lo, float(pad[:, :shortest].min()), float(np.min(tail, where=tail >= 0, initial=np.inf)))
        hi = max(hi, float(row_top.max()))
    return lo, hi, _Records(*map(np.concatenate, zip(*kept)))


def _first_crossings(queries: _Queries, records: _Records, taus: np.ndarray) -> np.ndarray:
    """``[Q, C]`` first frame whose score is at least each of the ascending thresholds
    ``taus``; inf where the query never reaches one. In either mode that frame is the
    query's first prediction.

    It is the first frame at which the running maximum reaches the threshold, so only
    the ``_records`` cross anything: each exactly the thresholds in ``(old, new]``. Per
    row those ranges are consecutive and start at the lowest threshold, so the records'
    frames, each repeated once per threshold of its range, fill the row's crossed
    thresholds in order. The records do not depend on ``taus``.
    """
    counts = np.searchsorted(taus, records.new, "right") - np.searchsorted(taus, records.old, "right")
    crossed = np.arange(len(taus)) < np.searchsorted(taus, records.top, "right")[:, None]
    found = np.full(crossed.shape, np.inf)
    found[crossed] = np.repeat(records.frame, counts)
    first = np.empty((len(queries.series), len(taus)))
    first[records.order] = found
    return first


def _report(queries: _Queries, ks, w: ToleranceWindow, mode: str, threshold: float) -> MetricReport:
    """The report at one threshold: each k's SR@k and SMD@k, whose horizon is the
    series' span, over each query's first ``max(ks)`` prediction times, averaged in
    query order."""
    first = _first_predictions(queries, np.array([threshold], dtype=float), mode, max(ks, default=0))
    times, span = first[:, 0] / queries.fps[:, None], queries.lengths / queries.fps
    return MetricReport(
        threshold=float(threshold), window=w,
        sr={k: float(np.mean(streaming_recall_at_k(times, queries.starts, k, w)) * 100.0) for k in ks},
        smd={k: float(np.mean(smd_at_k(times, queries.starts, k, span))) for k in ks},
        n_queries=len(queries.series),
    )


def evaluate_dataset(
    series: list[ScoreSeries],
    annotations: list,
    ks: list[int],
    w: ToleranceWindow,
    mode: str = "rising_edge",
    threshold: float = 0.5,
) -> MetricReport:
    """Aggregate SR@k (percent) and SMD@k (seconds) over all queries.

    Every annotation must have a matching series keyed by
    ``(video_uid, default_query_id)``, and that series must have frames. The
    SMD horizon is each series' span.
    """
    return _report(_pair(series, annotations, [threshold], mode, ks), ks, w, mode, threshold)


def sweep_thresholds(
    series: list[ScoreSeries],
    annotations: list,
    w: ToleranceWindow,
    n: int = 20,
    objective_k: int = 1,
    ks: list[int] | None = None,
    mode: str = "rising_edge",
) -> tuple[float, MetricReport]:
    """Pick the threshold maximizing SR@objective_k from a uniform grid.

    Candidates are ``n`` uniformly spaced values between the minimum and
    maximum observed scores, 2 <= n <= ``SWEEP_MAX``; ties break toward the
    larger threshold. When all scores are constant there is a single
    candidate. The queries are paired and validated once.

    One pass over the paired scores (``_records``) gives the grid's bounds
    and each query's running-maximum records; series that no annotation
    pairs are scanned apart, as they still widen the grid. Selection needs
    only each query's first ``objective_k`` predictions at every candidate.
    With ``objective_k = 1`` that is the first frame whose score reaches the
    candidate, in either mode, and the records give it for all candidates
    (``_first_crossings``). A larger ``objective_k`` takes the first
    ``objective_k`` frames of every candidate's prediction mask
    (``_first_predictions``). The report is then ``evaluate_dataset``'s at
    the chosen threshold alone.
    """
    if not 2 <= n <= SWEEP_MAX:  # before anything is allocated
        raise ConfigError(f"sweep needs 2 <= n <= {SWEEP_MAX} candidates, got {n}")
    ks = sorted(set((ks or [1, 2, 3]) + [objective_k]))
    if not any(s.scores.size for s in series):
        raise ConfigError("cannot sweep thresholds over empty score series")
    # the candidates lie between two scores, in [0, 1], so no threshold is checked
    queries = _pair(series, annotations, [], mode, ks)
    lo, hi, records = _records(queries)
    paired = {id(s) for s in queries.series}
    unpaired = [s.scores for s in series if id(s) not in paired and s.scores.size]
    for i in range(0, len(unpaired), 64):  # one reduction per 64 series, not one per series
        chunk = np.concatenate(unpaired[i:i + 64])
        lo, hi = min(lo, float(chunk.min())), max(hi, float(chunk.max()))
    candidates = [lo] if lo == hi else list(np.linspace(lo, hi, n))
    taus = np.array(candidates, dtype=float)  # np.linspace's grid ascends
    if objective_k == 1:
        first = _first_crossings(queries, records, taus)[:, :, None]
    else:
        first = _first_predictions(queries, taus, mode, objective_k)
    hit = streaming_recall_at_k(first / queries.fps[:, None, None], queries.starts[:, None], objective_k, w)
    sr = [float(np.mean(hit[:, c]) * 100.0) for c in range(len(candidates))]
    best = max(range(len(candidates)), key=lambda c: (sr[c], c))
    return candidates[best], _report(queries, ks, w, mode, candidates[best])


# -- score store --------------------------------------------------------------
#
# One run's series in one directory: `scores.f64`, every series' scores end to
# end as little-endian float64, and `index.json`, the format version and per
# series its ids, fps, offset and frame count (both counted in values).

STORE_VERSION = 1
_ARRAY, _INDEX = "scores.f64", "index.json"


def save_score_series(directory: str | Path, series: Sequence[ScoreSeries]) -> None:
    """Write ``series`` into ``directory`` as its score store. What the loader rejects, ids
    that are not strings, a repeated ``(video_uid, query_id)``, a series without frames or
    an fps that is not finite and positive, raises ConfigError before a byte is written.
    The array goes first and the index last, under a temporary name then renamed, so an
    interrupted write never leaves an index describing another array."""
    entries, seen, offset = [], set(), 0
    for s in series:
        pair = f"({s.video_uid}, {s.query_id})"
        fps = float(s.fps)
        if not (isinstance(s.video_uid, str) and isinstance(s.query_id, str)):
            raise ConfigError(f"score series {pair} needs string video_uid and query_id")
        if (s.video_uid, s.query_id) in seen:
            raise ConfigError(f"score series {pair} appears twice")
        if not s.scores.size:
            raise ConfigError(f"score series {pair} has no frames")
        if not (math.isfinite(fps) and fps > 0):
            raise ConfigError(f"score series {pair}: fps must be finite and positive, got {fps}")
        seen.add((s.video_uid, s.query_id))
        entries.append({"video_uid": s.video_uid, "query_id": s.query_id, "fps": fps,
                        "offset": offset, "frames": s.scores.size})
        offset += s.scores.size
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / _INDEX).unlink(missing_ok=True)
    np.concatenate([s.scores for s in series] or [np.empty(0)]).astype("<f8", copy=False).tofile(directory / _ARRAY)
    staged = directory / f"{_INDEX}.tmp"
    staged.write_text(json.dumps({"version": STORE_VERSION, "series": entries}, indent=1), encoding="utf-8")
    os.replace(staged, directory / _INDEX)


def load_score_series_dir(
    directory: str | Path, read: Callable[[Path], bytes] = Path.read_bytes
) -> list[ScoreSeries]:
    """The series of the score store in ``directory``, in index order, each file read
    whole by ``read``. A directory without an index, an index that is not JSON or of
    another version, an entry with a bad field, fps or frame count, a repeated pair,
    entries that do not tile the array exactly, or a finite score outside [0, 1] raise
    SchemaError naming the file; a non-finite score raises NumericError naming it."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigError(f"score directory {directory} does not exist")
    index_path, array_path = directory / _INDEX, directory / _ARRAY
    for path in (index_path, array_path):
        if not path.is_file():
            raise SchemaError(f"score directory {directory} has no {path.name}: re-run score to write its store")
    try:
        index = json.loads(read(index_path))
    except ValueError as err:  # a JSONDecodeError or a UnicodeDecodeError
        raise SchemaError(f"score index {index_path} is not UTF-8 JSON: {err}") from None
    version = index.get("version") if isinstance(index, dict) else None
    if version != STORE_VERSION or not isinstance(index.get("series"), list):
        raise SchemaError(f"score index {index_path} must be version {STORE_VERSION} with a series list, "
                          f"got version {version!r}")
    data = read(array_path)
    values = np.frombuffer(data, dtype="<f8", count=len(data) // 8)
    tiles, seen, end = [], set(), 0
    for i, entry in enumerate(index["series"]):
        video_uid, query_id, fps, offset, frames = (entry.get(key) if isinstance(entry, dict) else None
                                                    for key in ("video_uid", "query_id", "fps", "offset", "frames"))
        if not (isinstance(video_uid, str) and isinstance(query_id, str) and type(fps) is float
                and type(offset) is int and type(frames) is int):
            raise SchemaError(f"score index {index_path}: series {i} needs string video_uid and query_id, "
                              "a float fps and integer offset and frames")
        pair = f"series {i} ({video_uid}, {query_id})"
        if not (math.isfinite(fps) and fps > 0):
            raise SchemaError(f"score index {index_path}: {pair} has fps {fps!r}, not finite and positive")
        if frames < 1:
            raise SchemaError(f"score index {index_path}: {pair} has {frames} frames, not at least 1")
        if (video_uid, query_id) in seen:
            raise SchemaError(f"score index {index_path}: {pair} repeats an earlier pair")
        if offset != end:
            raise SchemaError(f"score index {index_path}: {pair} starts at offset {offset}, "
                              f"the series before it end at {end}")
        seen.add((video_uid, query_id))
        end = offset + frames
        tiles.append((video_uid, query_id, fps, offset, frames))
    if len(data) != 8 * end:
        raise SchemaError(f"score array {array_path} holds {len(data)} bytes, its index "
                          f"tiles {end} float64 values ({8 * end} bytes)")
    # NaN fails both comparisons, so finiteness is only diagnosed on failure
    if end and not (values.min() >= 0.0 and values.max() <= 1.0):
        non_finite = ~np.isfinite(values)
        bad = non_finite if non_finite.any() else (values < 0.0) | (values > 1.0)
        i = next(i for i, (*_, offset, frames) in enumerate(tiles) if bad[offset:offset + frames].any())
        video_uid, query_id, _, offset, frames = tiles[i]
        where = f"score array {array_path}, series {i}: scores of ({video_uid}, {query_id})"
        if bad is non_finite:
            raise NumericError(f"{where} must be finite, got {int(bad[offset:offset + frames].sum())} "
                               "non-finite value(s)")
        raise SchemaError(f"{where} must lie in [0, 1]")
    return [ScoreSeries(video_uid, query_id, fps, values[offset:offset + frames])
            for video_uid, query_id, fps, offset, frames in tiles]
