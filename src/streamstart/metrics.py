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
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import framing
from .errors import ConfigError, IdMismatchError, NumericError, SchemaError, check_count, check_real, is_real

MODES = ("rising_edge", "every_frame")
# Elements that one evaluation block's padded working arrays may hold: its [b, C, T]
# prediction mask, or the [b, T] scores whose maxima the sweep's selection takes.
_BLOCK = 2**18
SWEEP_MAX = 1000  # most sweep candidates: the selection's [Q, N] stand-in frames take 8 KB per query


@dataclass(frozen=True)
class ToleranceWindow:
    """Asymmetric acceptance interval around an event start, in seconds."""

    anticipation: float
    latency: float

    def __post_init__(self) -> None:
        check_real("anticipation", self.anticipation, "nonnegative")
        check_real("latency", self.latency, "nonnegative")


def _first(flags) -> int | None:
    return next((i for i, flag in enumerate(flags) if flag), None)


def _check_frames(frames: np.ndarray, pair: Callable[[int], str]) -> None:
    if (short := np.flatnonzero(frames < 1)).size:
        raise ConfigError(f"score series {pair(short[0])} has {frames[short[0]]} frames, not at least 1")


def _index(keys: list) -> dict[tuple[str, str], int]:
    """Each of ``keys``, rows' (video_uid, query_id) pairs, to its row. A pair that repeats an
    earlier one raises ConfigError naming both rows."""
    if len(index := dict(zip(keys, range(len(keys))))) == len(keys):
        return index
    first = {}  # each pair's first row
    i = _first(first.setdefault(key, j) != j for j, key in enumerate(keys))
    raise ConfigError("score series {} ({}, {}) repeats the pair of series {}".format(i, *keys[i], first[keys[i]]))


def _check_scores(fps: list, offsets, values: np.ndarray, pair: Callable[[int], str]) -> None:
    """``values`` is 1-D, each row's fps, as given, is a finite and positive real number (not a bool),
    and its scores, ``values[offsets[i]:offsets[i + 1]]`` for row i, are finite and in [0, 1]."""
    if values.ndim != 1:
        raise ConfigError(f"scores must be 1-D, got shape {values.shape}")
    if (i := _first(not (is_real(f) and 0 < f < math.inf) for f in fps)) is not None:
        raise ConfigError(f"score series {pair(i)}: fps must be finite and positive, got {fps[i]}")
    # NaN fails both comparisons, so finiteness is only diagnosed on failure
    if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
        non_finite = ~np.isfinite(values)
        bad = non_finite if non_finite.any() else (values < 0.0) | (values > 1.0)
        i = int(np.searchsorted(offsets, np.argmax(bad), "right")) - 1
        if bad is not non_finite:
            raise ConfigError(f"score series {pair(i)}: scores must lie in [0, 1]")
        raise NumericError(f"score series {pair(i)}: scores must be finite, got "
                           f"{int(bad[offsets[i]:offsets[i + 1]].sum())} non-finite value(s)")


@dataclass(frozen=True)
class ScoreSeries:
    """Per-frame detection probabilities for one (video, query) pair.

    ``scores[i]`` is the probability assigned to the frame at time ``i / fps``. Its fps and
    scores keep a ``ScoreTable`` row's rules; it may have no frames.
    """

    video_uid: str
    query_id: str
    fps: float
    scores: np.ndarray

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "scores", scores)
        _check_scores([self.fps], [0, scores.size], scores, lambda i: f"({self.video_uid}, {self.query_id})")


ScoreRow = NamedTuple("ScoreRow", [("video_uid", str), ("query_id", str), ("fps", float), ("scores", np.ndarray)])


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Per-frame detection probabilities of (video, query) pairs, as columns. Row i has ``frames[i]``
    scores, ``values[offsets[i]:offsets[i + 1]]``, starting where row i - 1 ends; its frame j is at
    ``j / fps[i]`` seconds. ``table[i]`` is row i as a ScoreRow, its scores a view of ``values``.

    The constructor checks every rule, in this order: four columns of one length, string ids, at
    least one frame, no ``(video_uid, query_id)`` pair twice, frames that sum to the number of values,
    then ``_check_scores``: values of rank 1, a real fps (checked before its float conversion),
    finite and positive, and scores in [0, 1]. The first row to break one raises NumericError for
    a non-finite score, and ConfigError otherwise, naming the row's index and pair.
    """

    video_uid: list[str]
    query_id: list[str]
    fps: np.ndarray
    frames: np.ndarray
    values: np.ndarray
    offsets: np.ndarray = field(init=False, repr=False)
    index: dict[tuple[str, str], int] = field(init=False, repr=False)  # each (video_uid, query_id) pair's row

    def __post_init__(self) -> None:
        lengths = {name: len(getattr(self, name)) for name in ("video_uid", "query_id", "fps", "frames")}
        if len(set(lengths.values())) > 1:
            raise ConfigError(f"score table columns differ in length: {lengths}")
        keys, frames = list(zip(self.video_uid, self.query_id)), np.asarray(self.frames)
        values = np.asarray(self.values, dtype=float)
        pair = lambda i: "{} ({}, {})".format(i, *keys[i])  # noqa: E731
        if (i := _first(not (isinstance(v, str) and isinstance(q, str)) for v, q in keys)) is not None:
            raise ConfigError(f"score series {pair(i)} needs string video_uid and query_id")
        _check_frames(frames, pair)
        index = _index(keys)
        offsets = np.cumsum([0, *frames.tolist()], dtype=object)  # exact, however large a stored count
        if offsets[-1] != values.size:
            raise ConfigError(f"score series' frames sum to {offsets[-1]}, not to the {values.size} values")
        offsets = offsets.astype(np.intp)
        _check_scores(list(self.fps), offsets, values, pair)  # each fps as given, before its float conversion
        fps = np.asarray(self.fps, dtype=float)
        columns = {"fps": fps, "frames": np.diff(offsets), "values": values, "offsets": offsets, "index": index}
        for name, value in columns.items():
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.video_uid)

    def __getitem__(self, i: int) -> ScoreRow:
        i = range(len(self))[i]
        return ScoreRow(self.video_uid[i], self.query_id[i], float(self.fps[i]),
                        self.values[self.offsets[i]:self.offsets[i + 1]])


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
        check_real("threshold", threshold)
        if not 0.0 <= threshold <= 1.0:
            raise ConfigError(f"threshold must be in [0, 1], got {threshold}")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    for k in ks:
        check_count("k", k, 1)


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
    check_count("k", k, 1)
    hit = np.any(is_hit(_first_k(preds, k), np.asarray(t_s)[..., None], w), axis=-1)
    return hit if hit.ndim else bool(hit)


def smd_at_k(preds, t_s, k: int, horizon):
    """Smallest ``|t_s - t_out|`` among the first k predictions.

    No prediction falls back to ``horizon``, the worst error realizable over
    the evaluation span. Elementwise like ``streaming_recall_at_k``, ``horizon``
    broadcasting too; a 1-D ``preds`` gives a ``float``. A horizon that is not
    numeric or not above 0 (NaN too) raises ConfigError.
    """
    check_count("k", k, 1)
    h = np.asarray(horizon)
    if h.dtype.kind not in "iuf" or not (h > 0).all():
        raise ConfigError(f"horizon must be positive, got {horizon}")
    nearest = np.abs(_first_k(preds, k) - np.asarray(t_s)[..., None]).min(axis=-1, initial=np.inf)
    nearest = np.where(nearest == np.inf, horizon, nearest)
    return nearest if nearest.ndim else float(nearest)


@dataclass(frozen=True)
class _Queries:
    """The evaluated queries in annotation order: each one's row of ``source``, a ScoreTable or
    a list of ScoreSeries, its frame count, fps and ground-truth start."""

    source: ScoreTable | Sequence[ScoreSeries]
    rows: np.ndarray
    lengths: np.ndarray
    fps: np.ndarray
    starts: np.ndarray


def _pair(series, annotations, thresholds, mode: str, ks) -> _Queries:
    """Pair every annotation with its row of ``series``, a ScoreTable or a list of ScoreSeries,
    and validate the evaluation.

    A pair that the list repeats raises the table's ConfigError for it; then a missing
    ``(video_uid, default_query_id)`` raises IdMismatchError listing them all; then no
    annotations, a bad threshold, mode or k, and a series without frames raise ConfigError, in
    that order. Rows are read where they lie: a table's in its values, a list's in its series,
    which each pass copies block by block.
    """
    is_table = isinstance(series, ScoreTable)
    # each (video_uid, query_id) pair's row: a table's own index, or its position in a list
    index = series.index if is_table else _index([(s.video_uid, s.query_id) for s in series])
    keys = [(a.video_uid, default_query_id(a)) for a in annotations]
    missing = [key for key in keys if key not in index]
    if missing:
        raise IdMismatchError(missing)
    if not annotations:
        raise ConfigError("no annotations to evaluate")
    _check_evaluation(thresholds, mode, ks)
    starts = np.fromiter((a.start_sec for a in annotations), dtype=float, count=len(keys))
    rows = np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=len(keys))
    if is_table:
        return _Queries(series, rows, series.frames[rows], series.fps[rows], starts)
    paired = [series[row] for row in rows.tolist()]
    lengths = np.fromiter((s.scores.size for s in paired), dtype=np.intp, count=len(keys))
    _check_frames(lengths, lambda i: "{} ({}, {})".format(rows[i], *keys[i]))
    return _Queries(series, rows, lengths, np.fromiter((s.fps for s in paired), dtype=float, count=len(keys)), starts)


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


def _stack(queries: _Queries, block: np.ndarray) -> np.ndarray:
    """``[b, T]`` scores of a block's queries, each row padded with -1 to T, the block's
    longest length. Padding is below every threshold, so it never fires. A table's rows
    that lie end to end at one length are a reshape view of its values; other rows take
    one concatenate."""
    lengths, rows, source = queries.lengths[block], queries.rows[block], queries.source
    t = int(lengths.max())
    if isinstance(source, ScoreTable) and (lengths == t).all() and (np.diff(source.offsets[rows]) == t).all():
        start = source.offsets[rows[0]]
        return source.values[start:start + len(block) * t].reshape(len(block), t)
    rows = [source[row].scores for row in rows.tolist()]
    if lengths.min() < t:  # each row, then a slice of one -1 row as long as its padding
        fill = np.full(t, -1.0)
        rows = [part for scores in rows for part in (scores, fill[scores.size:])]
    return np.concatenate(rows).reshape(len(block), t)


def _first_predictions(queries: _Queries, taus: np.ndarray, mode: str, n_first: int) -> np.ndarray:
    """``[Q, C, J]`` frame of each query's j-th prediction at each threshold; inf past its last.
    J is ``n_first`` capped at the longest query's length: no query has more predictions than frames.

    Each block of ``_blocks(lengths, C)`` is stacked by ``_stack`` and builds
    its ``[b, C, T]`` prediction mask; each of J passes takes every row's first
    set frame and clears it.
    """
    n_first = min(n_first, int(queries.lengths.max()))
    first = np.full((len(queries.rows), len(taus), n_first), np.inf)
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


def _window_frames(queries: _Queries, w: ToleranceWindow) -> tuple[np.ndarray, np.ndarray]:
    """Each query's first and last frame f whose time ``f / fps`` is a hit, w0 and w1; a query
    with no such frame gets w0 = n and w1 = n - 1, n being its frame count.

    Frames ``ceil((t_s - anticipation) * fps)`` and ``floor((t_s + latency) * fps)``, each edge's
    time clipped to the series before the product, so that it neither overflows nor leaves the
    series, are within one frame of w0 and w1; ``streaming_recall_at_k`` on them and their
    neighbours picks the exact ones, so ``is_hit`` stays the one hit rule. A frame's time grows
    with the frame, so the hits are the frames w0..w1.
    """
    last, fps, starts = queries.lengths - 1, queries.fps, queries.starts
    span = last / fps  # the last frame's time
    edges = [np.ceil(np.clip(starts - w.anticipation, 0.0, span) * fps),
             np.floor(np.clip(starts + w.latency, 0.0, span) * fps)]
    near = np.clip(np.stack(edges)[..., None] + [-1.0, 0.0, 1.0], 0, last[:, None])  # [2, Q, 3]
    hit = streaming_recall_at_k((near / fps[:, None])[..., None], starts[:, None], 1, w)
    rows = np.arange(len(starts))
    found = hit[0].any(axis=1)
    w0 = np.where(found, near[0, rows, hit[0].argmax(axis=1)], last + 1).astype(np.intp)
    w1 = np.where(found, near[1, rows, 2 - hit[1, :, ::-1].argmax(axis=1)], last).astype(np.intp)
    return w0, w1


def _maxima(queries: _Queries, w0: np.ndarray, w1: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
    """The lowest and the highest score of the queries, and each query's highest score before
    frame w0 and in frames w0..w1 (-inf where there are none): one pass over the blocks of
    ``_blocks(lengths, 1)``.

    One ``np.maximum.reduceat`` over a block's flat rows cuts each row at its start, at w0 and
    after w1. reduceat takes no cut at the array's end and fills an empty segment with an
    element, so those cuts are left out and those segments masked. The padding (-1, below
    every score) lies only past w1, where it is never a row's maximum.
    """
    lo, hi = np.inf, -np.inf
    before, inside = np.empty(len(w0)), np.empty(len(w0))
    for block in _blocks(queries.lengths, 1):
        pad = _stack(queries, block)
        flat = pad.reshape(-1)
        row = np.arange(len(block)) * pad.shape[1]
        cuts = np.stack([row, row + w0[block], row + w1[block] + 1], axis=1).ravel()
        top = np.full(len(cuts), -np.inf)
        inner = np.searchsorted(cuts, flat.size)  # the cuts ascend; the ones at the end begin empty segments
        top[:inner] = np.maximum.reduceat(flat, cuts[:inner])
        top[cuts == np.append(cuts[1:], flat.size)] = -np.inf
        top = top.reshape(len(block), 3)
        before[block], inside[block] = top[:, 0], top[:, 1]
        # every row is real up to the block's shortest length; past it, leave the padding out
        shortest = int(queries.lengths[block].min())
        tail = pad[:, shortest:]
        lo = min(lo, float(pad[:, :shortest].min()), float(np.min(tail, where=tail >= 0, initial=np.inf)))
        hi = max(hi, float(top.max()))
    return lo, hi, before, inside


def _stand_ins(w0: np.ndarray, before: np.ndarray, inside: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """``[Q, C]`` frames whose hit is that of each query's first prediction at each of ``taus``.

    In either mode that prediction is the query's first frame at or above the threshold, a hit
    iff it lies in w0..w1 (``_window_frames``), that is iff the maximum ``before`` frame w0 is
    below the threshold and the maximum ``inside`` w0..w1 reaches it (``_maxima``). The stand-in
    is frame w0 - 1 (a miss) where ``before`` reaches the threshold, else w0 (a hit) where
    ``inside`` does, else inf (no prediction to hit).
    """
    return np.where(before[:, None] >= taus, w0[:, None] - 1.0, np.where(inside[:, None] >= taus, w0[:, None], np.inf))


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
        n_queries=len(queries.rows),
    )


def evaluate_dataset(
    series: ScoreTable | list[ScoreSeries],
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
    series: ScoreTable | list[ScoreSeries],
    annotations: list,
    w: ToleranceWindow,
    n: int = 20,
    objective_k: int = 1,
    ks: list[int] | None = None,
    mode: str = "rising_edge",
) -> tuple[float, MetricReport]:
    """Pick the threshold maximizing SR@objective_k from a uniform grid.

    Candidates are ``n`` uniformly spaced values between the minimum and
    maximum scores of the paired queries, 2 <= n <= ``SWEEP_MAX``; ties break
    toward the larger threshold. When those scores are constant there is a
    single candidate. The queries are paired and validated once, and a series
    that no annotation pairs plays no part, as in ``evaluate_dataset``.

    One pass over the paired scores (``_maxima``) gives the grid's bounds and,
    per query, its highest score before its tolerance window and its highest
    inside it, which do not depend on the grid. Selection needs only each
    query's first ``objective_k`` predictions at every candidate. With
    ``objective_k = 1`` that is the first frame whose score reaches the
    candidate, in either mode, so it is a hit iff the maximum before the
    window is below the candidate and the maximum inside reaches it; each
    query and candidate then takes a stand-in frame with the same hit. A
    larger ``objective_k`` takes the first ``objective_k`` frames of every
    candidate's prediction mask (``_first_predictions``). The report is then
    ``evaluate_dataset``'s at the chosen threshold alone.
    """
    check_count("n", n, 2, SWEEP_MAX)  # before anything is allocated
    ks = [*(ks or [1, 2, 3]), objective_k]
    # the candidates lie between two scores, in [0, 1], so no threshold is checked
    queries = _pair(series, annotations, [], mode, ks)
    ks = sorted(set(ks))
    w0, w1 = _window_frames(queries, w)
    lo, hi, before, inside = _maxima(queries, w0, w1)
    candidates = [lo] if lo == hi else list(np.linspace(lo, hi, n))
    taus = np.array(candidates, dtype=float)
    if objective_k == 1:
        first = _stand_ins(w0, before, inside, taus)[:, :, None]
    else:
        first = _first_predictions(queries, taus, mode, objective_k)
    hit = streaming_recall_at_k(first / queries.fps[:, None, None], queries.starts[:, None], objective_k, w)
    sr = [float(np.mean(hit[:, c]) * 100.0) for c in range(len(candidates))]
    best = max(range(len(candidates)), key=lambda c: (sr[c], c))
    return candidates[best], _report(queries, ks, w, mode, candidates[best])


# -- score store --------------------------------------------------------------
#
# One run's table in one file framed by framing.py: magic "SDQC", the header of the table's columns
# {"video_uid": [...], "query_id": [...], "fps": [...], "frames": [...]}, padded so that numpy reads
# the payload aligned, then the table's values as little-endian float64, each row where the last ends.

STORE_MAGIC = b"SDQC"
STORE_VERSION = 4
STORE_FILE = "scores.sdqc"


def save_score_series(directory: str | Path, table: ScoreTable) -> None:
    """Write ``table`` into ``directory`` as its score store. A write cut short leaves fewer bytes
    than the header promises, which the loader rejects."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = {"video_uid": table.video_uid, "query_id": table.query_id, "fps": table.fps.tolist(),
              "frames": table.frames.tolist()}
    framing.write(directory / STORE_FILE, STORE_MAGIC, STORE_VERSION, header,
                  [np.ascontiguousarray(table.values, dtype="<f8")], align=8)


def load_score_series_dir(
    directory: str | Path, read: Callable[[Path], bytes] = Path.read_bytes
) -> ScoreTable:
    """The score store in ``directory``, its file read whole by ``read``, as a table on those bytes.
    No store (one of an older layout included), a bad frame or header, or a payload that ends
    inside a float64 raise SchemaError naming the file. So does a broken table rule, in the
    table's words after ``score store <path>: ``, but a non-finite score raises NumericError."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigError(f"score directory {directory} does not exist")
    path = directory / STORE_FILE
    if not path.is_file():
        raise SchemaError(f"score directory {directory} has no {STORE_FILE}: re-run score to write its store")
    raw = read(path)
    header, end = framing.unframe(path, raw, STORE_MAGIC, STORE_VERSION, "score store", SchemaError,
                                  f"{path} is not a score store (bad magic {raw[:4]!r})")
    video_uid, query_id, fps, frames = columns = [header.get(key) for key in ("video_uid", "query_id", "fps", "frames")]
    if not all(isinstance(column, list) for column in columns):
        raise SchemaError(f"score store {path}: its header needs video_uid, query_id, fps and frames lists")
    # the columns' JSON types, which the table takes as given; string ids are its own rule
    if (i := _first(type(f) is not float or type(n) is not int for f, n in zip(fps, frames))) is not None:
        raise SchemaError(f"score store {path}: series {i} needs a float fps and integer frames")
    if (len(raw) - end) % 8:
        raise SchemaError(f"score store {path} holds {len(raw) - end} bytes after its header, "
                          "which end inside a float64")
    try:
        return ScoreTable(video_uid, query_id, fps, frames, np.frombuffer(raw, dtype="<f8", offset=end))
    except (ConfigError, NumericError) as err:  # a broken rule of input from outside: a file error
        raise (NumericError if isinstance(err, NumericError) else SchemaError)(f"score store {path}: {err}") from None
