"""Streaming event-start metrics.

Implements Streaming Recall@k and Streaming Minimum Distance@k over
per-frame detection probabilities, plus prediction extraction, dataset
aggregation and the validation threshold sweep.

A prediction at time ``t_out`` counts as a hit for a ground-truth start
``t_s`` when ``t_s - anticipation <= t_out <= t_s + latency``: early by at
most ``anticipation`` seconds, late by at most ``latency`` seconds.
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

from .errors import ConfigError, IdMismatchError, NumericError, SchemaError

MODES = ("rising_edge", "every_frame")
# Elements of the padded [b, C, T] prediction mask that one evaluation block may hold.
_BLOCK = 2**18


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
            raise ConfigError("scores must lie in [0, 1]")

    @property
    def span(self) -> float:
        """Length of the covered evaluation span in seconds."""
        return len(self.scores) / self.fps


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

    @staticmethod
    def from_json(text: str) -> "MetricReport":
        raw = json.loads(text)
        return MetricReport(
            threshold=float(raw["threshold"]),
            window=ToleranceWindow(raw["window"]["anticipation"], raw["window"]["latency"]),
            sr={int(k): float(v) for k, v in raw["sr"].items()},
            smd={int(k): float(v) for k, v in raw["smd"].items()},
            n_queries=int(raw["n_queries"]),
        )


def default_query_id(annotation) -> str:
    """Join key pairing an annotation with its score series.

    Annotations carry no explicit query id; ``annotator_uid-ann_idx`` is
    unique within a video for both the released CSV schema and synthetic
    corpora.
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


def streaming_recall_at_k(preds, t_s: float, k: int, w: ToleranceWindow) -> bool:
    """True iff any of the first ``min(k, len(preds))`` predictions is a hit."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    return bool(np.any(is_hit(np.asarray(preds, dtype=float)[:k], t_s, w)))


def smd_at_k(preds, t_s: float, k: int, horizon: float) -> float:
    """Smallest ``|t_s - t_out|`` among the first k predictions.

    An empty prediction list falls back to ``horizon``, the worst error
    realizable over the evaluation span.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if horizon <= 0:
        raise ConfigError(f"horizon must be positive, got {horizon}")
    preds = np.asarray(preds, dtype=float)[:k]
    if preds.size == 0:
        return float(horizon)
    return float(np.min(np.abs(preds - t_s)))


def _first_predictions(paired, taus: np.ndarray, mode: str, n_first: int) -> np.ndarray:
    """``[Q, C, n_first]`` frame of each query's j-th prediction at each threshold; inf past its last.

    Queries go in length order into blocks whose ``[b, C, T]`` mask stays
    within ``_BLOCK`` elements; a query longer than that gets a block of its
    own. Scores are padded with -1, below every threshold, so padding never
    fires. Each of ``n_first`` passes takes every row's first set frame and
    clears it.
    """
    lengths = np.array([len(ser.scores) for ser in paired])
    first = np.full((len(paired), len(taus), n_first), np.inf)
    order = np.argsort(lengths, kind="stable")
    start = 0
    while start < len(order):
        # a block of b queries is padded to its last (longest) one; b grows while b * C * T fits
        room = max(1, _BLOCK // (len(taus) * int(lengths[order[start]])))
        ahead = lengths[order[start:start + room]]
        fits = np.arange(1, len(ahead) + 1) * ahead * len(taus) <= _BLOCK  # True, then False
        block = order[start:start + max(1, int(np.count_nonzero(fits)))]
        start += len(block)
        t = lengths[block[-1]]
        pad = np.full((len(block), t), -1.0)
        for row, q in enumerate(block.tolist()):
            scores = paired[q].scores
            pad[row, :len(scores)] = scores
        mask = _prediction_mask(pad, taus, mode).reshape(-1, t)
        rows = np.arange(len(mask))
        found = np.empty((len(mask), n_first))
        for j in range(n_first):
            frame = mask.argmax(axis=1)
            found[:, j] = np.where(mask[rows, frame], frame, np.inf)
            mask[rows, frame] = False
        first[block] = found.reshape(len(block), len(taus), n_first)
    return first


def _reports(series, annotations, ks, w, mode, thresholds, query_id) -> list[MetricReport]:
    """One report per threshold, from a single pass over the queries.

    The first ``max(ks)`` prediction frames of every query at all C
    thresholds come from ``_first_predictions``, which evaluates the queries
    in length-sorted blocks of bounded working memory. From them, SR@k is a
    cumulative any of hits and SMD@k a cumulative min of distances. Each
    (threshold, k) column is averaged on its own in query order, as a single
    evaluation is.
    """
    by_key = {(s.video_uid, s.query_id): s for s in series}
    keys = [(a.video_uid, query_id(a)) for a in annotations]
    missing = [key for key in keys if key not in by_key]
    if missing:
        raise IdMismatchError(missing)
    if not annotations:
        raise ConfigError("no annotations to evaluate")
    _check_evaluation(thresholds, mode, ks)
    paired = [by_key[key] for key in keys]
    for ser in paired:
        if not ser.scores.size:
            raise ConfigError(f"score series ({ser.video_uid}, {ser.query_id}) has no frames")
    first = _first_predictions(paired, np.array(thresholds, dtype=float), mode, max(ks, default=0))
    t_s = np.array([a.start_sec for a in annotations])[:, None, None]
    times = first / np.array([ser.fps for ser in paired])[:, None, None]
    cols = np.array(ks, dtype=int) - 1
    hit = np.logical_or.accumulate(is_hit(times, t_s, w), axis=2)[..., cols]
    dist = np.minimum.accumulate(np.abs(times - t_s), axis=2)[..., cols]
    span = np.array([ser.span for ser in paired])[:, None, None]
    dist = np.where(dist == np.inf, span, dist)
    return [
        MetricReport(
            threshold=float(tau), window=w,
            sr={k: float(np.mean(hit[:, c, j]) * 100.0) for j, k in enumerate(ks)},
            smd={k: float(np.mean(dist[:, c, j])) for j, k in enumerate(ks)},
            n_queries=len(annotations),
        )
        for c, tau in enumerate(thresholds)
    ]


def evaluate_dataset(
    series: list[ScoreSeries],
    annotations: list,
    ks: list[int],
    w: ToleranceWindow,
    mode: str = "rising_edge",
    threshold: float = 0.5,
    query_id=default_query_id,
) -> MetricReport:
    """Aggregate SR@k (percent) and SMD@k (seconds) over all queries.

    Every annotation must have a matching series keyed by
    ``(video_uid, query_id)``, and that series must have frames. The SMD
    horizon is each series' span.
    """
    return _reports(series, annotations, ks, w, mode, [threshold], query_id)[0]


def sweep_thresholds(
    series: list[ScoreSeries],
    annotations: list,
    w: ToleranceWindow,
    n: int = 20,
    objective_k: int = 1,
    ks: list[int] | None = None,
    mode: str = "rising_edge",
    query_id=default_query_id,
) -> tuple[float, MetricReport]:
    """Pick the threshold maximizing SR@objective_k from a uniform grid.

    Candidates are ``n`` uniformly spaced values between the minimum and
    maximum observed scores; ties break toward the larger threshold. When
    all scores are constant there is a single candidate. All candidates are
    evaluated in one pass.
    """
    if n < 2:
        raise ConfigError(f"sweep needs n >= 2 candidates, got {n}")
    ks = sorted(set((ks or [1, 2, 3]) + [objective_k]))
    nonempty = [s for s in series if s.scores.size]
    if not nonempty:
        raise ConfigError("cannot sweep thresholds over empty score series")
    lo, hi = np.inf, -np.inf
    for i in range(0, len(nonempty), 64):  # one reduction per 64 series, not one per series
        chunk = np.concatenate([s.scores for s in nonempty[i:i + 64]])
        lo, hi = min(lo, float(chunk.min())), max(hi, float(chunk.max()))
    candidates = [lo] if lo == hi else list(np.linspace(lo, hi, n))
    reports = _reports(series, annotations, ks, w, mode, candidates, query_id)
    best = max(range(len(candidates)), key=lambda c: (reports[c].sr[objective_k], c))
    return candidates[best], reports[best]


# -- score-series files -------------------------------------------------------
#
# One CSV per (video_uid, query_id), header `frame_idx,t_sec,score`, stored
# in a directory as `<video_uid>__<query_id>.csv`.

_SCORE_HEADER = ["frame_idx", "t_sec", "score"]


def score_series_to_csv(series: ScoreSeries) -> str:
    """The series' score CSV. Its fields are integers and float reprs, none of which a
    CSV quotes, so rows are plain f-strings. A numpy fps is taken as a float, whose repr
    is a number."""
    fps = float(series.fps)
    rows = "".join(f"{i},{i / fps!r},{p!r}\n" for i, p in enumerate(series.scores.tolist()))
    return ",".join(_SCORE_HEADER) + "\n" + rows


def score_series_from_csv(text: str, video_uid: str, query_id: str) -> ScoreSeries:
    """The series of a score CSV. A row without three fields, a t_sec or score that is
    not a number, or a second t_sec whose step from the first is not the reciprocal of a
    finite positive fps raises SchemaError naming its line."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != _SCORE_HEADER:
        raise SchemaError(f"score series header must be {_SCORE_HEADER}, got {header}")
    times, scores, fps = [], [], 1.0
    for row in reader:
        if not row:
            continue
        if len(row) != 3:
            raise SchemaError(f"line {reader.line_num}: {len(row)} fields, the header names 3")
        try:
            times.append(float(row[1]))
            scores.append(float(row[2]))
        except ValueError as err:
            raise SchemaError(f"line {reader.line_num}: {err}") from None
        if len(times) == 2:
            fps = 1.0 / (times[1] - times[0]) if times[1] > times[0] else 0.0
            if not (math.isfinite(fps) and fps > 0):
                raise SchemaError(f"line {reader.line_num}: t_sec {times[1]!r} must exceed the first row's "
                                  f"{times[0]!r} by a step whose reciprocal, the fps, is finite")
    return ScoreSeries(video_uid=video_uid, query_id=query_id, fps=fps, scores=np.array(scores))


def save_score_series(directory: str | Path, series: ScoreSeries) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{series.video_uid}__{series.query_id}.csv"
    path.write_text(score_series_to_csv(series), encoding="utf-8")
    return path


def load_score_series_dir(
    directory: str | Path, read: Callable[[Path], bytes] = Path.read_bytes
) -> list[ScoreSeries]:
    """The series of every ``*.csv`` in ``directory``, each file read whole by ``read``."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigError(f"score directory {directory} does not exist")
    out = []
    for path in sorted(directory.glob("*.csv")):
        stem = path.stem
        if "__" not in stem:
            raise SchemaError(f"score file {path.name} is not named <video_uid>__<query_id>.csv")
        video_uid, query_id = stem.split("__", 1)
        try:
            out.append(score_series_from_csv(read(path).decode("utf-8"), video_uid, query_id))
        except (SchemaError, UnicodeDecodeError) as err:
            raise SchemaError(f"score file {path}: {err}") from None
    return out
