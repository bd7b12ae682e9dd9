import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from streamstart import metrics
from streamstart.errors import ConfigError, IdMismatchError, NumericError, SchemaError
from streamstart.metrics import ScoreSeries, ToleranceWindow

import oracles


def series(scores, uid="v", qid="q", fps=1.0):
    return ScoreSeries(video_uid=uid, query_id=qid, fps=fps, scores=np.asarray(scores, float))


class FakeAnn:
    def __init__(self, video_uid, query_id, start_sec):
        self.video_uid = video_uid
        self.annotator_uid = query_id
        self.ann_idx = 0
        self.start_sec = start_sec


def qid(a):
    return metrics.default_query_id(a)


class TestExtractPredictions:
    def test_rising_edge(self):
        s = series([0.1, 0.6, 0.7, 0.2, 0.8])
        assert list(metrics.extract_predictions(s, 0.5, "rising_edge")) == [1.0, 4.0]

    def test_every_frame(self):
        s = series([0.1, 0.6, 0.7, 0.2, 0.8])
        assert list(metrics.extract_predictions(s, 0.5, "every_frame")) == [1.0, 2.0, 4.0]

    def test_all_below(self):
        s = series([0.1, 0.2, 0.3])
        assert metrics.extract_predictions(s, 0.5).size == 0

    def test_edge_is_subsequence_of_frame(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = series(rng.random(30))
            tau = float(rng.random())
            edge = set(metrics.extract_predictions(s, tau, "rising_edge"))
            every = set(metrics.extract_predictions(s, tau, "every_frame"))
            assert edge <= every

    def test_strictly_increasing(self):
        rng = np.random.default_rng(6)
        s = series(rng.random(50))
        for mode in metrics.MODES:
            t = metrics.extract_predictions(s, 0.4, mode)
            assert (np.diff(t) > 0).all()


class TestIsHit:
    def test_late_within_latency(self):
        assert metrics.is_hit(36, 30, ToleranceWindow(5, 10))

    def test_early_beyond_anticipation(self):
        assert not metrics.is_hit(24, 30, ToleranceWindow(5, 10))

    def test_exact(self):
        assert metrics.is_hit(30, 30, ToleranceWindow(0, 0))

    def test_boundaries_inclusive(self):
        w = ToleranceWindow(5, 10)
        assert metrics.is_hit(25, 30, w)
        assert metrics.is_hit(40, 30, w)
        assert not metrics.is_hit(24.999, 30, w)
        assert not metrics.is_hit(40.001, 30, w)


class TestStreamingRecall:
    def test_first_k_definition(self):
        w = ToleranceWindow(5, 10)
        preds = [2, 8, 30]
        assert not metrics.streaming_recall_at_k(preds, 30, 2, w)
        assert metrics.streaming_recall_at_k(preds, 30, 3, w)

    def test_empty(self):
        assert not metrics.streaming_recall_at_k([], 30, 5, ToleranceWindow(5, 10))

    def test_early_hit(self):
        assert metrics.streaming_recall_at_k([26, 100], 30, 1, ToleranceWindow(5, 10))

    def test_monotone_in_k(self):
        rng = np.random.default_rng(7)
        w = ToleranceWindow(2, 4)
        for _ in range(300):
            preds = np.sort(rng.uniform(0, 100, rng.integers(0, 8)))
            t_s = float(rng.uniform(0, 100))
            values = [metrics.streaming_recall_at_k(preds, t_s, k, w) for k in range(1, 9)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_window_monotone(self):
        rng = np.random.default_rng(8)
        small, big = ToleranceWindow(2, 5), ToleranceWindow(5, 10)
        for _ in range(300):
            preds = np.sort(rng.uniform(0, 100, rng.integers(0, 8)))
            t_s = float(rng.uniform(0, 100))
            assert metrics.streaming_recall_at_k(preds, t_s, 1, small) <= metrics.streaming_recall_at_k(
                preds, t_s, 1, big
            )

    def test_prepended_nonhit_never_helps(self):
        rng = np.random.default_rng(9)
        w = ToleranceWindow(5, 10)
        for _ in range(300):
            t_s = float(rng.uniform(20, 80))
            preds = list(np.sort(rng.uniform(t_s - 4, t_s + 9, rng.integers(1, 5))))
            bad = t_s - 15.0  # outside the window, earlier than any hit
            k = int(rng.integers(1, 6))
            before = metrics.streaming_recall_at_k(preds, t_s, k, w)
            after = metrics.streaming_recall_at_k([bad] + preds, t_s, k, w)
            assert after <= before


class TestSmd:
    def test_closest_of_first_k(self):
        assert metrics.smd_at_k([10, 50], 40, 2, 100) == 10
        assert metrics.smd_at_k([10, 50], 40, 1, 100) == 30

    def test_empty_fallback(self):
        assert metrics.smd_at_k([], 40, 3, 60) == 60

    def test_monotone_in_k(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            preds = np.sort(rng.uniform(0, 100, rng.integers(0, 8)))
            t_s = float(rng.uniform(0, 100))
            values = [metrics.smd_at_k(preds, t_s, k, 120.0) for k in range(1, 9)]
            assert all(a >= b for a, b in zip(values, values[1:]))


def random_case(rng, n=60):
    """A score series with deliberate empty/early/late/boundary structure."""
    scores = np.zeros(n)
    t_s = float(rng.integers(10, n - 10))
    kind = rng.integers(0, 5)
    if kind == 0:
        pass  # empty: never crosses
    elif kind == 1:
        scores[max(0, int(t_s) - rng.integers(6, 10))] = 1.0  # early miss
    elif kind == 2:
        scores[min(n - 1, int(t_s) + rng.integers(11, 15))] = 1.0  # late miss
    elif kind == 3:
        scores[int(t_s) - 5] = 1.0  # boundary hit (exactly -anticipation)
        if int(t_s) + 10 < n:
            scores[int(t_s) + 10] = 1.0  # boundary hit (exactly +latency)
    else:
        spikes = rng.integers(0, n, size=rng.integers(1, 6))
        scores[spikes] = rng.uniform(0.5, 1.0, size=len(spikes))
    return scores, t_s


# Mask-element budgets of an evaluation block: one query per block, then
# blocks of several padded queries next to queries longer than the budget.
BLOCK_BUDGETS = [1, 300, 2500]


class TestEvaluateDataset:
    def test_mean_of_two(self):
        w = ToleranceWindow(5, 10)
        ser = [
            series([0, 0, 1, 0], uid="v1", qid="a-0"),
            series([1, 0, 0, 0], uid="v2", qid="a-0"),
        ]
        anns = [FakeAnn("v1", "a", 2.0), FakeAnn("v2", "a", 3.9)]
        # v1 fires at t=2 == t_s (hit); v2 fires at t=0, early by 3.9 (hit at k=1 window 5)
        rep = metrics.evaluate_dataset(ser, anns, [1], w, "rising_edge", 0.5)
        assert rep.sr[1] == 100.0
        anns[1].start_sec = 30.0  # far from the only firing: miss
        rep = metrics.evaluate_dataset(ser, anns, [1], w, "rising_edge", 0.5)
        assert rep.sr[1] == 50.0

    def test_oracle_scores_are_perfect(self):
        w = ToleranceWindow(5, 10)
        rng = np.random.default_rng(0)
        ser, anns = [], []
        for i in range(20):
            t_s = int(rng.integers(5, 50))
            scores = np.zeros(60)
            scores[t_s : t_s + 3] = 1.0
            ser.append(series(scores, uid=f"v{i}", qid="a-0"))
            anns.append(FakeAnn(f"v{i}", "a", float(t_s)))
        rep = metrics.evaluate_dataset(ser, anns, [1, 2], w, "rising_edge", 0.5)
        assert rep.sr[1] == 100.0
        assert rep.smd[1] == 0.0

    def test_missing_series_lists_pairs(self):
        with pytest.raises(IdMismatchError, match="v2"):
            metrics.evaluate_dataset(
                [series([0.1], uid="v1", qid="a-0")],
                [FakeAnn("v1", "a", 0), FakeAnn("v2", "a", 0)],
                [1],
                ToleranceWindow(5, 10),
            )

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        w = ToleranceWindow(5, 10)
        ser, anns = [], []
        for i in range(200):
            scores, t_s = random_case(rng)
            ser.append(series(scores, uid=f"v{i}", qid="a-0"))
            anns.append(FakeAnn(f"v{i}", "a", t_s))
        for i in range(200):  # mixed lengths, some shorter than max(ks), and mixed fps
            n, fps = int(rng.integers(1, 41)), float(rng.choice([0.5, 1.0, 2.0, 3.0]))
            ser.append(series(rng.choice([0.0, 0.3, 0.5, 0.8, 1.0], n), uid=f"s{i}", qid="a-0", fps=fps))
            anns.append(FakeAnn(f"s{i}", "a", float(rng.uniform(0, n / fps))))
        for mode in metrics.MODES:
            for ks in ([1, 2, 3], [1, 2, 3, 5]):
                for threshold in (0.0, 0.5, 1.0):
                    rep = metrics.evaluate_dataset(ser, anns, ks, w, mode, threshold)
                    sr, smd = oracles.brute_evaluate(ser, anns, ks, 5, 10, mode, threshold, qid)
                    assert rep.sr == sr
                    assert rep.smd == smd

    @pytest.mark.parametrize("budget", BLOCK_BUDGETS)
    def test_matches_brute_force_oracle_in_small_blocks(self, budget, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK", budget)
        self.test_matches_brute_force_oracle()


class TestSweep:
    @pytest.mark.parametrize("n", [1, metrics.SWEEP_MAX + 1])
    def test_candidate_count_outside_its_bounds_rejected_first(self, n):
        # checked before the series are read or any [Q, n] array exists: empty inputs would fail later
        with pytest.raises(ConfigError, match=rf"sweep needs 2 <= n <= {metrics.SWEEP_MAX} candidates, got {n}$"):
            metrics.sweep_thresholds([], [], ToleranceWindow(5, 10), n=n)

    def test_candidate_count_at_its_maximum_sweeps(self):
        ser = [series(np.linspace(0, 1, 20), qid="a-0")]
        tau, rep = metrics.sweep_thresholds(ser, [FakeAnn("v", "a", 10.0)], ToleranceWindow(5, 10),
                                            n=metrics.SWEEP_MAX)
        assert 0.0 <= tau <= 1.0 and rep.n_queries == 1

    def test_candidates_span_min_max(self):
        ser = [series(np.linspace(0, 1, 20), qid="a-0")]
        anns = [FakeAnn("v", "a", 10.0)]
        tau, rep = metrics.sweep_thresholds(ser, anns, ToleranceWindow(5, 10), n=20)
        assert 0.0 <= tau <= 1.0

    def test_constant_scores_single_candidate(self):
        ser = [series([0.3, 0.3, 0.3], qid="a-0")]
        anns = [FakeAnn("v", "a", 1.0)]
        tau, rep = metrics.sweep_thresholds(ser, anns, ToleranceWindow(5, 10), n=20)
        assert tau == 0.3
        assert rep.sr[1] == 100.0

    def test_oracle_scorer_reaches_full_recall(self):
        rng = np.random.default_rng(3)
        ser, anns = [], []
        for i in range(10):
            t_s = int(rng.integers(5, 40))
            scores = np.full(60, 0.2)
            scores[t_s] = 0.9
            ser.append(series(scores, uid=f"v{i}", qid="a-0"))
            anns.append(FakeAnn(f"v{i}", "a", float(t_s)))
        tau, rep = metrics.sweep_thresholds(ser, anns, ToleranceWindow(5, 10), n=20)
        assert rep.sr[1] == 100.0

    def test_equals_exhaustive_evaluation(self):
        rng = np.random.default_rng(4)
        ser, anns = [], []
        for i in range(30):
            scores, t_s = random_case(rng)
            ser.append(series(np.clip(scores + rng.uniform(0, 0.3, 60), 0, 1), uid=f"v{i}", qid="a-0"))
            anns.append(FakeAnn(f"v{i}", "a", t_s))
        w = ToleranceWindow(5, 10)
        lo = min(s.scores.min() for s in ser)
        hi = max(s.scores.max() for s in ser)
        for mode in metrics.MODES:
            tau, rep = metrics.sweep_thresholds(ser, anns, w, n=20, objective_k=1, mode=mode)
            best = None
            for cand in np.linspace(lo, hi, 20):
                r = metrics.evaluate_dataset(ser, anns, [1, 2, 3], w, mode, cand)
                if best is None or r.sr[1] >= best[1].sr[1]:
                    best = (cand, r)
            assert tau == best[0]
            assert rep == best[1]

    @pytest.mark.parametrize("budget", BLOCK_BUDGETS)
    def test_equals_exhaustive_evaluation_in_small_blocks(self, budget, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK", budget)
        self.test_equals_exhaustive_evaluation()

    def test_ties_break_to_larger_threshold(self):
        # monotone scores: every candidate gives the same recall
        ser = [series([0.0, 1.0, 0.0], qid="a-0")]
        anns = [FakeAnn("v", "a", 1.0)]
        tau, _ = metrics.sweep_thresholds(ser, anns, ToleranceWindow(5, 10), n=20)
        assert tau == 1.0


def first_crossings(rows, taus):
    """``metrics._first_crossings`` of one series per row against ascending ``taus``."""
    ser = [series(r, uid=f"v{i}", qid="a-0") for i, r in enumerate(rows)]
    anns = [FakeAnn(f"v{i}", "a", 0.0) for i in range(len(rows))]
    queries = metrics._pair(ser, anns, taus, "rising_edge", [1])
    return metrics._first_crossings(queries, metrics._records(queries)[2], np.array(taus, dtype=float))


def argmax_crossings(rows, taus):
    """The first frame of each row at or above each threshold, one candidate at a time."""
    return np.array([[float(np.argmax(np.asarray(r) >= tau)) if (np.asarray(r) >= tau).any() else np.inf
                      for tau in taus] for r in rows])


W = metrics._RECORD_CHUNK


def record_rows():
    """Rows of the record search's edge cases: lengths at and past the chunk edges, plateaus
    that repeat a maximum across chunk edges, a maximum at frame 0, constant rows, and a
    maximum that rises at a chunk's first frame after a chunk that only ties it."""
    rng = np.random.default_rng(5)
    levels = [0.0, 0.25, 0.5, 0.75, 1.0]
    rows = [rng.choice(levels, n) for n in (1, W - 1, W, W + 1, 2 * W, 3 * W + 5)]
    rows += [np.repeat([0.25, 0.5, 0.5, 0.75], W // 2 + 1), np.r_[1.0, rng.choice(levels, 2 * W)],
             np.full(W + 3, 0.5), np.full(1, 0.75), np.r_[np.full(2 * W, 0.5), np.full(W, 0.75)]]
    return rows


def running_max_records(rows):
    """Per row: the frames where its running maximum strictly rises (frame 0 always), the
    maximum before each (-inf at frame 0), the maximum after it, and the row's maximum."""
    out = []
    for r in rows:
        run = np.maximum.accumulate(np.asarray(r, dtype=float))
        at = np.flatnonzero(np.r_[True, run[1:] > run[:-1]])
        out.append((at.tolist(), np.r_[-np.inf, run][at].tolist(), run[at].tolist(), float(run[-1])))
    return out


def records_by_row(rows):
    """``metrics._records`` of one series per row: its bounds, and per row what ``running_max_records`` gives."""
    ser = [series(r, uid=f"v{i}", qid="a-0") for i, r in enumerate(rows)]
    anns = [FakeAnn(f"v{i}", "a", 0.0) for i in range(len(rows))]
    lo, hi, rec = metrics._records(metrics._pair(ser, anns, [], "rising_edge", [1]))
    starts = np.flatnonzero(rec.old == -np.inf)  # each query's records begin at its frame 0
    assert sorted(rec.order.tolist()) == list(range(len(rows))) and len(starts) == len(rows) and starts[0] == 0
    by_row = [None] * len(rows)
    for q, frame, old, new, top in zip(rec.order.tolist(), np.split(rec.frame, starts[1:]),
                                       np.split(rec.old, starts[1:]), np.split(rec.new, starts[1:]), rec.top):
        by_row[q] = (frame.tolist(), old.tolist(), new.tolist(), float(top))
    return lo, hi, by_row


class TestFirstCrossings:
    def test_only_chunks_that_beat_every_chunk_before_are_searched(self):
        # ties with the maximum before a chunk, padding (-1) and lower chunks hold no record
        top = np.array([[0.5, 0.5, 0.7, 0.2, 0.7, 0.9], [0.0, 0.0, 0.0, -1.0, -1.0, -1.0]])
        picked, seed = metrics._record_chunks(top)
        assert picked.tolist() == [0, 2, 5, 6]
        assert seed.tolist() == [-np.inf, 0.5, 0.7, -np.inf]

    @pytest.mark.parametrize("budget", BLOCK_BUDGETS + [2**18])
    def test_records_are_the_running_maximums_strict_rises(self, budget, monkeypatch):
        # one block holds rows of mixed lengths at 2**18; the bounds leave the padding out
        monkeypatch.setattr(metrics, "_BLOCK", budget)
        rows = record_rows()
        lo, hi, by_row = records_by_row(rows)
        assert by_row == running_max_records(rows)
        assert (lo, hi) == (min(r.min() for r in rows), max(r.max() for r in rows))

    @pytest.mark.parametrize("budget", BLOCK_BUDGETS + [2**18])
    def test_edge_cases_on_grid_values(self, budget, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK", budget)
        rows, taus = record_rows(), [0.0, 0.25, 0.5, 0.5, 0.75, 0.8, 1.0]
        assert np.array_equal(first_crossings(rows, taus), argmax_crossings(rows, taus))

    def test_first_frame_is_the_rows_max(self):
        rows, taus = [[0.9, 0.1, 0.5, 0.9]], [0.0, 0.5, 0.9, 0.95]
        assert np.array_equal(first_crossings(rows, taus), [[0.0, 0.0, 0.0, np.inf]])
        assert np.array_equal(first_crossings(rows, taus), argmax_crossings(rows, taus))

    def test_row_that_never_crosses(self):
        rows, taus = [[0.1, 0.2, 0.2], [0.3, 0.8]], [0.25, 0.5, 0.75]
        assert np.array_equal(first_crossings(rows, taus), [[np.inf] * 3, [0.0, 1.0, 1.0]])

    def test_scores_on_thresholds_and_repeated_thresholds(self):
        rows, taus = [[0.0, 0.25, 0.25, 0.5, 1.0, 0.5]], [0.0, 0.25, 0.25, 0.5, 0.75, 1.0]
        assert np.array_equal(first_crossings(rows, taus), argmax_crossings(rows, taus))

    @pytest.mark.parametrize("budget", BLOCK_BUDGETS + [2**18])
    def test_padding_in_mixed_length_blocks(self, budget, monkeypatch):
        # short rows sit in blocks padded to longer ones; padding must never raise a row's maximum
        monkeypatch.setattr(metrics, "_BLOCK", budget)
        rng = np.random.default_rng(11)
        rows = [rng.choice([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], int(n)) for n in rng.integers(1, 50, 120)]
        rows += [[0.0], [1.0], [0.3, 0.3]]
        taus = list(np.linspace(0.0, 1.0, 11))
        assert np.array_equal(first_crossings(rows, taus), argmax_crossings(rows, taus))


class TestPairing:
    @pytest.mark.parametrize("call", ["evaluate", "sweep"])
    def test_missing_id_reported_before_empty_series(self, call):
        ser = [series([], uid="v1", qid="a-0"), series([0.5, 0.7], uid="v3", qid="a-0")]
        w = ToleranceWindow(5, 10)

        def run(anns):
            if call == "evaluate":
                return metrics.evaluate_dataset(ser, anns, [1], w)
            return metrics.sweep_thresholds(ser, anns, w)

        with pytest.raises(IdMismatchError, match="v2"):
            run([FakeAnn("v1", "a", 0.0), FakeAnn("v2", "a", 0.0)])
        with pytest.raises(ConfigError, match=r"\(v1, a-0\) has no frames"):
            run([FakeAnn("v3", "a", 0.0), FakeAnn("v1", "a", 0.0)])


class TestScoreSeriesFiles:
    def test_round_trip(self, tmp_path):
        s = series(np.linspace(0, 1, 13), uid="vid", qid="a-3", fps=2.0)
        metrics.save_score_series(tmp_path, [s])
        loaded = metrics.load_score_series_dir(tmp_path)
        assert len(loaded) == 1
        got = loaded[0]
        assert got.video_uid == "vid" and got.query_id == "a-3"
        assert got.fps == 2.0
        assert np.array_equal(got.scores, s.scores)

    def test_store_layout(self, tmp_path):
        # the array is the scores end to end as little-endian float64; the index tiles it in series order
        first = series([0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 0.1, 1.0 / 3.0, 0.5], uid="a_b", qid="x-0", fps=29.97)
        second = series([1.0 - 2.0**-53], uid="v", qid="q", fps=2.0)
        metrics.save_score_series(tmp_path, [first, second])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index.json", "scores.f64"]
        packed = struct.pack("<8d", *first.scores.tolist(), *second.scores.tolist())
        assert (tmp_path / "scores.f64").read_bytes() == packed
        assert json.loads((tmp_path / "index.json").read_text(encoding="utf-8")) == {"version": 1, "series": [
            {"video_uid": "a_b", "query_id": "x-0", "fps": 29.97, "offset": 0, "frames": 7},
            {"video_uid": "v", "query_id": "q", "fps": 2.0, "offset": 7, "frames": 1},
        ]}
        loaded = metrics.load_score_series_dir(tmp_path)
        assert [(s.video_uid, s.query_id, s.fps) for s in loaded] == [("a_b", "x-0", 29.97), ("v", "q", 2.0)]
        assert struct.pack("<8d", *np.concatenate([s.scores for s in loaded]).tolist()) == packed

    @pytest.mark.parametrize("value, error, message", [
        (1.5, SchemaError, "series 1: scores of (v1, a-0) must lie in [0, 1]"),
        (-1e-300, SchemaError, "series 1: scores of (v1, a-0) must lie in [0, 1]"),
        (np.nan, NumericError, "series 1: scores of (v1, a-0) must be finite, got 2 non-finite value(s)"),
    ], ids=["above_one", "below_zero", "nan"])
    def test_load_names_the_array_and_the_first_bad_series(self, tmp_path, value, error, message):
        metrics.save_score_series(tmp_path, [series(np.full(3, 0.5), uid=f"v{i}", qid="a-0") for i in range(3)])
        values = np.fromfile(tmp_path / "scores.f64", "<f8")
        values[[4, 5, 7]] = value  # two in series 1, one in series 2
        values.tofile(tmp_path / "scores.f64")
        with pytest.raises(error) as err:
            metrics.load_score_series_dir(tmp_path)
        assert str(err.value) == f"score array {tmp_path / 'scores.f64'}, {message}"

    @pytest.mark.parametrize("fps", [2.0, 29.97, 30000 / 1001, 59.94, 60000 / 1001])
    def test_fps_round_trips(self, fps, tmp_path):
        # fps is stored, so no frame count, one frame included, changes it by an ulp
        saved = [series(np.full(n, 0.5), uid=f"v{n}", qid="a-0", fps=fps) for n in (1, 2, 3, 600)]
        metrics.save_score_series(tmp_path, saved)
        assert [s.fps for s in metrics.load_score_series_dir(tmp_path)] == [fps] * 4

    @pytest.mark.parametrize("uid,query", [("a__b", "x-0"), ("", "x-0"), (".", "x-0"), ("..", "x-0"),
                                           ("a/b", "x-0"), ("a\\b", "x-0"), ("v", "x/0"), ("v", "x\\0")])
    def test_save_keeps_any_string_ids(self, uid, query, tmp_path):
        # the store names no file after an id: its index holds them, and they read back exactly
        metrics.save_score_series(tmp_path, [series([0.5], uid=uid, qid=query)])
        assert [(s.video_uid, s.query_id) for s in metrics.load_score_series_dir(tmp_path)] == [(uid, query)]

    @pytest.mark.parametrize("uid,query", [(1, "x-0"), ("v", None)])
    def test_save_rejects_ids_that_are_not_strings(self, uid, query, tmp_path):
        with pytest.raises(ConfigError, match="needs string video_uid and query_id"):
            metrics.save_score_series(tmp_path, [series([0.5], uid=uid, qid=query)])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad, message", [
        ({"query_id": "a-0"}, r"\(v1, a-0\) appears twice"),
        ({"scores": np.array([])}, r"\(v1, a-1\) has no frames"),
        ({"fps": np.nan}, "fps must be finite and positive, got nan"),
        ({"fps": np.inf}, "fps must be finite and positive, got inf"),
        ({"fps": 0.0}, "fps must be finite and positive, got 0.0"),
        ({"fps": -1.0}, "fps must be finite and positive, got -1.0"),
    ], ids=["duplicate_pair", "no_frames", "nan_fps", "inf_fps", "zero_fps", "negative_fps"])
    def test_save_checks_every_series_before_writing(self, bad, message, tmp_path):
        # ScoreSeries rejects a bad fps itself; the store's writer does not rely on that
        last = SimpleNamespace(video_uid="v1", query_id="a-1", fps=1.0, scores=np.array([0.5]))
        vars(last).update(bad)
        with pytest.raises(ConfigError, match=message):
            metrics.save_score_series(tmp_path / "scores", [series([0.5], uid="v1", qid="a-0"), last])
        assert not (tmp_path / "scores").exists()

    def test_interrupted_save_leaves_no_index(self, tmp_path, monkeypatch):
        # the array goes in first and the old index is gone before it: no index outlives its array
        metrics.save_score_series(tmp_path, [series(np.full(60, 0.5))])

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(metrics.json, "dumps", interrupted)
        with pytest.raises(KeyboardInterrupt):
            metrics.save_score_series(tmp_path, [series(np.full(30, 0.25))])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scores.f64"]
        assert (tmp_path / "scores.f64").stat().st_size == 30 * 8

    def test_numpy_fps_writes_plain_numbers(self, tmp_path):
        metrics.save_score_series(tmp_path / "a", [series([0.5, 0.25], fps=np.float64(2.0))])
        metrics.save_score_series(tmp_path / "b", [series([0.5, 0.25], fps=2.0)])
        text = (tmp_path / "a" / "index.json").read_text(encoding="utf-8")
        assert text == (tmp_path / "b" / "index.json").read_text(encoding="utf-8")
        assert "np." not in text and '"fps": 2.0' in text

    def test_report_json_round_trip(self):
        rep = metrics.MetricReport(
            threshold=0.4, window=ToleranceWindow(5, 10),
            sr={1: 50.0, 2: 75.0}, smd={1: 3.0, 2: 2.0}, n_queries=4,
        )
        assert json.loads(rep.to_json()) == {
            "threshold": 0.4, "window": {"anticipation": 5, "latency": 10},
            "sr": {"1": 50.0, "2": 75.0}, "smd": {"1": 3.0, "2": 2.0}, "n_queries": 4,
        }


class TestValidation:
    def test_scores_outside_unit_interval(self):
        with pytest.raises(ConfigError):
            series([1.2, 0.3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, pytest.param(1.2, id="out_of_range")])
    def test_non_finite_scores(self, bad):
        # both messages name the series; a finite score out of range is a configuration error
        error, rule = (ConfigError, r"must lie in \[0, 1\]") if np.isfinite(bad) else (NumericError, "must be finite")
        with pytest.raises(error, match=r"scores of \(v, q\) " + rule):
            series([0.2, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_fps_must_be_finite_and_positive(self, bad):
        with pytest.raises(ConfigError, match="finite and positive"):
            ScoreSeries("v", "q", bad, [0.5, 0.7])

    def test_negative_window(self):
        with pytest.raises(ConfigError):
            ToleranceWindow(-1, 5)

    def test_bad_threshold(self):
        with pytest.raises(ConfigError):
            metrics.extract_predictions(series([0.5]), 1.5)

    @pytest.mark.parametrize("bad", [{"threshold": 1.5}, {"mode": "bogus"}, {"ks": [0]}],
                             ids=["threshold", "mode", "k"])
    def test_bad_evaluation_config(self, bad):
        args = {"ks": [1], "mode": "rising_edge", "threshold": 0.5} | bad
        with pytest.raises(ConfigError):
            metrics.evaluate_dataset([series([0.5], uid="v", qid="a-0")], [FakeAnn("v", "a", 0.0)],
                                     w=ToleranceWindow(5, 10), **args)
