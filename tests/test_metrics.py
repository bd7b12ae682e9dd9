import json
import math
import re
import struct

import numpy as np
import pytest

from streamstart import metrics
from streamstart.errors import ConfigError, IdMismatchError, NumericError, SchemaError
from streamstart.metrics import ScoreSeries, ToleranceWindow

import oracles


def series(scores, uid="v", qid="q", fps=1.0):
    return ScoreSeries(video_uid=uid, query_id=qid, fps=fps, scores=np.asarray(scores, float))


def table(ser):
    """The ScoreTable of ``ser``, a list of series, each row a series in list order."""
    return metrics.ScoreTable([s.video_uid for s in ser], [s.query_id for s in ser], [s.fps for s in ser],
                              [s.scores.size for s in ser], np.concatenate([np.empty(0), *(s.scores for s in ser)]))


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

    @pytest.mark.parametrize("horizon", [0, -1, np.array([60.0, 0.0]), math.nan, np.array([60.0, np.nan]), "x",
                                         None, True], ids=["zero", "negative", "array_with_a_zero", "nan",
                                                           "array_with_a_nan", "string", "none", "bool"])
    def test_horizon_must_be_positive(self, horizon):
        # 0 is no span at all: even a miss's fallback would read as an exact hit; a horizon
        # that is no number, or NaN, would be returned as a miss's distance
        with pytest.raises(ConfigError, match="^horizon must be positive"):
            metrics.smd_at_k(np.array([[10.0], [50.0]]), np.array([40.0, 45.0]), 1, horizon)


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


class TestLoadedTable:
    """An evaluation of a loaded store reads each paired row where it lies in the payload."""

    @staticmethod
    def stored(tmp_path, layout):
        """Series saved to a store and loaded back, and annotations for all but the last one.
        ``end_to_end``: rows of one length, annotated in store order, so that each block is a
        view of the payload. ``gathered``: mixed lengths and fps, annotated out of store order.
        The unannotated last row holds a score above every paired one."""
        rng = np.random.default_rng(21)
        levels = [0.0, 0.25, 0.5, 0.75]
        if layout == "end_to_end":
            shapes = [(30, 1.0)] * 12
        else:
            shapes = [(int(rng.choice([1, 2, 3, W - 1, W, W + 1, 40])), float(rng.choice([0.5, 1.0, 2.0])))
                      for _ in range(40)]
        ser = [series(rng.choice(levels, n), uid=f"v{i}", qid="a-0", fps=fps) for i, (n, fps) in enumerate(shapes)]
        ser.append(series(np.ones(3), uid="unpaired", qid="a-0"))
        metrics.save_score_series(tmp_path, table(ser))
        order = range(len(shapes)) if layout == "end_to_end" else rng.permutation(len(shapes))
        anns = [FakeAnn(f"v{i}", "a", float(rng.uniform(0, shapes[i][0] / shapes[i][1]))) for i in order]
        return ser, metrics.load_score_series_dir(tmp_path), anns

    @pytest.mark.parametrize("budget", BLOCK_BUDGETS + [2**18])
    @pytest.mark.parametrize("layout", ["end_to_end", "gathered"])
    def test_reports_equal_the_list_and_the_oracle(self, tmp_path, monkeypatch, layout, budget):
        ser, loaded, anns = self.stored(tmp_path, layout)
        monkeypatch.setattr(metrics, "_BLOCK", budget)
        stack, views = metrics._stack, []

        def spy(queries, block):
            out = stack(queries, block)
            if queries.source is loaded:
                views.append(np.shares_memory(out, loaded.values))
            return out

        monkeypatch.setattr(metrics, "_stack", spy)
        w = ToleranceWindow(5, 10)
        for mode in metrics.MODES:
            for threshold in (0.0, 0.25, 0.5, 1.0):
                rep = metrics.evaluate_dataset(loaded, anns, [1, 2, 3], w, mode, threshold)
                assert rep == metrics.evaluate_dataset(ser, anns, [1, 2, 3], w, mode, threshold)
                want = oracles.brute_evaluate(loaded, anns, [1, 2, 3], 5, 10, mode, threshold, qid)
                assert (rep.sr, rep.smd) == want
            for objective_k in (1, 2):
                got = metrics.sweep_thresholds(loaded, anns, w, 20, objective_k, [1, 2], mode)
                assert got == metrics.sweep_thresholds(ser, anns, w, 20, objective_k, [1, 2], mode)
                assert got == oracles.exhaustive_sweep(loaded, anns, w, 20, objective_k, [1, 2], mode)
        # a block of rows end to end at one length is a view, in the evaluations and in both
        # passes of each sweep; one block of every query, of mixed lengths, is a copy
        assert all(views) if layout == "end_to_end" else budget < 2**18 or not any(views)


class TestSweep:
    @pytest.mark.parametrize("n", [1, metrics.SWEEP_MAX + 1])
    def test_candidate_count_outside_its_bounds_rejected_first(self, n):
        # checked before the series are read or any [Q, n] array exists: empty inputs would fail later
        bound = ">= 2" if n < 2 else f"<= {metrics.SWEEP_MAX}"
        with pytest.raises(ConfigError, match=rf"^n must be {bound}, got {n}$"):
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

    @pytest.mark.parametrize("mode", metrics.MODES)
    def test_a_sweep_stacks_each_block_twice_and_an_evaluation_once(self, mode, monkeypatch):
        # at objective_k 1 the selection's maxima and the report read the scores, each once
        monkeypatch.setattr(metrics, "_BLOCK", 300)
        rng = np.random.default_rng(8)
        ser = [series(rng.random(int(n)), uid=f"v{i}", qid="a-0") for i, n in enumerate(rng.integers(1, 60, 30))]
        anns = [FakeAnn(f"v{i}", "a", float(rng.uniform(0, s.scores.size))) for i, s in enumerate(ser)]
        blocks = [b.tolist() for b in metrics._blocks(np.array([s.scores.size for s in ser]), 1)]
        stack, stacked = metrics._stack, []
        monkeypatch.setattr(metrics, "_stack", lambda queries, block: stacked.append(block.tolist()) or
                            stack(queries, block))
        metrics.sweep_thresholds(ser, anns, ToleranceWindow(5, 10), 20, 1, [1, 2, 3], mode)
        assert len(blocks) > 1 and stacked == blocks + blocks
        stacked.clear()
        metrics.evaluate_dataset(ser, anns, [1, 2, 3], ToleranceWindow(5, 10), mode, 0.5)
        assert stacked == blocks

    def test_ties_break_to_larger_threshold(self):
        # monotone scores: every candidate gives the same recall
        ser = [series([0.0, 1.0, 0.0], qid="a-0")]
        anns = [FakeAnn("v", "a", 1.0)]
        tau, _ = metrics.sweep_thresholds(ser, anns, ToleranceWindow(5, 10), n=20)
        assert tau == 1.0


W = 16  # a row length; the edge rows are cut around it and its multiples


def edge_rows():
    """Rows of the selection's edge cases: lengths at and past multiples of W, plateaus that
    repeat a maximum, a maximum at frame 0, constant rows, and a maximum that rises right
    after a run that only ties it."""
    rng = np.random.default_rng(5)
    levels = [0.0, 0.25, 0.5, 0.75, 1.0]
    rows = [rng.choice(levels, n) for n in (1, W - 1, W, W + 1, 2 * W, 3 * W + 5)]
    rows += [np.repeat([0.25, 0.5, 0.5, 0.75], W // 2 + 1), np.r_[1.0, rng.choice(levels, 2 * W)],
             np.full(W + 3, 0.5), np.full(1, 0.75), np.r_[np.full(2 * W, 0.5), np.full(W, 0.75)]]
    return rows


def edge_starts(rows, fps=1.0):
    """A start for each row: on a frame, so that with integer windows at 1 fps a frame lies
    exactly on either window edge, or before frame 0, or past the row's last frame."""
    rng = np.random.default_rng(6)
    return [float(rng.choice([-20.0, int(rng.integers(0, len(r))) / fps, len(r) / fps + 20.0])) for r in rows]


def selection(rows, starts, taus, w=ToleranceWindow(2.0, 3.0), fps=1.0):
    """The sweep's selection pass over one series per row: ``_window_frames``, then ``_maxima``,
    then the hits of ``_stand_ins`` at ``taus``, as ``sweep_thresholds`` composes them."""
    fps = np.broadcast_to(fps, len(rows))
    ser = [series(r, uid=f"v{i}", qid="a-0", fps=float(f)) for i, (r, f) in enumerate(zip(rows, fps))]
    anns = [FakeAnn(f"v{i}", "a", t_s) for i, t_s in enumerate(starts)]
    queries = metrics._pair(ser, anns, [], "rising_edge", [1])
    w0, w1 = metrics._window_frames(queries, w)
    lo, hi, before, inside = metrics._maxima(queries, w0, w1)
    first = metrics._stand_ins(w0, before, inside, np.array(taus, dtype=float))
    hits = metrics.streaming_recall_at_k(first[:, :, None] / queries.fps[:, None, None], queries.starts[:, None], 1, w)
    return w0, w1, lo, hi, before, inside, hits


def brute_window(n, fps, t_s, w):
    """The first and last of the n frames whose time ``f / fps`` is a hit, by ``is_hit`` on every
    frame; (n, n - 1) when none is. The hits must be consecutive frames."""
    hits = np.flatnonzero(metrics.is_hit(np.arange(n) / fps, t_s, w))
    if not hits.size:
        return n, n - 1
    assert np.array_equal(hits, np.arange(hits[0], hits[-1] + 1))
    return int(hits[0]), int(hits[-1])


def argmax_crossings(rows, taus):
    """The first frame of each row at or above each threshold, one candidate at a time."""
    return np.array([[float(np.argmax(np.asarray(r) >= tau)) if (np.asarray(r) >= tau).any() else np.inf
                      for tau in taus] for r in rows])


def crossing_hits(rows, starts, taus, w=ToleranceWindow(2.0, 3.0), fps=1.0):
    """Whether each row's first crossing of each threshold is a hit: ``argmax_crossings`` composed with ``is_hit``."""
    fps = np.broadcast_to(fps, len(rows))
    return metrics.is_hit(argmax_crossings(rows, taus) / fps[:, None], np.asarray(starts)[:, None], w)


class TestSelection:
    @pytest.mark.parametrize("fps", [1.0, 2.5, 29.97, 30000 / 1001, 1 / 3], ids=repr)
    def test_window_frames_are_the_first_and_last_hit(self, fps):
        # edges on a frame, a frame's time plus or minus the window (rounded at non-integer fps),
        # between frames, before frame 0 and past the last frame; zero anticipation or latency
        for a, l in [(5.0, 10.0), (0.0, 0.0), (0.0, 3.0), (2.0, 0.0), (1.5, 0.25)]:
            w, cases = ToleranceWindow(a, l), []
            for n in (1, 2, 15, 16, 17, 60):
                frames = sorted({0, 1, n // 2, n - 1})
                starts = [f / fps + shift for f in frames for shift in (0.0, a, -l, a + 0.5 / fps, -l - 0.5 / fps)]
                starts += [-l - 1.0, -l - 1 / fps, (n - 1) / fps + a + 1 / fps, (n - 1) / fps + a + 1.0]
                cases += [(n, t_s) for t_s in starts]
            rows = [np.zeros(n) for n, _ in cases]
            w0, w1, *_ = selection(rows, [t_s for _, t_s in cases], [], w, fps)
            assert list(zip(w0.tolist(), w1.tolist())) == [brute_window(n, fps, t_s, w) for n, t_s in cases]

    @pytest.mark.parametrize("a, l", [(1e308, 0.0), (0.0, 1e308), (1e308, 1e308)])
    def test_huge_windows_neither_overflow_nor_miscast(self, a, l):
        w, fps = ToleranceWindow(a, l), 29.97
        rows, taus = edge_rows(), [0.0, 0.25, 0.5, 0.75, 1.0]
        starts = edge_starts(rows, fps)
        with np.errstate(all="raise"):
            w0, w1, *_, hits = selection(rows, starts, taus, w, fps)
        want = [brute_window(len(r), fps, t_s, w) for r, t_s in zip(rows, starts)]
        assert list(zip(w0.tolist(), w1.tolist())) == want
        assert np.array_equal(hits, crossing_hits(rows, starts, taus, w, fps))

    @pytest.mark.parametrize("budget", BLOCK_BUDGETS + [2**18])
    def test_maxima_equal_brute_slices(self, budget, monkeypatch):
        # one block holds rows of mixed lengths at 2**18; the bounds and maxima leave the padding out
        monkeypatch.setattr(metrics, "_BLOCK", budget)
        rows = edge_rows()
        starts = edge_starts(rows)
        w0, w1, lo, hi, before, inside, _ = selection(rows, starts, [])
        assert (lo, hi) == (min(r.min() for r in rows), max(r.max() for r in rows))
        for r, f0, f1, got_before, got_inside in zip(rows, w0, w1, before, inside):
            assert got_before == max(r[:f0], default=-np.inf)
            assert got_inside == max(r[f0:f1 + 1], default=-np.inf)

    @pytest.mark.parametrize("budget", BLOCK_BUDGETS + [2**18])
    def test_hits_on_grid_values_are_the_first_crossings(self, budget, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK", budget)
        rows, taus = edge_rows(), [0.0, 0.25, 0.5, 0.5, 0.75, 0.8, 1.0]
        for starts in (edge_starts(rows), [float(len(r) // 2) for r in rows], [3.0] * len(rows)):
            assert np.array_equal(selection(rows, starts, taus)[-1], crossing_hits(rows, starts, taus))

    def test_first_frame_is_the_rows_max(self):
        rows, taus = [[0.9, 0.1, 0.5, 0.9]] * 3, [0.0, 0.5, 0.9, 0.95]
        starts = [0.0, 3.0, 9.0]  # frame 0 inside, before and past the window
        hits = selection(rows, starts, taus, ToleranceWindow(0.0, 1.0))[-1]
        assert hits.tolist() == [[True, True, True, False], [False] * 4, [False] * 4]
        assert np.array_equal(hits, crossing_hits(rows, starts, taus, ToleranceWindow(0.0, 1.0)))

    def test_row_that_never_crosses(self):
        rows, taus = [[0.1, 0.2, 0.2], [0.3, 0.8]], [0.25, 0.5, 0.75]
        w0, w1, _, _, before, inside, hits = selection(rows, [0.0, 1.0], taus, ToleranceWindow(0.0, 0.0))
        assert (w0.tolist(), w1.tolist()) == ([0, 1], [0, 1])
        assert (before.tolist(), inside.tolist()) == ([-np.inf, 0.3], [0.1, 0.8])
        assert hits.tolist() == [[False] * 3, [False, True, True]]

    def test_scores_on_thresholds_and_repeated_thresholds(self):
        rows, taus = [[0.0, 0.25, 0.25, 0.5, 1.0, 0.5]] * 6, [0.0, 0.25, 0.25, 0.5, 0.75, 1.0]
        starts = [float(t) for t in range(6)]
        assert np.array_equal(selection(rows, starts, taus, ToleranceWindow(0.0, 0.0))[-1],
                              crossing_hits(rows, starts, taus, ToleranceWindow(0.0, 0.0)))

    def test_cuts_at_the_blocks_end(self):
        # the last row's window ends at its last frame, or is empty past it: a cut at the
        # array's end, which reduceat rejects, and empty segments, which it fills with an element
        rows, taus = [np.array([0.2, 0.9, 0.4])] * 3, [0.2, 0.4, 0.9]
        for starts in ([2.0, 2.0, 2.0], [9.0, 9.0, 9.0], [-9.0, 2.0, 9.0]):
            w0, w1, lo, hi, before, inside, hits = selection(rows, starts, taus, ToleranceWindow(0.0, 0.0))
            assert (lo, hi) == (0.2, 0.9)
            assert before.tolist() == [{2.0: 0.9, 9.0: 0.9, -9.0: 0.9}[t] for t in starts]
            assert inside.tolist() == [{2.0: 0.4, 9.0: -np.inf, -9.0: -np.inf}[t] for t in starts]
            assert np.array_equal(hits, crossing_hits(rows, starts, taus, ToleranceWindow(0.0, 0.0)))

    @pytest.mark.parametrize("budget", BLOCK_BUDGETS + [2**18])
    def test_padding_in_mixed_length_blocks(self, budget, monkeypatch):
        # short rows sit in blocks padded to longer ones; padding must never raise a row's maximum
        monkeypatch.setattr(metrics, "_BLOCK", budget)
        rng = np.random.default_rng(11)
        rows = [rng.choice([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], int(n)) for n in rng.integers(1, 50, 120)]
        rows += [[0.0], [1.0], [0.3, 0.3]]
        starts = [float(rng.uniform(-5, len(r) + 5)) for r in rows]
        taus = list(np.linspace(0.0, 1.0, 11))
        assert np.array_equal(selection(rows, starts, taus)[-1], crossing_hits(rows, starts, taus))


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
        with pytest.raises(ConfigError, match=r"^score series 0 \(v1, a-0\) has 0 frames, not at least 1$"):
            run([FakeAnn("v3", "a", 0.0), FakeAnn("v1", "a", 0.0)])

    @pytest.mark.parametrize("order", [1, -1], ids=["firing_first", "firing_last"])
    @pytest.mark.parametrize("call", ["evaluate", "sweep"])
    def test_repeated_pair_in_a_list_rejected_as_a_table_rejects_it(self, call, order):
        # a list that holds one pair twice fails as the table of it does, before the missing id: the
        # pairing dict would keep the last series, SR@1 100.0 in one order and 0.0 in the other
        ser = [series([0.0, 0.9, 0.0], uid="v", qid="x-0"), series([0.0, 0.0, 0.0], uid="v", qid="x-0")][::order]
        anns, w = [FakeAnn("v", "x", 1.0), FakeAnn("missing", "x", 0.0)], ToleranceWindow(5, 10)
        with pytest.raises(ConfigError) as listed:
            if call == "evaluate":
                metrics.evaluate_dataset(ser, anns, [1], w)
            metrics.sweep_thresholds(ser, anns, w)
        with pytest.raises(ConfigError) as tabled:
            table(ser)
        assert str(listed.value) == str(tabled.value) == "score series 1 (v, x-0) repeats the pair of series 0"


class TestScoreSeriesFiles:
    def test_round_trip(self, tmp_path):
        s = series(np.linspace(0, 1, 13), uid="vid", qid="a-3", fps=2.0)
        metrics.save_score_series(tmp_path, table([s]))
        loaded = metrics.load_score_series_dir(tmp_path)
        assert len(loaded) == 1
        got = loaded[0]
        assert got.video_uid == "vid" and got.query_id == "a-3"
        assert got.fps == 2.0
        assert np.array_equal(got.scores, s.scores)

    def test_store_layout(self, tmp_path):
        # one file: magic, u32 version 4, u32 header length, the sorted-key JSON header of the
        # table's four columns, padded with spaces to a multiple of 8 bytes with the frame, then the
        # table's values as little-endian float64, each row starting where the one before it ends
        first = series([0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 0.1, 1.0 / 3.0, 0.5], uid="a_b", qid="x-0", fps=29.97)
        second = series([1.0 - 2.0**-53], uid="v", qid="q", fps=2.0)
        metrics.save_score_series(tmp_path, table([first, second]))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scores.sdqc"]
        header = json.dumps({"video_uid": ["a_b", "v"], "query_id": ["x-0", "q"], "fps": [29.97, 2.0],
                             "frames": [7, 1]}, sort_keys=True).encode("utf-8")
        header += b" " * (-(12 + len(header)) % 8)
        packed = struct.pack("<8d", *first.scores.tolist(), *second.scores.tolist())
        frame = struct.pack("<4sII", b"SDQC", 4, len(header))
        assert (tmp_path / "scores.sdqc").read_bytes() == frame + header + packed
        loaded = metrics.load_score_series_dir(tmp_path)
        assert [(s.video_uid, s.query_id, s.fps) for s in loaded] == [("a_b", "x-0", 29.97), ("v", "q", 2.0)]
        assert struct.pack("<8d", *np.concatenate([s.scores for s in loaded]).tolist()) == packed

    @pytest.mark.parametrize("value, error, message", [
        (1.5, SchemaError, "score series 1 (v1, a-0): scores must lie in [0, 1]"),
        (-1e-300, SchemaError, "score series 1 (v1, a-0): scores must lie in [0, 1]"),
        (np.nan, NumericError, "score series 1 (v1, a-0): scores must be finite, got 2 non-finite value(s)"),
    ], ids=["above_one", "below_zero", "nan"])
    def test_load_names_the_array_and_the_first_bad_series(self, tmp_path, value, error, message):
        metrics.save_score_series(tmp_path, table([series(np.full(3, 0.5), uid=f"v{i}", qid="a-0") for i in range(3)]))
        path = tmp_path / "scores.sdqc"
        raw = path.read_bytes()
        values = np.frombuffer(raw, "<f8", offset=len(raw) - 72).copy()
        values[[0, 1]] = 0.0, 1.0  # series 0 holds both ends of [0, 1], which are in range
        values[[4, 5, 7]] = value  # two in series 1, one in series 2
        path.write_bytes(raw[:-72] + values.tobytes())
        with pytest.raises(error) as err:
            metrics.load_score_series_dir(tmp_path)
        assert str(err.value) == f"score store {path}: {message}"

    @pytest.mark.parametrize("fps", [2.0, 29.97, 30000 / 1001, 59.94, 60000 / 1001])
    def test_fps_round_trips(self, fps, tmp_path):
        # fps is stored, so no frame count, one frame included, changes it by an ulp
        saved = [series(np.full(n, 0.5), uid=f"v{n}", qid="a-0", fps=fps) for n in (1, 2, 3, 600)]
        metrics.save_score_series(tmp_path, table(saved))
        assert [s.fps for s in metrics.load_score_series_dir(tmp_path)] == [fps] * 4

    @pytest.mark.parametrize("uid,query", [("a__b", "x-0"), ("", "x-0"), (".", "x-0"), ("..", "x-0"),
                                           ("a/b", "x-0"), ("a\\b", "x-0"), ("v", "x/0"), ("v", "x\\0")])
    def test_save_keeps_any_string_ids(self, uid, query, tmp_path):
        # the store names no file after an id: its index holds them, and they read back exactly
        metrics.save_score_series(tmp_path, table([series([0.5], uid=uid, qid=query)]))
        assert [(s.video_uid, s.query_id) for s in metrics.load_score_series_dir(tmp_path)] == [(uid, query)]

    @pytest.mark.parametrize("uid,query", [(1, "x-0"), ("v", None)])
    def test_save_rejects_ids_that_are_not_strings(self, uid, query, tmp_path):
        message = rf"^score series 0 \({uid}, {query}\) needs string video_uid and query_id$"
        with pytest.raises(ConfigError, match=message):
            metrics.save_score_series(tmp_path, table([series([0.5], uid=uid, qid=query)]))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad, message", [
        ({"query_id": ["a-0"]},
         r"^score table columns differ in length: \{'video_uid': 2, 'query_id': 1, 'fps': 2, 'frames': 2\}$"),
        ({"query_id": ["a-0", "a-0"]}, r"^score series 1 \(v1, a-0\) repeats the pair of series 0$"),
        ({"frames": [1, 0], "values": [0.5]}, r"^score series 1 \(v1, a-1\) has 0 frames, not at least 1$"),
        ({"fps": [1.0, np.nan]}, r"^score series 1 \(v1, a-1\): fps must be finite and positive, got nan$"),
        ({"fps": [1.0, np.inf]}, r"^score series 1 \(v1, a-1\): fps must be finite and positive, got inf$"),
        ({"fps": [1.0, 0.0]}, r"^score series 1 \(v1, a-1\): fps must be finite and positive, got 0.0$"),
        ({"fps": [1.0, -1.0]}, r"^score series 1 \(v1, a-1\): fps must be finite and positive, got -1.0$"),
    ], ids=["unequal_columns", "duplicate_pair", "no_frames", "nan_fps", "inf_fps", "zero_fps", "negative_fps"])
    def test_save_checks_every_series_before_writing(self, bad, message, tmp_path):
        # the table that save_score_series takes checks each row as it is built, a bad fps included,
        # so a broken row leaves no store
        columns = {"video_uid": ["v1", "v1"], "query_id": ["a-0", "a-1"], "fps": [1.0, 1.0], "frames": [1, 1],
                   "values": [0.5, 0.5]} | bad
        with pytest.raises(ConfigError, match=message):
            metrics.save_score_series(tmp_path / "scores", metrics.ScoreTable(**columns))
        assert not (tmp_path / "scores").exists()

    # a table of two rows that breaks one rule in each case, as columns; values of rank 1 are the
    # one rule that a store cannot break, for its payload is one flat array
    BROKEN = {
        "unequal_columns": {"frames": [1]},
        "ids": {"query_id": ["a-0", 1]},
        "frames": {"frames": [2, 0]},
        "repeated_pair": {"video_uid": ["v0", "v0"]},
        "tiles": {"frames": [1, 2]},
        "fps": {"fps": [1.0, float("nan")]},
        "finite": {"values": [0.5, np.inf]},
        "range": {"values": [0.5, -0.5]},
    }

    @pytest.mark.parametrize("rule", BROKEN)
    def test_loader_words_each_rule_as_the_library_after_the_store(self, tmp_path, rule):
        columns = {"video_uid": ["v0", "v1"], "query_id": ["a-0", "a-0"], "fps": [1.0, 1.0], "frames": [1, 1],
                   "values": [0.5, 0.5]} | self.BROKEN[rule]
        error = NumericError if rule == "finite" else ConfigError
        with pytest.raises(error) as library:
            metrics.ScoreTable(**columns)
        path = tmp_path / "scores.sdqc"
        header = {key: column for key, column in columns.items() if key != "values"}
        metrics.framing.write(path, metrics.STORE_MAGIC, metrics.STORE_VERSION, header,
                              [np.array(columns["values"], "<f8")], align=8)
        with pytest.raises(NumericError if rule == "finite" else SchemaError) as loaded:
            metrics.load_score_series_dir(tmp_path)
        assert type(library.value) is error and str(loaded.value) == f"score store {path}: {library.value}"

    @pytest.mark.parametrize("cut, message", [
        (0, ": score series' frames sum to 50, not to the 0 values"),
        (240, ": score series' frames sum to 50, not to the 30 values"),
        (241, " holds 241 bytes after its header, which end inside a float64"),
    ], ids=["after_the_header", "after_one_series", "inside_a_value"])
    def test_interrupted_save_is_rejected(self, tmp_path, monkeypatch, cut, message):
        # a write cut in the payload, over a complete store, leaves fewer bytes than the header
        # promises: no staged rename is needed for the loader to refuse the file
        metrics.save_score_series(tmp_path, table([series(np.full(60, 0.5))]))

        class Interrupted:
            def __init__(self, file):
                self.file, self.writes = file, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 2:  # the payload, after the framing and header
                    self.file.write(memoryview(data).cast("B")[:cut])
                    raise KeyboardInterrupt
                return self.file.write(data)

        monkeypatch.setattr(metrics.framing, "open", lambda *args, **kwargs: Interrupted(open(*args, **kwargs)),
                            raising=False)
        with pytest.raises(KeyboardInterrupt):
            metrics.save_score_series(tmp_path, table([series(np.full(30, 0.25), uid="a"), series(np.full(20, 0.75))]))
        monkeypatch.undo()
        with pytest.raises(SchemaError) as err:
            metrics.load_score_series_dir(tmp_path)
        assert str(err.value) == f"score store {tmp_path / 'scores.sdqc'}{message}"

    def test_numpy_fps_writes_plain_numbers(self, tmp_path):
        metrics.save_score_series(tmp_path / "a", table([series([0.5, 0.25], fps=np.float64(2.0))]))
        metrics.save_score_series(tmp_path / "b", table([series([0.5, 0.25], fps=2.0)]))
        raw = (tmp_path / "a" / "scores.sdqc").read_bytes()
        assert raw == (tmp_path / "b" / "scores.sdqc").read_bytes()
        assert b"np." not in raw and b'"fps": [2.0]' in raw

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
        with pytest.raises(error, match=r"^score series \(v, q\): scores " + rule):
            series([0.2, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_fps_must_be_finite_and_positive(self, bad):
        with pytest.raises(ConfigError, match="finite and positive"):
            ScoreSeries("v", "q", bad, [0.5, 0.7])

    @pytest.mark.parametrize("bad", ["x", True, np.bool_(True), None], ids=repr)
    def test_fps_must_be_a_real_number_in_a_series_and_a_table_row(self, bad):
        # checked as given, before any float conversion: a bool is no fps of 1
        message = r": fps must be finite and positive, got {}$".format(re.escape(str(bad)))
        with pytest.raises(ConfigError, match=r"^score series \(v, q\)" + message):
            ScoreSeries("v", "q", bad, [0.5])
        with pytest.raises(ConfigError, match=r"^score series 1 \(w, q\)" + message):
            metrics.ScoreTable(["v", "w"], ["q", "q"], [1.0, bad], [1, 1], [0.5, 0.5])

    def test_scores_must_be_1d(self):
        with pytest.raises(ConfigError, match=r"^scores must be 1-D, got shape \(2, 2\)$"):
            series([[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("sweep", [False, True])
    def test_no_annotations_to_evaluate(self, sweep):
        ser, w = [series([0.5], uid="v", qid="a-0")], ToleranceWindow(5, 10)
        with pytest.raises(ConfigError, match="^no annotations to evaluate$"):
            metrics.sweep_thresholds(ser, [], w) if sweep else metrics.evaluate_dataset(ser, [], [1], w)

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
