import math

import numpy as np
import pytest

from streamstart import annotations as ann
from streamstart.errors import ConfigError, RowError, SchemaError
from streamstart.metrics import ToleranceWindow

HEADER = ",".join(ann.COLUMNS)


def row(**overrides):
    base = {
        "split": "train",
        "source": "moments",
        "video_uid": "v1",
        "clip_uid": "c1",
        "annotator_uid": "a1",
        "ann_idx": 0,
        "query": "remind me when the kettle boils",
        "response": "the kettle is boiling",
        "start_sec": 347.0,
        "end_sec": 349.0,
        "video_fps": 30.0,
        "video_length": 350.0,
    }
    base.update(overrides)
    return ",".join(str(base[c]) for c in ann.COLUMNS)


def make_csv(*rows):
    return (HEADER + "\n" + "\n".join(rows) + "\n").encode()


def make_ann(start, end, query="q", video_length=1000.0, **kw):
    fields = dict(
        split="train", source="moments", video_uid="v", clip_uid="c",
        annotator_uid="a", ann_idx=0, query=query, response="r",
        start_sec=start, end_sec=end, video_fps=30.0, video_length=video_length,
    )
    fields.update(kw)
    return ann.EventAnnotation(**fields)


class TestParse:
    def test_basic_row(self):
        out = ann.parse_annotations(make_csv(row()))
        assert len(out) == 1
        assert out[0].start_sec == 347.0
        assert out[0].end_sec == 349.0
        assert out[0].video_fps == 30.0

    def test_start_after_end_is_row_error(self):
        with pytest.raises(RowError) as err:
            ann.parse_annotations(make_csv(row(start_sec=10.0, end_sec=5.0)))
        assert err.value.row == 1

    @pytest.mark.parametrize("bad", [{"video_fps": "nan"}, {"video_fps": "inf"}, {"video_length": "inf"}],
                             ids=["fps_nan", "fps_inf", "length_inf"])
    def test_non_finite_fps_or_length_is_row_error(self, bad):
        with pytest.raises(RowError, match="row 1: .* must be finite and positive"):
            ann.parse_annotations(make_csv(row(**bad)))

    @pytest.mark.parametrize("bad", [
        {"video_uid": "a__b"}, {"video_uid": "../../escaped"}, {"video_uid": ""}, {"video_uid": "."},
        {"video_uid": ".."}, {"video_uid": "a\\b"}, {"annotator_uid": "x/y"}, {"annotator_uid": "x\\y"},
    ], ids=["video_dunder", "video_escape", "video_empty", "video_dot", "video_dotdot", "video_backslash",
            "annotator_slash", "annotator_backslash"])
    def test_id_that_cannot_name_a_file_is_row_error(self, bad):
        # video_uid names the stream file and the score file; annotator_uid is in the score file's name
        with pytest.raises(RowError, match="row 2: .* cannot name a file") as err:
            ann.parse_annotations(make_csv(row(), row(**bad)))
        assert err.value.row == 2

    def test_ids_with_dots_dashes_and_single_underscores_parse(self):
        out = ann.parse_annotations(make_csv(row(video_uid="synth-0001_a.b", annotator_uid="ann_1.x")))
        assert out[0].video_uid == "synth-0001_a.b" and out[0].annotator_uid == "ann_1.x"

    def test_missing_column_names_it(self):
        text = make_csv(row()).decode().replace("video_fps", "fps")
        with pytest.raises(SchemaError, match="video_fps"):
            ann.parse_annotations(text.encode())

    def test_non_numeric_time_reports_row(self):
        bad = row(start_sec="not-a-number")
        with pytest.raises(RowError, match="row 2"):
            ann.parse_annotations(make_csv(row(), bad))

    def test_column_order_free(self):
        cols = list(ann.COLUMNS)[::-1]
        values = row().split(",")[::-1]
        data = (",".join(cols) + "\n" + ",".join(values) + "\n").encode()
        assert ann.parse_annotations(data)[0].query == "remind me when the kettle boils"

    def test_quoted_fields(self):
        quoted = row(query='"remind me, please"')
        out = ann.parse_annotations(make_csv(quoted))
        assert out[0].query == "remind me, please"

    def test_round_trip(self):
        anns = ann.parse_annotations(make_csv(row(), row(ann_idx=1, start_sec=5.5, end_sec=9.25)))
        again = ann.parse_annotations(ann.serialize_annotations(anns))
        assert again == anns


class TestIntervalIoU:
    def test_arithmetic(self):
        assert ann.interval_iou(ann.Interval(10, 20), ann.Interval(12, 22)) == pytest.approx(8 / 12)

    def test_identity(self):
        assert ann.interval_iou(ann.Interval(0, 10), ann.Interval(0, 10)) == 1.0

    def test_disjoint(self):
        assert ann.interval_iou(ann.Interval(0, 5), ann.Interval(6, 9)) == 0.0

    def test_degenerate_points(self):
        assert ann.interval_iou(ann.Interval(5, 5), ann.Interval(5, 5)) == 0.0

    def test_symmetric_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = sorted(rng.uniform(0, 100, 2))
            b = sorted(rng.uniform(0, 100, 2))
            ia, ib = ann.Interval(*a), ann.Interval(*b)
            v = ann.interval_iou(ia, ib)
            assert v == ann.interval_iou(ib, ia)
            assert 0.0 <= v <= 1.0
            assert (v == 1.0) == (a == b and a[1] > a[0])


class TestDeriveTolerance:
    def test_two_pair_groups(self):
        # groups {10,12} and {20,26}: population variances 1 and 9, mean 5
        anns = [
            make_ann(10, 40, "wash dishes"),
            make_ann(12, 40, "wash dishes"),
            make_ann(20, 60, "open door"),
            make_ann(26, 60, "open door"),
        ]
        w = ann.derive_tolerance(anns, iou_threshold=0.5, fps=1.0)
        sigma = math.sqrt(5.0)
        assert w.anticipation == math.floor(sigma)  # 2
        assert w.latency == math.floor(2 * sigma)   # 4

    def test_paper_variance_reproduces_window(self):
        w = ann.tolerance_from_variance(28.8, fps=1.0)
        assert w == ToleranceWindow(5.0, 10.0)

    def test_zero_variance_group(self):
        anns = [make_ann(30, 50, "q"), make_ann(30, 50, "q")]
        w = ann.derive_tolerance(anns, 0.7, 1.0)
        assert w == ToleranceWindow(0.0, 0.0)

    def test_no_collisions_errors(self):
        anns = [make_ann(10, 20, "a"), make_ann(500, 600, "b")]
        with pytest.raises(ConfigError, match="explicit"):
            ann.derive_tolerance(anns, 0.7, 1.0)

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        anns = []
        for g in range(6):
            start = 50.0 * g
            for _ in range(3):
                jitter = float(rng.uniform(0, 2))
                anns.append(make_ann(start + jitter, start + 30, f"group{g}"))
        w0 = ann.derive_tolerance(anns, 0.7, 1.0)
        for seed in range(5):
            perm = list(np.random.default_rng(seed).permutation(len(anns)))
            w = ann.derive_tolerance([anns[i] for i in perm], 0.7, 1.0)
            assert w == w0


def clock(n, fps=1.0):
    """A stream of n frames whose one feature is the frame's time: a window shows where it was cut."""
    return (np.arange(n) / fps)[:, None]


class TestSampleWindows:
    def test_labels_match_membership(self):
        a = make_ann(5, 8, video_length=30.0)
        found = False
        for seed in range(40):
            window, labels = ann.sample_windows(a, clock(30), 10, 1.0, seed, p_pos=1.0)
            assert list(labels) == [5.0 <= t <= 8.0 for t in window[:, 0]]
            if window[0, 0] == 0.0:
                found = True
                assert list(np.flatnonzero(labels)) == [5, 6, 7, 8]
        assert found

    def test_no_overlap_all_false(self):
        a = make_ann(5, 8, video_length=40.0)
        window, labels = ann.sample_windows(a, clock(40), 10, 1.0, 0, p_pos=0.0)
        if window[0, 0] >= 9 or window[-1, 0] <= 4:
            assert not labels.any()

    def test_deterministic(self):
        a = make_ann(5, 8, video_length=30.0)
        w1, labels1 = ann.sample_windows(a, clock(30), 10, 1.0, 123)
        w2, labels2 = ann.sample_windows(a, clock(30), 10, 1.0, 123)
        assert np.array_equal(w1, w2)
        assert np.array_equal(labels1, labels2)

    def test_video_too_short(self):
        a = make_ann(1, 2, video_length=5.0)
        with pytest.raises(ConfigError):
            ann.sample_windows(a, clock(5), 10, 1.0, 0)

    @pytest.mark.parametrize("fps, n", [(1.0, 59), (2.0, 119), (0.5, 0)])
    def test_stream_shorter_than_grid(self, fps, n):
        # the annotation's 60 s need ceil(60 fps) frames; the window size does not matter
        a = make_ann(5, 8, video_length=60.0, video_uid="v9")
        with pytest.raises(SchemaError, match=f"video v9: video_length 60.0s at {fps} fps "
                                              f"needs {math.ceil(60 * fps)} frames, its stream holds {n}$"):
            ann.sample_windows(a, clock(n, fps), 1, fps, 0)

    def test_window_fits_stream_grid(self):
        # frames past the annotation's video_length are never drawn
        a = make_ann(5, 8, video_length=60.0)
        for seed in range(50):
            window, _ = ann.sample_windows(a, clock(70), 60, 1.0, seed)
            assert window.shape == (60, 1) and window[-1, 0] < 60.0

    def test_brute_force_membership_1000(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            length = float(rng.uniform(20, 200))
            start = float(rng.uniform(0, length - 5))
            end = float(rng.uniform(start, min(length, start + 20)))
            a = make_ann(start, end, video_length=length)
            w_s = int(rng.integers(1, 16))
            fps = float(rng.choice([0.5, 1.0, 2.0]))
            n_grid = math.ceil(length * fps - 1e-9)
            if n_grid < w_s:
                continue
            window, labels = ann.sample_windows(a, clock(n_grid, fps), w_s, fps, int(rng.integers(2**31)))
            m = round(window[0, 0] * fps)
            assert np.array_equal(window[:, 0], (m + np.arange(w_s)) / fps)
            for t, label in zip(window[:, 0], labels):
                assert label == (start <= t <= end)


class TestGenSynthetic:
    def test_zero_noise_in_event_matches_query(self):
        spec = ann.SyntheticStreamSpec(
            n_frames=20, dim=16, event_interval=ann.Interval(5, 9), noise_scale=0.0, seed=4
        )
        frames, query, a = ann.gen_synthetic(spec, 16)
        cos = frames @ query / (
            np.linalg.norm(frames, axis=1).clip(1e-12) * np.linalg.norm(query)
        )
        inside = (np.arange(20) >= 5) & (np.arange(20) <= 9)
        assert np.allclose(cos[inside], 1.0)
        assert cos[~inside].max() < 0.9

    def test_deterministic(self):
        spec = ann.SyntheticStreamSpec(
            n_frames=30, dim=8, event_interval=ann.Interval(3, 6), noise_scale=0.2, seed=9
        )
        f1, q1, a1 = ann.gen_synthetic(spec, 8)
        f2, q2, a2 = ann.gen_synthetic(spec, 8)
        assert np.array_equal(f1, f2) and np.array_equal(q1, q2) and a1 == a2

    def test_annotation_records_interval(self):
        spec = ann.SyntheticStreamSpec(
            n_frames=30, dim=8, event_interval=ann.Interval(3.5, 6.25), noise_scale=0.2, seed=9
        )
        _, _, a = ann.gen_synthetic(spec, 8)
        assert (a.start_sec, a.end_sec) == (3.5, 6.25)
        assert a.video_length == 30.0

    def test_dim_mismatch(self):
        spec = ann.SyntheticStreamSpec(
            n_frames=10, dim=8, event_interval=ann.Interval(1, 2), noise_scale=0.1, seed=0
        )
        with pytest.raises(ConfigError):
            ann.gen_synthetic(spec, 16)

    def test_shared_query_seed_shares_direction(self):
        base = dict(n_frames=12, dim=8, event_interval=ann.Interval(1, 3), noise_scale=0.1)
        s1 = ann.SyntheticStreamSpec(seed=1, query_seed=42, **base)
        s2 = ann.SyntheticStreamSpec(seed=2, query_seed=42, **base)
        _, q1, _ = ann.gen_synthetic(s1, 8)
        _, q2, _ = ann.gen_synthetic(s2, 8)
        assert np.array_equal(q1, q2)

    def test_raw_cosine_detector_sr1_on_low_noise(self):
        # threshold-0.5 rising-edge detector on raw cosine, 100 streams,
        # noise 0.1: every first prediction lands in the [-5, +10] window
        from streamstart import metrics

        rng = np.random.default_rng(101)
        w = ToleranceWindow(5, 10)
        hits = 0
        for _ in range(100):
            start = float(rng.uniform(10, 40))
            dur = float(rng.uniform(4, 10))
            spec = ann.SyntheticStreamSpec(
                n_frames=60, dim=128, event_interval=ann.Interval(start, start + dur),
                noise_scale=0.1, seed=int(rng.integers(2**31)),
            )
            frames, q, a = ann.gen_synthetic(spec, 128)
            qn = q / np.linalg.norm(q)
            un = np.linalg.norm(frames, axis=1).clip(1e-12)
            cos = np.clip((frames @ qn) / un, 0.0, 1.0)
            series = metrics.ScoreSeries(a.video_uid, "q", 1.0, cos)
            preds = metrics.extract_predictions(series, 0.5, "rising_edge")
            hits += metrics.streaming_recall_at_k(preds, a.start_sec, 1, w)
        assert hits == 100


BAD_FPS = [math.nan, math.inf, 0.0, -1.0]


class TestFpsRule:
    """Every fps a synthetic corpus or a tolerance derivation takes must be finite and positive."""

    @pytest.mark.parametrize("fps", BAD_FPS)
    def test_stream_spec(self, fps):
        with pytest.raises(ConfigError, match="fps must be finite and positive"):
            ann.SyntheticStreamSpec(n_frames=10, dim=4, event_interval=ann.Interval(1, 2), noise_scale=0.1,
                                    seed=0, fps=fps)

    @pytest.mark.parametrize("fps", BAD_FPS)
    def test_corpus_specs(self, fps):
        with pytest.raises(ConfigError, match="fps must be finite and positive"):
            ann.make_corpus_specs(2, seed=0, fps=fps)

    @pytest.mark.parametrize("sigma_sq, fps", [(1.0, f) for f in BAD_FPS] + [(math.nan, 1.0), (math.inf, 1.0)])
    def test_tolerance_from_variance(self, sigma_sq, fps):
        with pytest.raises(ConfigError, match="finite"):
            ann.tolerance_from_variance(sigma_sq, fps)


class TestStreamFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = rng.normal(size=(17, 5)).astype(np.float32).astype(float)
        query = rng.normal(size=5).astype(np.float32).astype(float)
        sidecar = {"video_uid": "v", "fps": 1.0, "dim": 5, "n_frames": 17, "seed": 3}
        ann.save_stream(tmp_path / "v.f32", frames, sidecar, query)
        loaded, meta, q = ann.load_stream(tmp_path / "v.f32")
        assert np.array_equal(loaded, frames)
        assert np.array_equal(q, query)
        assert meta == sidecar

    def test_sidecar_mismatch_detected(self, tmp_path):
        ann.save_stream(
            tmp_path / "v.f32", np.zeros((4, 3)),
            {"video_uid": "v", "fps": 1.0, "dim": 3, "n_frames": 9, "seed": 0},
        )
        with pytest.raises(Exception, match="sidecar"):
            ann.load_stream(tmp_path / "v.f32")
