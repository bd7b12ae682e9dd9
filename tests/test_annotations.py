import json
import math
import re

import numpy as np
import pytest

from streamstart import annotations as ann
from streamstart.errors import ConfigError, NumericError, RowError, SchemaError
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
        {"video_uid": "../../escaped"}, {"video_uid": ""}, {"video_uid": "."}, {"video_uid": ".."},
        {"video_uid": "a\\b"}, {"video_uid": "a\0b"},
    ], ids=["video_escape", "video_empty", "video_dot", "video_dotdot", "video_backslash", "video_nul"])
    def test_id_that_cannot_name_a_file_is_row_error(self, bad):
        # the video_uid names the stream file streams/<video_uid>.f32
        with pytest.raises(RowError, match="row 2: .* cannot name a file") as err:
            ann.parse_annotations(make_csv(row(), row(**bad)))
        assert err.value.row == 2

    @pytest.mark.parametrize("ids", [
        {"video_uid": "a__b"}, {"annotator_uid": "x/y"}, {"annotator_uid": "x\\y"},
    ], ids=["video_dunder", "annotator_slash", "annotator_backslash"])
    def test_id_that_names_no_file_parses(self, ids):
        # only streams/<video_uid>.f32 is named after an id; the score store keeps its ids in its index
        out = ann.parse_annotations(make_csv(row(), row(ann_idx="1", **ids)))
        assert [getattr(out[1], name) for name in ids] == list(ids.values())

    def test_ids_with_dots_dashes_and_single_underscores_parse(self):
        out = ann.parse_annotations(make_csv(row(video_uid="synth-0001_a.b", annotator_uid="ann_1.x")))
        assert out[0].video_uid == "synth-0001_a.b" and out[0].annotator_uid == "ann_1.x"

    def test_missing_column_names_it(self):
        text = make_csv(row()).decode().replace("video_fps", "fps")
        with pytest.raises(SchemaError, match="video_fps"):
            ann.parse_annotations(text.encode())

    def test_short_row_is_row_error(self):
        # the column order is free: with video_uid last, a short row lacks an id, not a time
        columns = [c for c in ann.COLUMNS if c != "video_uid"] + ["video_uid"]
        full = row().split(",")
        short = [full[ann.COLUMNS.index(c)] for c in columns[:-1]]
        with pytest.raises(RowError, match="row 1: has fewer fields than the header's 12"):
            ann.parse_annotations((",".join(columns) + "\n" + ",".join(short) + "\n").encode())

    def test_long_row_is_row_error(self):
        # csv.DictReader files the fields past the header's under the key None
        with pytest.raises(RowError, match="row 2: has more fields than the header's 12"):
            ann.parse_annotations(make_csv(row(), row(ann_idx=1) + ",stray"))

    def test_non_numeric_time_reports_row(self):
        bad = row(start_sec="not-a-number")
        with pytest.raises(RowError, match="row 2"):
            ann.parse_annotations(make_csv(row(), bad))

    @pytest.mark.parametrize("value", ["1.5", "x", ""])
    def test_non_integer_ann_idx_is_row_error(self, value):
        with pytest.raises(RowError, match=rf"^row 2: non-integer ann_idx '{value}'$"):
            ann.parse_annotations(make_csv(row(), row(ann_idx=value)))

    def test_column_order_free(self):
        cols = list(ann.COLUMNS)[::-1]
        values = row().split(",")[::-1]
        data = (",".join(cols) + "\n" + ",".join(values) + "\n").encode()
        assert ann.parse_annotations(data)[0].query == "remind me when the kettle boils"

    def test_quoted_fields(self):
        quoted = row(query='"remind me, please"')
        out = ann.parse_annotations(make_csv(quoted))
        assert out[0].query == "remind me, please"

    def test_repeated_column_reads_its_last_occurrence(self):
        # as csv.DictReader reads a repeated header name; a short row that lacks the last one fails
        data = make_csv(row(query="first text") + ",second text").decode().replace(HEADER, HEADER + ",query")
        assert ann.parse_annotations(data)[0].query == "second text"
        with pytest.raises(RowError, match="row 1: has fewer fields than the header's 13"):
            ann.parse_annotations(data.replace(",second text", ""))

    def test_short_row_in_an_extra_column_parses(self):
        # only the schema's columns must be present; an extra column past them may be missing
        data = (HEADER + ",note\n" + row() + "\n").encode()
        assert ann.parse_annotations(data)[0].query == "remind me when the kettle boils"

    def test_blank_lines_are_no_rows(self):
        # a blank line neither parses nor counts toward the row numbers
        assert len(ann.parse_annotations(make_csv("", row(), "", row(ann_idx=1)))) == 2
        with pytest.raises(RowError, match="row 2: non-numeric value 'x' in column start_sec"):
            ann.parse_annotations(make_csv("", row(), "", row(ann_idx=1, start_sec="x")))

    def test_round_trip(self):
        anns = ann.parse_annotations(make_csv(row(), row(ann_idx=1, start_sec=5.5, end_sec=9.25)))
        again = ann.parse_annotations(ann.serialize_annotations(anns))
        assert again == anns


class TestRecordRules:
    @pytest.mark.parametrize("fields, message", [
        ({"split": "test"}, "split must be one of ('train', 'val'), got 'test'"),
        ({"query": ""}, "query must be non-empty"),
    ], ids=["split", "query"])
    def test_annotation(self, fields, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            make_ann(1.0, 2.0, **fields)

    def test_interval_runs_forward(self):
        ann.Interval(2.0, 2.0)
        with pytest.raises(ConfigError, match=r"^interval must have lo <= hi, got \(2.0, 1.0\)$"):
            ann.Interval(2.0, 1.0)

    @pytest.mark.parametrize("event, distractors, message", [
        ((5.0, 12.0), (), "event_interval Interval(lo=5.0, hi=12.0) must lie inside [0, 10.0]"),
        ((-1.0, 2.0), (), "event_interval Interval(lo=-1.0, hi=2.0) must lie inside [0, 10.0]"),
        ((2.0, 5.0), (10.0,), "distractor time 10.0 outside [0, 10.0)"),
        ((2.0, 5.0), (-0.5,), "distractor time -0.5 outside [0, 10.0)"),
        ((2.0, 5.0), (3.0,), "distractor time 3.0 overlaps the event interval"),
        ((2.0, 5.0), (5.0,), "distractor time 5.0 overlaps the event interval"),
    ], ids=["event_late", "event_early", "distractor_late", "distractor_early", "distractor_inside",
            "distractor_at_end"])
    def test_stream_spec_places_its_times_on_the_stream(self, event, distractors, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ann.SyntheticStreamSpec(n_frames=10, dim=4, event_interval=ann.Interval(*event), noise_scale=0.1,
                                    seed=0, distractor_times=distractors)

    def test_corpus_span_under_30_s(self):
        ann.make_corpus_specs(1, seed=0, n_frames=60, fps=2.0)
        with pytest.raises(ConfigError, match=r"^stream span 29.5s too short for corpus event placement$"):
            ann.make_corpus_specs(1, seed=0, n_frames=59, fps=2.0)


class TestToleranceFromVariance:
    def test_paper_variance_reproduces_window(self):
        w = ann.tolerance_from_variance(28.8, fps=1.0)
        assert w == ToleranceWindow(5.0, 10.0)

    def test_fps_whose_frame_grid_is_unbounded(self):
        # 2 sigma at 1e308 FPS is no finite frame count: a ConfigError, not math.floor's OverflowError
        message = f"{2 * math.sqrt(28.8)}s at 1e+308 FPS gives a frame grid of inf frames, not a finite count >= 0"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ann.tolerance_from_variance(28.8, fps=1e308)

    def test_tiny_fps_gives_the_empty_window(self):
        # under one frame of slack either side floors to zero seconds
        assert ann.tolerance_from_variance(28.8, fps=1e-300) == ToleranceWindow(0.0, 0.0)


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

    @pytest.mark.parametrize("p_pos", [-0.1, 1.5, math.nan])
    def test_p_pos_outside_0_1(self, p_pos):
        a = make_ann(5, 8, video_length=30.0)
        rule = "a finite real number" if math.isnan(p_pos) else r"in \[0, 1\]"  # NaN is no real, checked first
        with pytest.raises(ConfigError, match=rf"^p_pos must be {rule}, got {p_pos}$"):
            ann.sample_windows(a, clock(30), 10, 1.0, 0, p_pos=p_pos)

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

    @pytest.mark.parametrize("fps, grid", [(1e308, "inf"), (1e-300, "0")])
    def test_fps_whose_frame_grid_is_unbounded_or_empty(self, fps, grid):
        # not math.ceil's OverflowError, nor "need 1 <= w_s <= 0": the grid the fps gives
        a = make_ann(5, 8, video_length=60.0)
        message = f"60.0s at {fps} FPS gives a frame grid of {grid} frames, not a finite count >= 1"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ann.sample_windows(a, clock(60), 1, fps, 0)

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
        frames, query, a = ann.gen_synthetic(spec)
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
        f1, q1, a1 = ann.gen_synthetic(spec)
        f2, q2, a2 = ann.gen_synthetic(spec)
        assert np.array_equal(f1, f2) and np.array_equal(q1, q2) and a1 == a2

    def test_annotation_records_interval(self):
        spec = ann.SyntheticStreamSpec(
            n_frames=30, dim=8, event_interval=ann.Interval(3.5, 6.25), noise_scale=0.2, seed=9
        )
        _, _, a = ann.gen_synthetic(spec)
        assert (a.start_sec, a.end_sec) == (3.5, 6.25)
        assert a.video_length == 30.0

    def test_shared_query_seed_shares_direction(self):
        base = dict(n_frames=12, dim=8, event_interval=ann.Interval(1, 3), noise_scale=0.1)
        s1 = ann.SyntheticStreamSpec(seed=1, query_seed=42, **base)
        s2 = ann.SyntheticStreamSpec(seed=2, query_seed=42, **base)
        _, q1, _ = ann.gen_synthetic(s1)
        _, q2, _ = ann.gen_synthetic(s2)
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
            frames, q, a = ann.gen_synthetic(spec)
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


def _with_header(raw, header):
    """A stream file's bytes ``raw`` with its JSON header replaced by ``header`` (bytes)."""
    end = 12 + int.from_bytes(raw[8:12], "little")
    return raw[:8] + len(header).to_bytes(4, "little") + header + raw[end:]


class TestStreamFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = rng.normal(size=(17, 5)).astype(np.float32).astype(float)
        query = rng.normal(size=5).astype(np.float32).astype(float)
        path = tmp_path / "v.f32"
        ann.save_stream(path, frames, query, 2.5)
        assert [p.name for p in tmp_path.iterdir()] == ["v.f32"]  # one file per stream
        raw = path.read_bytes()
        assert raw[:4] == ann.STREAM_MAGIC and int.from_bytes(raw[4:8], "little") == ann.STREAM_VERSION
        end = 12 + int.from_bytes(raw[8:12], "little")
        assert json.loads(raw[12:end]) == {"dim": 5, "fps": 2.5, "n_frames": 17}
        # the query, then the frames
        assert raw[end:] == query.astype("<f4").tobytes() + frames.astype("<f4").tobytes()
        loaded, fps, q = ann.load_stream(path)
        assert np.array_equal(loaded, frames)
        assert np.array_equal(q, query)
        assert fps == 2.5 and type(fps) is float
        # header keys the reader does not use are ignored, and an integer fps reads as a float
        path.write_bytes(_with_header(raw, json.dumps({"video_uid": "v", "fps": 2, "dim": 5, "n_frames": 17,
                                                       "seed": 3}).encode()))
        loaded, fps, q = ann.load_stream(path)
        assert np.array_equal(loaded, frames) and np.array_equal(q, query)
        assert fps == 2.0 and type(fps) is float

    def test_read_reads_the_one_file_once(self, tmp_path):
        ann.save_stream(tmp_path / "v.f32", np.zeros((4, 3)), np.ones(3), 1.0)
        read = []
        ann.load_stream(tmp_path / "v.f32", lambda p: read.append(p) or p.read_bytes())
        assert read == [tmp_path / "v.f32"]

    @pytest.mark.parametrize("cut", [1, 4], ids=["inside_a_value", "one_value"])
    def test_file_cut_in_its_values_is_numeric_error(self, tmp_path, cut):
        # numpy cannot decode a byte count that is not a whole number of float32 values
        path = tmp_path / "v.f32"
        ann.save_stream(path, np.zeros((4, 3)), np.ones(3), 1.0)
        raw = path.read_bytes()
        path.write_bytes(raw[:-cut])
        with pytest.raises(NumericError, match=f"^{path} holds {60 - cut} bytes after its header, which "
                                               "promises 5x3 float32 values"):
            ann.load_stream(path)

    def test_header_count_mismatch_detected(self, tmp_path):
        path = tmp_path / "v.f32"
        ann.save_stream(path, np.zeros((4, 3)), np.ones(3), 1.0)
        path.write_bytes(_with_header(path.read_bytes(), b'{"dim": 3, "fps": 1.0, "n_frames": 9}'))
        with pytest.raises(NumericError, match="promises 10x3 float32 values"):
            ann.load_stream(path)

    @pytest.mark.parametrize("where", [0, 1])
    def test_non_finite_value_is_numeric_error(self, tmp_path, where):
        # row 0 is the query, row 1 the first frame
        path = tmp_path / "v.f32"
        ann.save_stream(path, np.ones((4, 3)), np.ones(3), 1.0)  # save_stream writes no such value
        raw = path.read_bytes()
        at = 12 + int.from_bytes(raw[8:12], "little") + 4 * (3 * where + 1)
        path.write_bytes(raw[:at] + np.float32(np.nan).tobytes() + raw[at + 4:])
        with pytest.raises(NumericError, match=f"^{path} holds 1 non-finite value"):
            ann.load_stream(path)

    @pytest.mark.parametrize("value", [np.nan, -np.inf, 1e39], ids=["nan", "inf", "beyond_float32"])
    @pytest.mark.parametrize("where", [0, 1])
    def test_save_refuses_a_value_not_finite_as_float32(self, tmp_path, value, where):
        # row 0 is the query, row 1 the first frame; nothing is written, the directory included
        values = np.ones((5, 3))
        values[where, 1] = value
        path = tmp_path / "streams" / "v.f32"
        with pytest.raises(NumericError, match=f"^{path}: its frames or query are not finite as the float32"):
            ann.save_stream(path, values[1:], values[0], 1.0)
        assert not path.parent.exists()

    def test_three_file_stream_is_schema_error(self, tmp_path):
        # the layout before one file per stream: raw frames, a JSON sidecar and a query file
        path = tmp_path / "v.f32"
        path.write_bytes(np.ones((4, 3), dtype="<f4").tobytes())
        (tmp_path / "v.f32.json").write_text(json.dumps({"dim": 3, "fps": 1.0, "n_frames": 4}))
        (tmp_path / "v.query.f32").write_bytes(np.ones(3, dtype="<f4").tobytes())
        with pytest.raises(SchemaError, match=f"^{path} is not a stream file .* re-run synth$"):
            ann.load_stream(path)

    @pytest.mark.parametrize("damage, message", [
        (lambda raw: raw[:3], "is not a stream file"),
        (lambda raw: raw[:4] + (2).to_bytes(4, "little") + raw[8:], "is stream version 2; this build reads version 1"),
        (lambda raw: raw[:20], "is truncated: 20 bytes, needs at least"),
        (lambda raw: raw[:8] + (10**6).to_bytes(4, "little") + raw[12:], "is truncated"),
        (lambda raw: _with_header(raw, b'{"dim": 3, "fps": 1.0'), "header is not UTF-8 JSON"),
        (lambda raw: _with_header(raw, b'{"dim": 3, "fps": 1.0}'), "of at least 1, got None and 3"),
        (lambda raw: _with_header(raw, b'[3, 1.0, 4]'), "header is a JSON list, not an object"),
        (lambda raw: _with_header(raw, b'\xff'), "UnicodeDecodeError"),
        (lambda raw: _with_header(raw, b'{"dim": 3, "fps": 1.0, "n_frames": 0}'), "of at least 1, got 0 and 3"),
        (lambda raw: _with_header(raw, b'{"dim": true, "fps": 1.0, "n_frames": 4}'), "of at least 1, got 4 and True"),
        (lambda raw: _with_header(raw, b'{"dim": 3, "fps": "1", "n_frames": 4}'), "fps, got '1'"),
        (lambda raw: _with_header(raw, b'{"dim": 3, "fps": Infinity, "n_frames": 4}'), "fps, got inf"),
    ], ids=["short_magic", "version", "cut_head", "long_header", "not_json", "no_n_frames", "not_object",
            "not_utf8", "zero_frames", "bool_dim", "string_fps", "inf_fps"])
    def test_damaged_head_is_schema_error(self, tmp_path, damage, message):
        path = tmp_path / "v.f32"
        ann.save_stream(path, np.zeros((4, 3)), np.ones(3), 1.0)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(SchemaError, match=f"^{path}.*{message}"):
            ann.load_stream(path)
