import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from streamstart import annotations as ann
from streamstart import cli, detector, kernels, metrics

import oracles

HEADER = ",".join(ann.COLUMNS)
GOOD_ROW = "train,moments,v1,c1,a1,0,boil kettle,ok,10.0,12.0,30.0,100.0"


@pytest.fixture()
def ann_file(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text(HEADER + "\n" + GOOD_ROW + "\n")
    return path


class TestIngest:
    def test_valid_file(self, ann_file, capsys):
        rc = cli.main(["ingest", "--annotations", str(ann_file)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"annotations": 1, "videos": 1}

    def test_stats_shape(self, ann_file, capsys):
        rc = cli.main(["ingest", "--annotations", str(ann_file), "--stats"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["by_split"] == {"train": 1}
        assert payload["by_source"] == {"moments": 1}
        assert sum(payload["event_duration_bins"].values()) == 1
        assert sum(payload["start_time_bins"].values()) == 1

    def test_missing_column_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER.replace("start_sec", "begin") + "\n")
        assert cli.main(["ingest", "--annotations", str(path)]) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert "start_sec" in captured.err
        assert captured.out == ""  # diagnostics never contaminate stdout

    def test_bad_row_exit_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "\n" + GOOD_ROW.replace("10.0,12.0", "12.0,10.0") + "\n")
        assert cli.main(["ingest", "--annotations", str(path)]) == cli.EXIT_SCHEMA

    @pytest.mark.parametrize("fps, length", [("nan", "100.0"), ("inf", "100.0"), ("30.0", "inf")],
                             ids=["fps_nan", "fps_inf", "length_inf"])
    def test_non_finite_fps_or_length_exit_2(self, tmp_path, capsys, fps, length):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "\n" + GOOD_ROW.replace("30.0,100.0", f"{fps},{length}") + "\n")
        assert cli.main(["ingest", "--annotations", str(path)]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "row 1: " in err and "must be finite and positive" in err and err.count("\n") == 1

    def test_missing_file_exit_config(self, tmp_path):
        assert cli.main(["ingest", "--annotations", str(tmp_path / "nope.csv")]) == cli.EXIT_CONFIG


class TestSynth:
    def test_deterministic_corpus(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["synth", "--out", str(out), "--streams", "4", "--val-streams", "2",
                             "--seed", "7", "--dim", "8"]) == 0
        capsys.readouterr()
        for name in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            if name.name == "manifest.json":
                continue  # carries timestamps by design
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_corpus_is_parseable_and_split(self, tmp_path, capsys):
        out = tmp_path / "c"
        cli.main(["synth", "--out", str(out), "--streams", "3", "--val-streams", "2",
                  "--seed", "1", "--dim", "8"])
        capsys.readouterr()
        anns = ann.parse_annotations((out / "annotations.csv").read_bytes())
        assert sum(a.split == "train" for a in anns) == 3
        assert sum(a.split == "val" for a in anns) == 2
        frames, sidecar, query = ann.load_stream(out / "streams" / f"{anns[0].video_uid}.f32")
        assert frames.shape == (sidecar["n_frames"], sidecar["dim"])
        assert query is not None


    @pytest.mark.parametrize("fps", ["nan", "inf", "0", "-1"])
    def test_bad_fps_exit_config(self, tmp_path, capsys, fps):
        out = tmp_path / "c"
        assert cli.main(["synth", "--out", str(out), "--streams", "2", "--val-streams", "1",
                         "--fps", fps]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "fps" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags, name", [
        (["--noise", "nan"], "noise_scale"),
        (["--noise", "inf"], "noise_scale"),
        (["--dim", "0"], "dim"),
        (["--dim", "-3"], "dim"),
        (["--streams", "-2"], "--streams"),
        (["--val-streams", "-1"], "--val-streams"),
        (["--streams", "-2", "--val-streams", "3"], "--streams"),
    ], ids=["noise_nan", "noise_inf", "dim_0", "dim_neg", "streams_neg", "val_streams_neg", "streams_neg_sum_pos"])
    def test_bad_value_exit_config(self, tmp_path, capsys, flags, name):
        out = tmp_path / "c"
        assert cli.main(["synth", "--out", str(out), "--streams", "2", "--val-streams", "1"] + flags) \
            == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"error: {name} must be" in err and err.count("\n") == 1
        assert not out.exists()

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A small synth -> train -> score pipeline shared by CLI tests."""
    root = tmp_path_factory.mktemp("pipe")
    corpus, run, scores = root / "corpus", root / "run", root / "scores"
    assert cli.main(["synth", "--out", str(corpus), "--streams", "24", "--val-streams", "8",
                     "--seed", "3", "--dim", "8", "--queries", "4"]) == 0
    assert cli.main(["train", "--data", str(corpus), "--out", str(run), "--kind", "qrnn",
                     "--steps", "5", "--lr", "1e-3", "--batch", "4", "--blocks", "1",
                     "--d-prime", "8", "--seed", "0"]) == 0
    assert cli.main(["score", "--checkpoint", str(run / "checkpoint.sdqk"), "--data", str(corpus),
                     "--split", "val", "--out", str(scores)]) == 0
    return corpus, run, scores


def _split_files(corpus, split):
    """What train and score read of a corpus for one split, relative to it."""
    uids = sorted({a.video_uid for a in ann.parse_annotations((corpus / "annotations.csv").read_bytes())
                   if a.split == split})
    return ["annotations.csv"] + [f"streams/{uid}{ext}" for uid in uids
                                  for ext in (".f32", ".f32.json", ".query.f32")]


def _documented_digest(root, rels):
    """docs/formats.md's input digest of a directory: sha256sum's lines for the files read, in path order."""
    lines = "".join(f"{hashlib.sha256((root / rel).read_bytes()).hexdigest()}  {rel}\n" for rel in sorted(rels))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def _edit_sidecar(edit):
    """A text-to-text sidecar damage that applies ``edit`` to the parsed sidecar dict."""
    def damage(text):
        sidecar = json.loads(text)
        edit(sidecar)
        return json.dumps(sidecar)
    return damage


def _run(command, corpus, run, out):
    """``command`` (train or score, on its split) over ``corpus`` into ``out``; the data digest of its manifest."""
    if command == "train":
        argv = ["train", "--data", str(corpus), "--out", str(out), "--kind", "vanilla", "--steps", "1",
                "--batch", "2", "--blocks", "1", "--d-prime", "4"]
    else:
        argv = ["score", "--checkpoint", str(run / "checkpoint.sdqk"), "--data", str(corpus),
                "--split", "val", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return json.loads((out / "manifest.json").read_text())["input_hashes"][str(corpus)]


class TestTrainScoreEval:
    def test_artifacts_exist(self, pipeline, capsys):
        corpus, run, scores = pipeline
        capsys.readouterr()
        assert (run / "checkpoint.sdqk").exists()
        assert (run / "curve.csv").read_text().startswith("step,total,pos_term,neg_term,w_pos")
        manifest = json.loads((run / "train_manifest.json").read_text())
        assert manifest["steps"] == 5 and manifest["seed"] == 0
        assert len(list((scores / "scores").glob("*.csv"))) == 8
        for d in (corpus, run, scores):
            assert (d / "manifest.json").exists()

    def test_eval_matches_library(self, pipeline, capsys):
        corpus, run, scores = pipeline
        rc = cli.main(["eval", "--scores", str(scores / "scores"),
                       "--annotations", str(corpus / "annotations.csv"),
                       "--split", "val", "--threshold", "0.5", "--k", "1,2"])
        assert rc == 0
        got = json.loads(capsys.readouterr().out)

        series = metrics.load_score_series_dir(scores / "scores")
        anns = [a for a in ann.parse_annotations((corpus / "annotations.csv").read_bytes())
                if a.split == "val"]
        rep = metrics.evaluate_dataset(series, anns, [1, 2], metrics.ToleranceWindow(5, 10),
                                       "rising_edge", 0.5)
        assert got["sr"] == {str(k): v for k, v in rep.sr.items()}
        assert got["smd"] == {str(k): v for k, v in rep.smd.items()}
        assert got["n_queries"] == 8

    def test_eval_id_mismatch_exit_3(self, pipeline, tmp_path):
        corpus, run, scores = pipeline
        other = tmp_path / "other.csv"
        other.write_text(HEADER + "\n" + GOOD_ROW.replace("train", "val") + "\n")
        rc = cli.main(["eval", "--scores", str(scores / "scores"), "--annotations", str(other),
                       "--split", "val"])
        assert rc == cli.EXIT_ID_MISMATCH

    def test_score_on_fresh_checkpoint_equals_frozen_standin(self, pipeline, tmp_path, capsys):
        # identity-initialized adapters: scoring through a 0-step checkpoint
        # equals scoring with the frozen stand-in stack alone (here realized
        # as the same checkpoint re-scored batch-side)
        corpus, _, _ = pipeline
        run0 = tmp_path / "run0"
        assert cli.main(["train", "--data", str(corpus), "--out", str(run0), "--kind", "qrnn",
                         "--steps", "0", "--blocks", "1", "--d-prime", "8", "--seed", "0"]) == 0
        capsys.readouterr()
        model = detector.load_model(run0 / "checkpoint.sdqk")
        anns = [a for a in ann.parse_annotations((corpus / "annotations.csv").read_bytes())
                if a.split == "val"]
        frames, sidecar, query = ann.load_stream(corpus / "streams" / f"{anns[0].video_uid}.f32")
        streamed = detector.infer_streaming(model, frames, query).scores
        batch = detector.score_frames(model, frames, query).scores
        assert np.abs(streamed - batch).max() <= 1e-10
        # adapters in the checkpoint are still exact identities
        for adapter, _ in model.blocks:
            assert not adapter.w_up.any()

    @pytest.mark.parametrize("damage, message", [
        (lambda raw: raw[:-3], "truncated"),
        (lambda raw: raw + b"\x00" * 8, "trailing bytes"),
        (lambda raw: raw[:12] + bytes([raw[12] ^ 0xFF]) + raw[13:], "config is not UTF-8 JSON"),
        (lambda raw: raw[:4] + (1).to_bytes(4, "little") + raw[8:],
         "is checkpoint version 1; this build reads version 3"),
        (lambda raw: raw[:4] + (2).to_bytes(4, "little") + raw[8:],
         "is checkpoint version 2; this build reads version 3"),
    ])
    def test_damaged_checkpoint_exit_config(self, pipeline, tmp_path, capsys, damage, message):
        corpus, run, _ = pipeline
        bad = tmp_path / "bad.sdqk"
        bad.write_bytes(damage((run / "checkpoint.sdqk").read_bytes()))
        capsys.readouterr()
        rc = cli.main(["score", "--checkpoint", str(bad), "--data", str(corpus),
                       "--split", "val", "--out", str(tmp_path / "scored")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda arrays, i: arrays[:-1], "holds {n_less} arrays, its config needs {n}"),
        (lambda arrays, i: arrays + [arrays[-1]], "holds {n_more} arrays, its config needs {n}"),
        (lambda arrays, i: arrays[:i] + [np.zeros((3, 3))] + arrays[i + 1 :],
         "blocks.0.w_down has shape (3, 3), its config needs (8, 8)"),
    ], ids=["one_too_few", "one_too_many", "wrong_shape"])
    def test_checkpoint_arrays_checked_against_config(self, pipeline, tmp_path, capsys, edit, message):
        corpus, run, _ = pipeline
        config, arrays = detector.read_checkpoint(run / "checkpoint.sdqk")
        bad = tmp_path / "bad.sdqk"
        detector.write_checkpoint(bad, config, edit(arrays, config["array_order"].index("blocks.0.w_down")))
        capsys.readouterr()
        rc = cli.main(["score", "--checkpoint", str(bad), "--data", str(corpus),
                       "--split", "val", "--out", str(tmp_path / "scored")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        n = len(arrays)
        assert message.format(n=n, n_less=n - 1, n_more=n + 1) in err and err.count("\n") == 1

    def test_manifest_digests_follow_the_documented_rule(self, pipeline):
        corpus, run, scores = pipeline
        trained = json.loads((run / "manifest.json").read_text())["input_hashes"]
        assert trained == {str(corpus): _documented_digest(corpus, _split_files(corpus, "train"))}
        scored = json.loads((scores / "manifest.json").read_text())["input_hashes"]
        checkpoint = run / "checkpoint.sdqk"
        assert scored == {str(checkpoint): hashlib.sha256(checkpoint.read_bytes()).hexdigest(),
                          str(corpus): _documented_digest(corpus, _split_files(corpus, "val"))}

    @pytest.mark.parametrize("command, split, other", [("train", "train", "val"), ("score", "val", "train")])
    def test_data_digest_covers_exactly_the_files_read(self, pipeline, tmp_path, command, split, other):
        corpus, run, _ = pipeline
        copied = shutil.copytree(corpus, tmp_path / "corpus")
        runs = iter(range(10))

        def digest():
            return _run(command, copied, run, tmp_path / f"out{next(runs)}")

        def flip_first_byte(rel):  # the low mantissa byte of the first float: still finite
            path = copied / rel
            data = path.read_bytes()
            path.write_bytes(bytes([data[0] ^ 1]) + data[1:])
            return data

        base = digest()
        flip_first_byte(_split_files(copied, other)[1])  # a stream of the split the command does not read
        (copied / "notes.txt").write_text("not an input\n")
        (copied / "streams" / "stray.f32").write_bytes(bytes(64))
        assert digest() == base
        stream = _split_files(copied, split)[1]
        saved = flip_first_byte(stream)
        assert digest() != base
        (copied / stream).write_bytes(saved)
        annotations_csv = copied / "annotations.csv"
        annotations_csv.write_bytes(annotations_csv.read_bytes().replace(b"event started", b"event startee", 1))
        assert digest() != base

    @pytest.mark.parametrize("command, split", [("train", "train"), ("score", "val")])
    def test_data_files_opened_once_each(self, pipeline, tmp_path, monkeypatch, command, split):
        corpus, run, _ = pipeline
        opened, real_open = [], io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opened.append(Path(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        _run(command, corpus, run, tmp_path / "out")
        monkeypatch.undo()
        read = sorted(p.relative_to(corpus).as_posix() for p in opened if p.is_relative_to(corpus))
        assert read == sorted(_split_files(corpus, split))

    @pytest.mark.parametrize("edit, line, message", [
        (lambda rows: [rows[0].rsplit(",", 1)[0], *rows[1:]], 2, "2 fields, the header names 3"),
        (lambda rows: [rows[0].rsplit(",", 1)[0] + ",high", *rows[1:]], 2, "could not convert string to float"),
        (lambda rows: [rows[0], "1,0.0," + rows[1].rsplit(",", 1)[1], *rows[2:]], 3, "must exceed the first row's"),
        (lambda rows: [rows[0], "1,-1.0," + rows[1].rsplit(",", 1)[1], *rows[2:]], 3, "must exceed the first row's"),
        (lambda rows: [rows[0], "1,1e-320," + rows[1].rsplit(",", 1)[1], *rows[2:]], 3, "the fps, is finite"),
    ], ids=["two_fields", "non_numeric_score", "repeated_t_sec", "decreasing_t_sec", "infinite_fps"])
    def test_eval_malformed_score_row_exit_schema(self, pipeline, tmp_path, capsys, edit, line, message):
        corpus, _, scores = pipeline
        copied = shutil.copytree(scores / "scores", tmp_path / "scores")
        bad = sorted(copied.glob("*.csv"))[3]
        header, *rows = bad.read_text().splitlines()
        bad.write_text("\n".join([header, *edit(rows)]) + "\n")
        capsys.readouterr()
        rc = cli.main(["eval", "--scores", str(copied), "--annotations", str(corpus / "annotations.csv"),
                       "--split", "val", "--threshold", "0.5"])
        assert rc == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert f"score file {bad}: line {line}: " in err and message in err and err.count("\n") == 1

    def test_eval_nan_score_exit_numeric(self, pipeline, tmp_path, capsys):
        corpus, _, scores = pipeline
        copied = tmp_path / "scores"
        copied.mkdir()
        for i, path in enumerate(sorted((scores / "scores").glob("*.csv"))):
            text = path.read_text()
            if i == 0:
                header, first, *rest = text.splitlines()
                text = "\n".join([header, first.rsplit(",", 1)[0] + ",nan", *rest]) + "\n"
            (copied / path.name).write_text(text)
        capsys.readouterr()
        rc = cli.main(["eval", "--scores", str(copied), "--annotations", str(corpus / "annotations.csv"),
                       "--split", "val"])
        assert rc == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "finite" in err and err.count("\n") == 1

    def test_eval_header_only_scores_exit_config(self, pipeline, tmp_path, capsys):
        corpus, _, scores = pipeline
        copied = tmp_path / "scores"
        copied.mkdir()
        paths = sorted((scores / "scores").glob("*.csv"))
        for path in paths:
            (copied / path.name).write_text(path.read_text())
        (copied / paths[0].name).write_text("frame_idx,t_sec,score\n")
        video_uid, query_id = paths[0].stem.split("__", 1)
        capsys.readouterr()
        rc = cli.main(["eval", "--scores", str(copied), "--annotations", str(corpus / "annotations.csv"),
                       "--split", "val"])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"({video_uid}, {query_id}) has no frames" in err and err.count("\n") == 1

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "20"]])
    def test_eval_missing_scores_dir_exit_config(self, pipeline, tmp_path, capsys, sweep):
        corpus, _, _ = pipeline
        capsys.readouterr()
        rc = cli.main(["eval", "--scores", str(tmp_path / "nowhere"),
                       "--annotations", str(corpus / "annotations.csv"), "--split", "val", *sweep])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"score directory {tmp_path / 'nowhere'} does not exist" in err and err.count("\n") == 1

    def test_score_writes_batch_scores(self, pipeline):
        corpus, run, scores = pipeline
        model = detector.load_model(run / "checkpoint.sdqk")
        anns = [a for a in ann.parse_annotations((corpus / "annotations.csv").read_bytes())
                if a.split == "val"]
        assert len(anns) == 8
        for a in anns:
            frames, sidecar, query = ann.load_stream(corpus / "streams" / f"{a.video_uid}.f32")
            kwargs = dict(video_uid=a.video_uid, query_id=metrics.default_query_id(a),
                          fps=float(sidecar["fps"]))
            batch = detector.score_frames(model, frames, query, **kwargs)
            written = scores / "scores" / f"{a.video_uid}__{kwargs['query_id']}.csv"
            assert written.read_text(encoding="utf-8") == metrics.score_series_to_csv(batch)
            streamed = detector.infer_streaming(model, frames, query, **kwargs)
            assert np.abs(streamed.scores - batch.scores).max() <= 1e-10

    @pytest.mark.parametrize("suffix, edit, message", [
        (".f32", lambda v: np.where(np.arange(v.size) == 3, np.nan, v), "non-finite"),
        (".query.f32", lambda v: np.where(np.arange(v.size) == 3, np.inf, v), "non-finite"),
        (".query.f32", lambda v: v[:-1], "sidecar promises"),
    ], ids=["nan_frame", "inf_query", "short_query"])
    def test_score_bad_stream_file_leaves_no_output(self, pipeline, tmp_path, capsys, suffix, edit, message):
        corpus, run, _ = pipeline
        copied = shutil.copytree(corpus, tmp_path / "corpus")
        last = [a for a in ann.parse_annotations((copied / "annotations.csv").read_bytes())
                if a.split == "val"][-1]
        bad = copied / "streams" / f"{last.video_uid}{suffix}"
        bad.write_bytes(edit(np.frombuffer(bad.read_bytes(), dtype="<f4")).astype("<f4").tobytes())
        out = tmp_path / "scored"
        capsys.readouterr()
        rc = cli.main(["score", "--checkpoint", str(run / "checkpoint.sdqk"), "--data", str(copied),
                       "--split", "val", "--out", str(out)])
        assert rc == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert str(bad) in err and message in err and err.count("\n") == 1
        assert not (out / "scores").exists() and not (out / "manifest.json").exists()

    @pytest.mark.parametrize("sidecar, message", [
        (lambda text: text[:-1], "JSONDecodeError"),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "n_frames"}),
         "KeyError: 'n_frames'"),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "dim"}),
         "KeyError: 'dim'"),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "fps"}),
         "finite positive number fps, got None"),
        (lambda text: json.dumps({**json.loads(text), "fps": 0}), "finite positive number fps, got 0"),
        (lambda text: json.dumps({**json.loads(text), "fps": "1.0"}), "finite positive number fps, got '1.0'"),
        # negative counts whose product still matches the payload
        (_edit_sidecar(lambda s: s.update(n_frames=-s["n_frames"], dim=-s["dim"])), "integers n_frames and dim"),
        (_edit_sidecar(lambda s: s.update(n_frames=s["n_frames"] + 0.5)), "integers n_frames and dim"),
        (_edit_sidecar(lambda s: s.update(n_frames=str(s["n_frames"]))), "integers n_frames and dim"),
        (_edit_sidecar(lambda s: s.update(dim=True)), "integers n_frames and dim"),
        (_edit_sidecar(lambda s: s.update(dim=0)), "integers n_frames and dim"),
    ], ids=["not_json", "no_n_frames", "no_dim", "no_fps", "zero_fps", "string_fps",
            "negative_counts", "fractional_n_frames", "string_n_frames", "bool_dim", "zero_dim"])
    def test_score_bad_sidecar_exit_schema(self, pipeline, tmp_path, capsys, sidecar, message):
        corpus, run, _ = pipeline
        copied = shutil.copytree(corpus, tmp_path / "corpus")
        last = [a for a in ann.parse_annotations((copied / "annotations.csv").read_bytes())
                if a.split == "val"][-1]
        bad = copied / "streams" / f"{last.video_uid}.f32.json"
        bad.write_text(sidecar(bad.read_text()))
        capsys.readouterr()
        rc = cli.main(["score", "--checkpoint", str(run / "checkpoint.sdqk"), "--data", str(copied),
                       "--split", "val", "--out", str(tmp_path / "scored")])
        assert rc == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert f"sidecar {bad}" in err and message in err and err.count("\n") == 1
        assert not (tmp_path / "scored").exists()

    def test_score_video_uid_outside_the_corpus_exit_schema(self, pipeline, tmp_path, capsys):
        # such an id would read streams/../../escaped.f32 and write escaped__<query>.csv beside --out
        corpus, run, _ = pipeline
        copied = shutil.copytree(corpus, tmp_path / "corpus")
        text = (copied / "annotations.csv").read_text()
        last = [a for a in ann.parse_annotations(text) if a.split == "val"][-1]
        (copied / "annotations.csv").write_text(text.replace(f",{last.video_uid},", ",../../escaped,"))
        out = tmp_path / "deep" / "scored"
        capsys.readouterr()
        rc = cli.main(["score", "--checkpoint", str(run / "checkpoint.sdqk"), "--data", str(copied),
                       "--split", "val", "--out", str(out)])
        assert rc == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "row " in err and "video_uid '../../escaped' cannot name a file" in err and err.count("\n") == 1
        assert not (tmp_path / "deep").exists()

    def test_score_empty_stream_exit_schema(self, pipeline, tmp_path, capsys):
        # a zero-frame stream would score to a header-only CSV that eval rejects
        corpus, run, _ = pipeline
        copied = shutil.copytree(corpus, tmp_path / "corpus")
        last = [a for a in ann.parse_annotations((copied / "annotations.csv").read_bytes())
                if a.split == "val"][-1]
        stream = copied / "streams" / f"{last.video_uid}.f32"
        bad = stream.with_name(stream.name + ".json")
        bad.write_text(_edit_sidecar(lambda s: s.update(n_frames=0))(bad.read_text()))
        stream.write_bytes(b"")
        capsys.readouterr()
        rc = cli.main(["score", "--checkpoint", str(run / "checkpoint.sdqk"), "--data", str(copied),
                       "--split", "val", "--out", str(tmp_path / "scored")])
        assert rc == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert f"sidecar {bad} needs integers n_frames and dim of at least 1, got 0" in err
        assert err.count("\n") == 1 and not (tmp_path / "scored").exists()

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_video_with_two_query_texts_exit_schema(self, pipeline, tmp_path, capsys, split):
        # a stream has one query embedding file, so its annotations must share one query text
        corpus, run, _ = pipeline
        copied = shutil.copytree(corpus, tmp_path / "corpus")
        anns = ann.parse_annotations((copied / "annotations.csv").read_bytes())
        first = [a for a in anns if a.split == split][0]
        second = replace(first, ann_idx=first.ann_idx + 1, query=first.query + " again")
        (copied / "annotations.csv").write_bytes(ann.serialize_annotations(anns + [second]))
        out = tmp_path / "out"
        argv = (["train", "--steps", "1"] if split == "train" else
                ["score", "--checkpoint", str(run / "checkpoint.sdqk"), "--split", "val"])
        capsys.readouterr()
        assert cli.main(argv + ["--data", str(copied), "--out", str(out)]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert f"video {first.video_uid} has 2 distinct {split}-split queries" in err and err.count("\n") == 1
        assert not out.exists()

    def test_score_stream_width_checked_against_checkpoint(self, pipeline, tmp_path, capsys):
        _, run, _ = pipeline
        narrow = tmp_path / "narrow"
        assert cli.main(["synth", "--out", str(narrow), "--streams", "2", "--val-streams", "2",
                         "--seed", "1", "--dim", "4"]) == 0
        first = [a for a in ann.parse_annotations((narrow / "annotations.csv").read_bytes())
                 if a.split == "val"][0]
        out = tmp_path / "scored"
        capsys.readouterr()
        rc = cli.main(["score", "--checkpoint", str(run / "checkpoint.sdqk"), "--data", str(narrow),
                       "--split", "val", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"stream {first.video_uid} has dim 4, the checkpoint takes d_in=8" in err
        assert err.count("\n") == 1
        assert not (out / "scores").exists() and not (out / "manifest.json").exists()

    @pytest.mark.parametrize("ks", ["1,x", "1,,2", "1.5"])
    def test_eval_bad_k_exit_config(self, pipeline, capsys, ks):
        corpus, _, scores = pipeline
        capsys.readouterr()
        rc = cli.main(["eval", "--scores", str(scores / "scores"),
                       "--annotations", str(corpus / "annotations.csv"), "--split", "val", "--k", ks])
        assert rc == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"in {ks!r}" in captured.err and captured.err.count("\n") == 1

    def test_unknown_flag_exit_config(self):
        assert cli.main(["eval", "--nope"]) == cli.EXIT_CONFIG

    def test_removed_optimizer_flag_exit_config(self, pipeline, tmp_path, capsys):
        corpus, _, _ = pipeline
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(corpus), "--out", str(tmp_path / "run"), "--steps", "1",
                       "--optimizer", "sgd"])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--optimizer" in err and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_removed_fps_flag_exit_config(self, pipeline, tmp_path, capsys):
        # a stream's fps comes from its sidecar
        corpus, _, _ = pipeline
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(corpus), "--out", str(tmp_path / "run"), "--steps", "1",
                       "--fps", "1"])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--fps" in err and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag, value, name", [
        ("--lr", "nan", "learning_rate"),
        ("--lr", "inf", "learning_rate"),
        ("--tau-sim", "nan", "tau_sim"),
        ("--tau-sim", "inf", "tau_sim"),
        ("--pos-cap", "nan", "pos_weight_cap"),
        ("--pos-cap", "0", "pos_weight_cap"),
        ("--weight-decay", "nan", "weight_decay"),
        ("--weight-decay", "inf", "weight_decay"),
        ("--weight-decay", "-1", "weight_decay"),
    ])
    def test_bad_numeric_flag_exit_config(self, pipeline, tmp_path, capsys, flag, value, name):
        corpus, _, _ = pipeline
        out = tmp_path / "run"
        capsys.readouterr()
        assert cli.main(["train", "--data", str(corpus), "--out", str(out), "--steps", "2", flag, value]) \
            == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"error: {name} must be finite" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--steps", "-1", "steps must be >= 0, got -1"),
        ("--batch", "-1", "batch_size must be >= 1, got -1"),
        ("--batch", "0", "batch_size must be >= 1, got 0"),
    ])
    def test_bad_count_flag_exit_config(self, pipeline, tmp_path, capsys, flag, value, message):
        corpus, _, _ = pipeline
        out = tmp_path / "run"
        capsys.readouterr()
        assert cli.main(["train", "--data", str(corpus), "--out", str(out), flag, value]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not out.exists()

    def test_annotation_longer_than_its_stream_exit_schema(self, pipeline, tmp_path, capsys):
        corpus, _, _ = pipeline
        copied = shutil.copytree(corpus, tmp_path / "corpus")
        anns = ann.parse_annotations((copied / "annotations.csv").read_bytes())
        anns = [replace(a, video_length=90.0) if a.split == "train" else a for a in anns]
        (copied / "annotations.csv").write_bytes(ann.serialize_annotations(anns))
        out = tmp_path / "run"
        capsys.readouterr()
        assert cli.main(["train", "--data", str(copied), "--out", str(out), "--steps", "1"]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        first = [a for a in anns if a.split == "train"][0]
        assert f"video {first.video_uid}" in err and "needs 90 frames, its stream holds 60" in err
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("edit", [{"lookahead": 1}, {"lookback": 0, "lookahead": 1}, {"lookback": 2}],
                             ids=["lookahead", "lookahead_split", "lookback"])
    def test_non_causal_checkpoint_exit_config(self, pipeline, tmp_path, capsys, edit):
        # every conv is causal: version 2 has no lookback or lookahead key; the first in key order is unknown
        corpus, run, _ = pipeline
        config, arrays = detector.read_checkpoint(run / "checkpoint.sdqk")
        adapter = config["adapter"]
        assert not {"lookback", "lookahead"} & set(adapter)
        adapter.update(edit)
        bad = tmp_path / "bad.sdqk"
        detector.write_checkpoint(bad, config, arrays)
        capsys.readouterr()
        rc = cli.main(["score", "--checkpoint", str(bad), "--data", str(corpus),
                       "--split", "val", "--out", str(tmp_path / "scored")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"unexpected keyword argument {min(edit)!r}" in err and err.count("\n") == 1
        assert not (tmp_path / "scored").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda config: config["adapter"].update(heads=2), "unexpected keyword argument 'heads'"),
        (lambda config: config.pop("tau_sim"), "has no 'tau_sim' key"),
        (lambda config: config.update(d_in=4), "input width 4 must equal model width 8"),
    ], ids=["unknown_adapter_key", "missing_model_key", "d_in_not_d"])
    def test_checkpoint_config_keys_exit_config(self, pipeline, tmp_path, capsys, edit, message):
        corpus, run, _ = pipeline
        config, arrays = detector.read_checkpoint(run / "checkpoint.sdqk")
        edit(config)
        bad = tmp_path / "bad.sdqk"
        detector.write_checkpoint(bad, config, arrays)
        capsys.readouterr()
        rc = cli.main(["score", "--checkpoint", str(bad), "--data", str(corpus),
                       "--split", "val", "--out", str(tmp_path / "scored")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "scored").exists()

    def test_train_reproducible_bitwise(self, pipeline, tmp_path, capsys):
        corpus, _, _ = pipeline
        flags = ["--data", str(corpus), "--kind", "st_conv", "--steps", "4", "--lr", "1e-3",
                 "--batch", "4", "--blocks", "1", "--d-prime", "4", "--seed", "11"]
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(["train", "--out", str(r1)] + flags) == 0
        assert cli.main(["train", "--out", str(r2)] + flags) == 0
        capsys.readouterr()
        assert (r1 / "checkpoint.sdqk").read_bytes() == (r2 / "checkpoint.sdqk").read_bytes()
        assert (r1 / "curve.csv").read_bytes() == (r2 / "curve.csv").read_bytes()


# val streams of two lengths (one longer than kernels.CHUNK) and fps; short-1 has
# two annotations on its one query; train-0 is of the short length but another split
HAND_STREAMS = {"short-0": (40, 1.0, "val"), "short-1": (40, 1.0, "val"), "short-2": (40, 1.0, "val"),
                "long-0": (150, 2.0, "val"), "long-1": (150, 2.0, "val"), "train-0": (40, 1.0, "train")}


def _hand_corpus(root):
    rng = np.random.default_rng(12)
    anns = []
    for uid, (n, fps, split) in HAND_STREAMS.items():
        ann.save_stream(root / "streams" / f"{uid}.f32", rng.normal(size=(n, 8)),
                        {"video_uid": uid, "fps": fps, "dim": 8, "n_frames": n, "seed": 0}, rng.normal(size=8))
        for idx in range(2 if uid == "short-1" else 1):
            anns.append(ann.EventAnnotation(split, "synthetic", uid, uid, "a", idx, f"event in {uid}", "ok",
                                            5.0 + idx, 9.0 + idx, fps, n / fps))
    (root / "annotations.csv").write_bytes(ann.serialize_annotations(anns))
    return [a for a in anns if a.split == "val"]


@pytest.mark.parametrize("kind", kernels.KINDS)
@pytest.mark.parametrize("stack", [cli.SCORE_STACK, 2])
def test_score_stacks_streams_of_one_length(tmp_path, capsys, monkeypatch, kind, stack):
    assert kernels.CHUNK < 150
    corpus, out = tmp_path / "corpus", tmp_path / "scored"
    anns = _hand_corpus(corpus)
    cfg = kernels.AdapterConfig(d=8, d_prime=4, kind=kind, k=2)
    model = oracles.randomize_adapters(detector.build_model(detector.ModelConfig(d_in=8, d=8, n_blocks=2,
                                                                                 adapter=cfg, seed=1)), seed=2)
    detector.save_model(tmp_path / "model.sdqk", model)
    calls = []
    score_streams = detector.score_streams

    def spy(m, embeddings, queries):
        calls.append(embeddings.shape[:2])
        return score_streams(m, embeddings, queries)

    monkeypatch.setattr(detector, "score_streams", spy)
    monkeypatch.setattr(cli, "SCORE_STACK", stack)
    assert cli.main(["score", "--checkpoint", str(tmp_path / "model.sdqk"), "--data", str(corpus),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    # every val video scored once, in one call per length and SCORE_STACK streams
    assert sorted(calls) == ([(1, 40), (2, 40), (2, 150)] if stack == 2 else [(2, 150), (3, 40)])
    monkeypatch.undo()
    loaded = detector.load_model(tmp_path / "model.sdqk")
    assert sorted(p.name for p in (out / "scores").iterdir()) == sorted(
        f"{a.video_uid}__{metrics.default_query_id(a)}.csv" for a in anns)
    for a in anns:
        frames, sidecar, query = ann.load_stream(corpus / "streams" / f"{a.video_uid}.f32")
        alone = detector.score_frames(loaded, frames, query, a.video_uid, metrics.default_query_id(a),
                                      sidecar["fps"])
        written = out / "scores" / f"{a.video_uid}__{metrics.default_query_id(a)}.csv"
        assert written.read_bytes() == metrics.score_series_to_csv(alone).encode("utf-8")


def test_train_windows_sit_on_the_sidecar_fps_grid(tmp_path, capsys, monkeypatch):
    # a 2-fps corpus: window frame j of a window at grid position m is stream row m + j, at time (m + j) / 2
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--out", str(corpus), "--streams", "6", "--val-streams", "1", "--seed", "5",
                     "--dim", "8", "--fps", "2", "--frames", "120"]) == 0
    captured = []

    def fake_train(model, embeddings, labels, queries, config):
        captured.append((embeddings, labels, queries))
        return model, []

    monkeypatch.setattr(detector, "train", fake_train)
    assert cli.main(["train", "--data", str(corpus), "--out", str(tmp_path / "run"), "--kind", "vanilla",
                     "--blocks", "1", "--windows-per-annotation", "3"]) == 0
    capsys.readouterr()
    anns = [a for a in ann.parse_annotations((corpus / "annotations.csv").read_bytes()) if a.split == "train"]
    [(embeddings, labels, queries)] = captured
    assert embeddings.shape == (18, 60, 8) and labels.shape == (18, 60) and queries.shape == (18, 8)
    for i, (window, window_labels, query) in enumerate(zip(embeddings, labels, queries)):
        a = anns[i // 3]  # the windows of each annotation in turn
        frames, sidecar, stream_query = ann.load_stream(corpus / "streams" / f"{a.video_uid}.f32")
        assert sidecar["fps"] == 2.0 and np.array_equal(query, stream_query)
        m = int(np.flatnonzero((frames == window[0]).all(axis=1))[0])
        assert np.array_equal(window, frames[m : m + len(window)])
        times = (m + np.arange(len(window_labels))) / 2.0
        assert np.array_equal(window_labels, (times >= a.start_sec) & (times <= a.end_sec))


@pytest.mark.parametrize("count", ["0", "-1"])
def test_train_windows_per_annotation_below_one_exit_config(tmp_path, capsys, count):
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--out", str(corpus), "--streams", "2", "--val-streams", "1", "--dim", "8"]) == 0
    capsys.readouterr()
    out = tmp_path / "run"
    assert cli.main(["train", "--data", str(corpus), "--out", str(out), "--windows-per-annotation", count]) \
        == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.skipif(sys.platform != "linux", reason="counts the minor page faults Linux reports")
def test_train_keeps_its_heap_between_steps(tmp_path):
    # at the acceptance shapes, a step that gave its freed heap back to the kernel faulted ~2000 pages in again
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--out", str(corpus), "--streams", "40", "--val-streams", "1", "--dim", "16",
                     "--seed", "7"]) == 0
    script = f"""
import contextlib, io, resource
from streamstart import cli
def train(steps):
    argv = ["train", "--data", {str(corpus)!r}, "--out", {str(tmp_path / "run")!r}, "--kind", "qrnn",
            "--blocks", "2", "--d-prime", "16", "--batch", "32", "--lr", "1e-2", "--steps", str(steps)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
train(1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(10)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) / 10 < 100


class TestBenchCommand:
    def test_symbolic_only(self, capsys):
        rc = cli.main(["bench", "--kind", "vanilla", "--d", "768", "--d-prime", "384",
                       "--tokens", "197", "--blocks", "12"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cost"]["flops_per_frame"] == 2 * payload["cost"]["macs_per_frame"]
        assert payload["sliding_window_overhead_pct"] == 300.0
        assert 11.0 <= payload["cost"]["overhead_macs_pct"] <= 16.0

    def test_latency_harness_small(self, tmp_path, capsys):
        rc = cli.main(["bench", "--kind", "qrnn", "--frames", "40", "--reps", "1",
                       "--latency-d", "16", "--latency-blocks", "1", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["latency"]["streaming"]["total"] > 0
        assert (tmp_path / "bench.json").exists()
        assert (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_latency_harness_without_repetitions_exit_config(self, tmp_path, capsys, reps):
        out = tmp_path / "bench"
        rc = cli.main(["bench", "--kind", "qrnn", "--frames", "20", "--reps", reps,
                       "--latency-d", "16", "--latency-blocks", "1", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"repetitions >= 1, got {reps}" in err and err.count("\n") == 1
        assert not out.exists()
