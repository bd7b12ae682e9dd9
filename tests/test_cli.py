import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from streamstart import annotations as ann
from streamstart import cli, costmodel, detector, kernels, metrics

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

    def test_non_integer_ann_idx_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "\n" + GOOD_ROW.replace(",a1,0,", ",a1,1.5,") + "\n")
        assert cli.main(["ingest", "--annotations", str(path)]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "row 1: non-integer ann_idx '1.5'" in err and err.count("\n") == 1

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

    @pytest.mark.parametrize("args, message", [
        (["--annotations", "."], "Is a directory"),
        (["--annotations", "ann.csv", "--out", "taken"], "taken exists and is not a run directory"),
    ], ids=["annotations_is_a_directory", "out_is_a_file"])
    def test_path_of_the_wrong_kind_exit_config(self, ann_file, tmp_path, capsys, args, message):
        # a path the OS cannot use, or an --out the run would not replace, ends in one line, not a traceback
        (tmp_path / "taken").write_text("kept")
        argv = ["ingest"] + [arg if arg.startswith("--") else str(tmp_path / arg) for arg in args]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err and err.count("\n") == 1
        assert (tmp_path / "taken").read_text() == "kept"

    def test_unknown_source_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        bogus = GOOD_ROW.replace("moments", "bogus").replace(",0,", ",1,")
        path.write_text(HEADER + "\n" + GOOD_ROW + "\n" + bogus + "\n")
        assert cli.main(["ingest", "--annotations", str(path)]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "row 2: source must be one of" in err and "'bogus'" in err and err.count("\n") == 1

    @pytest.mark.parametrize("damage, message", [
        (lambda text: text.replace("boil", "b\xf6il", 1).encode("latin-1"),
         f"schema error: annotation CSV is not UTF-8: byte {len(HEADER) + 1 + GOOD_ROW.index('boil') + 1} "),
        (lambda text: text.replace(",1,boil kettle", ",1,boil\rkettle").encode(),
         "schema error: row 2: is not CSV: new-line character seen in unquoted field"),
        (lambda text: text.replace("split", "sp\rlit").encode(),
         "schema error: annotation CSV header is not CSV: new-line character seen in unquoted field"),
        (lambda text: text.replace(",1,boil kettle", ",1,boil, kettle").encode(),
         "schema error: row 2: has more fields than the header's 12"),
    ], ids=["not_utf8", "bare_cr_in_row", "bare_cr_in_header", "stray_comma_in_row"])
    def test_csv_that_does_not_decode_or_parse_exit_2(self, tmp_path, capsys, damage, message):
        path = tmp_path / "ann.csv"
        path.write_bytes(damage(HEADER + "\n" + GOOD_ROW + "\n" + GOOD_ROW.replace(",0,", ",1,") + "\n"))
        assert cli.main(["ingest", "--annotations", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("uid", ["", ".", "..", "a/b", "a\\b", "a\0b"],
                             ids=["empty", "dot", "dotdot", "slash", "backslash", "nul"])
    def test_video_uid_that_cannot_name_a_file_exit_2(self, tmp_path, capsys, uid):
        path = tmp_path / "ann.csv"
        path.write_text(HEADER + "\n" + GOOD_ROW + "\n" + GOOD_ROW.replace(",v1,", f",{uid},") + "\n")
        assert cli.main(["ingest", "--annotations", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert f"row 2: video_uid {uid!r} cannot name a file" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


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
        frames, fps, query = ann.load_stream(out / "streams" / f"{anns[0].video_uid}.f32")
        assert fps == anns[0].video_fps and frames.shape == (anns[0].video_length * fps, 8)
        assert query.shape == (8,)


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
        (["--streams", "0", "--val-streams", "0", "--dim", "0"], "dim"),
        (["--streams", "0", "--val-streams", "0", "--noise", "-1"], "noise_scale"),
        (["--streams", "0", "--val-streams", "0", "--noise", "nan"], "noise_scale"),
        (["--distractors", "-1"], "--distractors"),
        (["--seed", "-1"], "seed"),
    ], ids=["noise_nan", "noise_inf", "dim_0", "dim_neg", "streams_neg", "val_streams_neg", "streams_neg_sum_pos",
            "dim_0_empty_corpus", "noise_neg_empty_corpus", "noise_nan_empty_corpus", "distractors_neg", "seed_neg"])
    def test_bad_value_exit_config(self, tmp_path, capsys, flags, name):
        out = tmp_path / "c"
        assert cli.main(["synth", "--out", str(out), "--streams", "2", "--val-streams", "1"] + flags) \
            == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"error: {name} must be" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["1e39", "1e200"])
    def test_noise_beyond_float32_exit_numeric(self, tmp_path, capsys, noise):
        # 1e39 overflows the streams' float32 and 1e200's square a float64: no stream is written,
        # and no warning prints a second line
        out = tmp_path / "c"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["synth", "--out", str(out), "--streams", "2", "--val-streams", "1", "--noise", noise])
        assert rc == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "its frames or query are not finite as the float32 a stream file stores" in err
        assert err.count("\n") == 1 and not out.exists()

    def test_empty_corpus(self, tmp_path, capsys, pipeline):
        # both counts 0: a header-only annotations.csv and the manifest, which train and score reject
        out = tmp_path / "empty"
        assert cli.main(["synth", "--out", str(out), "--streams", "0", "--val-streams", "0"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["annotations.csv", "manifest.json"]
        assert (out / "annotations.csv").read_bytes() == ann.serialize_annotations([])
        assert ann.parse_annotations((out / "annotations.csv").read_bytes()) == []
        capsys.readouterr()
        checkpoint = pipeline[1] / "checkpoint.sdqk"
        for split, argv in (("train", ["train", "--data", str(out)]),
                            ("val", ["score", "--checkpoint", str(checkpoint), "--data", str(out), "--split", "val"])):
            assert cli.main(argv + ["--out", str(tmp_path / split)]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"no {split}-split annotations in {out}" in err and err.count("\n") == 1
            assert not (tmp_path / split).exists()


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
    return ["annotations.csv"] + [f"streams/{uid}.f32" for uid in uids]


def _documented_digest(root, rels):
    """docs/formats.md's input digest of a directory: sha256sum's lines for the files read, in path order."""
    lines = "".join(f"{hashlib.sha256((root / rel).read_bytes()).hexdigest()}  {rel}\n" for rel in sorted(rels))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def _head_end(raw):
    """Where a framed file's JSON header ends: its payload (a stream's query and frames) follows."""
    return 12 + int.from_bytes(raw[8:12], "little")


def _edit_header(path, edit):
    """Rewrite the framed file at ``path`` with ``edit`` applied to its JSON header's text."""
    raw = path.read_bytes()
    end = _head_end(raw)
    header = edit(raw[12:end].decode("utf-8")).encode("utf-8")
    path.write_bytes(raw[:8] + len(header).to_bytes(4, "little") + header + raw[end:])


def _edit_fields(edit):
    """A header text damage that applies ``edit`` to the parsed header dict."""
    def damage(text):
        header = json.loads(text)
        edit(header)
        return json.dumps(header)
    return damage


def _edit_store(directory, edit):
    """Apply ``edit`` to the parsed JSON header of the score store in ``directory``."""
    _edit_header(directory / "scores.sdqc", _edit_fields(edit))


def _edit_store_bytes(directory, edit):
    """Replace the bytes of the score store in ``directory`` with ``edit`` of them."""
    path = directory / "scores.sdqc"
    path.write_bytes(edit(path.read_bytes()))


def _version_3_store(directory):
    """Rewrite the score store in ``directory`` in version 3's layout: a header of one entry per series."""
    path = directory / "scores.sdqc"
    raw = path.read_bytes()
    end = _head_end(raw)
    columns = json.loads(raw[12:end])
    entries = [dict(zip(columns, row)) for row in zip(*columns.values())]
    metrics.framing.write(path, b"SDQC", 3, {"series": entries}, [np.frombuffer(raw, "<f8", offset=end)], align=8)


def _two_file_store(directory):
    """Replace the score store in ``directory`` with the ``index.json`` and ``scores.f64`` that
    versions 1 and 2 wrote in its place."""
    path = directory / "scores.sdqc"
    raw = path.read_bytes()
    end = _head_end(raw)
    (directory / "index.json").write_text(json.dumps({"version": 2, **json.loads(raw[12:end])}))
    (directory / "scores.f64").write_bytes(raw[end:])
    path.unlink()


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
        curve = (run / "curve.csv").read_text().splitlines()
        assert curve[0] == "step,total,pos_term,neg_term,w_pos" and len(curve) == 1 + 5
        assert json.loads((run / "manifest.json").read_text())["config"]["seed"] == 0
        assert not (run / "train_manifest.json").exists()  # the manifest is the run's one record
        assert sorted(p.name for p in (scores / "scores").iterdir()) == ["scores.sdqc"]
        assert len(metrics.load_score_series_dir(scores / "scores")) == 8
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

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "20"]])
    def test_eval_builds_no_series_from_the_store(self, pipeline, capsys, monkeypatch, sweep):
        # the loaded store is one table: neither pairing nor either pass makes a per-series object
        corpus, _, scores = pipeline
        argv = ["eval", "--scores", str(scores / "scores"), "--annotations", str(corpus / "annotations.csv"),
                "--split", "val", *sweep]
        assert cli.main(argv) == 0
        want = capsys.readouterr().out

        def refuse(self):
            raise AssertionError(f"a ScoreSeries of ({self.video_uid}, {self.query_id}) was built")

        monkeypatch.setattr(metrics.ScoreSeries, "__post_init__", refuse)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == want

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
        frames, _, query = ann.load_stream(corpus / "streams" / f"{anns[0].video_uid}.f32")
        streamed = detector.infer_streaming(model, frames, query).scores
        batch = detector.score_frames(model, frames, query).scores
        assert np.abs(streamed - batch).max() <= 1e-10
        # adapters in the checkpoint are still exact identities
        for adapter, _ in model.blocks:
            assert not adapter.w_up.any()

    @pytest.mark.parametrize("damage, message", [
        (lambda raw: raw[:-3], "bytes ends inside a float32"),
        (lambda raw: raw + b"\x00" * 8, "holds {n_more} values, its config's arrays need {n}"),
        (lambda raw: raw[:12] + bytes([raw[12] ^ 0xFF]) + raw[13:], "header is not UTF-8 JSON"),
        (lambda raw: raw[:4] + (1).to_bytes(4, "little") + raw[8:],
         "is checkpoint version 1; this build reads version 5"),
        (lambda raw: raw[:4] + (2).to_bytes(4, "little") + raw[8:],
         "is checkpoint version 2; this build reads version 5"),
        (lambda raw: raw[:4] + (3).to_bytes(4, "little") + raw[8:],
         "is checkpoint version 3; this build reads version 5"),
        (lambda raw: raw[:4] + (4).to_bytes(4, "little") + raw[8:],
         "is checkpoint version 4; this build reads version 5"),
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
        n = detector.read_checkpoint(run / "checkpoint.sdqk")[1].size
        assert message.format(n=n, n_more=n + 2) in err and err.count("\n") == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda arrays, i: arrays[:-1], "holds {got} values, its config's arrays need {n}"),
        (lambda arrays, i: arrays + [arrays[-1]], "holds {got} values, its config's arrays need {n}"),
        (lambda arrays, i: arrays[:i] + [np.zeros((3, 3))] + arrays[i + 1 :],
         "holds {got} values, its config's arrays need {n}"),
        (lambda arrays, i: arrays[:i] + [np.full_like(arrays[i], np.nan)] + arrays[i + 1 :],
         "array blocks.0.w_down holds a non-finite value"),
    ], ids=["one_too_few", "one_too_many", "wrong_shape", "nan_value"])
    def test_checkpoint_arrays_checked_against_config(self, pipeline, tmp_path, capsys, edit, message):
        # the config shapes every array: a payload of another value count, a [3, 3] w_down
        # in place of its [8, 8] included, is rejected as a whole
        corpus, run, _ = pipeline
        config, _ = detector.read_checkpoint(run / "checkpoint.sdqk")
        arrays = list(detector.named_arrays(detector.load_model(run / "checkpoint.sdqk")).values())
        edited = edit(arrays, config["array_order"].index("blocks.0.w_down"))
        bad = tmp_path / "bad.sdqk"
        detector.write_checkpoint(bad, config, edited)
        capsys.readouterr()
        rc = cli.main(["score", "--checkpoint", str(bad), "--data", str(corpus),
                       "--split", "val", "--out", str(tmp_path / "scored")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        got, n = sum(a.size for a in edited), sum(a.size for a in arrays)
        assert message.format(got=got, n=n) in err and err.count("\n") == 1

    def test_manifest_digests_follow_the_documented_rule(self, pipeline):
        corpus, run, scores = pipeline
        trained = json.loads((run / "manifest.json").read_text())["input_hashes"]
        assert trained == {str(corpus): _documented_digest(corpus, _split_files(corpus, "train"))}
        scored = json.loads((scores / "manifest.json").read_text())["input_hashes"]
        checkpoint = run / "checkpoint.sdqk"
        assert scored == {str(checkpoint): hashlib.sha256(checkpoint.read_bytes()).hexdigest(),
                          str(corpus): _documented_digest(corpus, _split_files(corpus, "val"))}

    @pytest.mark.parametrize("name", ["ingest", "synth", "train_qrnn", "train_retention", "score", "eval", "bench"])
    def test_manifest_config_is_every_parsed_flag(self, pipeline, tmp_path, monkeypatch, name):
        # config is vars(args) but command, func and out, each "auto" flag read as the value the run used
        corpus, run, scores = pipeline
        out = tmp_path / "out"
        train = ["train", "--data", str(corpus), "--out", str(out), "--blocks", "1", "--ws", "0", "--d-prime", "0"]
        argv = {
            "ingest": ["ingest", "--annotations", str(corpus / "annotations.csv"), "--out", str(out)],
            "synth": ["synth", "--out", str(out), "--streams", "2", "--val-streams", "1", "--dim", "4"],
            "train_qrnn": train + ["--kind", "qrnn"],
            "train_retention": train + ["--kind", "retention"],
            "score": ["score", "--checkpoint", str(run / "checkpoint.sdqk"), "--data", str(corpus),
                      "--out", str(out)],
            "eval": ["eval", "--scores", str(scores / "scores"), "--annotations", str(corpus / "annotations.csv"),
                     "--split", "val", "--sweep", "20", "--out", str(out)],
            "bench": ["bench", "--out", str(out)],
        }[name]
        windows = []

        def fake_train(model, embeddings, labels, queries, config):
            windows.append(embeddings.shape[1])
            return model, []

        monkeypatch.setattr(detector, "train", fake_train)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        args = cli.build_parser().parse_args(argv)
        parsed = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
        assert config.keys() == parsed.keys()
        resolved = {}
        if args.command == "train":
            assert windows == [30 if args.kind == "retention" else 60]
            resolved = {"ws": windows[0],
                        "d_prime": detector.load_model(out / "checkpoint.sdqk").config.adapter.d_prime}
        elif args.command == "eval":
            resolved = {"threshold": json.loads((out / "report.json").read_text())["threshold"]}
        elif args.command == "bench":
            resolved = {"d_prime": costmodel.default_reduced_dim(args.kind, args.d, args.k)}
        assert config == parsed | resolved

    @pytest.mark.parametrize("command, split, other", [("train", "train", "val"), ("score", "val", "train")])
    def test_data_digest_covers_exactly_the_files_read(self, pipeline, tmp_path, command, split, other):
        corpus, run, _ = pipeline
        copied = shutil.copytree(corpus, tmp_path / "corpus")
        runs = iter(range(10))

        def digest():
            return _run(command, copied, run, tmp_path / f"out{next(runs)}")

        def flip_last_value(rel):  # the low mantissa byte of the last float: still finite
            path = copied / rel
            data = path.read_bytes()
            path.write_bytes(data[:-4] + bytes([data[-4] ^ 1]) + data[-3:])
            return data

        base = digest()
        flip_last_value(_split_files(copied, other)[1])  # a stream of the split the command does not read
        (copied / "notes.txt").write_text("not an input\n")
        (copied / "streams" / "stray.f32").write_bytes(bytes(64))
        assert digest() == base
        stream = _split_files(copied, split)[1]
        saved = flip_last_value(stream)
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

    @pytest.mark.parametrize("damage, message", [
        (lambda d: _edit_store(d, lambda x: [x[key].__setitem__(3, None) for key in ("fps", "frames")]),
         ": series 3 needs a float fps and integer frames"),
        (lambda d: _edit_store_bytes(d, lambda raw: raw + b"\0"),
         " holds 3841 bytes after its header, which end inside a float64"),
        (lambda d: _edit_store(d, lambda x: x["fps"].__setitem__(3, float("inf"))),
         "): fps must be finite and positive, got inf"),
        (lambda d: _edit_store(d, lambda x: x["fps"].__setitem__(3, float("nan"))),
         "): fps must be finite and positive, got nan"),
        (lambda d: _edit_store(d, lambda x: x["fps"].__setitem__(3, 0.0)),
         "): fps must be finite and positive, got 0.0"),
        (lambda d: _edit_store(d, lambda x: x["fps"].__setitem__(3, "1.0")),
         ": series 3 needs a float fps and integer frames"),
        (lambda d: _edit_store(d, lambda x: x.pop("frames")),
         ": its header needs video_uid, query_id, fps and frames lists"),
        (lambda d: _edit_store(d, lambda x: x["frames"].pop()),
         ": score table columns differ in length: {'video_uid': 8, 'query_id': 8, 'fps': 8, 'frames': 7}"),
        (lambda d: _edit_store(d, lambda x: [x[key].__setitem__(3, x[key][2]) for key in ("video_uid", "query_id")]),
         ") repeats the pair of series 2"),
        (lambda d: _edit_store(d, lambda x: x["frames"].__setitem__(-1, 0)), ") has 0 frames, not at least 1"),
    ], ids=["two_fields", "non_numeric_score", "infinite_fps", "nan_fps", "zero_fps", "string_fps", "missing_key",
            "unequal_columns", "duplicate_pair", "zero_frames"])
    def test_eval_malformed_score_row_exit_schema(self, pipeline, tmp_path, capsys, damage, message):
        # a series' row is its place in each of the header's columns and its values in the payload; a
        # trailing byte is no float64. A broken table rule is worded as the library words it, after
        # the store: ``score store <path>: score series <i> (<video_uid>, <query_id>)...``
        self._eval_damaged_store_exit_schema(pipeline, tmp_path, capsys, damage, "scores.sdqc", message)

    @pytest.mark.parametrize("damage, name, message", [
        (lambda d: _edit_header(d / "scores.sdqc", lambda text: "{not json"), "scores.sdqc",
         "its header is not UTF-8 JSON (JSONDecodeError"),
        (lambda d: _edit_header(d / "scores.sdqc", lambda text: "[]"), "scores.sdqc",
         "its header is a JSON list, not an object"),
        (lambda d: _edit_store(d, lambda x: x.update(fps={})), "scores.sdqc",
         "its header needs video_uid, query_id, fps and frames lists"),
        (lambda d: _edit_store_bytes(d, lambda raw: raw[:4] + (5).to_bytes(4, "little") + raw[8:]), "scores.sdqc",
         "is score store version 5; this build reads version 4"),
        (_version_3_store, "scores.sdqc", "is score store version 3; this build reads version 4"),
        (lambda d: _edit_store_bytes(d, lambda raw: b"SDQK" + raw[4:]), "scores.sdqc",
         "is not a score store (bad magic b'SDQK')"),
        (lambda d: _edit_store_bytes(d, lambda raw: raw[:20]), "scores.sdqc", "is truncated: 20 bytes, needs at least"),
        (lambda d: _edit_store_bytes(d, lambda raw: raw[:-8]), "scores.sdqc",
         ": score series' frames sum to 480, not to the 479 values"),
        (_two_file_store, "", "has no scores.sdqc: re-run score to write its store"),
        (lambda d: (d / "scores.sdqc").unlink(), "", "has no scores.sdqc: re-run score"),
        (lambda d: [(d / "scores.sdqc").unlink(), (d / "v__a-0.csv").write_text("frame_idx,t_sec,score\n0,0.0,0.5\n")],
         "", "has no scores.sdqc: re-run score to write its store"),
    ], ids=["not_json", "not_object", "no_series_list", "other_version", "version_3_store", "bad_magic", "cut_header",
            "short_payload", "two_file_store", "no_store", "old_csv_directory"])
    def test_eval_damaged_score_store_exit_schema(self, pipeline, tmp_path, capsys, damage, name, message):
        self._eval_damaged_store_exit_schema(pipeline, tmp_path, capsys, damage, name, message)

    @staticmethod
    def _eval_damaged_store_exit_schema(pipeline, tmp_path, capsys, damage, name, message):
        corpus, _, scores = pipeline
        copied = shutil.copytree(scores / "scores", tmp_path / "scores")
        damage(copied)
        capsys.readouterr()
        rc = cli.main(["eval", "--scores", str(copied), "--annotations", str(corpus / "annotations.csv"),
                       "--split", "val", "--threshold", "0.5"])
        assert rc == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert str(copied / name) in err and message in err and err.count("\n") == 1

    def test_eval_nan_score_exit_numeric(self, pipeline, tmp_path, capsys):
        assert self._eval_with_first_score(pipeline, tmp_path, capsys, np.nan) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "scores.sdqc: score series 0 (" in err and "): scores must be finite, got 1 non-finite value(s)" in err
        assert err.count("\n") == 1

    def test_eval_score_above_one_exit_config(self, pipeline, tmp_path, capsys):
        assert self._eval_with_first_score(pipeline, tmp_path, capsys, 1.5) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        raw = (pipeline[2] / "scores" / "scores.sdqc").read_bytes()
        columns = json.loads(raw[12:_head_end(raw)])
        pair = f"({columns['video_uid'][0]}, {columns['query_id'][0]})"
        assert f"scores.sdqc: score series 0 {pair}: scores must lie in [0, 1]" in err and err.count("\n") == 1

    @staticmethod
    def _eval_with_first_score(pipeline, tmp_path, capsys, value):
        corpus, _, scores = pipeline
        copied = shutil.copytree(scores / "scores", tmp_path / "scores")
        store = copied / "scores.sdqc"
        raw = store.read_bytes()
        end = _head_end(raw)
        store.write_bytes(raw[:end] + np.array([value], "<f8").tobytes() + raw[end + 8:])
        capsys.readouterr()
        return cli.main(["eval", "--scores", str(copied), "--annotations", str(corpus / "annotations.csv"),
                         "--split", "val"])

    @pytest.mark.parametrize("target, code", [("checkpoint", cli.EXIT_CONFIG), ("stream", cli.EXIT_SCHEMA),
                                              ("store", cli.EXIT_SCHEMA)])
    def test_header_nested_past_the_recursion_limit_exits_as_documented(self, pipeline, tmp_path, capsys,
                                                                         target, code):
        # json's decoder recurses once per level, so such a header is damage like any other
        corpus, run, scores = (shutil.copytree(d, tmp_path / d.name) for d in pipeline)
        path = {"checkpoint": run / "checkpoint.sdqk", "stream": corpus / _split_files(corpus, "val")[1],
                "store": scores / "scores" / "scores.sdqc"}[target]
        _edit_header(path, lambda text: "[" * 200_000)
        out = tmp_path / "out"
        if target == "store":
            argv = ["eval", "--scores", str(path.parent), "--annotations", str(corpus / "annotations.csv")]
        else:
            argv = ["score", "--checkpoint", str(run / "checkpoint.sdqk"), "--data", str(corpus)]
        capsys.readouterr()
        assert cli.main(argv + ["--split", "val", "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert f"{path}: its header is not UTF-8 JSON (RecursionError: " in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "20"]])
    def test_eval_missing_scores_dir_exit_config(self, pipeline, tmp_path, capsys, sweep):
        corpus, _, _ = pipeline
        capsys.readouterr()
        rc = cli.main(["eval", "--scores", str(tmp_path / "nowhere"),
                       "--annotations", str(corpus / "annotations.csv"), "--split", "val", *sweep])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"score directory {tmp_path / 'nowhere'} does not exist" in err and err.count("\n") == 1

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "20"]])
    def test_eval_split_with_no_annotations_exit_config(self, pipeline, tmp_path, capsys, sweep):
        corpus, _, scores = pipeline
        anns = ann.parse_annotations((corpus / "annotations.csv").read_bytes())
        val_only = tmp_path / "val.csv"
        val_only.write_bytes(ann.serialize_annotations([a for a in anns if a.split == "val"]))
        capsys.readouterr()
        rc = cli.main(["eval", "--scores", str(scores / "scores"), "--annotations", str(val_only),
                       "--split", "train", "--out", str(tmp_path / "eval"), *sweep])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "no annotations to evaluate" in err and err.count("\n") == 1
        assert not (tmp_path / "eval").exists()

    def test_eval_sweep_above_its_maximum_exit_config(self, pipeline, tmp_path, capsys):
        corpus, _, scores = pipeline
        n = metrics.SWEEP_MAX + 1
        capsys.readouterr()
        assert cli.main(["eval", "--scores", str(scores / "scores"), "--annotations", str(corpus / "annotations.csv"),
                         "--split", "val", "--sweep", str(n), "--out", str(tmp_path / "eval")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"n must be <= {metrics.SWEEP_MAX}, got {n}" in err and err.count("\n") == 1
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "20"]])
    def test_eval_k_beyond_every_series_scores_as_their_length(self, pipeline, capsys, sweep):
        # a series predicts at most once a frame: on the 60-frame series, k = 10^9 reads as k = 60,
        # the sweep's objective k too
        corpus, _, scores = pipeline

        def report(ks):
            assert cli.main(["eval", "--scores", str(scores / "scores"), "--annotations",
                             str(corpus / "annotations.csv"), "--split", "val", *sweep, "--k", ks]) == 0
            return json.loads(capsys.readouterr().out)

        for smaller in ("", "1,"):  # the sweep's objective k is the smallest
            huge, sixty = report(smaller + "1000000000"), report(smaller + "60")
            assert huge["threshold"] == sixty["threshold"]
            assert (huge["sr"]["1000000000"], huge["smd"]["1000000000"]) == (sixty["sr"]["60"], sixty["smd"]["60"])

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "20"]])
    def test_eval_on_an_empty_store_exit_id_mismatch(self, pipeline, tmp_path, capsys, sweep):
        # the sweep pairs like a fixed threshold: every selected annotation misses its series
        corpus, _, _ = pipeline
        metrics.save_score_series(tmp_path / "empty", metrics.ScoreTable([], [], [], [], np.empty(0)))
        capsys.readouterr()
        assert cli.main(["eval", "--scores", str(tmp_path / "empty"), "--annotations", str(corpus / "annotations.csv"),
                         "--split", "val", *sweep]) == cli.EXIT_ID_MISMATCH
        err = capsys.readouterr().err
        assert "no score series for 8 annotation(s): (" in err and err.count("\n") == 1

    def test_train_whose_checkpoint_overflows_float32_exit_numeric(self, pipeline, tmp_path, capsys):
        # 3 steps at lr 1e39 stay below the divergence limit, but the adapters no longer fit in float32
        corpus, _, _ = pipeline
        out = tmp_path / "run"
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(corpus), "--out", str(out), "--kind", "qrnn", "--steps", "3",
                       "--lr", "1e39", "--batch", "4", "--blocks", "1", "--d-prime", "8", "--seed", "0"])
        assert rc == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "is not finite as the float32 a checkpoint stores" in err and err.count("\n") == 1
        assert not out.exists()

    def test_score_writes_batch_scores(self, pipeline):
        corpus, run, scores = pipeline
        model = detector.load_model(run / "checkpoint.sdqk")
        anns = [a for a in ann.parse_annotations((corpus / "annotations.csv").read_bytes())
                if a.split == "val"]
        assert len(anns) == 8
        stored = {(s.video_uid, s.query_id): s for s in metrics.load_score_series_dir(scores / "scores")}
        assert len(stored) == 8
        for a in anns:
            frames, fps, query = ann.load_stream(corpus / "streams" / f"{a.video_uid}.f32")
            kwargs = dict(video_uid=a.video_uid, query_id=metrics.default_query_id(a), fps=fps)
            batch = detector.score_frames(model, frames, query, **kwargs)
            written = stored[a.video_uid, kwargs["query_id"]]
            assert written.fps == batch.fps and written.scores.tobytes() == batch.scores.tobytes()
            streamed = detector.infer_streaming(model, frames, query, **kwargs)
            assert np.abs(streamed.scores - batch.scores).max() <= 1e-10

    @pytest.mark.parametrize("edit, message", [
        (lambda v: np.where(np.arange(v.size) == 8 + 3, np.nan, v), "non-finite"),  # a frame: the query is 8 values
        (lambda v: np.where(np.arange(v.size) == 3, np.inf, v), "non-finite"),
        (lambda v: v[:-1], "which promises 61x8 float32 values"),
    ], ids=["nan_frame", "inf_query", "short_file"])
    def test_score_bad_stream_values_leave_no_output(self, pipeline, tmp_path, capsys, edit, message):
        corpus, run, _ = pipeline
        copied = shutil.copytree(corpus, tmp_path / "corpus")
        last = [a for a in ann.parse_annotations((copied / "annotations.csv").read_bytes())
                if a.split == "val"][-1]
        bad = copied / "streams" / f"{last.video_uid}.f32"
        raw = bad.read_bytes()
        end = _head_end(raw)
        bad.write_bytes(raw[:end] + edit(np.frombuffer(raw, dtype="<f4", offset=end)).astype("<f4").tobytes())
        out = tmp_path / "scored"
        capsys.readouterr()
        rc = cli.main(["score", "--checkpoint", str(run / "checkpoint.sdqk"), "--data", str(copied),
                       "--split", "val", "--out", str(out)])
        assert rc == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert str(bad) in err and message in err and err.count("\n") == 1
        assert not (out / "scores").exists() and not (out / "manifest.json").exists()

    @pytest.mark.parametrize("header, message", [
        (lambda text: text[:-1], "JSONDecodeError"),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "n_frames"}),
         "of at least 1, got None and 8"),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "dim"}),
         "of at least 1, got 60 and None"),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "fps"}),
         "finite positive number fps, got None"),
        (lambda text: json.dumps({**json.loads(text), "fps": 0}), "finite positive number fps, got 0"),
        (lambda text: json.dumps({**json.loads(text), "fps": "1.0"}), "finite positive number fps, got '1.0'"),
        # negative counts whose product still matches the payload
        (_edit_fields(lambda s: s.update(n_frames=-s["n_frames"], dim=-s["dim"])), "integers n_frames and dim"),
        (_edit_fields(lambda s: s.update(n_frames=s["n_frames"] + 0.5)), "integers n_frames and dim"),
        (_edit_fields(lambda s: s.update(n_frames=str(s["n_frames"]))), "integers n_frames and dim"),
        (_edit_fields(lambda s: s.update(dim=True)), "integers n_frames and dim"),
        (_edit_fields(lambda s: s.update(dim=0)), "integers n_frames and dim"),
    ], ids=["not_json", "no_n_frames", "no_dim", "no_fps", "zero_fps", "string_fps",
            "negative_counts", "fractional_n_frames", "string_n_frames", "bool_dim", "zero_dim"])
    def test_score_bad_stream_header_exit_schema(self, pipeline, tmp_path, capsys, header, message):
        corpus, run, _ = pipeline
        copied = shutil.copytree(corpus, tmp_path / "corpus")
        last = [a for a in ann.parse_annotations((copied / "annotations.csv").read_bytes())
                if a.split == "val"][-1]
        bad = copied / "streams" / f"{last.video_uid}.f32"
        _edit_header(bad, header)
        capsys.readouterr()
        rc = cli.main(["score", "--checkpoint", str(run / "checkpoint.sdqk"), "--data", str(copied),
                       "--split", "val", "--out", str(tmp_path / "scored")])
        assert rc == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert f"{bad}: its header" in err and message in err and err.count("\n") == 1
        assert not (tmp_path / "scored").exists()

    def test_score_video_uid_outside_the_corpus_exit_schema(self, pipeline, tmp_path, capsys):
        # such an id would read streams/../../escaped.f32, outside the corpus
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

    def test_ids_that_name_no_file_run_end_to_end(self, pipeline, tmp_path, capsys):
        # only streams/<video_uid>.f32 is named after an id: `__` in a video_uid and `/` or `\` in an
        # annotator_uid pass ingest, score and eval, and the score store reads them back exactly
        corpus, run, scores = pipeline
        copied = shutil.copytree(corpus, tmp_path / "corpus")
        anns = ann.parse_annotations((copied / "annotations.csv").read_bytes())
        old = [a for a in anns if a.split == "val"][0]
        new = replace(old, video_uid=f"cam__{old.video_uid}", annotator_uid="team/a\\b")
        anns[anns.index(old)] = new
        (copied / "annotations.csv").write_bytes(ann.serialize_annotations(anns))
        (copied / "streams" / f"{old.video_uid}.f32").rename(copied / "streams" / f"{new.video_uid}.f32")
        out = tmp_path / "scored"
        assert cli.main(["ingest", "--annotations", str(copied / "annotations.csv")]) == 0
        assert cli.main(["score", "--checkpoint", str(run / "checkpoint.sdqk"), "--data", str(copied),
                         "--split", "val", "--out", str(out)]) == 0
        stored = metrics.load_score_series_dir(out / "scores")
        assert [(s.video_uid, s.query_id) for s in stored] == \
            [(a.video_uid, metrics.default_query_id(a)) for a in anns if a.split == "val"]
        capsys.readouterr()
        reports = []
        for scored, annotated in ((out, copied), (scores, corpus)):
            assert cli.main(["eval", "--scores", str(scored / "scores"), "--annotations",
                             str(annotated / "annotations.csv"), "--split", "val", "--sweep", "20"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]  # the same scores under other ids

    @pytest.mark.parametrize("command", ["train", "score"])
    def test_three_file_corpus_exit_schema(self, pipeline, tmp_path, capsys, command):
        # the layout before one file per stream: <uid>.f32 raw frames, a <uid>.f32.json sidecar and
        # the query in <uid>.query.f32
        corpus, run, _ = pipeline
        copied = shutil.copytree(corpus, tmp_path / "corpus")
        for path in sorted((copied / "streams").iterdir()):
            frames, fps, query = ann.load_stream(path)
            path.write_bytes(frames.astype("<f4").tobytes())
            path.with_name(path.name + ".json").write_text(json.dumps({"dim": frames.shape[1], "fps": fps,
                                                                        "n_frames": len(frames)}))
            path.with_name(path.stem + ".query.f32").write_bytes(query.astype("<f4").tobytes())
        first = sorted(_split_files(copied, "train" if command == "train" else "val"))[1]
        out = tmp_path / "out"
        argv = (["train", "--steps", "1"] if command == "train" else
                ["score", "--checkpoint", str(run / "checkpoint.sdqk"), "--split", "val"])
        capsys.readouterr()
        assert cli.main(argv + ["--data", str(copied), "--out", str(out)]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"schema error: {copied / first} is not a stream file (bad magic ")
        assert err.endswith("re-run synth\n") and err.count("\n") == 1
        assert not out.exists()

    def test_score_empty_stream_exit_schema(self, pipeline, tmp_path, capsys):
        # a zero-frame stream would score to a series without frames, which the score store rejects
        corpus, run, _ = pipeline
        copied = shutil.copytree(corpus, tmp_path / "corpus")
        last = [a for a in ann.parse_annotations((copied / "annotations.csv").read_bytes())
                if a.split == "val"][-1]
        stream = copied / "streams" / f"{last.video_uid}.f32"
        _edit_header(stream, _edit_fields(lambda s: s.update(n_frames=0)))
        raw = stream.read_bytes()
        stream.write_bytes(raw[:_head_end(raw) + 4 * 8])  # the query alone
        capsys.readouterr()
        rc = cli.main(["score", "--checkpoint", str(run / "checkpoint.sdqk"), "--data", str(copied),
                       "--split", "val", "--out", str(tmp_path / "scored")])
        assert rc == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert f"{stream}: its header needs integers n_frames and dim of at least 1, got 0" in err
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

    @pytest.mark.parametrize("command", ["ingest", "score", "eval"])
    def test_repeated_annotation_exit_schema(self, pipeline, tmp_path, capsys, command):
        # a row repeating a (video_uid, annotator_uid, ann_idx) would evaluate one query twice
        corpus, run, scores = pipeline
        copied = shutil.copytree(corpus, tmp_path / "corpus")
        anns = ann.parse_annotations((copied / "annotations.csv").read_bytes())
        assert anns[-1].split == "val"
        (copied / "annotations.csv").write_bytes(ann.serialize_annotations(anns + [anns[-1]]))
        out = tmp_path / "out"
        argv = {
            "ingest": ["ingest", "--annotations", str(copied / "annotations.csv"), "--out", str(out)],
            "score": ["score", "--checkpoint", str(run / "checkpoint.sdqk"), "--data", str(copied),
                      "--split", "val", "--out", str(out)],
            "eval": ["eval", "--scores", str(scores / "scores"), "--annotations", str(copied / "annotations.csv"),
                     "--split", "val", "--threshold", "0.5", "--out", str(out)],
        }[command]
        assert cli.main(argv) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        n = len(anns)
        assert f"row {n + 1}: repeats the (video_uid, annotator_uid, ann_idx) of row {n}: " in captured.err
        assert not out.exists()

    def test_train_streams_of_different_widths_exit_config(self, pipeline, tmp_path, capsys):
        corpus, _, _ = pipeline
        copied = shutil.copytree(corpus, tmp_path / "corpus")
        wide = tmp_path / "wide"
        assert cli.main(["synth", "--out", str(wide), "--streams", "1", "--val-streams", "0",
                         "--seed", "1", "--dim", "6"]) == 0
        (extra,) = ann.parse_annotations((wide / "annotations.csv").read_bytes())
        for path in (wide / "streams").iterdir():
            shutil.copy(path, copied / "streams")
        anns = ann.parse_annotations((copied / "annotations.csv").read_bytes())
        (copied / "annotations.csv").write_bytes(ann.serialize_annotations(anns + [extra]))
        out = tmp_path / "run"
        capsys.readouterr()
        assert cli.main(["train", "--data", str(copied), "--out", str(out), "--steps", "1"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"stream {extra.video_uid} has dim 6, stream {anns[0].video_uid} has dim 8" in err
        assert err.count("\n") == 1 and not out.exists()

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
        assert f"stream {first.video_uid} has dim 4, the checkpoint takes d=8" in err
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
        # a stream's fps comes from its stream file
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
        ("--seed", "-1", "seed must be >= 0, got -1"),
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
        config, values = detector.read_checkpoint(run / "checkpoint.sdqk")
        adapter = config["adapter"]
        assert not {"lookback", "lookahead"} & set(adapter)
        adapter.update(edit)
        bad = tmp_path / "bad.sdqk"
        detector.write_checkpoint(bad, config, [values])
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
        (lambda config: config.update(n_blocks=1.5), "n_blocks must be an integer, got 1.5"),
        (lambda config: config.update(seed="x"), "seed must be an integer, got 'x'"),
        (lambda config: config.update(d=8.0), "d must be an integer, got 8.0"),
        (lambda config: config.update(d_mlp=16), "unexpected keyword argument 'd_mlp'"),
        (lambda config: config["adapter"].update(k=2.5), "k must be an integer, got 2.5"),
        (lambda config: config["adapter"].update(d_prime=8.0), "d_prime must be an integer, got 8.0"),
        (lambda config: config["adapter"].pop("gamma"), "has no 'gamma' key"),
        (lambda config: config.update(heads=2), "unexpected keyword argument 'heads'"),
        (lambda config: config["array_order"].reverse(), "array_order does not list its config's"),
        (lambda config: config["adapter"].update(theta="x"), "theta must be a finite real number, got 'x'"),
        (lambda config: config["adapter"].update(theta=math.nan), "theta must be a finite real number, got nan"),
        (lambda config: config["adapter"].update(forget_bias_init="x"),
         "forget_bias_init must be a finite real number, got 'x'"),
        (lambda config: config["adapter"].update(depthwise=1), "depthwise must be a bool, got 1"),
        # counted before any array is drawn: arrays that would not fit in memory, or blocks that
        # would take hours to draw, fail at once
        (lambda config: [config.update(d_in=10**12, d=10**12), config["adapter"].update(d=10**12)],
         "holds 736 values, its config's arrays need 5000000000017000000000280"),
        (lambda config: config["adapter"].update(k=10**15),
         "holds 736 values, its config's arrays need 128000000000000480"),
        (lambda config: config.update(n_blocks=10**9), "holds 736 values, its config's arrays need 736000000000"),
    ], ids=["unknown_adapter_key", "missing_model_key", "d_in_not_d", "fractional_n_blocks", "string_seed",
            "float_d", "stale_d_mlp_key", "fractional_k", "float_d_prime", "missing_adapter_key_with_a_default",
            "unknown_model_key", "reordered_array_order", "string_theta", "nan_theta", "string_forget_bias_init",
            "int_depthwise", "huge_d", "huge_k", "huge_n_blocks"])
    def test_checkpoint_config_keys_exit_config(self, pipeline, tmp_path, capsys, edit, message):
        corpus, run, _ = pipeline
        config, values = detector.read_checkpoint(run / "checkpoint.sdqk")
        edit(config)
        bad = tmp_path / "bad.sdqk"
        detector.write_checkpoint(bad, config, [values])
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
        ann.save_stream(root / "streams" / f"{uid}.f32", rng.normal(size=(n, 8)), rng.normal(size=8), fps)
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
    stored = metrics.load_score_series_dir(out / "scores")
    assert [(s.video_uid, s.query_id) for s in stored] == [(a.video_uid, metrics.default_query_id(a)) for a in anns]
    for a, written in zip(anns, stored):
        frames, fps, query = ann.load_stream(corpus / "streams" / f"{a.video_uid}.f32")
        alone = detector.score_frames(loaded, frames, query, a.video_uid, metrics.default_query_id(a), fps)
        assert written.fps == alone.fps and written.scores.tobytes() == alone.scores.tobytes()


def test_train_windows_sit_on_the_stream_fps_grid(tmp_path, capsys, monkeypatch):
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
        frames, fps, stream_query = ann.load_stream(corpus / "streams" / f"{a.video_uid}.f32")
        assert fps == 2.0 and np.array_equal(query, stream_query)
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

    @pytest.mark.parametrize("frames", [["--frames", "20"], []], ids=["frames", "no_frames"])
    def test_latency_harness_negative_seed_exit_config(self, tmp_path, capsys, frames):
        out = tmp_path / "bench"
        rc = cli.main(["bench", "--kind", "qrnn", *frames, "--seed", "-1",
                       "--latency-d", "16", "--latency-blocks", "1", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "seed must be >= 0, got -1" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_latency_harness_without_repetitions_exit_config(self, tmp_path, capsys, reps):
        out = tmp_path / "bench"
        rc = cli.main(["bench", "--kind", "qrnn", "--frames", "20", "--reps", reps,
                       "--latency-d", "16", "--latency-blocks", "1", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"repetitions must be >= 1, got {reps}" in err and err.count("\n") == 1
        assert not out.exists()


# -- output directories: staged beside --out, the manifest last, renamed in whole -------------------

WRITING = ("ingest", "synth", "train", "score", "eval", "bench")


def _writing_argv(command, pipeline, out):
    """A short run of ``command`` on the shared pipeline's files, into ``out``."""
    corpus, run, scores = pipeline
    return {
        "ingest": ["ingest", "--annotations", str(corpus / "annotations.csv"), "--stats"],
        "synth": ["synth", "--streams", "2", "--val-streams", "1", "--dim", "8"],
        "train": ["train", "--data", str(corpus), "--kind", "vanilla", "--steps", "1", "--batch", "2",
                  "--blocks", "1", "--d-prime", "4"],
        "score": ["score", "--checkpoint", str(run / "checkpoint.sdqk"), "--data", str(corpus), "--split", "val"],
        "eval": ["eval", "--scores", str(scores / "scores"), "--annotations", str(corpus / "annotations.csv"),
                 "--split", "val", "--sweep", "5"],
        "bench": ["bench", "--kind", "qrnn", "--d", "16", "--blocks", "1"],
    }[command] + ["--out", str(out)]


def _files(root):
    """Every file under ``root`` by its relative path, with its bytes; none if there is no ``root``."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _fail_second_write(monkeypatch):
    """Make the second file write of any kind (framing.write, Path.write_bytes, Path.write_text)
    raise ENOSPC, as a full disk would."""
    calls = []

    def failing(write):
        def wrapper(*args, **kwargs):
            calls.append(write)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return write(*args, **kwargs)
        return wrapper

    for owner, name in ((metrics.framing, "write"), (Path, "write_bytes"), (Path, "write_text")):
        monkeypatch.setattr(owner, name, failing(getattr(owner, name)))
    return calls


@pytest.mark.parametrize("rerun", [False, True], ids=["new_out", "rerun"])
@pytest.mark.parametrize("command", WRITING)
def test_a_failed_write_leaves_no_out_and_no_stage(pipeline, tmp_path, capsys, monkeypatch, command, rerun):
    # a write failing after the first one leaves neither a partial --out nor the staging directory,
    # and a previous run's --out (another command's, so that no file of it is rewritten alike) as it was
    out = tmp_path / "outs" / "out"
    if rerun:
        assert cli.main(_writing_argv("ingest" if command == "bench" else "bench", pipeline, out)) == 0
    before = _files(out)
    capsys.readouterr()
    with monkeypatch.context() as patch:
        calls = _fail_second_write(patch)
        assert cli.main(_writing_argv(command, pipeline, out)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(calls) == 2 and "No space left on device" in err and err.count("\n") == 1
    assert sorted(os.listdir(out.parent)) == (["out"] if rerun else []) and _files(out) == before


@pytest.mark.parametrize("command", WRITING)
def test_a_rerun_replaces_its_out_whole(pipeline, tmp_path, capsys, command):
    # a previous run's --out holds the new run's files and no other; an empty directory is taken
    out = tmp_path / "outs" / "out"
    out.mkdir(parents=True)
    argv = _writing_argv(command, pipeline, out)
    assert cli.main(argv) == 0
    (out / "stale.txt").write_text("from another run")
    first = _files(out)
    assert cli.main(argv) == 0
    capsys.readouterr()
    again = _files(out)
    assert sorted(again) == sorted(set(first) - {"stale.txt"}) and "manifest.json" in again
    assert os.listdir(out.parent) == ["out"]


def test_synth_into_a_used_out_holds_only_the_new_corpus(tmp_path, capsys):
    # 4 + 1 streams, then 1 + 1 into the same --out: 2 stream files, not 7 beside a 2-row annotations.csv
    out = tmp_path / "corpus"
    assert cli.main(["synth", "--out", str(out), "--streams", "4", "--val-streams", "1"]) == 0
    assert cli.main(["synth", "--out", str(out), "--streams", "1", "--val-streams", "1", "--seed", "3"]) == 0
    capsys.readouterr()
    anns = ann.parse_annotations((out / "annotations.csv").read_bytes())
    assert sorted(p.name for p in (out / "streams").iterdir()) == sorted(f"{a.video_uid}.f32" for a in anns)
    assert len(anns) == 2 and sorted(os.listdir(tmp_path)) == ["corpus"]


@pytest.mark.parametrize("kind", ["file", "directory"])
@pytest.mark.parametrize("command", WRITING)
def test_out_that_is_no_run_directory_exit_config(pipeline, tmp_path, capsys, command, kind):
    # a file, or a directory of files without a run manifest, is never replaced: nothing is written
    out = tmp_path / "outs" / "taken"
    out.parent.mkdir()
    if kind == "file":
        out.write_text("kept")
    else:
        out.mkdir()
        (out / "notes.txt").write_text("kept")
    before = _files(out.parent)
    capsys.readouterr()
    assert cli.main(_writing_argv(command, pipeline, out)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"--out {out} exists and is not a run directory: it holds no manifest.json" in err
    assert err.count("\n") == 1 and _files(out.parent) == before and os.listdir(out.parent) == ["taken"]


@pytest.mark.parametrize("command", ["eval", "score", "train", "ingest"])
def test_out_that_holds_an_input_exit_config(pipeline, tmp_path, capsys, command):
    # replacing such an --out whole would delete what the run reads
    corpus, run, scores = (shutil.copytree(d, tmp_path / d.name) for d in pipeline)
    out, held = {"eval": (scores, scores / "scores"), "score": (run, run / "checkpoint.sdqk"),
                 "train": (corpus, corpus), "ingest": (corpus, corpus / "annotations.csv")}[command]
    before = _files(tmp_path)
    capsys.readouterr()
    assert cli.main(_writing_argv(command, (corpus, run, scores), out)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"--out {out} holds the input {held}, which the run would replace" in err and err.count("\n") == 1
    assert _files(tmp_path) == before and sorted(os.listdir(tmp_path)) == ["corpus", "run", "scores"]


FUZZ_SEED, FUZZ_CASES = 20261019, 99


def _set_bytes(raw, rng, spots):
    """A damaged copy of ``raw`` per offset in ``spots``, with that byte set to a random value: (name,
    offset, bytes)."""
    values = rng.integers(0, 256, len(spots)).tolist()
    return [(f"byte {i} = {value}", i, raw[:i] + bytes([value]) + raw[i + 1:]) for i, value in zip(spots, values)]


def _fuzzed(raw, rng, fields):
    """``FUZZ_CASES`` damaged copies of ``raw`` as ``_set_bytes`` gives them, the offset of a cut being
    its length: a third cut short at a random length, a third with one random byte set to a random
    value, and a third likewise at an offset drawn from ``fields``."""
    n = FUZZ_CASES // 3
    cases = [(f"cut at {i}", i, raw[:i]) for i in rng.integers(0, len(raw), n).tolist()]
    spots = np.concatenate([rng.integers(0, len(raw), n), rng.choice(fields, n)]).tolist()
    return cases + _set_bytes(raw, rng, spots)


def _stream_regions(raw):
    """Each region of a stream file by the offsets it spans, with the exits a damage there may end in:
    the framing (magic, version and header length) and the JSON header exit 2, or 4 where the header
    then miscounts the values; the query exits 4 for a non-finite value or 5 for a norm that overflows;
    the frames exit 4 for a non-finite value. A cut exits as its first missing byte's region does."""
    end = _head_end(raw)
    query_end = end + 4 * json.loads(raw[12:end])["dim"]
    head_exits = {0, cli.EXIT_SCHEMA, cli.EXIT_NUMERIC}
    return {"framing": (range(12), head_exits), "header": (range(12, end), head_exits),
            "query": (range(end, query_end), {0, cli.EXIT_NUMERIC, cli.EXIT_CONFIG}),
            "frames": (range(query_end, len(raw)), {0, cli.EXIT_NUMERIC})}


def _store_regions(raw):
    """Each region of the score store by the offsets it spans, with the exits a damage there may end in:
    the framing and the JSON header exit 2, or 3 where an id changes; the payload exits 2 for a finite
    score outside [0, 1] or 4 for a non-finite one. A cut exits as its first missing byte's region does."""
    end = _head_end(raw)
    head_exits = {0, cli.EXIT_SCHEMA, cli.EXIT_ID_MISMATCH}
    return {"framing": (range(12), head_exits), "header": (range(12, end), head_exits),
            "payload": (range(end, len(raw)), {0, cli.EXIT_SCHEMA, cli.EXIT_NUMERIC})}


@pytest.mark.parametrize("artifact, allowed", [("annotations.csv", {0, cli.EXIT_SCHEMA}),
                                               ("checkpoint.sdqk", {0, cli.EXIT_CONFIG}),
                                               ("store", None),
                                               ("store framing", None),
                                               ("store header", None),
                                               ("store payload", None),
                                               ("stream", None),
                                               ("stream framing", None),
                                               ("stream header", None),
                                               ("stream query", None),
                                               ("stream frames", None)],
                         ids=["annotations", "checkpoint", "store", "store_framing", "store_header", "store_payload",
                              "stream", "stream_framing", "stream_header", "stream_query", "stream_frames"])
def test_damaged_input_ends_in_a_documented_exit(pipeline, tmp_path, capsys, artifact, allowed):
    # a seeded boundary fuzz: a damaged input exits 0 or with its documented code, and a failure
    # prints one line and writes no --out; a checkpoint has no checksum, so a changed payload may load
    corpus, run, scores = pipeline
    kind, _, region = artifact.partition(" ")
    if kind == "stream":  # the first val stream's streams/<uid>.f32
        artifact = _split_files(corpus, "val")[1]
    elif kind == "store":
        artifact = "scores/scores.sdqc"
    top = artifact.split("/")[0]
    root = {"annotations.csv": corpus, "checkpoint.sdqk": run, "scores": scores, "streams": corpus}[top]
    raw = (root / artifact).read_bytes()
    rng = np.random.default_rng(FUZZ_SEED)
    regions = _stream_regions(raw) if kind == "stream" else _store_regions(raw) if kind == "store" else {}
    if artifact == "checkpoint.sdqk":
        cases = _fuzzed(raw, rng, [4, 8])  # the low bytes of its version and its config length
    elif region:  # bytes of one region only, each value's sign and high exponent bits in the values
        spots = regions[region][0]
        if region in ("query", "frames", "payload"):
            width = 8 if kind == "store" else 4  # a float64 score, a float32 frame or query value
            spots = spots[width - 1::width]
        cases = _set_bytes(raw, rng, rng.choice(spots, FUZZ_CASES).tolist())
    else:  # the whole file: random cuts and bytes only
        cases = _fuzzed(raw, rng, range(len(raw)))
    bad = []
    for i, (name, offset, data) in enumerate(cases):
        out = tmp_path / f"out-{i}"
        if top == "scores":  # the damaged file in a copy of the whole store
            damaged = shutil.copytree(scores / "scores", tmp_path / f"{i}-scores") / Path(artifact).name
        elif top == "streams":  # the damaged file in a copy of the whole corpus
            damaged = shutil.copytree(corpus, tmp_path / f"{i}-corpus") / artifact
        else:
            damaged = tmp_path / f"{i}-{artifact}"
        damaged.write_bytes(data)
        if artifact == "annotations.csv":
            argv = ["ingest", "--annotations", str(damaged), "--out", str(out)]
        elif top == "checkpoint.sdqk":
            argv = ["score", "--checkpoint", str(damaged), "--data", str(corpus), "--split", "val", "--out", str(out)]
        elif top == "streams":
            argv = ["score", "--checkpoint", str(run / "checkpoint.sdqk"), "--data", str(damaged.parents[1]),
                    "--split", "val", "--out", str(out)]
        else:
            argv = ["eval", "--scores", str(damaged.parent), "--annotations", str(corpus / "annotations.csv"),
                    "--split", "val", "--sweep", "5", "--out", str(out)]
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a traceback, which no input may cause
            rc = repr(exc)
        err = capsys.readouterr().err
        exits = allowed or next(e for spots, e in regions.values() if offset in spots)
        if rc not in exits or (rc and (err.count("\n") != 1 or out.exists())):
            bad.append((name, rc, err))
    assert bad == []
