"""The pipeline's artifacts match the golden record ``tests/golden.json``.

``tests/golden.py`` runs the pipeline and regenerates the record.
"""

import json
import warnings

import numpy as np
import pytest

from streamstart import detector, kernels

import golden

RECORD = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
RECORDED_ENV = RECORD["environment"] == golden.environment()
CORPORA = ("corpus/", "untrimmed/corpus/")


def _first(paths: list[str], n: int = 8) -> str:
    return ", ".join(paths[:n]) + (", ..." if len(paths) > n else "")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The pipeline's root directory and ``golden.run_pipeline``'s digests, reports and streamed digests."""
    root = tmp_path_factory.mktemp("golden")
    return root, golden.run_pipeline(root)


def test_pipeline_matches_golden_record(pipeline):
    _, (digests, reports, streamed) = pipeline
    if RECORDED_ENV:
        bad = golden.digest_mismatches(RECORD["digests"], digests)
        assert not bad, (f"{len(bad)} of {len(RECORD['digests'])} files differ from tests/golden.json: "
                         f"{_first(bad)}")
        bad = golden.digest_mismatches(RECORD["streamed"], streamed)
        assert not bad, f"streamed scores differ from tests/golden.json for {_first(bad)}"
    else:
        warnings.warn(f"compared no digests: they were recorded under {RECORD['environment']}, "
                      f"this is {golden.environment()}; compared the eval reports to {golden.REPORT_TOL}")
    bad = golden.report_mismatches(RECORD["reports"], reports)
    assert not bad, f"eval reports differ from tests/golden.json at {_first(bad)}"


def test_write_reports_what_moved():
    old = {"environment": {"numpy": "1"}, "digests": {"a": "1", "b": "2"}, "streamed": {"qrnn": "3"},
           "reports": {"qrnn": {"threshold": 0.5, "sr": {"1": 80.0}}}}
    new = {"environment": {"numpy": "1"}, "digests": {"a": "1", "b": "9", "c": "4"}, "streamed": {"qrnn": "5"},
           "reports": {"qrnn": {"threshold": 0.5, "sr": {"1": 82.0}}}}
    assert golden.moved(old, old) == []
    assert golden.moved(old, new) == ["file b", "file c", "report /qrnn/sr/1: 80.0 -> 82.0", "streamed qrnn"]
    assert golden.moved({}, new)[0] == f"environment None -> {new['environment']}"


@pytest.mark.skipif(not RECORDED_ENV, reason="the digests were recorded in another environment")
def test_one_ulp_in_a_checkpoint_breaks_the_record(tmp_path, monkeypatch):
    save_model = detector.save_model

    def nudged(path, model):
        # the checkpoint stores float32: move one stored value by one float32 ulp
        w_up = model.blocks[0][0].w_up.astype(np.float32)
        w_up.flat[0] = np.nextafter(w_up.flat[0], np.float32(np.inf))
        save_model(path, detector.with_arrays(model, {"blocks.0.w_up": w_up.astype(float)}))

    monkeypatch.setattr(detector, "save_model", nudged)
    digests, _, _ = golden.run_pipeline(tmp_path, kinds=("vanilla",))
    recorded = {p: d for p, d in RECORD["digests"].items() if p.startswith(CORPORA) or "/vanilla/" in p}
    bad = golden.digest_mismatches(recorded, digests)
    assert "train/vanilla/checkpoint.sdqk" in bad
    assert not [p for p in bad if p.startswith(CORPORA)]


@pytest.mark.skipif(not RECORDED_ENV, reason="the digests were recorded in another environment")
def test_one_ulp_in_a_carried_retention_summary_breaks_the_record(pipeline, tmp_path, monkeypatch):
    # move the summary that a batch chunk after the first reads by one ulp; a pushed frame
    # (a one-frame chunk) and a stream's first chunk read theirs unchanged
    root, _ = pipeline
    forward = kernels.retention_forward

    def nudged(x, params, state, tape=None):
        if state.n and x.shape[-2] > 1:
            s = state.s.copy()
            s.flat[0] = np.nextafter(s.flat[0], np.inf)
            state = kernels.RetentionState(s=s, n=state.n)
        return forward(x, params, state, tape)

    monkeypatch.setattr(kernels, "retention_forward", nudged)
    checkpoint = root / "train" / "retention" / "checkpoint.sdqk"
    stored = "score/retention/scores/scores.sdqc"
    for corpus, recorded, moves in ((root / "corpus", stored, False),
                                    (root / "untrimmed" / "corpus", f"untrimmed/{stored}", True)):
        out = tmp_path / corpus.parent.name
        golden.score_and_eval(checkpoint, corpus, out, "retention")
        assert (golden.file_digest(out / stored) != RECORD["digests"][recorded]) == moves, recorded
