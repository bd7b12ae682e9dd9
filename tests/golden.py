"""Golden record of the pipeline's artifacts.

The pipeline is ``synth``, then ``train``, ``score`` and ``eval --sweep 20 --out``
for every adapter kind, all through ``cli.main`` in one process, with the
benchmark's pipeline flags. Each kind's checkpoint also scores and evaluates, the
same way, a small untrimmed val split (``UNTRIMMED_FLAGS``: 600-frame streams with
ten distractor flashes, so scoring carries states across ``kernels.CHUNK``-frame
chunks) written under ``untrimmed/``. ``tests/golden.json`` holds the SHA-256 of
every file the pipeline writes except the ``manifest.json`` files (they carry a
timestamp), each eval report (sweep threshold, SR@k, SMD@k; the untrimmed ones
under ``untrimmed/<kind>``), per kind the SHA-256 of the float64 scores that
``detector.infer_streaming`` pushes frame by frame through the first ``STREAMED``
val streams with the trained checkpoint (and, under ``untrimmed/<kind>``, through
the first ``UNTRIMMED_STREAMED`` untrimmed ones), and the numpy version and BLAS
library the digests came from. ``tests/test_golden.py`` reruns the pipeline and
compares.

Regenerate the record, after a change that moves outputs on purpose:

    python tests/golden.py --write

It prints what moved against the record it replaces: the file digests, the report
values (old -> new) and the streamed digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from streamstart import annotations, cli, detector  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")
KINDS = ("vanilla", "st_conv", "qrnn", "retention")
# perfbench/workloads.py's SYNTH_FLAGS and TRAIN_FLAGS, copied: the record stays
# put when the benchmark's flags change
SYNTH_FLAGS = ["--streams", "200", "--val-streams", "50", "--dim", "16", "--frames", "60",
               "--noise", "0.3", "--seed", "7"]
TRAIN_FLAGS = ["--blocks", "2", "--d-prime", "16", "--steps", "100", "--batch", "32",
               "--lr", "1e-2", "--weight-decay", "1e-3", "--tau-sim", "0.25", "--seed", "0"]
# the untrimmed val split: its own seed, 600-frame streams, ten distractors each
UNTRIMMED_FLAGS = ["--streams", "0", "--val-streams", "8", "--dim", "16", "--frames", "600",
                   "--noise", "0.3", "--distractors", "10", "--seed", "11"]
SWEEP = 20
STREAMED = 8
UNTRIMMED_STREAMED = 1
REPORT_TOL = 1e-9


def environment() -> dict[str, str]:
    """numpy version and BLAS library: the digests hold in the environment that wrote them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode argument
        name = "unknown"
    return {"numpy": np.__version__, "blas": name}


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"streamstart {' '.join(argv)} exited {rc}")


def streamed_digest(checkpoint: Path, corpus: Path, n_streams: int) -> str:
    """SHA-256 of the float64 scores ``detector.infer_streaming`` gives the first
    ``n_streams`` val streams, in annotation order, one after another."""
    model = detector.load_model(checkpoint)
    uids = dict.fromkeys(a.video_uid for a in annotations.parse_annotations((corpus / "annotations.csv").read_bytes())
                         if a.split == "val")
    digest = hashlib.sha256()
    for uid in list(uids)[:n_streams]:
        frames, _, query = annotations.load_stream(corpus / "streams" / f"{uid}.f32")
        digest.update(detector.infer_streaming(model, frames, query).scores.astype("<f8").tobytes())
    return digest.hexdigest()


def score_and_eval(checkpoint: Path, corpus: Path, root: Path, kind: str) -> dict:
    """``score`` the corpus's val split into ``root/score/<kind>``, ``eval --sweep`` it into
    ``root/eval/<kind>``, and return the eval report."""
    scored, evaluated = root / "score" / kind, root / "eval" / kind
    _run(["score", "--checkpoint", str(checkpoint), "--data", str(corpus), "--split", "val", "--out", str(scored)])
    _run(["eval", "--scores", str(scored / "scores"), "--annotations", str(corpus / "annotations.csv"),
          "--split", "val", "--sweep", str(SWEEP), "--out", str(evaluated)])
    return json.loads((evaluated / "report.json").read_text(encoding="utf-8"))


def run_pipeline(root: Path, kinds: tuple[str, ...] = KINDS) -> tuple[dict[str, str], dict[str, dict], dict[str, str]]:
    """Digest of every non-manifest file written under ``root``, keyed by relative
    path, each kind's eval reports, and each kind's streamed digests."""
    corpus, untrimmed = root / "corpus", root / "untrimmed"
    _run(["synth", "--out", str(corpus)] + SYNTH_FLAGS)
    _run(["synth", "--out", str(untrimmed / "corpus")] + UNTRIMMED_FLAGS)
    reports, streamed = {}, {}
    for kind in kinds:
        train = root / "train" / kind
        _run(["train", "--data", str(corpus), "--out", str(train), "--kind", kind] + TRAIN_FLAGS)
        checkpoint = train / "checkpoint.sdqk"
        reports[kind] = score_and_eval(checkpoint, corpus, root, kind)
        streamed[kind] = streamed_digest(checkpoint, corpus, STREAMED)
        reports[f"untrimmed/{kind}"] = score_and_eval(checkpoint, untrimmed / "corpus", untrimmed, kind)
        streamed[f"untrimmed/{kind}"] = streamed_digest(checkpoint, untrimmed / "corpus", UNTRIMMED_STREAMED)
    digests = {p.relative_to(root).as_posix(): file_digest(p)
               for p in sorted(root.rglob("*")) if p.is_file() and p.name != "manifest.json"}
    return digests, reports, streamed


def file_digest(path: Path) -> str:
    """SHA-256 of a file's bytes, as the record keeps it."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_mismatches(recorded: dict[str, str], digests: dict[str, str]) -> list[str]:
    """Sorted paths whose digest differs, or that only one side has."""
    return sorted(p for p in recorded.keys() | digests.keys() if recorded.get(p) != digests.get(p))


def report_mismatches(recorded, reports, path: str = "") -> list[str]:
    """Paths of the report values that differ by more than REPORT_TOL, or that only one side has."""
    if isinstance(recorded, dict) and isinstance(reports, dict):
        return [bad for key in sorted(recorded.keys() | reports.keys())
                for bad in report_mismatches(recorded.get(key), reports.get(key), f"{path}/{key}")]
    if isinstance(recorded, (int, float)) and isinstance(reports, (int, float)):
        return [] if abs(recorded - reports) <= REPORT_TOL else [path]
    return [] if recorded == reports else [path]


def _value_at(report, path: str):
    """The value at a ``report_mismatches`` path, or None where the report has none."""
    for key in path.split("/")[1:]:
        report = report.get(key) if isinstance(report, dict) else None
    return report


def moved(old: dict, new: dict) -> list[str]:
    """One line per file digest, report value and streamed digest that differs between
    two records, after one for the environment if it differs."""
    lines = [] if old.get("environment") == new["environment"] else [
        f"environment {old.get('environment')} -> {new['environment']}"]
    lines += [f"file {p}" for p in digest_mismatches(old.get("digests", {}), new["digests"])]
    lines += [f"report {p}: {_value_at(old.get('reports'), p)!r} -> {_value_at(new['reports'], p)!r}"
              for p in report_mismatches(old.get("reports", {}), new["reports"])]
    lines += [f"streamed {p}" for p in digest_mismatches(old.get("streamed", {}), new["streamed"])]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", required=True, help="write tests/golden.json from this run")
    parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        digests, reports, streamed = run_pipeline(Path(tmp))
    record = {"environment": environment(), "reports": reports, "digests": digests, "streamed": streamed}
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    changes = moved(old, record)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} file digests and {len(streamed)} streamed digests to {GOLDEN}; "
          f"{len(changes)} moved against the record it replaces" + "".join(f"\n  {line}" for line in changes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
