"""Rules that every module of the package's source must keep."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "streamstart"


def test_no_environment_reads():
    # behaviour is chosen by arguments and CLI flags, never by the environment
    reads = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"\benviron\b|\bgetenv\b", line)
    ]
    assert reads == []
