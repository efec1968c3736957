"""The package's source states contracts; the history of a change belongs in ``CHANGES.md``.

A comment or docstring that cites a ``BENCH_*.json`` file or a pull request
by its number tells a reader what once was measured, not what the code
does, and it goes stale with the next change.  Measurements and their
history are kept in ``CHANGES.md``.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tenrol"
HISTORY = re.compile(r"BENCH_[\w*]*\.json|\bPR #?\d+")


def test_no_source_file_cites_a_benchmark_file_or_a_pull_request():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = {
        f"{path.name}:{n}": line.strip()
        for path in sources
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if HISTORY.search(line)
    }
    assert found == {}
