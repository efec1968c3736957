"""The package's source states contracts; the history of a change belongs in ``CHANGES.md``.

A comment or docstring that cites a ``BENCH_*.json`` file or a pull request
by its number, or that states a measured speed ("10% slower", "1.5x
faster"), tells a reader what once was measured, not what the code does,
and it goes stale with the next change.  Measurements and their history are
kept in ``CHANGES.md``.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tenrol"
HISTORY = re.compile(r"BENCH_[\w*]*\.json|\bPR #?\d+")
SPEED = re.compile(r"\d\s*(?:%|x|µs|ms)\s+(?:slower|faster)\b")


def lines_matching(pattern: re.Pattern) -> dict[str, str]:
    """``{"file.py:line": text}`` of every source line that ``pattern`` finds."""
    sources = sorted(SRC.glob("*.py"))
    assert sources
    return {
        f"{path.name}:{n}": line.strip()
        for path in sources
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    }


def test_no_source_file_cites_a_benchmark_file_or_a_pull_request():
    assert lines_matching(HISTORY) == {}


def test_no_source_line_states_a_measured_speed():
    assert lines_matching(SPEED) == {}


@pytest.mark.parametrize(
    "line, found",
    [
        ("# run on every matrix, it made a 60x4x4 stack 10% slower.", True),
        ("costs 1.5x faster than before", True),
        ("took 12 µs slower", True),
        ("is 3 ms faster", True),
        ("the rounds run 2 sweeps", False),
        ("a 60x4x4 stack of matrices", False),
        ("a slower path for 4 columns", False),
    ],
)
def test_the_speed_pattern(line, found):
    assert bool(SPEED.search(line)) is found
