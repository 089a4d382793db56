"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
import os
import pathlib
import sys

import pytest

# pytest's `pythonpath` ini option puts src/ on *this* process's path, but
# subprocess-based tests (examples, CLI smoke) need the child to see it too.
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
if _SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = (
        _SRC + os.pathsep + os.environ["PYTHONPATH"]
        if os.environ.get("PYTHONPATH")
        else _SRC
    )

from repro.core.crw import CRWConsensus
from repro.sync.crash import CrashSchedule
from repro.sync.extended import ExtendedSynchronousEngine
from repro.util.rng import RandomSource


@pytest.fixture
def rng() -> RandomSource:
    """A fixed-seed random source; tests needing other seeds spawn children."""
    return RandomSource(20060810)  # ICPP'06 flavoured seed


def make_crw(n: int, proposals: list | None = None) -> list[CRWConsensus]:
    """Build n CRW processes with default proposals 100+pid."""
    if proposals is None:
        proposals = [100 + pid for pid in range(1, n + 1)]
    return [CRWConsensus(pid, n, proposals[pid - 1]) for pid in range(1, n + 1)]


def run_crw(
    n: int,
    schedule: CrashSchedule | None = None,
    t: int | None = None,
    proposals: list | None = None,
    rng: RandomSource | None = None,
    max_rounds: int | None = None,
):
    """Run CRW on the extended engine and return the RunResult."""
    engine = ExtendedSynchronousEngine(
        make_crw(n, proposals),
        schedule,
        t=t if t is not None else n - 1,
        rng=rng or RandomSource(1),
    )
    return engine.run(max_rounds)


@pytest.fixture(params=[
    ("decisions", None),  # None: drop the column
    ("decisions", [1, 2]),
    ("decision_rounds", {"x": 1}),
], ids=["missing-decisions", "list-decisions", "non-int-pid"])
def damage_batch_line(request):
    """Rewrite one ``{"batch": …}`` JSONL line with a malformed column.

    The line stays valid JSON and its scenarios stay valid (so its cells
    key onto pending ones); only a record column breaks.
    """
    column, value = request.param

    def damage(line: str) -> str:
        entry = json.loads(line)
        if value is None:
            del entry["batch"][column]
        else:
            entry["batch"][column][0] = value
        return json.dumps(entry, sort_keys=True) + "\n"

    return damage
