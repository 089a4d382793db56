"""Inputs a vector table declines step the object path, visibly.

Each case below is a process table some vector table refuses (or that
has no table at all).  For every one of them:

* auto mode (``batched=None``, tracing off) steps the object path —
  ``engine._vtable is None`` — and produces exactly the reference
  (``batched=False``) outcome;
* ``batched=True`` raises :class:`ConfigurationError` instead of
  silently stepping another way, with tracing off and on.
"""

from __future__ import annotations

import pytest

from repro.baselines.early_stopping import EarlyStoppingConsensus
from repro.baselines.floodset import FloodSetConsensus
from repro.core.variants import SilentProcess, TruncatedCRW
from repro.errors import ConfigurationError
from repro.net.payload import SizedValue
from repro.scenarios import ADVERSARIES, Scenario, execute
from repro.sync.engine import ClassicSynchronousEngine
from repro.sync.extended import ExtendedSynchronousEngine
from repro.util.rng import RandomSource

N = 6


def _early_stopping_sized():
    return ClassicSynchronousEngine, [
        EarlyStoppingConsensus(pid, N, SizedValue(100 + pid, bits=32), t=N - 1)
        for pid in range(1, N + 1)
    ]


def _early_stopping_bool():
    # bool is an int subclass but bit-sizes and serializes differently.
    return ClassicSynchronousEngine, [
        EarlyStoppingConsensus(pid, N, pid % 2 == 0, t=N - 1)
        for pid in range(1, N + 1)
    ]


def _early_stopping_one_bool():
    # A single bool among plain ints declines the whole table.
    values = [5, 4, True, 3, 2, 6]
    return ClassicSynchronousEngine, [
        EarlyStoppingConsensus(pid, N, v, t=N - 1) for pid, v in enumerate(values, 1)
    ]


def _floodset_key_tie():
    # SizedValue(1, 8) and SizedValue(1, 16) differ but share value_key 1.
    values = [SizedValue(1, bits=8), SizedValue(1, bits=16), 3, 4, 5, 6]
    return ClassicSynchronousEngine, [
        FloodSetConsensus(pid, N, v, t=N - 1) for pid, v in enumerate(values, 1)
    ]


def _floodset_int_bool_tie():
    # 1 == True: a set would merge them, the object path keeps both apart.
    values = [1, True, 2, 3, 4, 5]
    return ClassicSynchronousEngine, [
        FloodSetConsensus(pid, N, v, t=N - 1) for pid, v in enumerate(values, 1)
    ]


def _truncated_mixed_k():
    return ExtendedSynchronousEngine, [
        TruncatedCRW(pid, N, pid, k=1 + pid % 3) for pid in range(1, N + 1)
    ]


def _silent():
    return ExtendedSynchronousEngine, [SilentProcess(pid, N, pid) for pid in range(1, N + 1)]


CASES = {
    "early-stopping-sized": _early_stopping_sized,
    "early-stopping-bool": _early_stopping_bool,
    "early-stopping-one-bool": _early_stopping_one_bool,
    "floodset-key-tie": _floodset_key_tie,
    "floodset-int-bool-tie": _floodset_int_bool_tie,
    "truncated-mixed-k": _truncated_mixed_k,
    "silent": _silent,
}


def _engine(case, *, batched, trace=False):
    cls, procs = CASES[case]()
    rng = RandomSource(11)
    adversary = "random" if cls is ExtendedSynchronousEngine else "random-classic"
    schedule = ADVERSARIES.get(adversary).make_sync(2).schedule(
        N, N - 1, rng.spawn("adversary")
    )
    return cls(procs, schedule, t=N - 1, rng=rng.spawn("engine"), trace=trace,
               batched=batched)


@pytest.mark.parametrize("case", sorted(CASES))
def test_auto_mode_steps_objects_and_matches_reference(case):
    auto = _engine(case, batched=None)
    assert auto._vtable is None
    reference = _engine(case, batched=False)
    got, ref = auto.run(), reference.run()
    assert list(got.outcomes.items()) == list(ref.outcomes.items())
    assert got.stats == ref.stats
    assert (got.rounds_executed, got.completed) == (ref.rounds_executed, ref.completed)
    assert list(auto.decisions.items()) == list(reference.decisions.items())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_true_raises(case, trace):
    with pytest.raises(ConfigurationError):
        _engine(case, batched=True, trace=trace)


def test_early_stopping_sized_scenario():
    """The same fallback through ``execute``: records match, the flag
    refuses to fake a fast path."""
    scenario = Scenario(algorithm="early-stopping", n=7, f=2, adversary="staggered",
                        seed=4, workload="sized")
    auto = execute(scenario)
    reference = execute(scenario, batched=False)
    assert auto.to_dict() == reference.to_dict()
    assert auto.raw.stats == reference.raw.stats
    for trace in (False, True):
        with pytest.raises(ConfigurationError):
            execute(scenario, trace=trace, batched=True)
