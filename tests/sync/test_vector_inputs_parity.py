"""Object ≡ vector parity on every input a vector table accepts.

The vector tables are the synchronous engines' one fast path, so they
must take every input the per-process reference does, not only int64
proposals: CRW-family tables keep ``est`` in a plain list (any payload),
and FloodSet keeps Python-int bitsets over a universe of any width.
Each case below runs one configuration through both stepping modes and
requires **byte-identical** outcomes — the normalized RunRecord (or the
engine's ledgers) and every MessageStats counter:

* the ``sized`` workload (``SizedValue`` proposals) on every vector
  algorithm, across adversaries and seeds;
* FloodSet universes wider than one 64-bit word (n = 70 and n = 128);
* CRW-family runs over service ``Command`` and ``bool`` proposals;
* early-stopping over plain ints beyond the int64 range;
* leased engines refilled across payload types.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.net.payload import SizedValue
from repro.rsm.machine import Command
from repro.scenarios import ADVERSARIES, ALGORITHMS, EngineLease, Scenario, execute
from repro.sync.api import vector_table_for
from repro.sync.engine import ClassicSynchronousEngine
from repro.sync.extended import ExtendedSynchronousEngine
from repro.util.rng import RandomSource

VECTOR_ALGORITHMS = ("crw", "eager-crw", "truncated-crw", "increasing-commit-crw",
                     "full-broadcast-crw", "floodset", "early-stopping")
CRW_FAMILY = VECTOR_ALGORITHMS[:5]

EXTENDED_ADVERSARIES = sorted(
    name for name, adv in ADVERSARIES.items() if adv.make_sync is not None
)
CLASSIC_ADVERSARIES = ["none", "staggered", "random"]


def _cells():
    for algorithm in VECTOR_ALGORITHMS:
        backend = ALGORITHMS.get(algorithm).backend
        adversaries = (
            EXTENDED_ADVERSARIES if backend == "extended" else CLASSIC_ADVERSARIES
        )
        for adversary in adversaries:
            yield algorithm, adversary


def _assert_records_identical(scenario: Scenario) -> None:
    vector = execute(scenario)
    reference = execute(scenario, batched=False)
    assert vector.to_dict() == reference.to_dict()
    # Per-kind counters individually: messages_sent / bits_sent alone
    # could mask compensating errors between kinds or between sides.
    assert vector.raw.stats == reference.raw.stats


@pytest.mark.parametrize("algorithm,adversary", list(_cells()))
@pytest.mark.parametrize("seed", [0, 1, 2, 7, 13])
def test_sized_workload_identical(algorithm, adversary, seed):
    scenario = Scenario(
        algorithm=algorithm, n=6, f=2, adversary=adversary, seed=seed,
        workload="sized", workload_params={"bits": 96},
    )
    _assert_records_identical(scenario)


@pytest.mark.parametrize("n", [70, 128])
@pytest.mark.parametrize("adversary", CLASSIC_ADVERSARIES)
@pytest.mark.parametrize("seed", [0, 1])
def test_wide_floodset_universe_identical(n, adversary, seed):
    scenario = Scenario(algorithm="floodset", n=n, f=3, adversary=adversary, seed=seed)
    _assert_records_identical(scenario)


@pytest.mark.parametrize("workload", ["sized", "skewed"])
def test_wide_floodset_non_int_and_repeated_values(workload):
    # SizedValue universes over 64 values, and universes with repeated
    # proposals (several processes sharing one bit).
    scenario = Scenario(algorithm="floodset", n=70, f=4, adversary="random",
                        seed=5, workload=workload)
    _assert_records_identical(scenario)


def test_auto_mode_vectorizes_wide_floodset_and_command_crw():
    from repro.baselines.floodset import FloodSetConsensus
    from repro.core.crw import CRWConsensus

    n = 128
    flood = [FloodSetConsensus(pid, n, pid, t=n - 1) for pid in range(1, n + 1)]
    engine = ClassicSynchronousEngine(flood, t=n - 1, trace=False)
    assert engine._vtable is not None

    crw = [CRWConsensus(pid, 5, Command(pid, f"put k {pid}")) for pid in range(1, 6)]
    engine = ExtendedSynchronousEngine(crw, t=4, trace=False)
    assert engine._vtable is not None


# ---------------------------------------------------------------------------
# Engine-level runs over proposals no workload produces.
# ---------------------------------------------------------------------------


def _commands(n: int, seed: int) -> list[Command]:
    return [Command(pid, f"put k{pid} {seed}", (pid, seed)) for pid in range(1, n + 1)]


def _bools(n: int, seed: int) -> list[bool]:
    return [(pid + seed) % 3 == 0 for pid in range(1, n + 1)]


def _run_engine(algorithm, proposals, adversary, seed, *, batched, f=3):
    algo = ALGORITHMS.get(algorithm)
    n = len(proposals)
    t = n - 1
    rng = RandomSource(seed)
    schedule = ADVERSARIES.get(adversary).make_sync(f).schedule(
        n, t, rng.spawn("adversary")
    )
    procs = algo.factory(n, t, proposals, {})
    cls = (
        ExtendedSynchronousEngine if algo.backend == "extended"
        else ClassicSynchronousEngine
    )
    engine = cls(procs, schedule, t=t, rng=rng.spawn("engine"), trace=False,
                 batched=batched)
    return engine, engine.run()


def _ledgers(engine, result):
    return (
        list(engine.decisions.items()),
        list(engine.decision_rounds.items()),
        engine.crashed_rounds,
        result.rounds_executed,
        result.completed,
        result.stats,
        {pid: o.proposal for pid, o in result.outcomes.items()},
    )


@pytest.mark.parametrize("algorithm", CRW_FAMILY)
@pytest.mark.parametrize("adversary", ["coordinator-killer", "commit-splitter", "random"])
@pytest.mark.parametrize("make", [_commands, _bools], ids=["command", "bool"])
def test_crw_family_over_command_and_bool_proposals(algorithm, adversary, make):
    proposals = make(7, 3)
    vector, fast = _run_engine(algorithm, proposals, adversary, 3, batched=True)
    object_, ref = _run_engine(algorithm, proposals, adversary, 3, batched=False)
    assert vector._vtable is not None and object_._vtable is None
    assert _ledgers(vector, fast) == _ledgers(object_, ref)
    # Decisions mirrored onto the process objects in both modes.
    for pid, proc in vector.procs.items():
        assert proc.decided == object_.procs[pid].decided
        assert proc.decision == object_.procs[pid].decision


def _wide_ints(n: int, seed: int) -> list[int]:
    # Straddles both int64 bounds: 2**63 and -2**63 - 1 and beyond.
    edge = [1 << 63, -(1 << 63) - 1, (1 << 64) + seed, -(1 << 80)]
    return [edge[pid % 4] + pid for pid in range(n)]


@pytest.mark.parametrize("adversary", ["none", "staggered", "random-classic"])
@pytest.mark.parametrize("seed", [0, 3, 9])
def test_early_stopping_over_ints_beyond_int64(adversary, seed):
    proposals = _wide_ints(7, seed)
    auto, _ = _run_engine("early-stopping", proposals, adversary, seed, batched=None)
    assert auto._vtable is not None  # auto mode takes every plain int
    vector, fast = _run_engine("early-stopping", proposals, adversary, seed,
                               batched=True)
    object_, ref = _run_engine("early-stopping", proposals, adversary, seed,
                               batched=False)
    assert object_._vtable is None
    assert _ledgers(vector, fast) == _ledgers(object_, ref)
    assert all(type(d) is int for d in vector.decisions.values())


def test_leased_early_stopping_refills_beyond_int64():
    n = 7
    engine, _ = _run_engine("early-stopping", list(range(n)), "random-classic", 1,
                            batched=True)
    table = engine._vtable
    proposals = _wide_ints(n, 2)
    rng = RandomSource(2)
    schedule = ADVERSARIES.get("random-classic").make_sync(3).schedule(
        n, n - 1, rng.spawn("adversary")
    )
    assert engine.refill(proposals, schedule, rng=rng.spawn("engine"))
    assert engine._vtable is table  # refilled in place, not rebuilt
    refilled = engine.run()
    ref_engine, ref = _run_engine("early-stopping", proposals, "random-classic", 2,
                                  batched=False)
    assert _ledgers(engine, refilled) == _ledgers(ref_engine, ref)


@pytest.mark.parametrize(
    "odd_one", [True, SizedValue(2, bits=8)], ids=["bool", "sized"]
)
def test_leased_early_stopping_declines_non_int_refill(odd_one):
    # Refill is all-or-nothing: one non-int proposal leaves the columns
    # as they were, and the caller rebuilds through the object path.
    n = 7
    engine, _ = _run_engine("early-stopping", list(range(n)), "staggered", 1,
                            batched=True)
    table = engine._vtable
    est = list(table.est)
    proposals = [10 + pid for pid in range(n)]
    proposals[3] = odd_one
    assert not engine.refill(proposals)
    assert engine._vtable is table and table.est == est


@pytest.mark.parametrize("algorithm", CRW_FAMILY)
def test_leased_engine_refills_from_int_to_command(algorithm):
    n = 7
    engine, _ = _run_engine(algorithm, list(range(n)), "coordinator-killer", 1,
                            batched=None)
    table = engine._vtable
    assert table is not None
    commands = _commands(n, 4)
    rng = RandomSource(4)
    schedule = ADVERSARIES.get("coordinator-killer").make_sync(3).schedule(
        n, n - 1, rng.spawn("adversary")
    )
    assert engine.refill(commands, schedule, rng=rng.spawn("engine"))
    assert engine._vtable is table  # refilled in place, not rebuilt
    refilled = engine.run()
    fresh_engine, fresh = _run_engine(algorithm, commands, "coordinator-killer", 4,
                                      batched=False)
    assert _ledgers(engine, refilled) == _ledgers(fresh_engine, fresh)


def test_leased_floodset_refills_into_a_wider_universe():
    # One leased engine, refilled from a 6-value universe to a 70-value
    # one and back: every run must equal a fresh object-path run.
    n = 70
    engine, _ = _run_engine("floodset", list(range(n)), "random-classic", 0, batched=True)
    for seed, proposals in enumerate(
        ([pid % 6 for pid in range(n)], [1000 + pid for pid in range(n)],
         [pid % 6 for pid in range(n)]), start=1,
    ):
        rng = RandomSource(seed)
        schedule = ADVERSARIES.get("random-classic").make_sync(3).schedule(
            n, n - 1, rng.spawn("adversary")
        )
        assert engine.refill(proposals, schedule, rng=rng.spawn("engine"))
        got = engine.run()
        ref_engine, ref = _run_engine("floodset", proposals, "random-classic", seed,
                                      batched=False)
        assert _ledgers(engine, got) == _ledgers(ref_engine, ref), seed


def test_execute_lease_across_workloads():
    # The lease keys on the workload too, so an int and a sized cell of
    # one configuration each refill their own vector engine.
    lease = EngineLease()
    for workload in ("distinct-ints", "sized", "distinct-ints", "sized"):
        for seed in range(3):
            cell = Scenario(algorithm="crw", n=8, f=3, adversary="random",
                            seed=seed, workload=workload)
            assert (
                execute(cell, lease=lease).to_dict()
                == execute(cell, batched=False).to_dict()
            )
    assert len(lease) == 2
    assert all(e._vtable is not None for e in lease._engines.values())


# ---------------------------------------------------------------------------
# Round-level parity, detection, and the batched=True contract.
# ---------------------------------------------------------------------------


def test_round_outcomes_identical_between_modes():
    """Beyond the record: every round's decisions (key order included)
    and resolved crashes match, and decisions are mirrored onto the
    process objects."""
    def run(batched):
        rng = RandomSource(5)
        schedule = ADVERSARIES.get("coordinator-killer").make_sync(2).schedule(
            6, 5, rng.spawn("adversary")
        )
        procs = ALGORITHMS.get("crw").factory(6, 5, _commands(6, 5), {})
        engine = ExtendedSynchronousEngine(
            procs, schedule, t=5, rng=rng.spawn("engine"), trace=False,
            batched=batched,
        )
        outcomes = []
        while engine.active_pids:
            outcomes.append(engine.step())
        return engine, outcomes

    eng_v, vector = run(True)
    eng_o, reference = run(False)
    assert eng_v._vtable is not None and eng_o._vtable is None
    for fast, ref in zip(vector, reference, strict=True):
        assert fast.round_no == ref.round_no
        assert list(fast.new_decisions.items()) == list(ref.new_decisions.items())
        assert fast.resolved_crashes == ref.resolved_crashes
    for pid, proc in eng_v.procs.items():
        assert proc.decided == eng_o.procs[pid].decided
        assert proc.decision == eng_o.procs[pid].decision


@pytest.mark.parametrize("algorithm", VECTOR_ALGORITHMS)
def test_traced_runs_step_the_object_path(algorithm):
    """Tracing pins the object path in auto mode: traced auto ==
    traced reference, event for event."""
    scenario = Scenario(algorithm=algorithm, n=5, f=1, adversary="staggered", seed=3)
    auto = execute(scenario, trace=True)
    reference = execute(scenario, trace=True, batched=False)
    assert auto.to_dict() == reference.to_dict()
    assert auto.raw.trace.format() == reference.raw.trace.format()


def test_wrappers_and_mixed_tables_fall_back_to_objects():
    """Cross-model wrappers are not tables: detection must decline them."""
    from repro.baselines.floodset import FloodSetConsensus
    from repro.core.crw import CRWConsensus
    from repro.simulation.classic_on_extended import ClassicOnExtended

    inner = [FloodSetConsensus(pid, 3, pid, t=1) for pid in (1, 2, 3)]
    wrapped = [ClassicOnExtended(p) for p in inner]
    assert vector_table_for(wrapped) is None
    engine = ExtendedSynchronousEngine(wrapped, t=1, trace=False)
    assert engine._vtable is None

    # Mixed tables decline too, even when every class has a table.
    mixed = [CRWConsensus(1, 3, 1), CRWConsensus(2, 3, 2),
             FloodSetConsensus(3, 3, 3, t=1)]
    assert vector_table_for(mixed) is None


def test_batched_true_requires_a_vector_table():
    from repro.sync.api import NO_SEND, SyncProcess

    class Plain(SyncProcess):
        def send_phase(self, round_no):
            return NO_SEND

        def compute_phase(self, round_no, inbox):
            self.decide(0)

    procs = [Plain(pid, 3) for pid in (1, 2, 3)]
    assert vector_table_for(procs) is None
    with pytest.raises(ConfigurationError, match="vector table"):
        ExtendedSynchronousEngine(procs, t=2, trace=False, batched=True)
    # Auto mode simply steps the objects.
    engine = ExtendedSynchronousEngine(procs, t=2, trace=False)
    assert engine._vtable is None
    engine.run()
    assert engine.decisions == {1: 0, 2: 0, 3: 0}


@pytest.mark.parametrize("algorithm", VECTOR_ALGORITHMS)
def test_every_vector_table_refills(algorithm):
    """Every registered table takes a same-configuration refill (there
    is no capability flag: refill is part of the table protocol)."""
    algo = ALGORITHMS.get(algorithm)
    procs = algo.factory(6, 5, [1, 2, 3, 4, 5, 6], {})
    table = vector_table_for(procs)
    assert table is not None
    assert table.refill([6, 5, 4, 3, 2, 1]) is True
