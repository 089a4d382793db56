"""Vector-stepping parity: vector tables must match object runs.

The vector stepping protocol (``repro.sync.api.VectorAlgorithm``)
replaces the per-process send/compute calls with column-wise operations
over table state.  The engine auto-detects a registered vector table
whenever tracing is off, so this grid is the contract: for every
algorithm that registered one, a vector run must be **byte-identical**
to the per-process reference — the normalized RunRecord and every
MessageStats counter — across adversaries, seeds, and engine reuse
(fresh / leased / refilled).
"""

from __future__ import annotations

import warnings

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import ADVERSARIES, ALGORITHMS, EngineLease, Scenario, execute
from repro.sync.api import vector_table_for


def _has_vtable(name: str) -> bool:
    algo = ALGORITHMS.get(name)
    if algo.backend not in ("extended", "classic") or algo.factory is None:
        return False
    procs = algo.factory(3, 2, [1, 2, 3], {})
    return vector_table_for(procs) is not None


VECTOR_ALGORITHMS = sorted(
    name for name in ALGORITHMS.names() if _has_vtable(name)
)

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


def test_hot_algorithms_are_vectorized():
    """The algorithms the issue names must actually carry vector tables."""
    for name in ("crw", "eager-crw", "truncated-crw", "increasing-commit-crw",
                 "full-broadcast-crw", "floodset", "early-stopping"):
        assert name in VECTOR_ALGORITHMS, f"{name} lost its vector table"


@pytest.mark.parametrize("algorithm,adversary", list(_cells()))
@pytest.mark.parametrize("seed", [0, 1, 2, 7, 13])
def test_records_and_stats_identical(algorithm, adversary, seed):
    scenario = Scenario(
        algorithm=algorithm, n=6, f=2, adversary=adversary, seed=seed,
    )
    vector = execute(scenario, batched=True)
    reference = execute(scenario, batched=False)

    # The normalized record agrees field for field (to_dict drops `raw`).
    assert vector.to_dict() == reference.to_dict()

    # And the raw per-kind counters agree individually — messages_sent /
    # bits_sent alone could mask compensating errors between kinds or
    # between the sent and delivered sides.
    assert vector.raw.stats == reference.raw.stats


@pytest.mark.parametrize("algorithm", VECTOR_ALGORITHMS)
def test_auto_mode_engages_the_vector_table(algorithm):
    """``batched=None`` with tracing off must pick the vector path —
    and still produce the reference bytes."""
    from repro.sync.engine import ClassicSynchronousEngine
    from repro.sync.extended import ExtendedSynchronousEngine

    scenario = Scenario(algorithm=algorithm, n=5, f=1, adversary="staggered", seed=3)
    auto = execute(scenario)
    explicit = execute(scenario, batched=True)
    reference = execute(scenario, batched=False)
    assert auto.to_dict() == explicit.to_dict() == reference.to_dict()

    # The auto-detected engine really holds a vector table, on both
    # engine classes.
    algo = ALGORITHMS.get(algorithm)
    procs = algo.factory(5, 4, [1, 2, 3, 4, 5], {})
    cls = (
        ExtendedSynchronousEngine if algo.backend == "extended"
        else ClassicSynchronousEngine
    )
    engine = cls(procs, t=4, trace=False)
    assert engine._vtable is not None


class TestLeasedAndRefilled:
    """Engine reuse: a leased (refilled/reset) vector engine stays exact."""

    @pytest.mark.parametrize("algorithm", VECTOR_ALGORITHMS)
    def test_leased_runs_identical(self, algorithm):
        scenario = Scenario(
            algorithm=algorithm, n=9, f=3, adversary="staggered",
        )
        lease = EngineLease()
        for seed in range(8):
            cell = scenario.with_(seed=seed)
            fresh = execute(cell)
            leased = execute(cell, lease=lease)
            assert fresh.to_dict() == leased.to_dict(), (algorithm, seed)
        # One configuration -> one cached engine, and it runs vectorized.
        assert len(lease) == 1
        (engine,) = lease._engines.values()
        assert getattr(engine, "_vtable", None) is not None

    def test_vector_and_other_modes_key_separately(self):
        scenario = Scenario(algorithm="crw", n=5, f=1, adversary="coordinator-killer")
        lease = EngineLease()
        a = execute(scenario, lease=lease, batched=None)
        b = execute(scenario, lease=lease, batched=True)
        c = execute(scenario, lease=lease, batched=False)
        assert a.to_dict() == b.to_dict() == c.to_dict()
        assert len(lease) == 3  # distinct keys: the flags shape the engine


class TestModeSelection:
    def test_vector_mode_requires_tracing_off(self):
        scenario = Scenario(algorithm="crw", n=4, f=1, adversary="none", seed=0)
        with pytest.raises(ConfigurationError, match="tracing"):
            execute(scenario, trace=True, batched=True)

    def test_batched_true_takes_the_async_fast_path(self):
        # The flag means "require the fast path" on every backend: mr99
        # steps its asynchronous columnar table.
        scenario = Scenario(algorithm="mr99", n=4, f=1, adversary="none", seed=0)
        assert (
            execute(scenario, batched=True).to_dict()
            == execute(scenario, batched=False).to_dict()
        )

    def test_non_int_crw_payloads_vectorize(self):
        """SizedValue, bool and service-command proposals all vectorize:
        the CRW tables keep ``est`` in a plain list."""
        from repro.core.crw import CRWConsensus
        from repro.net.payload import SizedValue
        from repro.rsm.machine import Command

        for values in (
            [SizedValue(pid, bits=128) for pid in range(1, 5)],
            [pid == 1 for pid in range(1, 5)],
            [Command(pid, f"put k {pid}") for pid in range(1, 5)],
        ):
            procs = [CRWConsensus(pid, 4, v) for pid, v in enumerate(values, 1)]
            assert vector_table_for(procs) is not None

    def test_wide_floodset_universe_vectorizes(self):
        from repro.baselines.floodset import FloodSetConsensus

        n = 66  # 66 distinct values: more than one 64-bit word
        procs = [FloodSetConsensus(pid, n, pid, t=1) for pid in range(1, n + 1)]
        assert vector_table_for(procs) is not None


def test_sharded_sweep_runs_vectorized_cells(tmp_path):
    """End to end: a sharded sweep (vector mode auto-engaged in every
    worker) produces the same records as serial per-object execution."""
    from repro.scenarios import SweepRunner, expand_grid

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cells = expand_grid(
            ["crw", "floodset"], [5],
            adversaries=("coordinator-killer",), seeds=4,
        )
    sharded = SweepRunner(
        cells, executor="sharded", jsonl_path=str(tmp_path / "shards"),
        shards=3, chunk_size=2, processes=2,
    ).run()
    reference = [execute(cell, batched=False) for cell in cells]
    assert [r.to_dict() for r in sharded] == [r.to_dict() for r in reference]
