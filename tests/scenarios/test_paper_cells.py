"""The paper's round and bit tables, checked on execute() and the registry.

Single runs go through :func:`repro.scenarios.execute`; seed aggregates
through :func:`repro.scenarios.summarize_records`; closed-form round
bounds come from the algorithm registry.
"""

from __future__ import annotations

import pytest

from repro.scenarios import ALGORITHMS, Scenario, execute, summarize_records
from repro.workloads.crashes import CrashGrid

PAPER_ALGORITHMS = ("crw", "early-stopping", "floodset")


def grid_cells(algorithm: str, grid: CrashGrid, **fields) -> list[Scenario]:
    """One scenario per (n, t, f, adversary, seed) cell of ``grid``."""
    return [
        Scenario(algorithm=algorithm, n=n, t=t, f=f, adversary=adversary,
                 seed=seed, **fields)
        for n, t, f, adversary, seed in grid
    ]


def seed_cell(algorithm: str, n: int, t: int, f: int, adversary: str, seeds: int):
    (row,) = summarize_records(
        execute(Scenario(algorithm=algorithm, n=n, t=t, f=f,
                         adversary=adversary, seed=seed))
        for seed in range(seeds)
    )
    return row


class TestSingleRuns:
    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    def test_failure_free(self, algorithm):
        record = execute(Scenario(algorithm=algorithm, n=5, t=4))
        assert record.raw.completed
        assert len(record.decisions) == 5

    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    def test_with_random_crashes(self, algorithm):
        # "random" is auto-mapped to the classic variant for classic models.
        record = execute(Scenario(algorithm=algorithm, n=6, t=5, f=2,
                                  adversary="random", seed=3))
        assert record.raw.completed

    def test_round_bounds_encode_paper_table(self):
        assert ALGORITHMS.get("crw").round_bound(2, 5) == 3
        assert ALGORITHMS.get("floodset").round_bound(2, 5) == 6
        assert ALGORITHMS.get("early-stopping").round_bound(2, 5) == 4
        # min(f+2, t+1)
        assert ALGORITHMS.get("early-stopping").round_bound(5, 5) == 6

    def test_sized_workload_sets_value_bits(self):
        record = execute(Scenario(algorithm="crw", n=4, t=3, workload="sized",
                                  workload_params={"bits": 128}))
        # Single round: 3 data * 128 bits + 3 commits * 1 bit.
        assert record.bits_sent == 3 * 128 + 3

    def test_trace_flag(self):
        record = execute(Scenario(algorithm="crw", n=4, t=3), trace=True)
        assert len(record.raw.trace) > 0

    def test_sync_raw_is_run_result(self):
        from repro.sync.result import RunResult

        assert isinstance(execute(Scenario(algorithm="crw", n=4)).raw, RunResult)


class TestSeedAggregates:
    def test_crw_cascade_hits_the_bound(self):
        row = seed_cell("crw", 6, 5, 2, "coordinator-killer", seeds=5)
        assert row.spec_ok
        assert row.max_last_round == 3 == ALGORITHMS.get("crw").round_bound(2, 5)
        assert row.mean_last_round == 3.0

    def test_floodset_constant_rounds(self):
        row = seed_cell("floodset", 5, 2, 1, "random", seeds=5)
        assert row.spec_ok
        assert row.max_last_round == 3  # always t+1


class TestCrashGridCells:
    def test_cells_aggregated(self):
        grid = CrashGrid(n_values=(4,), adversaries=("none", "coordinator-killer"), seeds=3)
        rows = summarize_records(execute(s) for s in grid_cells("crw", grid))
        # none -> f=0 only; coordinator-killer -> f in 0..3.
        assert len(rows) == 1 + 4
        assert all(row.seeds == 3 for row in rows)
        assert all(row.spec_ok for row in rows)

    def test_bounds_hold_across_grid(self):
        grid = CrashGrid(n_values=(4, 6), adversaries=("coordinator-killer",), seeds=2)
        bound = ALGORITHMS.get("crw").round_bound
        for row in summarize_records(execute(s) for s in grid_cells("crw", grid)):
            assert row.max_last_round <= bound(row.f, row.t)

    def test_classic_algorithm_with_random_adversary(self):
        grid = CrashGrid(n_values=(4,), adversaries=("random",), seeds=2, t_rule="third")
        rows = summarize_records(
            execute(s) for s in grid_cells("early-stopping", grid)
        )
        assert rows and all(row.spec_ok for row in rows)

    def test_sized_workload_across_grid(self):
        grid = CrashGrid(n_values=(4,), adversaries=("none",), seeds=1)
        cells = grid_cells("crw", grid, workload="sized",
                           workload_params={"bits": 256})
        (row,) = summarize_records(execute(s) for s in cells)
        assert row.mean_bits == 3 * 257  # (n-1)(|v|+1)
