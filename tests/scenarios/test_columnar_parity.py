"""Byte-identical records across every data path.

The columnar pipeline must be invisible in the results.  One grid of
scenarios spanning three backends (extended, classic, async) × crashing
adversaries × seeds is executed through each alternative, and the
records must match dict for dict:

* columnar JSONL persistence, and resume from per-cell ``{"record": …}``
  lines written by older versions (alone and mixed with batch lines);
* the serial and the sharded executor;
* fresh vs **refilled** engines (the lease path that skips the
  n-object process factory entirely).
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.scenarios import (
    EngineLease,
    Scenario,
    SweepRunner,
    execute,
    expand_grid,
)


def parity_grid():
    """3 backends x 2 adversaries x 3 seeds (plus per-backend f spread)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return expand_grid(
            ["crw", "early-stopping", "mr99"],
            [5, 8],
            f_values=[0, 2],
            adversaries=("coordinator-killer", "random"),
            seeds=3,
        )


@pytest.fixture(scope="module")
def grid():
    return parity_grid()


@pytest.fixture(scope="module")
def reference(grid):
    """Unleased, unpersisted serial records — the ground truth."""
    return [execute(cell, trace=False).to_dict() for cell in grid]


def legacy_lines(rows) -> str:
    """``{"record": row}`` lines, the per-cell layout older versions wrote."""
    return "".join(json.dumps({"record": row}, sort_keys=True) + "\n" for row in rows)


class TestJsonlParity:
    def test_columnar_file_matches_reference(self, grid, reference, tmp_path):
        records = SweepRunner(grid, jsonl_path=tmp_path / "sweep.jsonl").run()
        assert [r.to_dict() for r in records] == reference

    def test_legacy_file_resumes_with_zero_executed(self, grid, reference, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text(legacy_lines(reference))
        runner = SweepRunner(grid, jsonl_path=path)
        records = runner.run()
        assert runner.executed == 0 and runner.resumed == len(grid)
        assert [r.to_dict() for r in records] == reference

    def test_legacy_then_columnar_resume(self, grid, reference, tmp_path):
        # First half persisted as legacy record lines, the rest appended
        # as batch lines by a rerun: resume must stitch both layouts.
        half = len(grid) // 2
        path = tmp_path / "mixed.jsonl"
        path.write_text(legacy_lines(reference[:half]))
        runner = SweepRunner(grid, jsonl_path=path)
        records = runner.run()
        assert runner.resumed == half
        assert runner.executed == len(grid) - half
        assert [r.to_dict() for r in records] == reference
        lines = path.read_text().splitlines()
        assert all('"record"' in line for line in lines[:half])
        assert all('"batch"' in line for line in lines[half:])

        rerun = SweepRunner(grid, jsonl_path=path)
        assert [r.to_dict() for r in rerun.run()] == reference
        assert rerun.executed == 0 and rerun.resumed == len(grid)

    def test_columnar_file_resumes_with_zero_executed(self, grid, tmp_path):
        path = tmp_path / "full.jsonl"
        SweepRunner(grid, jsonl_path=path).run()
        rerun = SweepRunner(grid, jsonl_path=path)
        rerun.run()
        assert rerun.executed == 0 and rerun.resumed == len(grid)


class TestRefillParity:
    def test_leased_refill_matches_fresh_across_grid(self, grid, reference):
        lease = EngineLease()
        leased = [execute(cell, trace=False, lease=lease).to_dict() for cell in grid]
        assert leased == reference

    def test_sync_refill_skips_the_factory(self):
        # Same configuration, many seeds: after the first cell the lease
        # must reuse both the engine *and* its process objects (the
        # factory never runs again) while records stay byte-identical.
        base = Scenario(algorithm="crw", n=8, f=3, adversary="coordinator-killer")
        lease = EngineLease()
        execute(base, lease=lease)
        key = EngineLease.key_for(base, False, None)
        engine = lease.get(key)
        proc_ids = {pid: id(p) for pid, p in engine.procs.items()}
        for seed in range(1, 15):
            cell = base.with_(seed=seed)
            leased = execute(cell, lease=lease)
            assert leased.to_dict() == execute(cell).to_dict(), seed
        engine_after = lease.get(key)
        assert engine_after is engine
        assert {pid: id(p) for pid, p in engine_after.procs.items()} == proc_ids

    def test_async_refill_skips_the_factory(self):
        base = Scenario(
            algorithm="chandra-toueg", n=7, f=2, adversary="staggered",
            timing={"delay": "uniform", "lo": 0.2, "hi": 1.2},
        )
        lease = EngineLease()
        execute(base, lease=lease)
        key = EngineLease.key_for(base, False, None)
        runner = lease.get(key)
        proc_ids = {pid: id(p) for pid, p in runner.procs.items()}
        for seed in range(1, 12):
            cell = base.with_(seed=seed)
            leased = execute(cell, lease=lease)
            assert leased.to_dict() == execute(cell).to_dict(), seed
        runner_after = lease.get(key)
        assert runner_after is runner
        assert {pid: id(p) for pid, p in runner_after.procs.items()} == proc_ids

    def test_refill_declined_falls_back_to_reset(self):
        # interactive-consistency has no vector table: the lease must
        # keep working through the factory + reset path.
        base = Scenario(algorithm="interactive-consistency", n=5, f=1,
                        adversary="coordinator-killer")
        lease = EngineLease()
        for seed in range(4):
            cell = base.with_(seed=seed)
            assert execute(cell, lease=lease).to_dict() == execute(cell).to_dict()

    def test_engine_refill_rejects_wrong_arity(self):
        from repro.errors import ConfigurationError

        base = Scenario(algorithm="crw", n=6, f=1, adversary="coordinator-killer")
        lease = EngineLease()
        execute(base, lease=lease)
        engine = lease.get(EngineLease.key_for(base, False, None))
        with pytest.raises(ConfigurationError, match="proposals"):
            engine.refill([1, 2, 3])

    def test_registered_vector_tables_refill(self):
        # Every vector table refills (refill is part of the protocol, not
        # an advertised capability); a class without a table has none.
        from repro.baselines.floodset import FloodSetConsensus
        from repro.core.crw import CRWConsensus
        from repro.core.variants import SilentProcess
        from repro.sync.api import vector_table_for

        crw = vector_table_for([CRWConsensus(pid, 3, pid) for pid in (1, 2, 3)])
        assert crw.refill([3, 2, 1])
        flood = vector_table_for(
            [FloodSetConsensus(pid, 3, pid, t=1) for pid in (1, 2, 3)]
        )
        assert flood.refill([3, 2, 1])
        assert vector_table_for([SilentProcess(pid, 3, pid) for pid in (1, 2, 3)]) is None

    def test_every_registered_sync_table_refill_matches_from_processes(self):
        # Table-level parity: for each refillable sync algorithm, refill
        # on a used table must reproduce a freshly built table's run.
        for algorithm in ("crw", "eager-crw", "truncated-crw",
                          "increasing-commit-crw", "full-broadcast-crw",
                          "floodset", "early-stopping"):
            base = Scenario(algorithm=algorithm, n=6, f=2,
                            adversary="coordinator-killer")
            lease = EngineLease()
            for seed in (0, 1, 2):
                cell = base.with_(seed=seed)
                assert (
                    execute(cell, lease=lease).to_dict() == execute(cell).to_dict()
                ), (algorithm, seed)


class TestShardedAndSerialAgree:
    def test_default_paths_end_to_end(self, grid, reference, tmp_path):
        # The sharded pipeline (delta cells + slab scalars + per-shard
        # batch files) against the ground truth, with persistence on.
        runner = SweepRunner(
            grid, executor="sharded", processes=2,
            jsonl_path=tmp_path / "shards",
        )
        records = runner.run()
        assert [r.to_dict() for r in records] == reference
