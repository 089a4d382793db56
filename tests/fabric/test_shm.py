"""ScalarSlab: exact scalar round-trips through shared memory."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.fabric.shm import DEPTH, INT_COLUMNS, ScalarSlab
from repro.scenarios import RecordBatch, RunRecord, Scenario


def _record(i: int, sim_time: float | None) -> RunRecord:
    return RunRecord(
        scenario=Scenario(algorithm="crw", n=4, f=0, seed=i),
        backend="sync-extended",
        decisions={p: 1 for p in range(4)},
        decision_rounds={p: 1 for p in range(4)},
        crashed=[],
        f_actual=i % 3,
        rounds_executed=i + 1,
        last_decision_round=i,
        messages_sent=12 * i,
        bits_sent=96 * i,
        spec_ok=i % 2 == 0,
        violations=[],
        sim_time=sim_time,
    ).normalized()


@pytest.fixture
def slab():
    slab = ScalarSlab.create(capacity=8)
    yield slab
    slab.unlink()


class TestRoundTrip:
    def test_int_columns_and_bool_and_none_time(self, slab):
        records = [_record(i, None) for i in range(5)]
        batch = RecordBatch.from_records(records)
        slab.write(0, batch)
        out = slab.read(0, len(records))
        for name in INT_COLUMNS:
            assert out[name] == getattr(batch, name), name
        assert out["spec_ok"] == [True, False, True, False, True]
        assert all(isinstance(v, bool) for v in out["spec_ok"])
        assert out["sim_time"] == [None] * 5

    def test_float_sim_time_is_exact(self, slab):
        times = [0.0, 1.5, 3.141592653589793, 1e-300, 7.25]
        batch = RecordBatch.from_records(
            [_record(i, t) for i, t in enumerate(times)]
        )
        slab.write(1, batch)
        out = slab.read(1, len(times))
        assert out["sim_time"] == times  # float64 round-trip, no drift

    def test_slots_are_independent(self, slab):
        a = RecordBatch.from_records([_record(1, None)])
        b = RecordBatch.from_records([_record(9, 2.5)])
        slab.write(0, a)
        slab.write(1, b)
        assert slab.read(0, 1)["rounds_executed"] == [2]
        assert slab.read(1, 1)["rounds_executed"] == [10]
        assert slab.read(1, 1)["sim_time"] == [2.5]

    def test_attach_sees_owner_writes(self, slab):
        batch = RecordBatch.from_records([_record(i, None) for i in range(3)])
        slab.write(0, batch)
        other = ScalarSlab.attach(slab.name, capacity=8)
        try:
            assert other.read(0, 3)["messages_sent"] == batch.messages_sent
        finally:
            other.close()

    def test_full_slot_round_trips_through_a_second_mapping(self, slab):
        # Every slot filled to capacity, mixed None/float times: the
        # column runs must not overlap, and an attached mapping must
        # decode builtin ints/bools/floats identical to the batch.
        times = [None, 1.5, None, 2.25, 0.0, None, 1e-300, 7.0]
        batches = [
            RecordBatch.from_records(
                [_record(10 * slot + i, t) for i, t in enumerate(times)]
            )
            for slot in range(DEPTH)
        ]
        for slot, batch in enumerate(batches):
            slab.write(slot, batch)
        other = ScalarSlab.attach(slab.name, capacity=8)
        try:
            for slot, batch in enumerate(batches):
                out = other.read(slot, slab.capacity)
                for name in INT_COLUMNS:
                    assert out[name] == getattr(batch, name), (slot, name)
                assert out["sim_time"] == times
                assert all(type(v) is int for name in INT_COLUMNS[:-1]
                           for v in out[name])
                assert all(type(v) is bool for v in out["spec_ok"])
        finally:
            other.close()

    def test_shorter_rewrite_reads_only_fresh_cells(self, slab):
        # Column runs are sized by capacity, not by the batch: a shorter
        # batch in a reused slot must land at the head of every column.
        slab.write(0, RecordBatch.from_records([_record(i, 1.0) for i in range(8)]))
        fresh = RecordBatch.from_records([_record(20 + i, None) for i in range(3)])
        slab.write(0, fresh)
        out = slab.read(0, 3)
        for name in INT_COLUMNS:
            assert out[name] == getattr(fresh, name), name
        assert out["sim_time"] == [None] * 3

    def test_int64_extremes_are_exact(self, slab):
        big = (1 << 63) - 1
        record = replace(_record(1, None), messages_sent=big, bits_sent=big - 1)
        slab.write(1, RecordBatch.from_records([record]))
        out = slab.read(1, 1)
        assert (out["messages_sent"], out["bits_sent"]) == ([big], [big - 1])

    def test_overflow_rejected(self, slab):
        batch = RecordBatch.from_records([_record(i, None) for i in range(9)])
        with pytest.raises(ValueError, match="capacity"):
            slab.write(0, batch)


def test_depth_is_at_least_two_for_pipelining():
    assert DEPTH >= 2
