"""RecordBatch / CellDelta: the columnar record currency of the sweep layer."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    RecordBatch,
    RunRecord,
    Scenario,
    apply_scenario_delta,
    execute,
    jsonable,
    scenario_delta,
    scenario_key,
)
from repro.scenarios.record import (
    append_batch,
    heal_torn_tail,
    iter_shard_records,
    load_shard_index,
)


def _records(n_cells=6):
    base = Scenario(algorithm="crw", n=5, f=2, adversary="coordinator-killer")
    return [execute(base.with_(seed=seed)).normalized() for seed in range(n_cells)]


class TestCellDelta:
    def test_delta_contains_only_differing_fields(self):
        base = Scenario(algorithm="crw", n=8, f=1, adversary="coordinator-killer")
        cell = base.with_(seed=7)
        assert scenario_delta(base, cell) == {"seed": 7}
        assert scenario_delta(base, base) == {}

    def test_delta_roundtrip_every_field_kind(self):
        base = Scenario(algorithm="crw", n=8)
        cell = Scenario(
            algorithm="truncated-crw", n=6, t=5, f=2,
            adversary="staggered", workload="sized",
            workload_params={"bits": 32}, params={"k": 3}, seed=9,
            max_rounds=12,
        )
        delta = scenario_delta(base, cell)
        assert apply_scenario_delta(base, delta) == cell

    def test_none_base_is_the_full_dict(self):
        cell = Scenario(algorithm="crw", n=4, seed=3)
        assert scenario_delta(None, cell) == cell.to_dict()
        assert apply_scenario_delta(None, cell.to_dict()) == cell

    def test_delta_snapshots_dict_fields(self):
        base = Scenario(algorithm="crw", n=4)
        cell = base.with_(workload_params={"bits": 8})
        delta = scenario_delta(base, cell)
        delta["workload_params"]["bits"] = 999  # mutating the wire form...
        assert cell.workload_params == {"bits": 8}  # ...never leaks back

    def test_unknown_delta_keys_rejected(self):
        base = Scenario(algorithm="crw", n=4)
        with pytest.raises(ConfigurationError, match="unknown scenario keys"):
            apply_scenario_delta(base, {"from_the_future": 1})

    def test_delta_respects_concrete_types(self):
        # 1 == 1.0 == True in Python, but the spellings serialize (and
        # resume-key) differently: the delta must carry the cell's form
        # instead of eliding the field and inheriting the base's.
        base = Scenario(algorithm="mr99", n=4, timing={"delay": "constant",
                                                       "value": 1.0})
        cell = base.with_(timing={"delay": "constant", "value": 1})
        delta = scenario_delta(base, cell)
        rebuilt = apply_scenario_delta(base, delta)
        assert rebuilt.to_json() == cell.to_json()
        assert type(rebuilt.timing["value"]) is int
        tup = base.with_(params={"marker": (1, 2)})
        lst = base.with_(params={"marker": [1, 2]})
        assert "params" in scenario_delta(tup, lst)


class TestNormalized:
    def test_equals_dict_roundtrip(self):
        record = execute(Scenario(algorithm="crw", n=6, f=2,
                                  adversary="coordinator-killer", seed=4))
        norm = record.normalized()
        assert norm == RunRecord.from_dict(record.to_dict())
        assert norm.raw is None and record.raw is not None

    def test_sized_payloads_encode(self):
        record = execute(Scenario(algorithm="crw", n=4, workload="sized",
                                  workload_params={"bits": 64}))
        norm = record.normalized()
        assert all(v == {"$sized": [101, 64]} for v in norm.decisions.values())

    def test_idempotent(self):
        record = execute(Scenario(algorithm="crw", n=4, f=1,
                                  adversary="coordinator-killer"))
        norm = record.normalized()
        assert norm.normalized() == norm
        assert norm.to_dict() == record.to_dict()


class TestRecordBatch:
    def test_roundtrip_records(self):
        records = _records()
        batch = RecordBatch.from_records(records)
        assert len(batch) == len(records)
        assert batch.to_records() == records

    def test_records_round_trip_through_dicts(self):
        records = _records()
        decoded = RecordBatch.from_records(records).to_records()
        assert [RunRecord.from_dict(r.to_dict()) for r in decoded] == records

    def test_payload_roundtrip_wire_and_json(self):
        records = _records()
        batch = RecordBatch.from_records(records)
        payload = batch.to_payload()
        # Wire form (pickle-like: int pid keys survive).
        assert RecordBatch.from_payload(payload).to_records() == records
        # JSON form (pid keys become strings and come back as ints).
        decoded = json.loads(json.dumps(payload, sort_keys=True))
        assert RecordBatch.from_payload(decoded).to_records() == records

    def test_payload_stores_deltas_not_full_scenarios(self):
        records = _records()
        payload = RecordBatch.from_records(records).to_payload()
        assert payload["cells"][0] == {}  # the base cell itself
        assert all(set(cell) <= {"seed"} for cell in payload["cells"])

    def test_mixed_configuration_batch(self):
        cells = [
            Scenario(algorithm="crw", n=4, f=1, adversary="coordinator-killer"),
            Scenario(algorithm="early-stopping", n=5, f=0, adversary="none"),
            Scenario(algorithm="mr99", n=5, f=1, adversary="coordinator-killer"),
        ]
        records = [execute(c).normalized() for c in cells]
        payload = RecordBatch.from_records(records).to_payload()
        rebuilt = RecordBatch.from_payload(
            json.loads(json.dumps(payload))
        ).to_records()
        assert rebuilt == records

    def test_empty_batch(self):
        batch = RecordBatch()
        assert len(batch) == 0 and batch.to_records() == []
        assert RecordBatch.from_payload(batch.to_payload()).to_records() == []


class TestJsonableBottom:
    def test_bot_sentinels_encode_by_protocol(self):
        from repro.asyncsim.mr99 import BOT
        from repro.baselines.interactive_consistency import BOTTOM

        assert jsonable(BOT) == {"$bot": True}
        assert jsonable(BOTTOM) == {"$bot": True}

    def test_user_payload_with_bottom_repr_is_not_swallowed(self):
        class LooksLikeBot:
            def __repr__(self):
                return "⊥"

        assert jsonable(LooksLikeBot()) == {"$repr": "⊥"}

    def test_bottom_inside_containers(self):
        from repro.asyncsim.mr99 import BOT

        assert jsonable([1, BOT]) == [1, {"$bot": True}]
        assert jsonable((BOT,)) == [{"$bot": True}]


class TestRecordFile:
    """The one reader and writer of ``{"batch": …}`` record files."""

    def _write(self, path, records, chunk=3):
        with open(path, "a", encoding="utf-8") as fh:
            for i in range(0, len(records), chunk):
                append_batch(fh, records[i:i + chunk])

    def test_round_trip_and_canonical_keys(self, tmp_path):
        records = _records()
        path = tmp_path / "records.jsonl"
        self._write(path, records)
        assert len(path.read_text().splitlines()) == 2
        assert list(iter_shard_records(str(path))) == records
        index = load_shard_index(str(path))
        assert index == {scenario_key(r.scenario): r for r in records}

    def test_undecodable_lines_are_skipped(self, tmp_path):
        records = _records()
        good = RecordBatch.from_records(records[:2]).to_payload()
        damaged = json.loads(json.dumps(good))
        damaged["decisions"][0] = [1, 2]  # valid JSON, list-valued column
        overflow = json.loads(json.dumps(good))
        overflow["decision_rounds"][0] = {"1": float("inf")}  # int(inf) overflows
        unkeyable = json.loads(json.dumps(good))
        unkeyable["cells"] = [[], []]  # decodes (empty delta) but no dict
        path = tmp_path / "mixed.jsonl"
        with open(path, "wb") as fh:
            for entry in (
                {"record": records[0].to_dict()},  # pre-columnar layout
                [1, 2, 3],
                {"batch": damaged},
                {"batch": overflow},
                {"batch": unkeyable},
                {"batch": "not a payload"},
            ):
                fh.write(json.dumps(entry).encode() + b"\n")
            fh.write(b"\xff\xfe not utf-8\n\n")
            fh.write(json.dumps({"batch": good}).encode() + b"\n")
            fh.write(b'{"batch": {"base"')  # torn tail
        assert list(iter_shard_records(str(path))) == records[:2]
        assert set(load_shard_index(str(path))) == {
            scenario_key(r.scenario) for r in records[:2]
        }

    def test_missing_file_reads_empty(self, tmp_path):
        path = str(tmp_path / "absent.jsonl")
        assert list(iter_shard_records(path)) == []
        assert load_shard_index(path) == {}
        heal_torn_tail(path)
        assert not (tmp_path / "absent.jsonl").exists()

    def test_heal_torn_tail_quarantines_the_fragment(self, tmp_path):
        records = _records()
        path = tmp_path / "torn.jsonl"
        self._write(path, records[:3])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"batch": {"ba')
        heal_torn_tail(str(path))
        heal_torn_tail(str(path))  # idempotent: one newline only
        self._write(path, records[3:])
        assert path.read_text().count("\n") == 3
        assert list(iter_shard_records(str(path))) == records
