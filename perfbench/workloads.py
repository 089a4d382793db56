"""The three workloads: set-up, one repetition, and its correctness checks.

Each workload object is built from the generated inputs only
(:mod:`inputs`).  :meth:`prepare` is the set-up a command-line user pays
on every run — imports, input generation, runner or service
construction — and :meth:`rep` runs one full repetition of the
workload's measured phase, checks its outputs and returns its figures.
Repetitions of one workload are identical (same inputs), so any
difference between their outputs is a repeatability failure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
import time

import inputs
from spans import percentile

# Layer entry points the traced run wraps are called through their
# modules (``sweep_module.expand_grid``, ``atlas_module.build_atlas``), so
# the wrappers see the calls.
from repro.fabric import atlas as atlas_module
from repro.fabric.faults import ServiceFaultPlan
from repro.scenarios import SweepRunner, resolved_t, summarize_records
from repro.scenarios import sweep as sweep_module
from repro.service import ConsensusService
from repro.service.traffic import Workload

__all__ = ["SweepSync", "SweepFabric", "ServiceStorm", "StormTraffic", "WORKLOADS"]

_SYNC_BACKENDS = ("extended", "classic")


@dataclasses.dataclass
class Rep:
    """One repetition's outcome."""

    attempted: int
    failed: int
    problems: list[str]
    #: Fingerprint of every output the repetition produced.
    digest: str
    #: End-to-end figures (throughputs, latencies, counts).
    figures: dict[str, float]
    #: Per-layer figures that come from outputs rather than spans.
    counts: dict[str, float]


def _fingerprint(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def round_bound(record) -> int | None:
    """The paper's decision-round bound for a synchronous record.

    crw decides by round f + 1 (f the crashes that happened); early
    stopping by min(f + 2, t + 1); FloodSet by t + 1.
    """
    algorithm = record.scenario.algorithm
    f = record.f_actual
    t = resolved_t(record.scenario)
    if algorithm == "crw":
        return f + 1
    if algorithm == "early-stopping":
        return min(f + 2, t + 1)
    if algorithm == "floodset":
        return t + 1
    return None


def check_cells(cells, records) -> tuple[int, list[str]]:
    """Failed cells (spec, quarantine, round bound) and what failed."""
    problems = []
    failed = 0
    if len(records) != len(cells):
        return len(cells), [f"{len(records)} records for {len(cells)} cells"]
    for index, record in enumerate(records):
        if record is None:
            failed += 1
            problems.append(f"cell {index} quarantined")
            continue
        bound = round_bound(record)
        if not record.spec_ok:
            failed += 1
            problems.append(f"cell {index} violates the spec: {record.violations}")
        elif bound is not None and record.last_decision_round > bound:
            failed += 1
            problems.append(
                f"cell {index} ({record.scenario.algorithm}, f={record.f_actual}) "
                f"decided in round {record.last_decision_round} > bound {bound}"
            )
    return failed, problems


def _record_counts(records) -> dict[str, float]:
    sync = [r for r in records if r is not None and r.backend in _SYNC_BACKENDS]
    if not sync:
        return {"sync.msgs_per_cell": 0.0, "sync.bits_per_cell": 0.0}
    return {
        "sync.msgs_per_cell": sum(r.messages_sent for r in sync) / len(sync),
        "sync.bits_per_cell": sum(r.bits_sent for r in sync) / len(sync),
    }


def _record_rows(records) -> list[tuple]:
    return [
        None if r is None else (
            r.last_decision_round, r.rounds_executed, r.f_actual,
            r.messages_sent, r.bits_sent, r.spec_ok, r.sim_time,
            sorted(r.decisions.items()),
        )
        for r in records
    ]


class _Sweep:
    """Shared grid handling of the two sweep workloads."""

    name = ""
    unit = "cells"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.spec = self.grid(seed)

    def cells(self) -> list:
        """Expand the generated grid and give it the generated seeds."""
        spec = self.spec
        base = spec["seed_base"]
        out = []
        for family in spec["families"]:
            for n, f_values in family["rows"]:
                grid = sweep_module.expand_grid(
                    [family["algorithm"]], [n], f_values=f_values,
                    adversaries=family["adversaries"], seeds=family["seeds"],
                )
                out.extend(cell.with_(seed=base + cell.seed) for cell in grid)
        return out

    def cell_ids(self) -> dict:
        return {
            (c.algorithm, c.n, c.f, c.adversary, c.seed): i
            for i, c in enumerate(self.cells())
        }

    def prepare(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.runner(self.cells(), os.path.join(self.workdir, "probe"))


class SweepSync(_Sweep):
    """The paper's round-complexity grid, serial, JSONL persistence."""

    name = "sweep-sync"
    grid = staticmethod(inputs.sync_grid)

    @staticmethod
    def runner(cells, path):
        return SweepRunner(cells, executor="serial", jsonl_path=path)

    def rep(self, index: int) -> Rep:
        cells = self.cells()
        path = os.path.join(self.workdir, f"rep{index}.jsonl")
        started = time.perf_counter()
        runner = self.runner(cells, path)
        records = runner.run()
        ran = time.perf_counter()
        resume = self.runner(cells, path)
        reread = resume.run()
        summaries = summarize_records(reread)
        done = time.perf_counter()
        failed, problems = check_cells(cells, records)
        if resume.executed != 0:
            problems.append(f"resume pass re-executed {resume.executed} cells")
        if summaries != summarize_records(records):
            problems.append("summaries of the reread records differ from the fresh run")
        if problems and not failed:
            failed = len(cells)
        os.remove(path)
        return Rep(
            attempted=len(cells),
            failed=failed,
            problems=problems,
            digest=_fingerprint(_record_rows(records)),
            figures={
                "cells_per_s": len(cells) / (ran - started),
                "reread_cells_per_s": len(cells) / (done - ran),
            },
            counts=_record_counts(records),
        )


class SweepFabric(_Sweep):
    """Cheap cells on every backend through the sharded fabric."""

    name = "sweep-fabric"
    grid = staticmethod(inputs.fabric_grid)

    def runner(self, cells, path):
        return SweepRunner(
            cells, executor="sharded", processes=self.spec["processes"],
            shards=self.spec["shards"], jsonl_path=path,
        )

    def rep(self, index: int) -> Rep:
        cells = self.cells()
        directory = os.path.join(self.workdir, f"rep{index}")
        started = time.perf_counter()
        runner = self.runner(cells, directory)
        records = runner.run()
        ran = time.perf_counter()
        resume = self.runner(cells, directory)
        resume.run()
        atlas = atlas_module.build_atlas(directory)
        done = time.perf_counter()
        failed, problems = check_cells(cells, records)
        if resume.executed != 0:
            problems.append(f"resume pass re-executed {resume.executed} cells")
        expected = [dataclasses.asdict(s) for s in summarize_records(
            r for r in records if r is not None
        )]
        if atlas["rows"] != expected or atlas["covered_cells"] != len(cells):
            problems.append("atlas differs from the summaries of the fresh records")
        if problems and not failed:
            failed = len(cells)
        shutil.rmtree(directory)
        counts = _record_counts(records)
        counts.update({
            "fabric.retries": runner.retries,
            "fabric.respawns": runner.respawns,
            "fabric.quarantined": runner.quarantined,
            "fabric.stolen_chunks": runner.stolen_chunks,
        })
        return Rep(
            attempted=len(cells),
            failed=failed + runner.quarantined,
            problems=problems,
            digest=_fingerprint(_record_rows(records)),
            figures={
                "cells_per_s": len(cells) / (ran - started),
                "reread_cells_per_s": len(cells) / (done - ran),
            },
            counts=counts,
        )


class StormTraffic(Workload):
    """An open loop over a generated arrival schedule, timed per request.

    ``due`` hands each arrival to the service and stamps its admission
    (wall clock and virtual time); ``on_settle`` stamps the wall clock of
    the request that just settled.  ``requests`` is the service's request
    table, read to find which of a session's requests settled.
    """

    def __init__(self, arrivals, requests) -> None:
        self.arrivals = arrivals
        self.requests = requests
        self.total_requests = len(arrivals)
        by_index = {index: key for key, index in inputs.request_ids(arrivals).items()}
        self.keys = [by_index[i] for i in range(len(arrivals))]
        self.admitted_wall = [None] * len(arrivals)
        self.admitted_at = [None] * len(arrivals)
        self.settled_wall = [None] * len(arrivals)
        self._open: dict[int, list[int]] = {}
        self._next = 0

    def due(self, now: float) -> list[tuple[int, str]]:
        out = []
        arrivals = self.arrivals
        wall = time.perf_counter()
        while self._next < len(arrivals) and arrivals[self._next][0] <= now:
            index = self._next
            _due, session, op = arrivals[index]
            self.admitted_wall[index] = wall
            self.admitted_at[index] = now
            self._open.setdefault(session, []).append(index)
            out.append((session, op))
            self._next += 1
        return out

    def next_arrival(self) -> float | None:
        if self._next < len(self.arrivals):
            return self.arrivals[self._next][0]
        return None

    def on_settle(self, session: int, now: float) -> None:
        wall = time.perf_counter()
        pending = self._open[session]
        for position, index in enumerate(pending):
            if self.requests[self.keys[index]].settled:
                self.settled_wall[index] = wall
                del pending[position]
                return

    def on_refuse(self, session: int) -> None:
        self.on_settle(session, 0.0)

    def exhausted(self) -> bool:
        return self._next >= len(self.arrivals)


class ServiceStorm:
    """ConsensusService over kv: open-loop traffic through a leader-kill storm."""

    name = "service-storm"
    unit = "requests"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.spec = inputs.storm_inputs(seed)

    def cell_ids(self) -> dict:
        return {}

    def service(self) -> ConsensusService:
        spec = self.spec
        plan = ServiceFaultPlan.from_spec(spec["chaos"], seed=spec["chaos_seed"])
        return ConsensusService(
            spec["n"], machine="kv", t=spec["t"], seed=spec["service_seed"],
            faults=plan,
        )

    def prepare(self) -> None:
        service = self.service()
        StormTraffic(self.spec["arrivals"], service.requests)

    def rep(self, index: int) -> Rep:
        arrivals = self.spec["arrivals"]
        service = self.service()
        traffic = StormTraffic(arrivals, service.requests)
        started = time.perf_counter()
        report = service.run(traffic)
        elapsed = time.perf_counter() - started
        counters = report.counters
        problems = list(report.problems)
        if not report.ok:
            problems.append(f"service report not ok (state {report.state})")
        if not counters["acked"] == counters["submitted"] == len(arrivals):
            problems.append(
                f"acked {counters['acked']} / submitted {counters['submitted']} "
                f"/ arrivals {len(arrivals)}"
            )
        if len(set(report.digests.values())) != 1:
            problems.append(f"live replicas disagree: {report.digests}")
        failed = counters["failed"] + counters["refused"]
        ack_rounds, wall_us, lag = [], [], []
        for i, key in enumerate(traffic.keys):
            request = service.requests.get(key)
            if request is None or request.acked_at is None:
                continue
            ack_rounds.append(request.acked_at - arrivals[i][0])
            wall_us.append((traffic.settled_wall[i] - traffic.admitted_wall[i]) * 1e6)
            lag.append(traffic.admitted_at[i] - arrivals[i][0])
        if len(ack_rounds) != len(arrivals):
            failed = max(failed, len(arrivals) - len(ack_rounds))
        if problems and not failed:
            failed = len(arrivals)
        if not ack_rounds:
            ack_rounds = wall_us = lag = [0.0]
        slots = service.log.slots
        return Rep(
            attempted=len(arrivals),
            failed=failed,
            problems=problems,
            digest=_fingerprint(sorted(report.to_dict().items())),
            figures={
                "ops_per_s": counters["acked"] / elapsed,
                "op_p50_us": percentile(wall_us, 50),
                "op_p99_us": percentile(wall_us, 99),
                "ack_p50_rounds": percentile(ack_rounds, 50),
                "ack_p99_rounds": percentile(ack_rounds, 99),
                "op_samples": len(wall_us),
            },
            counts={
                "rsm.rounds_per_slot": sum(s.rounds for s in slots) / max(1, len(slots)),
                "service.admit_lag_p50_rounds": percentile(lag, 50),
                "service.admit_lag_p99_rounds": percentile(lag, 99),
                "service.slots": counters["slots"],
                "service.noop_slots": counters["noop_slots"],
                "service.retried": counters["retried"],
                "service.deduped": counters["deduped"],
                "service.rejected_stale": counters["rejected_stale"],
                "service.rotations": report.rotations,
                "service.useful_slot_ratio": counters["acked"] / max(1, counters["slots"]),
            },
        )


WORKLOADS = {w.name: w for w in (SweepSync, SweepFabric, ServiceStorm)}
