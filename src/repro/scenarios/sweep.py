"""Grid sweeps over scenarios: two executors + JSONL persistence.

:class:`SweepRunner` takes any iterable of :class:`Scenario` cells and
executes them under one of two executors:

* ``"serial"`` — the reference path: an in-process loop (debuggable,
  zero IPC) holding one engine lease for the whole pass, persisting to
  a single JSONL file;
* ``"sharded"`` — the fast path: the :mod:`repro.fabric` work-stealing
  executor.  ``jsonl_path`` names a shard *directory* (manifest + one
  columnar JSONL file per shard), results return through shared-memory
  scalar slabs, and resume is shard-wise off the manifest.  See
  :class:`repro.fabric.ShardedSweep`.

Both executors persist through the record-file functions of
:mod:`repro.scenarios.record`: one ``{"batch": payload}`` line per
flush — a columnar :class:`~repro.scenarios.record.RecordBatch` payload
encoded in one pass.  A rerun with the same path **resumes**: cells
whose canonical scenario key already appears in the file are loaded
instead of re-run.  Lines that do not decode — a torn tail from an
interrupted sweep, foreign or malformed JSONL, the per-cell
``{"record": …}`` lines of pre-columnar files — are skipped, and their
cells simply re-run.

The serial executor flushes every ``chunk_size`` records (32 by
default) and at least every :attr:`SweepRunner.FLUSH_INTERVAL_S`
seconds, so an interrupted sweep loses at most one flush's worth of
cells and slow cells keep near-per-record durability.

Results come back in input order on both executors and are
byte-identical across them (pinned by ``tests/scenarios/test_sweep.py``
and ``tests/fabric/test_sharded_sweep.py``).
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.errors import ConfigurationError
from repro.scenarios.execute import EngineLease, execute
from repro.scenarios.record import (
    RecordBatch,
    RunRecord,
    append_batch,
    heal_torn_tail,
    load_shard_index,
)
from repro.scenarios.registry import ADVERSARIES, ALGORITHMS
from repro.scenarios.scenario import Scenario, scenario_key

__all__ = [
    "SweepRunner",
    "expand_grid",
    "CellSummary",
    "summarize_records",
    "summarize_record_sources",
]


def expand_grid(
    algorithms: Sequence[str],
    n_values: Sequence[int],
    *,
    f_values: Sequence[int] | None = None,
    adversaries: Sequence[str] = ("none",),
    seeds: int = 1,
    t_rule: Callable[[str, int], int | None] | None = None,
    base: Scenario | None = None,
) -> list[Scenario]:
    """Expand a cartesian grid into scenario cells.

    ``f_values=None`` means "0..t for crashing adversaries, 0 for none".
    ``t_rule(algorithm, n)`` may pin ``t`` per cell; by default the
    algorithm's own rule applies (``t=None`` in the scenario).  ``base``
    supplies non-grid fields (workload, timing, params).

    Explicit ``f_values`` exceeding a combination's effective ``t``, and
    (algorithm, adversary) pairs the adversary's backend plans cannot
    serve, are dropped with a :class:`UserWarning` (a mixed grid
    legitimately caps ``f`` or pairs adversaries per algorithm, but
    silent drops would fake coverage — and an incompatible cell would
    otherwise abort the sweep mid-run); a grid that expands to zero
    cells is an error.
    """
    template = base if base is not None else Scenario(algorithm="crw", n=1)
    cells: list[Scenario] = []
    dropped: list[str] = []
    for algorithm in algorithms:
        algo = ALGORITHMS.get(algorithm)
        for n in n_values:
            t = t_rule(algorithm, n) if t_rule is not None else None
            effective_t = t if t is not None else algo.default_t(n)
            for adversary in adversaries:
                adv = ADVERSARIES.get(adversary)
                plan = (
                    adv.make_sync
                    if algo.backend in ("extended", "classic")
                    else adv.make_timed
                )
                if plan is None:
                    dropped.append(
                        f"{algorithm} ({algo.backend}): adversary {adversary!r} "
                        f"has no plan for that backend"
                    )
                    continue
                if f_values is not None:
                    fs = [f for f in f_values if f <= effective_t]
                    if len(fs) < len(f_values):
                        dropped.append(
                            f"{algorithm} n={n} {adversary}: "
                            f"f={sorted(set(f_values) - set(fs))} > t={effective_t}"
                        )
                elif adversary == "none":
                    fs = [0]
                else:
                    fs = list(range(0, effective_t + 1))
                for f in fs:
                    for seed in range(seeds):
                        cells.append(template.with_(
                            algorithm=algorithm,
                            n=n,
                            t=t,
                            f=f,
                            adversary=adversary,
                            seed=seed,
                        ))
    if dropped and cells:  # fully-empty grids raise below instead
        warnings.warn(
            "expand_grid dropped unexpressible cells: " + "; ".join(dropped),
            UserWarning,
            stacklevel=2,
        )
    if not cells:
        # A silently empty grid would let `scenario sweep` "pass" without
        # running anything; the usual cause is every requested f exceeding
        # the effective t for the given algorithms and n values.
        raise ConfigurationError(
            f"grid expanded to zero cells (algorithms={list(algorithms)}, "
            f"n={list(n_values)}, f={list(f_values) if f_values is not None else 'auto'}, "
            f"adversaries={list(adversaries)}, seeds={seeds})"
        )
    return cells


class SweepRunner:
    """Execute a list of scenario cells with persistence and resume.

    Parameters
    ----------
    scenarios:
        The cells to run (ordering is preserved in the results).
    executor:
        ``"serial"`` (one JSONL file) or ``"sharded"`` (the
        :mod:`repro.fabric` work-stealing executor; ``jsonl_path`` then
        names a shard *directory*).
    chunk_size:
        Records per JSONL flush: 32 by default for the serial executor,
        sized per shard by the fabric for the sharded one.
    jsonl_path:
        Append-mode persistence file (or shard directory); pre-existing
        records are treated as completed cells (resume).
    processes, shards:
        Sharded worker count (default: ``os.cpu_count()``, capped at the
        unfinished shards) and shard count for a fresh plan (default: ~4 per
        worker; an existing shard directory's manifest wins on resume).
    faults, liveness_timeout, max_respawns, max_shard_retries, retry_backoff_s:
        Sharded-executor supervision knobs, passed through to
        :class:`repro.fabric.ShardedSweep` (fault injection, hung-worker
        detection, respawn budget, retry/quarantine policy).  ``None``
        keeps the fabric's defaults.  A sweep that quarantined poison
        cells returns ``None`` at their positions (see
        :attr:`quarantined`).

    Every sharded-only parameter (``processes``, ``shards`` and the
    supervision knobs) is an error with the serial executor, which has
    no workers, shards or supervision to configure.
    """

    #: Serial executor: flush the JSONL buffer at least this often even
    #: when the per-count threshold is not reached, so sweeps over slow
    #: cells keep near-per-record durability.
    FLUSH_INTERVAL_S = 2.0

    def __init__(
        self,
        scenarios: Iterable[Scenario],
        *,
        executor: str = "serial",
        processes: int | None = None,
        chunk_size: int | None = None,
        jsonl_path: str | os.PathLike[str] | None = None,
        shards: int | None = None,
        faults: Any | None = None,
        liveness_timeout: float | None = None,
        max_respawns: int | None = None,
        max_shard_retries: int | None = None,
        retry_backoff_s: float | None = None,
    ) -> None:
        self.scenarios = list(scenarios)
        if executor not in ("serial", "sharded"):
            raise ConfigurationError(
                f"unknown executor {executor!r}; available: serial, sharded"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        if processes is not None and processes < 1:
            raise ConfigurationError(f"processes must be >= 1, got {processes}")
        sharded_only = {
            "processes": processes,
            "shards": shards,
            "faults": faults,
            "liveness_timeout": liveness_timeout,
            "max_respawns": max_respawns,
            "max_shard_retries": max_shard_retries,
            "retry_backoff_s": retry_backoff_s,
        }
        set_knobs = [name for name, value in sharded_only.items() if value is not None]
        if set_knobs and executor != "sharded":
            raise ConfigurationError(
                f"{', '.join(set_knobs)} require(s) the sharded executor, got "
                f"executor={executor!r}"
            )
        self.faults = faults
        self.liveness_timeout = liveness_timeout
        self.max_respawns = max_respawns
        self.max_shard_retries = max_shard_retries
        self.retry_backoff_s = retry_backoff_s
        self.executor = executor
        self.processes = processes
        self.chunk_size = chunk_size
        self.jsonl_path = os.fspath(jsonl_path) if jsonl_path is not None else None
        self.shards = shards
        #: Cells actually executed by the last :meth:`run` (excludes resumed).
        self.executed = 0
        #: Cells loaded from the JSONL file by the last :meth:`run`.
        self.resumed = 0
        #: Wall-clock seconds spent inside the last :meth:`run`.
        self.elapsed = 0.0
        #: Sharded executor only: shard counts, steal count, per-shard stats
        #: (see :class:`repro.fabric.ShardedSweep`); zero/empty otherwise.
        self.resumed_shards = 0
        self.fresh_shards = 0
        self.stolen_chunks = 0
        self.shard_stats: list[dict[str, Any]] = []
        #: Sharded executor supervision counters: shard failures handled,
        #: replacement workers spawned, quarantined cells; zero otherwise.
        self.retries = 0
        self.respawns = 0
        self.quarantined = 0

    # -- execution ---------------------------------------------------------

    def run(self) -> list[RunRecord]:
        """Run every pending cell; return records for *all* cells, in order."""
        started = time.perf_counter()
        if self.executor == "sharded":
            try:
                return self._run_sharded()
            finally:
                self.elapsed = time.perf_counter() - started
        done = load_shard_index(self.jsonl_path) if self.jsonl_path is not None else {}
        keys = [scenario_key(s) for s in self.scenarios]
        pending: list[Scenario] = []
        pending_keys: list[str] = []
        seen_pending: set[str] = set()
        resumed_keys: set[str] = set()
        for s, key in zip(self.scenarios, keys):
            if key in done:
                resumed_keys.add(key)
            elif key not in seen_pending:  # duplicate cells run once
                pending.append(s)
                pending_keys.append(key)
                seen_pending.add(key)
        self.resumed = len(resumed_keys)
        self.executed = 0

        fh = None
        if self.jsonl_path is not None:
            heal_torn_tail(self.jsonl_path)
            fh = open(self.jsonl_path, "a", encoding="utf-8")
        buffer: list[RunRecord] = []
        flush_every = self.chunk_size or 32

        def flush() -> None:
            if fh is not None:
                append_batch(fh, buffer)
            buffer.clear()

        try:
            last_flush = time.monotonic()
            lease = EngineLease()  # engine reuse across the whole pass
            for scenario, key in zip(pending, pending_keys):
                # trace=False pins sweep cells to the engines' fast path;
                # records are byte-identical either way (see the parity
                # grid in tests/sync/test_fastpath_parity.py).
                record = execute(scenario, trace=False, lease=lease).normalized()
                done[key] = record
                buffer.append(record)
                # Count-based flushing amortizes write+flush over fast
                # cells; the time trigger bounds how much work an
                # interrupted sweep of *slow* cells can lose.
                if (
                    len(buffer) >= flush_every
                    or time.monotonic() - last_flush >= self.FLUSH_INTERVAL_S
                ):
                    flush()
                    last_flush = time.monotonic()
                self.executed += 1
        finally:
            flush()
            if fh is not None:
                fh.close()
            self.elapsed = time.perf_counter() - started

        # Duplicate cells get an independent copy per position — callers
        # could mutate one occurrence's containers in place, and aliasing
        # would silently edit the others.
        out: list[RunRecord] = []
        emitted: set[str] = set()
        for key in keys:
            value = done[key]
            if key in emitted:
                value = value.normalized()  # fresh containers, equal value
            else:
                emitted.add(key)
            out.append(value)
        return out

    def _run_sharded(self) -> list[RunRecord]:
        """Delegate to the :mod:`repro.fabric` work-stealing executor.

        The fabric runs the *unique* cells (duplicates collapse exactly as
        on the other executors) with ``jsonl_path`` as its shard
        directory — or an ephemeral one when no path was given — and this
        wrapper maps its stats back onto the runner's counters.
        """
        from repro.fabric.dispatcher import ShardedSweep

        unique: list[Scenario] = []
        unique_keys: list[str] = []
        keys = [scenario_key(s) for s in self.scenarios]
        seen: set[str] = set()
        for scenario, key in zip(self.scenarios, keys):
            if key not in seen:
                unique.append(scenario)
                unique_keys.append(key)
                seen.add(key)
        supervision = {
            name: value
            for name, value in (
                ("faults", self.faults),
                ("liveness_timeout", self.liveness_timeout),
                ("max_respawns", self.max_respawns),
                ("max_shard_retries", self.max_shard_retries),
                ("retry_backoff_s", self.retry_backoff_s),
            )
            if value is not None  # None → keep the fabric's own defaults
        }
        fabric = ShardedSweep(
            unique,
            directory=self.jsonl_path,
            processes=self.processes,
            shards=self.shards,
            chunk_size=self.chunk_size,
            keys=unique_keys,  # already computed for the dedupe above
            **supervision,
        )
        records = fabric.run()
        self.executed = fabric.executed
        self.resumed = fabric.resumed
        self.resumed_shards = fabric.resumed_shards
        self.fresh_shards = fabric.fresh_shards
        self.stolen_chunks = fabric.stolen_chunks
        self.shard_stats = fabric.shard_stats
        self.retries = fabric.retries
        self.respawns = fabric.respawns
        self.quarantined = fabric.quarantined
        if len(unique) == len(keys):  # no duplicates: fabric order IS grid order
            return records
        done = dict(zip(unique_keys, records))
        out: list[RunRecord | None] = []
        emitted: set[str] = set()
        for key in keys:
            value = done[key]
            # Quarantined cells come back as None; they carry no
            # containers, so duplicates need no defensive copy either.
            if value is not None and key in emitted:
                value = value.normalized()  # fresh containers per duplicate
            else:
                emitted.add(key)
            out.append(value)
        return out  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class CellSummary:
    """Aggregate of the seeds of one (algorithm, n, t, f, adversary) cell."""

    algorithm: str
    n: int
    t: int | None
    f: int
    adversary: str
    seeds: int
    mean_last_round: float
    max_last_round: int
    mean_messages: float
    mean_bits: float
    spec_ok: bool
    #: Mean simulated completion time; None for the round-based backends
    #: (for ffd this is the metric that matters — rounds are always 0).
    mean_sim_time: float | None = None


def _group_key(s: Scenario) -> tuple:
    """Cheap full non-seed configuration key, same partition as the old
    per-record JSON config dump.

    The dict-valued fields are keyed by their canonical JSON (not
    ``repr``): a summary may mix records built from live scenarios with
    records resumed through ``json.loads``, and JSON-equivalent values —
    a tuple-valued param vs its decoded list — must land in one group,
    exactly as the full config dump merged them.  The dicts are almost
    always empty, so this stays far cheaper than the Scenario copy + full
    JSON dump per record it replaced.
    """
    return (
        s.algorithm,
        s.n,
        s.t,
        s.f,
        s.adversary,
        s.workload,
        json.dumps(s.workload_params, sort_keys=True),
        json.dumps(s.timing, sort_keys=True),
        json.dumps(s.params, sort_keys=True),
        s.max_rounds,
        s.model,
    )


class _CellAggregate:
    """Incremental accumulator for one cell group (streaming summaries)."""

    __slots__ = ("scenario", "seeds", "sum_rounds", "max_round",
                 "sum_messages", "sum_bits", "spec_ok", "sum_time", "n_time")

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario  # the group's first record's scenario
        self.seeds = 0
        self.sum_rounds = 0
        self.max_round = 0
        self.sum_messages = 0
        self.sum_bits = 0
        self.spec_ok = True
        self.sum_time = 0.0
        self.n_time = 0

    def add(self, record: RunRecord) -> None:
        self.seeds += 1
        self.sum_rounds += record.last_decision_round
        if record.last_decision_round > self.max_round or self.seeds == 1:
            self.max_round = record.last_decision_round
        self.sum_messages += record.messages_sent
        self.sum_bits += record.bits_sent
        self.spec_ok = self.spec_ok and record.spec_ok
        if record.sim_time is not None:
            self.sum_time += record.sim_time
            self.n_time += 1

    def summary(self) -> CellSummary:
        s = self.scenario
        return CellSummary(
            algorithm=s.algorithm,
            n=s.n,
            t=s.t,
            f=s.f,
            adversary=s.adversary,
            seeds=self.seeds,
            mean_last_round=self.sum_rounds / self.seeds,
            max_last_round=self.max_round,
            mean_messages=self.sum_messages / self.seeds,
            mean_bits=self.sum_bits / self.seeds,
            spec_ok=self.spec_ok,
            mean_sim_time=self.sum_time / self.n_time if self.n_time else None,
        )


def summarize_record_sources(
    sources: Iterable[Iterable[RunRecord] | RecordBatch],
) -> list[CellSummary]:
    """Streaming :func:`summarize_records` over multiple record sources.

    Each source is any record iterable (a list, a lazy generator over one
    shard file — see :func:`repro.scenarios.record.iter_shard_records`) or a
    :class:`RecordBatch`.  Aggregation is incremental: only one
    accumulator per distinct cell group stays in memory, never the
    records themselves, so a million-cell sweep spread over per-shard
    files reduces in shard-file-sized working memory.  The output —
    grouping, ordering, and every mean — is identical to feeding all
    records to :func:`summarize_records` at once (sums accumulate in the
    same record order).
    """
    groups: dict[tuple, _CellAggregate] = {}
    for source in sources:
        if isinstance(source, RecordBatch):
            source = source.to_records()
        for record in source:
            key = _group_key(record.scenario)
            agg = groups.get(key)
            if agg is None:
                agg = groups[key] = _CellAggregate(record.scenario)
            agg.add(record)
    ordered = sorted(
        groups.values(),
        key=lambda agg: (
            (s := agg.scenario).algorithm,
            s.n,
            -1 if s.t is None else s.t,  # t=None ("auto") sorts first
            s.f,
            s.adversary,
            s.with_(seed=0).to_json(),  # the full non-seed configuration
        ),
    )
    return [agg.summary() for agg in ordered]


def summarize_records(
    records: Iterable[RunRecord] | RecordBatch,
) -> list[CellSummary]:
    """Group records by cell (everything but the seed) and aggregate.

    Accepts any record iterable or a :class:`RecordBatch`.  Cells
    differing only in workload/timing/params get separate rows (their
    displayed columns may coincide; the averages never mix).  Grouping
    runs over cheap per-record tuples into incremental per-group
    accumulators (records are never retained); the canonical non-seed
    config JSON is computed once per **group**, only to order the output
    rows.  For many sources — e.g. per-shard files — use
    :func:`summarize_record_sources` directly.
    """
    return summarize_record_sources((records,))
