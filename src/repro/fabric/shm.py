"""Shared-memory slabs for the numeric RecordBatch columns.

PR 5 profiling put a multi-process sweep's ceiling at pickling result
batches back through the ``multiprocessing`` pipe.  The numeric columns
of a :class:`~repro.scenarios.record.RecordBatch` — per-cell counters
(``f_actual``, ``rounds_executed``, ``last_decision_round``,
``messages_sent``, ``bits_sent``), the ``spec_ok`` flag, and
``sim_time`` — are fixed-width, so a worker can write them straight into
a :mod:`multiprocessing.shared_memory` segment the parent maps too, and
only the small variable-width object columns (decisions, decision
rounds, crash lists, violations, backend names) cross the pipe.

One :class:`ScalarSlab` per worker, divided into :data:`DEPTH` slots so
the dispatcher can pipeline: the worker fills slot ``s`` for the task
tagged ``s`` while the parent drains the other slot.  The dispatcher
never has more than ``DEPTH`` tasks outstanding per worker and reads a
slot before reusing its tag, so no fence beyond the pipe's own result
message is needed — the message *is* the publication barrier (it is sent
after the slot is fully written).

``sim_time`` rides the float column with NaN standing in for ``None``
(the continuous-time backends always produce finite floats; the
round-based ones produce ``None``), so the round-trip is exact and
records stay byte-identical with the serial executor's.

Lifecycle: the parent creates (and finally unlinks) every slab; workers
attach by name and close on exit.  Worker-side attachment unregisters
from the ``resource_tracker`` (best effort) so a worker's exit cannot
prematurely destroy a segment the parent still owns.
"""

from __future__ import annotations

import math
from array import array
from multiprocessing import shared_memory

from repro.scenarios.record import RecordBatch

__all__ = ["ScalarSlab", "INT_COLUMNS", "DEPTH"]

#: RecordBatch columns carried as int64 slots (``spec_ok`` as 0/1).
INT_COLUMNS = (
    "f_actual",
    "rounds_executed",
    "last_decision_round",
    "messages_sent",
    "bits_sent",
    "spec_ok",
)
_N_INTS = len(INT_COLUMNS)

#: Pipeline depth: result slots per worker (write one, drain the other).
DEPTH = 2

#: Bytes per cell: the int64 columns plus the float64 ``sim_time``.
CELL_BYTES = _N_INTS * 8 + 8


class ScalarSlab:
    """A ``DEPTH``-slotted shared-memory buffer of per-cell scalars."""

    __slots__ = ("shm", "capacity", "_owner", "_ints", "_floats")

    def __init__(self, shm: shared_memory.SharedMemory, capacity: int,
                 owner: bool) -> None:
        self.shm = shm
        self.capacity = capacity
        self._owner = owner
        # Column-major slots: per slot, one int64 run of ``capacity``
        # cells per INT_COLUMNS entry, then the float64 ``sim_time`` run.
        # Each column is viewed once, so a transfer is one slice copy.
        self._ints: list[list[memoryview]] = []
        self._floats: list[memoryview] = []
        run = capacity * 8
        for slot in range(DEPTH):
            off = slot * capacity * CELL_BYTES
            self._ints.append([
                shm.buf[off + k * run:off + (k + 1) * run].cast("q")
                for k in range(_N_INTS)
            ])
            mid = off + _N_INTS * run
            self._floats.append(shm.buf[mid:mid + run].cast("d"))

    @property
    def name(self) -> str:
        return self.shm.name

    @classmethod
    def create(cls, capacity: int) -> "ScalarSlab":
        """Parent side: allocate a slab for shards of up to ``capacity`` cells."""
        size = max(1, capacity) * CELL_BYTES * DEPTH
        shm = shared_memory.SharedMemory(create=True, size=size)
        return cls(shm, max(1, capacity), owner=True)

    @classmethod
    def attach(cls, name: str, capacity: int) -> "ScalarSlab":
        """Worker side: map the parent's segment by name.

        Workers only ever :meth:`close`; the parent owns the segment and
        unlinks it once every worker has exited.  Registration with the
        (fork-shared) resource tracker is left alone — the parent's
        ``unlink`` balances it, and if the whole sweep is SIGKILLed the
        tracker reaping the orphaned segment is exactly what we want.
        """
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, max(1, capacity), owner=False)

    # -- data path ---------------------------------------------------------

    def write(self, slot: int, batch: RecordBatch) -> None:
        """Fill ``slot`` with the numeric columns of ``batch`` (worker side)."""
        count = len(batch)
        if count > self.capacity:
            raise ValueError(
                f"batch of {count} cells exceeds slab capacity {self.capacity}"
            )
        for view, name in zip(self._ints[slot], INT_COLUMNS):
            view[:count] = array("q", getattr(batch, name))  # bools as 0/1
        self._floats[slot][:count] = array(
            "d", [math.nan if t is None else t for t in batch.sim_time]
        )
        # The result message on the pipe publishes the slot; nothing else
        # reads it until the parent has received that message.

    def read(self, slot: int, count: int) -> dict[str, list]:
        """Decode ``count`` cells of ``slot`` back into column lists (parent).

        Plain Python lists out: the columns land directly in a
        :class:`RecordBatch`, whose records carry built-in
        ints/bools/floats.
        """
        out = {
            name: view[:count].tolist()
            for view, name in zip(self._ints[slot], INT_COLUMNS)
        }
        out["spec_ok"] = [v != 0 for v in out["spec_ok"]]
        out["sim_time"] = [
            None if math.isnan(t) else t for t in self._floats[slot][:count].tolist()
        ]
        return out

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (both sides)."""
        # The memoryview casts pin the underlying buffer; release them
        # before SharedMemory.close() or it raises BufferError.
        self._ints.clear()
        self._floats.clear()
        self.shm.close()

    def unlink(self) -> None:
        """Destroy the segment (owner/parent side, after workers exited)."""
        self.close()
        if self._owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already reaped
                pass
