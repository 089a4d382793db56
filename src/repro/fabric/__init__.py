"""The sharded sweep fabric: manifests, stealing workers, shm results, atlases.

This package is the distribution layer of the sweep stack — the
architecture the ROADMAP's million-cell tradeoff atlases run on:

* :mod:`~repro.fabric.manifest` — deterministic shard planning plus the
  resumable JSON manifest (shard id → cell range, status, output file,
  content hash);
* :mod:`~repro.fabric.shm` — shared-memory slabs carrying the numeric
  record columns back from workers (only small object columns cross the
  pipe);
* :mod:`~repro.fabric.dispatcher` — :class:`ShardedSweep`, the
  work-stealing dispatcher over long-lived worker processes;
* :mod:`~repro.fabric.supervisor` — worker lifecycle supervision for
  the dispatcher: heartbeat-driven liveness, terminate→kill retirement,
  respawn with incarnation tracking, slab-safe shutdown;
* :mod:`~repro.fabric.faults` — deterministic fault injection
  (:class:`FaultPlan`: worker kills, hangs, poison cells, torn writes)
  so every recovery path is exercised by ordinary pytest;
* :mod:`~repro.fabric.atlas` — merge-on-read reduction of a shard
  directory into the regeneratable tradeoff-atlas artifact (honest
  about quarantined coverage).

``SweepRunner(executor="sharded")`` and ``repro-consensus scenario
sweep --executor sharded`` / ``repro-consensus atlas summarize`` are the
front doors; see ``DESIGN.md`` §3.5.
"""

from repro.fabric.atlas import (
    atlas_summaries,
    build_atlas,
    iter_directory_records,
    write_atlas,
)
from repro.fabric.dispatcher import ShardedSweep
from repro.fabric.faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    ServiceFaultPlan,
    ServiceFaultSpec,
    parse_chaos,
    parse_service_chaos,
)
from repro.fabric.manifest import (
    QuarantineLog,
    ShardManifest,
    ShardSpec,
    grid_hash,
    plan_shards,
)
from repro.fabric.shm import ScalarSlab
from repro.fabric.supervisor import Supervisor, WorkerHandle
from repro.scenarios.record import heal_torn_tail, iter_shard_records, load_shard_index

__all__ = [
    "ShardedSweep",
    "ShardManifest",
    "ShardSpec",
    "QuarantineLog",
    "FaultPlan",
    "FaultSpec",
    "FaultInjected",
    "parse_chaos",
    "ServiceFaultPlan",
    "ServiceFaultSpec",
    "parse_service_chaos",
    "Supervisor",
    "WorkerHandle",
    "plan_shards",
    "grid_hash",
    "ScalarSlab",
    "iter_shard_records",
    "load_shard_index",
    "heal_torn_tail",
    "atlas_summaries",
    "build_atlas",
    "write_atlas",
    "iter_directory_records",
]
