"""Every metric the benchmark reports, with the prediction it stands for.

``END_TO_END`` are the figures a user sees, measured with tracing off,
and ``GATED`` the ones ``BENCHMARK.json`` bounds.  ``PER_LAYER`` come from the
traced run: each names the end-to-end metric and workload it should move
when its layer gets faster, and the workload where the prediction is no
change.  A workload that never enters a layer reports 0 for it.
"""

from __future__ import annotations

#: Gated end-to-end metrics: ``name -> (unit, better)``.  Every workload
#: reports each of them; ``throughput_per_s`` is ``cells_per_s`` on the
#: sweeps and ``ops_per_s`` on the service, over all of a run's
#: repetitions.
GATED = {
    "setup_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Units of the per-repetition figures the benchmark prints beside the
#: gated metrics (README.md defines them).
END_TO_END = {
    "cells_per_s": "1/s",
    "reread_cells_per_s": "1/s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "ack_p50_rounds": "rounds",
    "ack_p99_rounds": "rounds",
}

_SYNC = "cells_per_s on sweep-sync"
_FABRIC = "cells_per_s on sweep-fabric"
_REREAD = "reread_cells_per_s on sweep-fabric"
_SERVICE = "ops_per_s, op_p50_us on service-storm"

#: ``(name, unit, better, should move, little on)``.
PER_LAYER = [
    ("scenarios.expand_grid_s", "s", "lower", "setup_s", "sweep-sync"),
    ("scenarios.execute.calls", "count", "lower", _FABRIC, "sweep-sync"),
    ("scenarios.execute.self_s", "s", "lower", _FABRIC, "sweep-sync"),
    ("scenarios.summarize_s", "s", "lower", _REREAD, "service-storm"),
    ("sync.rounds", "count", "lower", _SYNC, "sweep-fabric"),
    ("sync.send_s", "s", "lower", _SYNC, "sweep-fabric"),
    ("sync.compute_s", "s", "lower", _SYNC, "sweep-fabric"),
    ("sync.deliver_s", "s", "lower", _SYNC, "sweep-fabric"),
    ("sync.run.self_s", "s", "lower", _SYNC, "sweep-fabric"),
    ("sync.vector_round_share", "1", "higher", _SYNC + " and ops_per_s", "sweep-fabric"),
    ("sync.msgs_per_cell", "count", "lower", _SYNC, "sweep-fabric"),
    ("sync.bits_per_cell", "bits", "lower", _SYNC, "sweep-fabric"),
    ("asyncsim.run_s", "s", "lower", _FABRIC, "sweep-sync"),
    ("ffd.run_s", "s", "lower", _FABRIC, "sweep-sync"),
    ("record.normalize_s", "s", "lower", _FABRIC, "sweep-sync"),
    ("record.decode_s", "s", "lower", _REREAD, "service-storm"),
    ("sweep.self_s", "s", "lower", _FABRIC, "sweep-sync"),
    ("fabric.manifest.plan_s", "s", "lower", _FABRIC, "sweep-sync"),
    ("fabric.shm.write_s", "s", "lower", _FABRIC, "sweep-sync"),
    ("fabric.shm.read_s", "s", "lower", _FABRIC, "sweep-sync"),
    ("fabric.shardio.append_s", "s", "lower", _FABRIC, "sweep-sync"),
    ("fabric.shardio.index_s", "s", "lower", _REREAD, "sweep-sync"),
    ("fabric.atlas.build_s", "s", "lower", _REREAD, "sweep-sync"),
    ("fabric.dispatch.self_s", "s", "lower", _FABRIC, "sweep-sync"),
    ("fabric.dispatch.wait_s", "s", "lower", _FABRIC, "sweep-sync"),
    ("fabric.supervisor_s", "s", "lower", _FABRIC, "sweep-sync"),
    ("fabric.shard.self_s", "s", "lower", _FABRIC, "sweep-sync"),
    ("fabric.parent_cpu_s", "s", "lower", _FABRIC, "sweep-sync"),
    ("fabric.worker_idle_s", "s", "lower", _FABRIC, "sweep-sync"),
    ("fabric.retries", "count", "lower", _FABRIC, "sweep-sync"),
    ("fabric.respawns", "count", "lower", _FABRIC, "sweep-sync"),
    ("fabric.quarantined", "count", "lower", _FABRIC, "sweep-sync"),
    ("fabric.stolen_chunks", "count", "lower", _FABRIC, "sweep-sync"),
    ("rsm.commit_calls", "count", "lower", _SERVICE, "sweep-sync"),
    ("rsm.commit_s", "s", "lower", _SERVICE, "sweep-sync"),
    ("rsm.rounds_per_slot", "rounds", "lower", _SERVICE, "sweep-sync"),
    ("service.loop.self_s", "s", "lower", "ops_per_s, op_p99_us on service-storm", "sweep-sync"),
    ("service.workload_s", "s", "lower", "ops_per_s on service-storm", "sweep-sync"),
    ("service.admit_lag_p50_rounds", "rounds", "lower", "ack_p99_rounds on service-storm", "sweep-sync"),
    ("service.admit_lag_p99_rounds", "rounds", "lower", "ack_p99_rounds on service-storm", "sweep-sync"),
    ("service.slots", "count", "lower", _SERVICE, "sweep-sync"),
    ("service.noop_slots", "count", "lower", "ack_p99_rounds on service-storm", "sweep-sync"),
    ("service.retried", "count", "lower", "ack_p99_rounds on service-storm", "sweep-sync"),
    ("service.deduped", "count", "lower", "ack_p99_rounds on service-storm", "sweep-sync"),
    ("service.rejected_stale", "count", "lower", "ack_p99_rounds on service-storm", "sweep-sync"),
    ("service.rotations", "count", "lower", "ack_p99_rounds on service-storm", "sweep-sync"),
    ("service.useful_slot_ratio", "1", "higher", _SERVICE, "sweep-sync"),
    ("py.gc_s", "s", "lower", "throughput_per_s where allocation is heaviest", "-"),
    ("py.gc_gen2", "count", "lower", "throughput_per_s where allocation is heaviest", "-"),
    ("trace.untraced_wall_s", "s", "lower", "-", "-"),
    ("trace.traced_wall_s", "s", "lower", "-", "-"),
    ("trace.overhead_s", "s", "lower", "-", "-"),
    ("trace.unattributed_s", "s", "lower", "-", "-"),
    ("trace.coverage", "1", "higher", "-", "-"),
]
