"""Span hooks around each layer's public calls, and the per-layer split.

:meth:`Hooks.start` wraps, from outside the program, the public functions
and methods each layer of ``src/repro`` exposes — scenario build and
``execute``, the synchronous engine and its tables, the async and ffd
runners, record normalization, the sweep runner, the fabric's manifest,
slabs, shard files, dispatcher and atlas, the replicated log and the
service loop, plus the benchmark's own traffic callbacks.  They are
installed for each traced repetition and removed after it, so untraced
repetitions run the program's own functions.

Fabric workers are forked, so they inherit the wrappers.  A worker
leaves through ``os._exit`` after its target returns, so ``atexit``
never runs there; the wrapped worker entry point dumps its spans to
``spans_dir`` on its way out, and :meth:`Hooks.merge_worker_spans` reads them
back in the parent after the sweep has joined its workers.
"""

from __future__ import annotations

import gc
import os
import pickle
import time
import types

from spans import Tracer, self_times

__all__ = ["Hooks", "SPAN_METRICS", "ROOT", "split"]

#: Span name -> per-layer metric its self time adds to.
SPAN_METRICS = {
    "scenarios.expand_grid": "scenarios.expand_grid_s",
    "scenarios.execute": "scenarios.execute.self_s",
    "scenarios.summarize": "scenarios.summarize_s",
    "sync.run": "sync.run.self_s",
    # A step's self time is delivery and bit accounting; per-process
    # stepping (no table) would also fold the processes' own phases in.
    "sync.step.vector": "sync.deliver_s",
    "sync.step.batched": "sync.deliver_s",
    "sync.step.object": "sync.deliver_s",
    "sync.send": "sync.send_s",
    "sync.compute": "sync.compute_s",
    "asyncsim.run": "asyncsim.run_s",
    "ffd.run": "ffd.run_s",
    "record.normalize": "record.normalize_s",
    "record.decode": "record.decode_s",
    "sweep.run": "sweep.self_s",
    "fabric.sweep": "fabric.dispatch.self_s",
    "fabric.wait": "fabric.dispatch.wait_s",
    "fabric.supervisor": "fabric.supervisor_s",
    "fabric.manifest.plan": "fabric.manifest.plan_s",
    "fabric.shm.write": "fabric.shm.write_s",
    "fabric.shm.read": "fabric.shm.read_s",
    "fabric.shardio.append": "fabric.shardio.append_s",
    "fabric.shardio.index": "fabric.shardio.index_s",
    "fabric.atlas.build": "fabric.atlas.build_s",
    "fabric.worker": "fabric.worker_idle_s",
    "fabric.shard": "fabric.shard.self_s",
    "rsm.commit": "rsm.commit_s",
    "service.run": "service.loop.self_s",
    "service.workload": "service.workload_s",
}

#: Root spans the benchmark opens itself; their self time is glue that
#: no layer owns, reported as ``trace.unattributed_s``.
ROOT = "bench.rep"


def _subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


def _defining(classes, attr: str) -> list[type]:
    """The classes among ``classes``' MROs that define ``attr`` themselves."""
    owners = []
    for cls in classes:
        for klass in cls.__mro__:
            if attr in vars(klass):
                if klass not in owners and not getattr(
                    vars(klass)[attr], "__isabstractmethod__", False
                ):
                    owners.append(klass)
                break
    return owners


class Hooks:
    """Installs the layer wrappers and collects spans and GC time."""

    def __init__(self, cell_ids: dict | None = None) -> None:
        self.tracer = Tracer()
        #: ``(algorithm, n, f, adversary, seed)`` -> grid cell index, the
        #: request id of a sweep's ``execute`` spans.
        self.cell_ids = cell_ids or {}
        self.spans_dir: str | None = None
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self._gc_start = None

    # -- installation ------------------------------------------------------

    def _install(self) -> None:
        import repro.baselines  # noqa: F401 - registers the tables
        import repro.core  # noqa: F401
        from repro.asyncsim.runner import AsyncRunner
        from repro.fabric import atlas, dispatcher, manifest, shm, supervisor
        from repro.ffd import consensus as ffd_consensus
        from repro.rsm.log import ReplicatedLog
        from repro.scenarios import record, sweep
        from repro.service.loop import ConsensusService
        from repro.sync.api import BatchedAlgorithm, VectorAlgorithm
        from repro.sync.engine import SynchronousEngine

        wrap = self.tracer.wrap
        cell_ids = self.cell_ids

        def cell_of(scenario, *args, **kwargs):
            return cell_ids.get((scenario.algorithm, scenario.n, scenario.f,
                                 scenario.adversary, scenario.seed))

        wrap(sweep, "expand_grid", "scenarios.expand_grid")
        wrap(sweep, "summarize_record_sources", "scenarios.summarize")
        wrap(atlas, "summarize_record_sources", "scenarios.summarize")
        for module in (sweep, dispatcher):
            wrap(module, "execute", "scenarios.execute", rid_of=cell_of)
        wrap(SynchronousEngine, "run", "sync.run")
        wrap(SynchronousEngine, "step", _step_name)
        for owner in _defining(_subclasses(VectorAlgorithm), "send_phase_vector"):
            wrap(owner, "send_phase_vector", "sync.send")
        for owner in _defining(_subclasses(VectorAlgorithm), "compute_phase_vector"):
            wrap(owner, "compute_phase_vector", "sync.compute")
        for owner in _defining(_subclasses(BatchedAlgorithm), "send_phase_all"):
            wrap(owner, "send_phase_all", "sync.send")
        for owner in _defining(_subclasses(BatchedAlgorithm), "compute_phase_all"):
            wrap(owner, "compute_phase_all", "sync.compute")
        wrap(AsyncRunner, "run", "asyncsim.run")
        wrap(ffd_consensus, "run_ffd_consensus", "ffd.run")
        wrap(record.RunRecord, "normalized", "record.normalize")
        wrap(record.RecordBatch, "to_records", "record.decode")
        wrap(sweep.SweepRunner, "run", "sweep.run")
        wrap(dispatcher.ShardedSweep, "run", "fabric.sweep")
        wrap(manifest.ShardManifest, "load_or_create", "fabric.manifest.plan")
        wrap(shm.ScalarSlab, "write", "fabric.shm.write")
        wrap(shm.ScalarSlab, "read", "fabric.shm.read")
        wrap(dispatcher, "append_batch", "fabric.shardio.append")
        wrap(dispatcher, "load_shard_index", "fabric.shardio.index")
        wrap(atlas, "build_atlas", "fabric.atlas.build")
        wrap(supervisor.Supervisor, "start", "fabric.supervisor")
        wrap(supervisor.Supervisor, "shutdown", "fabric.supervisor")
        wrap(dispatcher, "_run_shard", "fabric.shard")
        # The dispatcher reads ``mp_connection.wait`` at call time; a
        # namespace in its place times the parent's waits on the worker
        # without touching the stdlib module other code shares.
        waiter = types.SimpleNamespace(wait=dispatcher.mp_connection.wait)
        wrap(waiter, "wait", "fabric.wait")
        self.tracer.replace(dispatcher, "mp_connection", waiter)
        self._wrap_worker(dispatcher)
        wrap(ReplicatedLog, "commit", "rsm.commit",
             rid_of=lambda log, *a, **k: len(log.slots) + 1)
        wrap(ConsensusService, "run", "service.run")
        from workloads import StormTraffic

        for attr in ("due", "next_arrival", "on_settle", "on_refuse", "exhausted"):
            wrap(StormTraffic, attr, "service.workload")

    def _wrap_worker(self, dispatcher) -> None:
        original = dispatcher._worker_main
        hooks = self

        def worker_main(*args, **kwargs):
            tracer = hooks.tracer
            if not tracer.enabled:
                return original(*args, **kwargs)
            tracer.clear()
            hooks.gc_s, hooks.gc_gen2 = 0.0, 0
            try:
                return tracer.span("fabric.worker", original, *args, **kwargs)
            finally:
                path = os.path.join(hooks.spans_dir, f"worker-{os.getpid()}.pkl")
                with open(path, "wb") as fh:
                    pickle.dump({"spans": tracer.finished(), "gc_s": hooks.gc_s,
                                 "gc_gen2": hooks.gc_gen2}, fh)

        self.tracer.replace(dispatcher, "_worker_main", worker_main)

    # -- recording ---------------------------------------------------------

    def start(self, spans_dir: str) -> None:
        """Install the wrappers and start recording into a fresh span list."""
        self._install()
        self.tracer.clear()
        self.spans_dir = spans_dir
        self.gc_s, self.gc_gen2 = 0.0, 0
        gc.callbacks.append(self._on_gc)
        self.tracer.enabled = True

    def stop(self) -> None:
        """Stop recording and put the program's own functions back."""
        self.tracer.enabled = False
        gc.callbacks.remove(self._on_gc)
        self.tracer.unwrap()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self._gc_start = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def merge_worker_spans(self) -> list[list[tuple]]:
        """Span lists dumped by this rep's fabric workers (one per worker)."""
        out = []
        for name in sorted(os.listdir(self.spans_dir)):
            if name.startswith("worker-"):
                with open(os.path.join(self.spans_dir, name), "rb") as fh:
                    dump = pickle.load(fh)  # written by our own workers
                out.append(dump["spans"])
                self.gc_s += dump["gc_s"]
                self.gc_gen2 += dump["gc_gen2"]
        return out


def _step_name(engine, *args, **kwargs) -> str:
    if engine._vtable is not None:
        return "sync.step.vector"
    if engine._table is not None:
        return "sync.step.batched"
    return "sync.step.object"


def split(trees: list[list[tuple]]) -> dict[str, float]:
    """Per-layer self seconds and span counts over every process's spans.

    ``trees[0]`` is the parent's span list, rooted at :data:`ROOT`; the
    rest come from fabric workers.  Returns metric-name -> seconds, plus
    ``<span name>#calls`` counts and the parent-tree coverage figures.
    """
    out: dict[str, float] = {}
    for tree in trees:
        for span, own in zip(tree, self_times(tree)):
            name = span[0]
            metric = SPAN_METRICS.get(name)
            if metric is None and name == ROOT:
                metric = "trace.unattributed_s"
            if metric is None:
                raise KeyError(f"span {name!r} has no layer metric")
            out[metric] = out.get(metric, 0.0) + own
            out[name + "#calls"] = out.get(name + "#calls", 0) + 1
    parent = trees[0]
    wall = sum(end - start for name, start, end, _p, _r in parent if name == ROOT)
    out["trace.traced_wall_s"] = wall
    out["trace.coverage"] = (
        1.0 - out.get("trace.unattributed_s", 0.0) / wall if wall > 0 else 0.0
    )
    return out
