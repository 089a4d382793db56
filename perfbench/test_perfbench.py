"""Tests of the benchmark's own logic.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import catalog  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
from spans import Tracer, percentile, self_times, supported_percentile  # noqa: E402


def span(name, start, end, parent=-1, rid=None):
    return (name, start, end, parent, rid)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        span("root", 0.0, 10.0),
        span("x", 2.0, 6.0, 0),
        span("y", 4.0, 8.0, 0),  # overlaps x: cover is 2..8, not 4 + 4
        span("z", 9.0, 12.0, 0),  # runs past the parent: clipped at 10
    ]
    assert self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_tracer_records_nesting_request_ids_and_class_methods():
    tracer = Tracer()

    class Engine:
        def step(self, value):
            return module.helper(value) + 1

        @classmethod
        def build(cls, value):
            return cls().step(value)

    module = types.SimpleNamespace(helper=lambda value: value * 2)
    tracer.wrap(Engine, "step", "step", rid_of=lambda self, value: f"r{value}")
    tracer.wrap(Engine, "build", "build")
    tracer.wrap(module, "helper", "helper")
    assert Engine.build(3) == 7  # not recording yet: plain calls
    assert tracer.finished() == []

    tracer.enabled = True
    assert Engine.build(3) == 7
    names = [(s[0], s[3], s[4]) for s in tracer.finished()]
    assert names == [("build", -1, None), ("step", 0, "r3"), ("helper", 1, "r3")]

    tracer.unwrap()
    tracer.clear()
    assert Engine.build(4) == 9
    assert tracer.finished() == []


def test_split_names_the_unattributed_remainder():
    parent = [
        span(layers.ROOT, 0.0, 10.0),
        span("sweep.run", 0.5, 9.5, 0),
        span("scenarios.execute", 1.0, 8.0, 1),
    ]
    worker = [span("fabric.worker", 0.0, 5.0), span("fabric.shard", 1.0, 4.0, 0)]
    out = layers.split([parent, worker])
    assert out["trace.unattributed_s"] == 1.0
    assert out["sweep.self_s"] == 2.0
    assert out["scenarios.execute.self_s"] == 7.0
    assert out["fabric.worker_idle_s"] == 2.0
    assert out["trace.traced_wall_s"] == 10.0
    assert out["trace.coverage"] == 0.9
    assert out["scenarios.execute#calls"] == 1


def test_nearest_rank_percentile():
    assert percentile([5, 1, 3, 2, 4], 50) == 3
    assert percentile(list(range(1, 101)), 99) == 99
    assert percentile([7.0], 99) == 7.0


def test_highest_percentile_with_ten_samples_beyond_it():
    assert supported_percentile(5) is None
    assert supported_percentile(99) is None  # p90 leaves 9 beyond
    assert supported_percentile(100) == 90.0
    assert supported_percentile(999) == 90.0  # p99 leaves 9 beyond
    assert supported_percentile(1000) == 99.0
    assert supported_percentile(2000) == 99.0
    assert supported_percentile(10_000) == 99.9


def test_request_ids_number_each_sessions_arrivals_in_due_order():
    arrivals = [(0.5, 2, "a"), (1.0, 1, "b"), (1.5, 2, "c"), (2.0, 2, "d")]
    assert inputs.request_ids(arrivals) == {(2, 1): 0, (1, 1): 1, (2, 2): 2, (2, 3): 3}


def test_storm_traffic_maps_the_services_request_ids_to_arrivals():
    from repro.service import ConsensusService

    from workloads import StormTraffic

    spec = inputs.storm_inputs(7)
    arrivals = spec["arrivals"][:60]
    service = ConsensusService(spec["n"], machine="kv", t=spec["t"], seed=1)
    traffic = StormTraffic(arrivals, service.requests)
    report = service.run(traffic)
    assert report.ok
    for index, key in enumerate(traffic.keys):
        request = service.requests[key]
        assert request.op == arrivals[index][2]
        assert request.submitted_at >= arrivals[index][0]
        assert traffic.settled_wall[index] >= traffic.admitted_wall[index]


def test_generators_repeat_per_seed_and_differ_across_seeds():
    for generate in (inputs.sync_grid, inputs.fabric_grid, inputs.storm_inputs):
        assert generate(3) == generate(3)
        assert generate(3) != generate(4)


def test_generated_cells_repeat_per_seed():
    from workloads import SweepFabric, SweepSync

    for cls in (SweepSync, SweepFabric):
        first, again, other = (cls(s, "unused").cells() for s in (3, 3, 4))
        assert first == again
        assert [c.seed for c in first] != [c.seed for c in other]
        assert [(c.algorithm, c.n, c.f) for c in first] == [
            (c.algorithm, c.n, c.f) for c in other
        ]


def test_round_bounds_are_the_papers():
    from repro.scenarios import Scenario, execute

    from workloads import round_bound

    crw = execute(Scenario(algorithm="crw", n=8, f=3, adversary="coordinator-killer"))
    assert round_bound(crw) == crw.f_actual + 1
    es = execute(Scenario(algorithm="early-stopping", n=8, f=2,
                          adversary="coordinator-killer"))
    assert round_bound(es) == min(es.f_actual + 2, 8)


def test_benchmark_json_matches_the_catalog():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(catalog.GATED)
    for metric in spec["end_to_end"]:
        assert (metric["unit"], metric["better"]) == catalog.GATED[metric["name"]]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in catalog.PER_LAYER
    ]
    assert set(layers.SPAN_METRICS.values()) <= {m["name"] for m in spec["per_layer"]}


def test_stop_helpers_reaps_workers_and_the_resource_tracker():
    import multiprocessing
    import time
    from multiprocessing import resource_tracker, shared_memory

    import run

    segment = shared_memory.SharedMemory(create=True, size=64)  # launches the tracker
    segment.close()
    segment.unlink()
    worker = multiprocessing.get_context("fork").Process(
        target=time.sleep, args=(60,), daemon=True
    )
    worker.start()
    tracker = resource_tracker._resource_tracker
    assert tracker._pid is not None
    run.stop_helpers()
    assert multiprocessing.active_children() == []
    assert not worker.is_alive()
    assert tracker._pid is None and tracker._fd is None
