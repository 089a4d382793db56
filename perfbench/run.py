"""The repository's benchmark: one workload per run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-sync --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end figures with no wrapper installed;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer split (see ``catalog.py``).  ``all`` runs the three workloads,
each in a fresh interpreter.  Human-readable lines come first; the last
line of standard output is the JSON result.  The exit code is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from multiprocessing import resource_tracker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("sweep-sync", "sweep-fabric", "service-storm")
#: Fewest repetitions a run makes, however long each takes.
MIN_REPS = 3
#: Fresh-interpreter set-ups timed per run (their median is setup_s).
SETUP_PROBES = 8
#: The traced run fails its own check below this self-time coverage.
MIN_COVERAGE = 0.9


def stop_helpers() -> None:
    """Stop and reap every process this interpreter started.

    Fabric workers are daemonic children; shared-memory slabs also start
    multiprocessing's resource tracker, which would otherwise outlive this
    process by a moment and be left unreaped.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def environment() -> dict:
    from repro.util import columns

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "columns": "numpy" if columns.HAVE_NUMPY else "array",
        "numpy": columns.np.__version__ if columns.HAVE_NUMPY else None,
    }


def probe_setup(workload: str, seed: int, workdir: str) -> float:
    """Seconds from starting a fresh interpreter to its workload being ready."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe", workdir]
    started = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({child.returncode}): {line!r}")
    return ready - started


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def describe(name: str, values, unit: str, what: str = "reps") -> str:
    from spans import quartiles

    q1, median, q3 = quartiles(values)
    return (f"{name} = {median:.6g} {unit}  (median of {len(values)} {what}; "
            f"q1 {q1:.6g}, q3 {q3:.6g})")


def run_e2e(bench, seconds: float, workdir: str) -> tuple[dict, list, dict]:
    """Untraced repetitions for ``seconds``, then the set-up probes.

    ``throughput_per_s`` is the work of all repetitions over their summed
    wall time (every repetition does the same work, so this is the
    harmonic mean of their throughputs); ``setup_s`` is the median probe.
    """
    import catalog

    reps = []
    started = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - started < seconds:
        reps.append(bench.rep(len(reps)))
    rss = peak_rss_mb()
    setups = [probe_setup(bench.name, bench.seed, os.path.join(workdir, "probe"))
              for _ in range(SETUP_PROBES)]
    figures = {key: [r.figures[key] for r in reps] for key in reps[0].figures}
    throughput = figures["ops_per_s" if "ops_per_s" in figures else "cells_per_s"]
    throughput = statistics.harmonic_mean(throughput)
    lines = [describe("setup_s", setups, "s", "fresh interpreters")]
    for key, values in figures.items():
        if key in catalog.END_TO_END:
            lines.append(describe(key, values, catalog.END_TO_END[key]))
    lines.append(f"throughput_per_s = {throughput:.6g} 1/s  (all {len(reps)} reps: "
                 f"work over summed wall time)")
    if "op_samples" in figures:
        from spans import supported_percentile

        count = int(statistics.median(figures["op_samples"]))
        lines.append(f"op latency samples per rep = {count}; highest percentile with "
                     f">= 10 samples beyond it: p{supported_percentile(count)}")
    lines.append(f"peak_rss_mb = {rss:.6g} MB")
    values = {"setup_s": statistics.median(setups), "throughput_per_s": throughput,
              "peak_rss_mb": rss}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _better) in catalog.GATED.items()}
    return metrics, reps, {"lines": lines}


def run_traced(bench, seconds: float, workdir: str) -> tuple[dict, list, dict]:
    import catalog
    import layers

    hooks = layers.Hooks(bench.cell_ids())
    spans_dir = os.path.join(workdir, "spans")
    reps, untraced, traced = [], [], []
    started = time.perf_counter()
    while len(traced) < MIN_REPS or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        reps.append(bench.rep(len(reps)))
        untraced.append(time.perf_counter() - t0)

        os.makedirs(spans_dir)
        cpu = time.process_time()
        hooks.start(spans_dir)
        try:
            rep = hooks.tracer.span(layers.ROOT, bench.rep, len(reps))
        finally:
            hooks.stop()
        cpu = time.process_time() - cpu
        reps.append(rep)
        trees = [hooks.tracer.finished()] + hooks.merge_worker_spans()
        shutil.rmtree(spans_dir)
        split = layers.split(trees)
        values = {name: 0.0 for name, *_ in catalog.PER_LAYER}
        values.update({k: v for k, v in split.items() if k in values})
        steps = {mode: split.get(f"sync.step.{mode}#calls", 0)
                 for mode in ("vector", "batched", "object")}
        values["sync.rounds"] = sum(steps.values())
        values["sync.vector_round_share"] = (
            steps["vector"] / values["sync.rounds"] if values["sync.rounds"] else 0.0
        )
        values["scenarios.execute.calls"] = split.get("scenarios.execute#calls", 0)
        values["rsm.commit_calls"] = split.get("rsm.commit#calls", 0)
        values["py.gc_s"] = hooks.gc_s
        values["py.gc_gen2"] = hooks.gc_gen2
        if bench.name == "sweep-fabric":
            values["fabric.parent_cpu_s"] = cpu
        values.update(rep.counts)
        traced.append(values)

    walls = [v["trace.traced_wall_s"] for v in traced]
    metrics = {}
    for name, unit, *_ in catalog.PER_LAYER:
        value = statistics.median(v[name] for v in traced)
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.untraced_wall_s"]["value"] = statistics.median(untraced)
    metrics["trace.overhead_s"]["value"] = statistics.median(walls) - statistics.median(untraced)
    lines = [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"tracing overhead: {metrics['trace.overhead_s']['value']:.4g} s per rep "
                 f"(traced {statistics.median(walls):.4g} s, untraced "
                 f"{statistics.median(untraced):.4g} s, {len(traced)} pairs)")
    problems = []
    coverage = metrics["trace.coverage"]["value"]
    if coverage < MIN_COVERAGE:
        problems.append(f"layer self times cover {coverage:.1%} of traced wall time")
    return metrics, reps, {"lines": lines, "problems": problems}


def run_one(args) -> int:
    import workloads

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    bench = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        bench.prepare()
        print("env " + json.dumps(environment(), sort_keys=True), flush=True)
        runner = run_traced if args.trace else run_e2e
        metrics, reps, extra = runner(bench, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    problems = [p for r in reps for p in r.problems] + extra.get("problems", [])
    if len({r.digest for r in reps}) != 1:
        problems.append("repetitions of one input produced different outputs")
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    if problems and not failed:
        failed = attempted
    for line in extra["lines"]:
        print(f"{args.workload} {line}")
    print(f"{args.workload} failed_ratio = {failed / attempted:.6g}  "
          f"({failed} of {attempted} {bench.unit})")
    print(f"{args.workload} output digest = {reps[0].digest}")
    for problem in problems[:20]:
        print(f"{args.workload} CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    status = 0
    for name in NAMES:
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        status |= subprocess.run(argv).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKDIR",
                        help="build the workload in WORKDIR, print 'ready' and exit")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}/repro; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        if args.workload == "all":
            return run_all(args)
        if args.setup_probe:
            import workloads

            workloads.WORKLOADS[args.workload](args.seed, args.setup_probe).prepare()
            print("ready", flush=True)
            return 0
        return run_one(args)
    finally:
        stop_helpers()


if __name__ == "__main__":
    sys.exit(main())
