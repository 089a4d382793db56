"""Kill-mid-shard durability: manifests, torn tails, byte-identical atlases.

Two interruption modes are exercised:

* **simulated** — a completed sweep's on-disk state is rewound to what a
  SIGKILL leaves behind (manifest status pending and/or a shard file cut
  mid-line), deterministically covering the interesting kill points;
* **real** — a subprocess running the sweep is SIGKILLed mid-run, then
  the directory is resumed in-process.

In both cases the contract is the one the atlas layer depends on: after
resume, the record set and the atlas artifact must be byte-identical to
an uninterrupted run's.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import warnings

import pytest

from repro.fabric import build_atlas, write_atlas
from repro.fabric.manifest import ShardManifest
from repro.scenarios import SweepRunner, expand_grid, summarize_records


def grid():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return expand_grid(
            ["crw", "mr99"], [5],
            adversaries=("coordinator-killer",), seeds=4,
        )


@pytest.fixture(scope="module")
def cells():
    return grid()


@pytest.fixture(scope="module")
def serial_records(cells):
    return SweepRunner(cells, executor="serial").run()


def _truncate_mid_line(path, keep_lines: int, torn_bytes: int) -> None:
    """Rewind ``path`` to ``keep_lines`` full lines plus a torn prefix."""
    lines = path.read_bytes().splitlines(keepends=True)
    assert keep_lines < len(lines), "shard too small to interrupt"
    torn = lines[keep_lines][:torn_bytes]
    path.write_bytes(b"".join(lines[:keep_lines]) + torn)


class TestSimulatedKill:
    def _complete(self, cells, d, **kwargs):
        runner = SweepRunner(cells, executor="sharded", jsonl_path=d,
                             shards=4, chunk_size=3, **kwargs)
        runner.run()
        return runner

    def test_kill_mid_flush_resumes_to_identical_records(
        self, cells, serial_records, tmp_path
    ):
        d = tmp_path / "shards"
        self._complete(cells, d)
        reference = build_atlas(d)

        # Kill state: shard 1 died mid-append (torn line, status pending),
        # shard 3 never started (file gone, status pending).
        manifest = ShardManifest.load(str(d))
        manifest.shards[1].status = "pending"
        manifest.shards[3].status = "pending"
        manifest.save()
        _truncate_mid_line(d / manifest.shards[1].file, 1, 17)
        os.unlink(d / manifest.shards[3].file)

        resumed = SweepRunner(cells, executor="sharded", jsonl_path=d,
                              shards=4, chunk_size=3)
        records = resumed.run()
        assert records == serial_records
        # Shard 1 re-ran only its lost cells; shard 3 re-ran wholesale.
        assert 0 < resumed.executed < len(cells)
        assert resumed.resumed == len(cells) - resumed.executed
        assert resumed.resumed_shards == 2
        assert build_atlas(d) == reference

    def test_done_shard_with_gutted_file_is_demoted_and_rerun(
        self, cells, serial_records, tmp_path
    ):
        # A lying manifest (done, but the file lost records) must demote
        # the shard instead of returning a partial result set.
        d = tmp_path / "shards"
        self._complete(cells, d)
        manifest = ShardManifest.load(str(d))
        _truncate_mid_line(d / manifest.shards[0].file, 0, 9)

        resumed = SweepRunner(cells, executor="sharded", jsonl_path=d,
                              shards=4, chunk_size=3)
        records = resumed.run()
        assert records == serial_records
        assert resumed.executed == ShardManifest.load(str(d)).shards[0].cells

    def test_atlas_artifact_bytes_survive_kill_resume(
        self, cells, serial_records, tmp_path
    ):
        clean_dir = tmp_path / "clean"
        killed_dir = tmp_path / "killed"
        self._complete(cells, clean_dir)
        self._complete(cells, killed_dir)

        manifest = ShardManifest.load(str(killed_dir))
        manifest.shards[2].status = "pending"
        manifest.save()
        _truncate_mid_line(killed_dir / manifest.shards[2].file, 1, 5)
        SweepRunner(cells, executor="sharded", jsonl_path=killed_dir,
                    shards=4, chunk_size=3).run()

        write_atlas(clean_dir, tmp_path / "clean.json")
        write_atlas(killed_dir, tmp_path / "killed.json")
        assert (
            (tmp_path / "clean.json").read_bytes()
            == (tmp_path / "killed.json").read_bytes()
        )

    def test_serial_executor_reaches_the_same_atlas_rows(
        self, cells, serial_records, tmp_path
    ):
        # The atlas is a pure function of the record set: the serial
        # executor's records summarize to exactly the sharded atlas rows.
        d = tmp_path / "shards"
        self._complete(cells, d)
        from dataclasses import asdict

        atlas = build_atlas(d)
        serial_rows = [asdict(s) for s in summarize_records(serial_records)]
        assert atlas["rows"] == serial_rows


_KILL_SCRIPT = """
import sys, warnings
warnings.simplefilter("ignore")
from repro.scenarios import SweepRunner, expand_grid
cells = expand_grid(["crw", "mr99"], [5],
                    adversaries=("coordinator-killer",), seeds=4)
SweepRunner(cells, executor="sharded", jsonl_path=sys.argv[1],
            shards=4, chunk_size=3, processes=2).run()
print("COMPLETED", flush=True)
"""


def _stat(pid: int) -> tuple[str, int, int] | None:
    """``(state, ppid, start time)`` of ``pid`` from ``/proc``, or None."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1]), int(fields[19])


def _descendants(pid: int) -> dict[int, int]:
    """Every live descendant of ``pid`` → its start time (Linux ``/proc``)."""
    stats = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _stat(int(entry))
            if stat is not None:
                stats[int(entry)] = stat
    found: dict[int, int] = {}
    frontier = {pid}
    while frontier:
        frontier = {
            child for child, (_state, ppid, _start) in stats.items()
            if ppid in frontier and child not in found
        }
        found.update((child, stats[child][2]) for child in frontier)
    return found


def _still_running(procs: dict[int, int]) -> list[int]:
    """The pids of ``procs`` that are neither gone, reaped nor zombies."""
    out = []
    for pid, start in procs.items():
        stat = _stat(pid)
        if stat is not None and stat[2] == start and stat[0] != "Z":
            out.append(pid)
    return out


class TestRealKill:
    def test_sigkill_mid_run_resumes_byte_identical(
        self, cells, serial_records, tmp_path
    ):
        clean_dir = tmp_path / "clean"
        SweepRunner(cells, executor="sharded", jsonl_path=clean_dir,
                    shards=4, chunk_size=3).run()

        killed_dir = tmp_path / "killed"
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILL_SCRIPT, str(killed_dir)],
            stdout=subprocess.PIPE, env=env,
        )
        # Kill as soon as any shard bytes hit disk (mid-run with margin;
        # if the sweep still finishes first, resume degrades to a no-op
        # and the byte-identity assertions below still bite).
        have_proc = os.path.isdir("/proc")
        sweep_procs: dict[int, int] = {}
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if killed_dir.exists() and any(
                f.name.startswith("shard-") and f.stat().st_size > 0
                for f in killed_dir.iterdir()
            ):
                # The sweep's workers and resource tracker, just before
                # their parent is killed.
                if have_proc:
                    sweep_procs = _descendants(proc.pid)
                proc.send_signal(signal.SIGKILL)
                break
            time.sleep(0.002)
        proc.wait(timeout=60)

        # No process of the killed sweep may outlive it by more than a
        # few seconds: workers see EOF (or a broken pipe after their
        # in-flight shard) and exit, and the resource tracker follows.
        linger = time.monotonic() + 5.0
        while _still_running(sweep_procs) and time.monotonic() < linger:
            time.sleep(0.05)
        assert not _still_running(sweep_procs), (
            f"processes of the killed sweep still running: "
            f"{_still_running(sweep_procs)} of {sorted(sweep_procs)}"
        )

        # Orphaned daemon workers exit after at most their in-flight
        # shard; wait for the directory to go quiet before resuming.
        def footprint():
            if not killed_dir.exists():
                return ()
            return tuple(sorted(
                (f.name, f.stat().st_size) for f in killed_dir.iterdir()
            ))

        last = footprint()
        for _ in range(100):
            time.sleep(0.1)
            cur = footprint()
            if cur == last:
                break
            last = cur

        resumed = SweepRunner(cells, executor="sharded", jsonl_path=killed_dir,
                              shards=4, chunk_size=3)
        records = resumed.run()
        assert records == serial_records
        write_atlas(clean_dir, tmp_path / "clean.json")
        write_atlas(killed_dir, tmp_path / "killed.json")
        assert (
            (tmp_path / "clean.json").read_bytes()
            == (tmp_path / "killed.json").read_bytes()
        )

    def test_atlas_refuses_an_unresumed_directory(self, cells, tmp_path):
        d = tmp_path / "shards"
        SweepRunner(cells, executor="sharded", jsonl_path=d,
                    shards=4, chunk_size=3).run()
        manifest = ShardManifest.load(str(d))
        manifest.shards[0].status = "pending"
        manifest.save()
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="incomplete"):
            build_atlas(d)
