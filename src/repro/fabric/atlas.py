"""Merge-on-read tradeoff atlases over a shard directory.

The point of a million-cell sweep is the paper's tradeoff surface —
rounds vs. messages vs. bits as synchronization messages (and faults)
are added — and the **atlas** is that surface as a regeneratable
artifact: one deterministic JSON document reduced from the per-shard
columnar files, the way zamlet's ``dse/`` sweeps are reduced by
``analyze_results.py``.

Nothing here materializes the sweep: shard files stream one line at a
time through the incremental aggregation of
:func:`repro.scenarios.sweep.summarize_record_sources`, so working
memory is one batch line plus one accumulator per distinct cell group.
The artifact carries the manifest's grid hash, which makes "same grid,
same results" checkable byte-for-byte: an interrupted-and-resumed sweep
must produce an atlas identical to an uninterrupted run's (pinned by
``tests/fabric/test_sharded_durability.py``).

A directory whose sweep quarantined poison cells (see
:class:`repro.fabric.manifest.QuarantineLog`) still summarizes: shards
marked ``"quarantined"`` are complete except for the quarantined cells,
and the atlas reports the shortfall honestly — ``quarantined`` counts
the excluded cells and ``covered_cells`` is what the rows actually
aggregate over, so partial coverage can never masquerade as full.

``repro-consensus atlas summarize --dir DIR`` is the CLI face.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Any, Iterator

from repro.errors import ConfigurationError
from repro.fabric.manifest import QuarantineLog, ShardManifest
from repro.scenarios.record import RunRecord, iter_shard_records
from repro.scenarios.sweep import CellSummary, summarize_record_sources

__all__ = [
    "ATLAS_SCHEMA",
    "atlas_summaries",
    "build_atlas",
    "write_atlas",
    "iter_directory_records",
]

ATLAS_SCHEMA = 2


def _shard_files(manifest: ShardManifest) -> list[str]:
    # "quarantined" shards are complete minus their quarantine.json
    # cells — their files hold every record that exists, so they merge.
    missing = [
        s.id for s in manifest.shards
        if s.status not in ("done", "quarantined")
    ]
    if missing:
        raise ConfigurationError(
            f"shard directory {manifest.directory!r} is incomplete: shards "
            f"{missing} are not done — rerun the sweep to resume them "
            f"before summarizing"
        )
    return [os.path.join(manifest.directory, s.file) for s in manifest.shards]


def iter_directory_records(
    directory: str | os.PathLike[str],
) -> Iterator[RunRecord]:
    """Stream every record of a completed shard directory, in grid order."""
    manifest = ShardManifest.load(os.fspath(directory))
    for path in _shard_files(manifest):
        yield from iter_shard_records(path)


def atlas_summaries(directory: str | os.PathLike[str]) -> list[CellSummary]:
    """Reduce a completed shard directory to per-cell summaries, streaming."""
    manifest = ShardManifest.load(os.fspath(directory))
    return summarize_record_sources(
        iter_shard_records(path) for path in _shard_files(manifest)
    )


def build_atlas(directory: str | os.PathLike[str]) -> dict[str, Any]:
    """The atlas document: grid identity + the rounds/messages/bits tables.

    A pure function of the shard files' record set — worker schedules,
    steal decisions, and kill/resume histories do not show up in it, so
    regenerating an atlas from a resumed sweep reproduces the
    uninterrupted run's bytes exactly.
    """
    directory = os.fspath(directory)
    manifest = ShardManifest.load(directory)
    quarantine = QuarantineLog.load(directory)
    rows = [asdict(summary) for summary in atlas_summaries(directory)]
    return {
        "schema": ATLAS_SCHEMA,
        "cells": manifest.cells,
        "covered_cells": manifest.cells - len(quarantine),
        "quarantined": len(quarantine),
        "shards": len(manifest.shards),
        "grid_hash": manifest.grid,
        "rows": rows,
    }


def write_atlas(
    directory: str | os.PathLike[str], out_path: str | os.PathLike[str]
) -> dict[str, Any]:
    """Write the atlas artifact JSON (deterministic bytes); returns the doc."""
    doc = build_atlas(directory)
    with open(os.fspath(out_path), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return doc
