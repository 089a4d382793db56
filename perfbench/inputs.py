"""Seeded input generators for the three workloads.

Everything a workload feeds the program is drawn here from the
benchmark's ``--seed``: grid shapes are fixed per workload (so one
repetition costs about the same on every seed) and the seed picks the
scenario seeds, the arrival schedule, the operations and the leader-kill
plan.  The generators are plain data in, plain data out; they import
nothing from the program.
"""

from __future__ import annotations

import random

__all__ = [
    "sync_grid",
    "fabric_grid",
    "storm_inputs",
    "request_ids",
]

# The paper's round-complexity grid.  crw is cheap per cell, FloodSet at
# n = 128 (t + 1 = 128 rounds on the list-batched fallback) is not, so
# the seed counts below keep every family under about half of the
# execute() time.
_SYNC_N = (16, 32, 64, 128)
_SYNC_F = (0, 1, 4, 16)
_SYNC_FAMILIES = (
    ("crw", ("coordinator-killer", "staggered"), 18),
    ("early-stopping", ("coordinator-killer", "staggered"), 1),
    ("floodset", ("coordinator-killer",), 1),
)
_ASYNC = ("mr99", "chandra-toueg")

# Many cheap cells on every backend: per-cell fixed costs dominate.
_FABRIC_ALGORITHMS = ("crw", "early-stopping", "mr99", "chandra-toueg", "ffd")
_FABRIC_N = (4, 6, 8)
_FABRIC_F = (0, 1, 2)
_FABRIC_ADVERSARIES = ("none", "coordinator-killer")
_FABRIC_SEEDS = 10
_FABRIC_SHARDS = 16

# The service storm: an open loop below saturation (a slot takes about
# 3.6 rounds, so capacity is about 0.28 requests per round).
_STORM_REPLICAS = 7
_STORM_T = 4
_STORM_SESSIONS = 16
_STORM_REQUESTS = 2000
_STORM_RATE = 0.15
_STORM_KEYS = 64


def _seed_base(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _rows(algorithm: str, ns, fs) -> list[tuple[int, list[int]]]:
    """``(n, f values)`` rows, each f within the algorithm's default t.

    Synchronous algorithms and ffd tolerate t = n - 1 crashes, the
    ◇S-based asynchronous ones a minority, t = (n - 1) // 2.
    """
    rows = []
    for n in ns:
        t = (n - 1) // 2 if algorithm in _ASYNC else n - 1
        rows.append((n, [f for f in fs if f <= t]))
    return rows


def sync_grid(seed: int) -> dict:
    """The sweep-sync grid: per family, ``(n, f values)`` rows and seeds."""
    rng = random.Random(f"sweep-sync/{seed}")
    return {
        "families": [
            {"algorithm": a, "rows": _rows(a, _SYNC_N, _SYNC_F),
             "adversaries": list(advs), "seeds": s}
            for a, advs, s in _SYNC_FAMILIES
        ],
        "seed_base": _seed_base(rng),
    }


def fabric_grid(seed: int) -> dict:
    """The sweep-fabric grid: cheap cells on all backends, one worker."""
    rng = random.Random(f"sweep-fabric/{seed}")
    return {
        "families": [
            {"algorithm": a, "rows": _rows(a, _FABRIC_N, _FABRIC_F),
             "adversaries": list(_FABRIC_ADVERSARIES), "seeds": _FABRIC_SEEDS}
            for a in _FABRIC_ALGORITHMS
        ],
        "seed_base": _seed_base(rng),
        "shards": _FABRIC_SHARDS,
        "processes": 1,
    }


def storm_inputs(seed: int) -> dict:
    """Arrival schedule, kv operations and leader-kill plan of the storm.

    ``arrivals`` holds ``(due, session, op)`` in due order: Poisson
    arrivals at ``rate`` per round, each from a random session.  The
    kill plan fires three leader kills at seeded slots, spread over the
    run so most of it is steady-state serving.
    """
    rng = random.Random(f"service-storm/{seed}")
    arrivals = []
    due = 0.0
    for i in range(_STORM_REQUESTS):
        due += rng.expovariate(_STORM_RATE)
        session = rng.randrange(1, _STORM_SESSIONS + 1)
        key = rng.randrange(_STORM_KEYS)
        if rng.random() < 0.125:
            op = f"del k{key}"
        else:
            op = f"set k{key} v{i}"
        arrivals.append((due, session, op))
    after = rng.randrange(100, 300)
    every = rng.randrange(400, 600)
    return {
        "n": _STORM_REPLICAS,
        "t": _STORM_T,
        "service_seed": _seed_base(rng),
        "chaos": f"kill:leader,after={after},every={every},count=3,point=rand",
        "chaos_seed": _seed_base(rng),
        "arrivals": arrivals,
    }


def request_ids(arrivals) -> dict[tuple[int, int], int]:
    """Map each ``(session, request_id)`` to its arrival's index.

    The service numbers each session's requests 1, 2, ... in admission
    order, and admission follows due order, so the k-th arrival of a
    session becomes that session's request k.
    """
    counts: dict[int, int] = {}
    out = {}
    for index, (_due, session, _op) in enumerate(arrivals):
        rid = counts.get(session, 0) + 1
        counts[session] = rid
        out[(session, rid)] = index
    return out
