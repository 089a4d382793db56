"""E3 — Section 2.2: the (f+1)(D+d) vs (f+2)D crossover series."""

from __future__ import annotations

from repro.harness.experiments import e3_timing
from repro.timing.model import RoundCost, timing_series


def test_e3_report(benchmark, report):
    result = benchmark.pedantic(e3_timing, rounds=1, iterations=1)
    report(result)
    assert result.findings["empirical_crossover_matches_formula"] is True


def test_e3_kernel_series(benchmark):
    series = benchmark(
        timing_series,
        100.0,
        (0, 1, 2, 4, 8),
        tuple(k / 100 for k in range(0, 160, 5)),
    )
    assert len(series) == 5 * 32


def test_e3_kernel_roundcost(benchmark):
    def kernel():
        cost = RoundCost(D=100.0, d=2.0)
        return [cost.extended_wins(f) for f in range(64)]

    wins = benchmark(kernel)
    # d=2: extended wins while f+1 < D/d = 50.
    assert wins[48] is True and wins[49] is False

