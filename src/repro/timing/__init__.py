"""The Section 2.2 round-cost model and crossover analysis."""

from repro.timing.model import RoundCost, TimingPoint, crossover_d, timing_series

__all__ = [
    "RoundCost",
    "TimingPoint",
    "crossover_d",
    "timing_series",
]
