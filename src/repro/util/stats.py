"""Tiny summary-statistics helpers used by the harness and benchmarks.

Standard library only, like the rest of the package.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["Summary", "summarize", "percentile"]


@dataclass(frozen=True, slots=True)
class Summary:
    """Five-number-ish summary of a sample of real values."""

    count: int
    mean: float
    std: float
    min: float
    p50: float
    p95: float
    max: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.3f} std={self.std:.3f} "
            f"min={self.min:.3f} p50={self.p50:.3f} p95={self.p95:.3f} max={self.max:.3f}"
        )


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile ``q`` in [0, 100] of a *sorted* list."""
    if not sorted_values:
        raise ConfigurationError("percentile of empty sample")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    pos = (q / 100.0) * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    v_lo, v_hi = float(sorted_values[lo]), float(sorted_values[hi])
    # lo + (hi - lo) * frac rather than the convex-combination form: the
    # latter underflows to 0.0 on subnormal inputs (e.g. two copies of
    # 5e-324), breaking min <= p50.
    return v_lo + (v_hi - v_lo) * frac


def summarize(values: Iterable[float]) -> Summary:
    """Compute a :class:`Summary` of ``values`` (must be non-empty)."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ConfigurationError("summarize() needs at least one value")
    n = len(data)
    # Clamp into [min, max]: mathematically guaranteed, but float summation
    # can drift by an ulp (e.g. three identical values).
    mean = min(max(sum(data) / n, data[0]), data[-1])
    var = sum((v - mean) ** 2 for v in data) / n if n > 1 else 0.0
    return Summary(
        count=n,
        mean=mean,
        std=math.sqrt(var),
        min=data[0],
        p50=percentile(data, 50.0),
        p95=percentile(data, 95.0),
        max=data[-1],
    )
