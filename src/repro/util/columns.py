"""Column scatter for the pid-indexed vector tables.

The synchronous vector tables (:mod:`repro.core.crw`,
:mod:`repro.core.variants`, :mod:`repro.baselines.early_stopping`) keep
their per-process state in plain pid-indexed lists; :func:`put` is the
one element helper they share, and :mod:`repro.util.tables`'s refill
helpers rewrite those lists in place.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["HAVE_NUMPY", "put"]

# The package is stdlib only; kept for perfbench's environment report.
HAVE_NUMPY = False


def put(column: list, indices: Sequence[int], value: Any) -> None:
    """Scatter one ``value`` into every slot named by ``indices``."""
    for i in indices:
        column[i] = value
