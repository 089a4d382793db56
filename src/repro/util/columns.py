"""Typed array columns: numpy when available, stdlib ``array`` fallback.

Early-stopping's vector table (:mod:`repro.baselines.early_stopping`)
holds its per-process state in int64 / bool columns: numpy arrays when
numpy is importable, :class:`array.array` buffers when it is not, plus a
small set of element accessors (gather / scatter) that dispatch on the
column's concrete type.  The CRW-family tables keep plain lists and
FloodSet keeps Python-int bitsets; :func:`put` and
:mod:`repro.util.tables`'s refill helpers accept those lists too.

Two properties every helper keeps, because the vectorized engine paths
are pinned byte-identical to the object paths:

* **Python scalars out.**  ``take`` returns built-in ``int`` / ``bool``
  values (``tolist`` on the numpy side), never numpy scalars — payloads
  and decisions feed the bit-accounting memo and JSON serialization,
  both of which are type-sensitive.
* **Backend equivalence.**  The numpy and fallback paths compute the
  same values; ``REPRO_NO_NUMPY=1`` forces the fallback so CI can pin
  the whole suite on it.

Eligibility: array columns only hold plain int64 values
(:func:`all_int64`); early-stopping over anything else — ``SizedValue``,
strings, service commands — steps the object path.
"""

from __future__ import annotations

import os
from array import array
from typing import Any, Iterable, Sequence

__all__ = [
    "HAVE_NUMPY",
    "np",
    "int64_fits",
    "all_int64",
    "int_column",
    "bool_column",
    "is_array_column",
    "assign_slice",
    "fill_slice",
    "take",
    "put",
]

if os.environ.get("REPRO_NO_NUMPY"):
    np = None  # forced fallback (the no-numpy CI job pins this path)
else:
    try:
        import numpy as np  # type: ignore[no-redef]
    except ImportError:  # pragma: no cover - exercised via REPRO_NO_NUMPY
        np = None

HAVE_NUMPY = np is not None

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def int64_fits(value: Any) -> bool:
    """Whether ``value`` is a plain int representable as an int64.

    Exact-type check on purpose: ``bool`` is an ``int`` subclass but
    serializes (and bit-sizes) differently, so it does not qualify.
    """
    return type(value) is int and _INT64_MIN <= value <= _INT64_MAX


def all_int64(values: Iterable[Any]) -> bool:
    """Whether every value passes :func:`int64_fits` (vector eligibility)."""
    return all(int64_fits(v) for v in values)


# -- constructors -----------------------------------------------------------


def int_column(values: Sequence[int], *, offset: int = 0):
    """An int64 column: ``offset`` zeroed slots then ``values``.

    Synchronous tables are pid-indexed with slot 0 unused — they pass
    ``offset=1``.
    """
    if np is not None:
        col = np.zeros(len(values) + offset, dtype=np.int64)
        col[offset:] = values
        return col
    return array("q", bytes(8 * offset)) + array("q", values)


def bool_column(values: Sequence[bool], *, offset: int = 0):
    """A bool column (``b`` int8 0/1 in the fallback)."""
    if np is not None:
        col = np.zeros(len(values) + offset, dtype=np.bool_)
        col[offset:] = values
        return col
    return array("b", bytes(offset)) + array("b", [1 if v else 0 for v in values])


def is_array_column(column: Any) -> bool:
    """Whether ``column`` is an array-backed column (numpy or ``array``)."""
    if isinstance(column, array):
        return True
    return np is not None and isinstance(column, np.ndarray)


# -- whole-column writes (the refill path) ----------------------------------


def assign_slice(column: Any, values: Sequence[Any], *, offset: int = 0) -> None:
    """``column[offset:] = values`` for list, numpy, and ``array`` columns.

    The stdlib ``array`` only accepts a same-typecode array on slice
    assignment, and numpy handles any sequence natively; lists take the
    plain slice write.  Length checking is the caller's job
    (:func:`repro.util.tables.refill_column` fronts this with the
    dtype-aware check and error message).
    """
    if isinstance(column, array):
        column[offset:] = array(column.typecode, values)
    else:
        column[offset:] = values


def fill_slice(column: Any, value: Any, *, offset: int = 0) -> None:
    """``column[offset:] = [value] * k`` for list, numpy, and ``array``."""
    if isinstance(column, array):
        column[offset:] = array(column.typecode, [value]) * (len(column) - offset)
    elif np is not None and isinstance(column, np.ndarray):
        column[offset:] = value
    else:
        column[offset:] = [value] * (len(column) - offset)


# -- element accessors (gather / scatter) ----------------------------------


def take(column: Any, indices: Sequence[int]) -> list:
    """Gather ``column[i] for i in indices`` as Python scalars."""
    if np is not None and isinstance(column, np.ndarray):
        return column[indices].tolist()
    return [column[i] for i in indices]


def put(column: Any, indices: Sequence[int], value: Any) -> None:
    """Scatter one ``value`` into every slot named by ``indices``."""
    if np is not None and isinstance(column, np.ndarray):
        if indices:
            column[indices] = value
        return
    for i in indices:
        column[i] = value
