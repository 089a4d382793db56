"""In-memory span recording, self times and tail percentiles.

A span is ``(name, start, end, parent, rid)``: ``parent`` is the index of
the enclosing span in the same process (-1 for a root) and ``rid`` the
request id the span serves (a grid cell index for sweeps, a slot or a
``(session, request_id)`` pair for the service).  Spans stay in a list
until the benchmark ends; nothing is written while a workload runs.

A layer's self time is its span's duration minus the part of that
interval covered by its direct child spans.
"""

from __future__ import annotations

import functools
import math
import statistics
import time

__all__ = [
    "Tracer",
    "self_times",
    "percentile",
    "supported_percentile",
    "quartiles",
]


class Tracer:
    """Records nested spans around wrapped callables.

    ``wrap`` replaces an attribute (a module function or a class method)
    with a recording wrapper that records while :attr:`enabled` is set;
    ``unwrap`` puts every original back, so untraced repetitions run the
    program exactly as shipped.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.enabled = False
        self.rid = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        self.spans = []
        self._stack = []
        self.rid = None

    def span(self, name, fn, *args, rid_of=None, **kwargs):
        """Call ``fn`` inside a span named ``name``; return its result.

        ``name`` may be a callable of the call's arguments, and ``rid_of``
        one that returns the request id the call serves (nested spans
        inherit it).
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        if callable(name):
            name = name(*args, **kwargs)
        spans = self.spans
        stack = self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        outer_rid = self.rid
        if rid_of is not None:
            self.rid = rid_of(*args, **kwargs)
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, self.rid)
            self.rid = outer_rid

    def wrap(self, owner, attr: str, name, rid_of=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``owner`` is a module, a namespace or the class that defines
        ``attr`` itself (a function or a class method).
        """
        original = vars(owner)[attr]
        method = original.__func__ if isinstance(original, classmethod) else original
        if not callable(method) or isinstance(method, (type, staticmethod)):
            raise TypeError(f"cannot wrap {owner!r}.{attr}")
        tracer = self

        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return method(*args, **kwargs)
            return tracer.span(name, method, *args, rid_of=rid_of, **kwargs)

        if method is not original:
            wrapper = classmethod(wrapper)
        self.replace(owner, attr, wrapper)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`unwrap`."""
        self._originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def unwrap(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def finished(self) -> list[tuple]:
        """The completed spans (a span still open has no end yet)."""
        return [s for s in self.spans if s is not None]


def self_times(spans: list[tuple]) -> list[float]:
    """Self time of each span: its duration minus its children's cover.

    ``spans`` must carry parent indices into the same list.  Overlapping
    children are merged before subtraction and clipped to the parent, so
    the result never goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _rid in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, _rid) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(max(0.0, (end - start) - covered))
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]


#: Candidate tail percentiles, lowest first.
TAILS = (90.0, 99.0, 99.9, 99.99)


def supported_percentile(count: int, tails=TAILS) -> float | None:
    """Highest tail percentile with at least ten samples beyond it.

    ``None`` when even the lowest candidate lacks ten samples beyond it.
    """
    best = None
    for q in tails:
        beyond = count - math.ceil(count * q / 100.0)
        if beyond >= 10:
            best = q
    return best


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
