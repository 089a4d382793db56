"""FloodSet: the textbook ``t+1``-round uniform consensus (classic model).

This is the flooding strategy the paper's footnote 5 describes as the basis
of "all the consensus algorithms for synchronous systems that we are aware
of": at every round each process relays the *new* values it learned in the
previous round; after ``t + 1`` rounds it decides a deterministic function
(here: the minimum) of its value set ``W``.

Correctness sketch (classic): with at most ``t`` crashes over ``t + 1``
rounds, some round is crash-free; after it all live processes hold equal
``W`` sets, and a set can only grow with values every live process already
has, so every process that completes round ``t + 1`` decides the same
minimum.  Uniform agreement holds because *any* decider (even one about to
crash later — there is no later) executed all ``t + 1`` rounds.

The algorithm never stops early: its round count is ``t + 1`` regardless of
``f``, which is exactly the comparison point of the paper's introduction
("when considering only t: any t-resilient consensus algorithm requires
t + 1 rounds").

Values must be totally ordered (ints, strings, or ``SizedValue`` wrapping a
comparable value — comparison uses the wrapped value).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.errors import ConfigurationError
from repro.net.payload import SizedValue
from repro.sync.api import (
    NO_SEND,
    RoundInbox,
    SendPlan,
    SyncProcess,
    VectorAlgorithm,
    VectorSend,
    register_vector_table,
)

__all__ = ["FloodSetConsensus", "value_key"]


def value_key(value: Any) -> Any:
    """Total-order key used by flooding baselines to pick a decision."""
    if isinstance(value, SizedValue):
        return value.value
    return value


class FloodSetConsensus(SyncProcess):
    """One FloodSet process (classic synchronous model, ``t+1`` rounds)."""

    __slots__ = ("proposal", "t", "known", "_new")

    def __init__(self, pid: int, n: int, proposal: Any, t: int) -> None:
        super().__init__(pid, n)
        if not 0 <= t < n:
            raise ConfigurationError(f"t must satisfy 0 <= t < n, got t={t}, n={n}")
        self.proposal = proposal
        self.t = t
        self.known: set[Any] = {proposal}  # W: every value seen so far
        self._new: set[Any] = {proposal}  # values learned last round (to relay)

    @property
    def horizon(self) -> int:
        """The fixed decision round, ``t + 1``."""
        return self.t + 1

    def send_phase(self, round_no: int) -> SendPlan:
        if round_no > self.horizon:
            return NO_SEND  # defensive; the process decides at the horizon
        if not self._new:
            return NO_SEND  # flooding optimisation: nothing new, stay silent
        payload = frozenset(self._new)
        return SendPlan(data={j: payload for j in range(1, self.n + 1) if j != self.pid})

    def compute_phase(self, round_no: int, inbox: RoundInbox) -> None:
        incoming: set[Any] = set()
        for values in inbox.data.values():
            incoming.update(values)
        self._new = incoming - self.known
        self.known |= self._new
        if round_no == self.horizon:
            self.decide(min(self.known, key=value_key))


def _universe(values: Iterable[Any]) -> list[Any] | None:
    """``values`` deduplicated and sorted by :func:`value_key`, or None.

    None when the keys cannot be strictly ordered: unhashable or
    incomparable keys, and ties — two values that are not the same value
    (type and equality) but share a key.  With a tie the object path's
    ``min(W, key=value_key)`` would depend on set iteration order, and
    a set would silently merge equal values of different types
    (``1 == True``), so such universes step the object path instead.
    """
    by_key: dict[Any, Any] = {}
    try:
        for v in values:
            u = by_key.setdefault(value_key(v), v)
            if u is not v and (type(u) is not type(v) or u != v):
                return None
        universe = sorted(by_key.values(), key=value_key)
        keys = [value_key(v) for v in universe]
        if not all(a < b for a, b in zip(keys, keys[1:])):
            return None
    except TypeError:
        return None
    return universe


@register_vector_table(FloodSetConsensus)
class _FloodSetVectorTable(VectorAlgorithm):
    """Bitset FloodSet: each value set as one Python-int bitset per process.

    Bit ``i`` stands for ``universe[i]``, the run's values sorted by
    :func:`value_key`, so set union is ``|``, "learned nothing new" is
    ``incoming & ~known == 0``, and the horizon decision — the minimum of
    ``W`` — is the lowest set bit.  Python ints have no width cap, so any
    universe the keys strictly order vectorizes (see :func:`_universe`
    for what is declined), and a receiver's incoming set is one OR over
    the masks that reached it.  Payloads decode back to the exact
    frozensets the object path sends (cached per mask, so repeated
    relays cost a dict hit).
    """

    __slots__ = ("n", "horizon", "universe", "bit_of", "known", "new", "dests", "_payloads")

    def __init__(self, n: int, horizon: int, universe: list[Any]) -> None:
        self.n = n
        self.horizon = horizon  # uniform t + 1
        self.dests: list[tuple[int, ...]] = [
            tuple(j for j in range(1, n + 1) if j != pid) for pid in range(n + 1)
        ]
        self.known: list[int] = [0] * (n + 1)  # pid-indexed W bitsets
        self.new: list[int] = [0] * (n + 1)  # values learned last round
        self._payloads: dict[int, frozenset[Any]] = {}
        self._set_universe(universe)

    def _set_universe(self, universe: list[Any]) -> None:
        self.universe = universe  # bit -> value
        self.bit_of = {v: i for i, v in enumerate(universe)}
        self._payloads.clear()

    def _mask(self, values: Iterable[Any]) -> int:
        bit_of = self.bit_of
        mask = 0
        for v in values:
            mask |= 1 << bit_of[v]
        return mask

    @classmethod
    def from_processes(cls, processes: Sequence[SyncProcess]) -> "_FloodSetVectorTable | None":
        horizon = processes[0].horizon
        if any(p.horizon != horizon for p in processes):
            return None
        universe = _universe(v for p in processes for v in p.known)
        if universe is None:
            return None
        table = cls(processes[0].n, horizon, universe)
        for p in processes:
            table.known[p.pid] = table._mask(p.known)
            table.new[p.pid] = table._mask(p._new)
        return table

    def refill(self, proposals: Sequence[Any]) -> bool:
        # A fresh FloodSet process starts with W = new = {proposal}; the
        # horizon and destination tuples are configuration, kept as-is.
        universe = _universe(proposals)
        if universe is None:
            return False  # factory + reset instead (mode re-detected)
        if universe != self.universe or len(self._payloads) > 2 * self.n:
            # Reruns over one universe reuse the decoded payloads; the
            # bound keeps a long lease from accumulating every crash
            # pattern's masks (one crash-free run decodes about 2n).
            self._set_universe(universe)
        bit_of = self.bit_of
        masks = [1 << bit_of[v] for v in proposals]
        self.known[1:] = masks
        self.new[1:] = masks
        return True

    def _payload(self, mask: int) -> frozenset[Any]:
        """The frozenset the object path would send for this ``new`` mask."""
        cached = self._payloads.get(mask)
        if cached is None:
            universe = self.universe
            values = []
            m = mask
            while m:
                low = m & -m
                values.append(universe[low.bit_length() - 1])
                m ^= low
            cached = self._payloads[mask] = frozenset(values)
        return cached

    def send_phase_vector(self, round_no: int, active: Sequence[int]) -> list[VectorSend]:
        if round_no > self.horizon:
            return []  # defensive, mirroring the object path
        dests = self.dests
        new = self.new
        payload = self._payload
        return [(pid, dests[pid], payload(new[pid]), ()) for pid in active if new[pid]]

    def compute_phase_vector(
        self,
        round_no: int,
        receivers: set[int],
        receiver_order: list[int],
        sends: list[VectorSend],
        crash_free: bool,
    ) -> dict[int, Any]:
        known = self.known
        new = self.new
        # Full broadcasts reach every receiver: one OR serves them all.  A
        # receiver's own relay adds only bits it already knows, so it need
        # not be excluded.  The masks come straight out of the ``new``
        # column (the payloads were cut from it this very round); only a
        # crashing sender's truncated subset needs a per-receiver test.
        full = self.n - 1
        total = 0
        partial = []
        for sender, dests, _payload, _control in sends:
            if len(dests) == full:
                total |= new[sender]
            else:
                partial.append((dests, new[sender]))
        for pid in receiver_order:
            incoming = total
            for dests, mask in partial:
                if pid in dests:
                    incoming |= mask
            k = known[pid]
            fresh = incoming & ~k
            new[pid] = fresh
            known[pid] = k | fresh
        if round_no != self.horizon:
            return {}
        # Horizon: everyone decides min(W) — the lowest set bit.
        universe = self.universe
        decisions = {}
        for pid in receiver_order:
            k = known[pid]
            decisions[pid] = universe[(k & -k).bit_length() - 1]
        return decisions
