"""Early-stopping flooding uniform consensus: ``min(f+2, t+1)`` rounds.

This is the classic-model comparison point of the paper's Section 2.2: the
best early-deciding uniform consensus in the traditional model needs
``f + 2`` rounds (Charron-Bost & Schiper 2004, Keidar & Rajsbaum 2003),
one more than the extended-model algorithm.

The implementation follows the standard counting scheme (Raynal's guided
tour, PRDC'02):

* every round, broadcast ``(est, early)`` where ``est`` is the minimum
  value seen and ``early`` says "I will decide right after this message";
* maintain ``nbr[r]`` = number of processes heard from in round ``r``
  (counting yourself), with ``nbr[0] = n``;
* if ``nbr[r] == nbr[r-1]``, no process died *visibly* between the two
  rounds, which implies you heard from **every** process that was alive at
  the start of round ``r`` — hence your ``est`` is the minimum estimate
  anywhere in the system: set ``early``;
* a received ``early`` flag is adopted (the flag's value accompanies it and
  is the global minimum, so adopting keeps est consistent);
* a process with ``early`` set broadcasts once more and decides; everyone
  reaching round ``t + 1`` decides there unconditionally.

Why ``f + 2``: per process, ``nbr`` can strictly decrease at most ``f``
times, so among the ``f + 1`` comparisons available by round ``f + 1`` one
is an equality; the extra broadcast round makes it ``f + 2``.  Why uniform:
an equality at ``p`` implies ``p``'s estimate is the global minimum (every
process alive at the start of the round delivered to ``p`` — a sender that
reached *anyone* without reaching ``p`` would have made the count drop), and
``p`` only decides after successfully re-broadcasting that minimum to all.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import ConfigurationError
from repro.baselines.floodset import value_key
from repro.sync.api import (
    RoundInbox,
    SendPlan,
    SyncProcess,
    VectorAlgorithm,
    VectorSend,
    register_vector_table,
)
from repro.util.columns import put
from repro.util.tables import fill_column, refill_column

__all__ = ["EarlyStoppingConsensus"]


class EarlyStoppingConsensus(SyncProcess):
    """One early-stopping flooding process (classic model)."""

    __slots__ = ("proposal", "t", "est", "early", "_prev_nbr")

    def __init__(self, pid: int, n: int, proposal: Any, t: int) -> None:
        super().__init__(pid, n)
        if not 0 <= t < n:
            raise ConfigurationError(f"t must satisfy 0 <= t < n, got t={t}, n={n}")
        self.proposal = proposal
        self.t = t
        self.est: Any = proposal
        self.early = False  # set -> broadcast (est, EARLY) next round, then decide
        self._prev_nbr = n  # nbr[0] = n

    def send_phase(self, round_no: int) -> SendPlan:
        payload = (self.est, self.early)
        return SendPlan(
            data={j: payload for j in range(1, self.n + 1) if j != self.pid}
        )

    def compute_phase(self, round_no: int, inbox: RoundInbox) -> None:
        if self.early:
            # The EARLY broadcast of this round completed (we are computing,
            # hence we did not crash during the send phase): decide exactly
            # the value that was broadcast.
            self.decide(self.est)
            return

        nbr = len(inbox.data) + 1  # senders heard from, plus self
        flagged = False
        for est, early in inbox.data.values():
            if value_key(est) < value_key(self.est):
                self.est = est
            if early:
                flagged = True

        if round_no == self.t + 1:
            # Horizon: decide unconditionally (classic t+1 fallback).
            self.decide(self.est)
            return

        if flagged or nbr == self._prev_nbr:
            self.early = True
        self._prev_nbr = nbr


def _all_ints(values) -> bool:
    """Whether every value is a plain ``int`` (not a ``bool`` subclass)."""
    return all(type(v) is int for v in values)


@register_vector_table(EarlyStoppingConsensus)
class _EarlyStoppingVectorTable(VectorAlgorithm):
    """Columnar early-stopping: pid-indexed ``est``/``early``/``prev_nbr`` lists.

    The crash-free round has a closed form the whole-column state makes
    one pass: every sender reached every receiver, so each non-early
    receiver's new estimate is the *global* minimum over the active set,
    its ``nbr`` equals the active count, and the flag spreads to all or
    none.  Crash rounds reconstruct per receiver from the truncated
    sends (bounded by ``f`` rounds per run).  Requires plain-int
    proposals (``type(v) is int``: bools and ``SizedValue``s compare and
    bit-size differently) and a uniform horizon; anything else steps the
    object path.
    """

    __slots__ = ("n", "horizon", "est", "early", "prev_nbr", "dests")

    def __init__(
        self, n: int, horizon: int, est: list[int], early: list[bool], prev_nbr: list[int]
    ) -> None:
        self.n = n
        self.horizon = horizon  # uniform t + 1
        self.est = est
        self.early = early
        self.prev_nbr = prev_nbr
        self.dests: list[tuple[int, ...]] = [
            tuple(j for j in range(1, n + 1) if j != pid) for pid in range(n + 1)
        ]

    @classmethod
    def from_processes(
        cls, processes: Sequence[SyncProcess]
    ) -> "_EarlyStoppingVectorTable | None":
        horizon = processes[0].t + 1
        if any(p.t + 1 != horizon for p in processes):
            return None
        if not _all_ints(p.est for p in processes):
            return None
        n = processes[0].n
        est = [0] * (n + 1)
        early = [False] * (n + 1)
        prev_nbr = [0] * (n + 1)
        for p in processes:
            est[p.pid] = p.est
            early[p.pid] = p.early
            prev_nbr[p.pid] = p._prev_nbr
        return cls(n, horizon, est, early, prev_nbr)

    def refill(self, proposals: Sequence[Any]) -> bool:
        if not _all_ints(proposals):
            return False
        refill_column(self.est, proposals, offset=1)
        fill_column(self.early, False, offset=1)
        fill_column(self.prev_nbr, self.n, offset=1)
        return True

    def send_phase_vector(self, round_no: int, active: Sequence[int]) -> list[VectorSend]:
        # Every active process broadcasts (est, early) to all others.
        dests = self.dests
        est = self.est
        early = self.early
        return [(pid, dests[pid], (est[pid], early[pid]), ()) for pid in active]

    def compute_phase_vector(
        self,
        round_no: int,
        receivers: set[int],
        receiver_order: list[int],
        sends: list[VectorSend],
        crash_free: bool,
    ) -> dict[int, Any]:
        est = self.est
        early = self.early
        prev_nbr = self.prev_nbr
        decisions: dict[int, Any] = {}
        ro = receiver_order
        if crash_free:
            # Senders == receivers: one global minimum, one shared nbr.
            ests = [est[pid] for pid in ro]
            earlies = [early[pid] for pid in ro]
            m = min(ests)
            flagged = any(earlies)
            nbr = len(ro)
            if round_no == self.horizon:
                # Everyone decides: early processes their broadcast value,
                # the rest the global minimum (ascending pid order).
                for pid, e, v in zip(ro, earlies, ests):
                    decisions[pid] = v if e else m
                return decisions
            stayers = [pid for pid, e in zip(ro, earlies) if not e]
            for pid, e, v in zip(ro, earlies, ests):
                if e:
                    decisions[pid] = v
            put(est, stayers, m)
            if flagged:
                put(early, stayers, True)
            else:
                flips = [pid for pid in stayers if prev_nbr[pid] == nbr]
                put(early, flips, True)
            put(prev_nbr, stayers, nbr)
            return decisions
        # Crash round: per-receiver reconstruction over the truncated sends.
        full = self.n - 1
        for pid in ro:
            if early[pid]:
                decisions[pid] = est[pid]
                continue
            my_est = est[pid]
            flagged = False
            count = 0
            for sender, dests, payload, _control in sends:
                if sender == pid:
                    continue
                if len(dests) != full and pid not in dests:
                    continue  # truncated subset missing this receiver
                count += 1
                got, got_early = payload
                if got < my_est:  # plain ints: value_key is the identity
                    my_est = got
                if got_early:
                    flagged = True
            nbr = count + 1
            est[pid] = my_est
            if round_no == self.horizon:
                decisions[pid] = my_est
                continue
            if flagged or nbr == prev_nbr[pid]:
                early[pid] = True
            prev_nbr[pid] = nbr
        return decisions
