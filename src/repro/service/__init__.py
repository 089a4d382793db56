"""Consensus as a service: the long-lived fault-tolerant serving layer.

Everything below this package turns one-shot consensus runs into a
*service*: client commands stream through a leader into
:class:`~repro.rsm.log.ReplicatedLog` slots and the system stays correct
and live while replicas crash under it.

* :mod:`~repro.service.ring` — :class:`LeaderRing`: alive-set,
  deterministic leader rotation (lowest live pid, matching the Figure-1
  slot winner), and the fencing epoch that kills deposed leaders' acks;
* :mod:`~repro.service.sessions` — client sessions with per-attempt
  timeouts, exponential-backoff retries, and the ``(session, request)``
  commit ledger that makes retries idempotent;
* :mod:`~repro.service.traffic` — open-loop (seeded Poisson) and
  closed-loop workload generators in virtual time;
* :mod:`~repro.service.metrics` — throughput and nearest-rank latency
  percentiles (p50/p99) as first-class outputs;
* :mod:`~repro.service.loop` — :class:`ConsensusService`, the serving
  loop that wires all of it to the replicated log, drills chaos kills
  through live slots (``repro-consensus service run --chaos
  "kill:leader,after=3,every=4"``), and degrades honestly when the crash
  budget runs out.

See ``DESIGN.md`` §3.6.
"""

from repro.service.loop import ConsensusService, ServiceReport
from repro.service.metrics import LatencyRecorder, ServiceCounters, percentile
from repro.service.ring import LeaderRing
from repro.service.sessions import (
    Ack,
    CommitRecord,
    Request,
    RetryPolicy,
    SessionTable,
)
from repro.service.traffic import (
    ClosedLoopWorkload,
    OpenLoopWorkload,
    Workload,
    command_stream,
)

__all__ = [
    "ConsensusService",
    "ServiceReport",
    "LeaderRing",
    "RetryPolicy",
    "Request",
    "Ack",
    "CommitRecord",
    "SessionTable",
    "Workload",
    "ClosedLoopWorkload",
    "OpenLoopWorkload",
    "command_stream",
    "LatencyRecorder",
    "ServiceCounters",
    "percentile",
]
