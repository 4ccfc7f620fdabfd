"""Structured event publishing and the metrics registry.

The :class:`Tracer` is the single observability object shared by a
simulated cluster: protocol code emits events and per-phase latency
observations into it.  Events go only to subscribers — the one evidence
stream every consumer reads — and the benchmark harness reads the
:class:`~repro.sim.metrics.Metrics` registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.sim.metrics import Metrics

#: The normal-case phase taxonomy, in protocol order.  Each entry is a
#: histogram named ``phase.<name>`` in the tracer's metrics registry;
#: view changes, state transfer, and recovery add their own entries.
PHASES = (
    "request_to_pre_prepare",   # primary: request arrival -> pre-prepare sent
    "pre_prepare_to_prepared",  # pre-prepare accepted -> prepared certificate
    "prepared_to_executed",     # prepared -> tentative execution (fast path)
    "prepared_to_committed",    # prepared -> committed-local
    "committed_to_executed",    # committed -> executed (slow path)
    "request_to_reply",         # client: invoke -> result accepted
    "view_change",              # VIEW-CHANGE sent -> new view entered
    "state_transfer",           # transfer initiated -> checkpoint installed
)


@dataclass
class TraceEvent:
    time: float
    source: Any
    kind: str
    detail: Dict[str, Any]


class Tracer:
    """Publish/subscribe point for protocol events, plus phase metrics.

    Protocol code emits events; every consumer of them (FaultLab's
    evidence streams, tests asserting "a view change happened", the
    edge-read benchmark) is a subscriber.  Nothing is retained unless a
    subscriber keeps it, and with no subscribers ``emit`` builds no
    event at all.  Benchmarks read the ``metrics`` registry for
    per-phase latency breakdowns and counters.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.metrics = Metrics()
        self._clock = clock
        self._subscribers: List[Callable[[TraceEvent], None]] = []

    # -- clock ----------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulation clock that ``now`` reads."""
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    # -- events ---------------------------------------------------------------

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Call ``callback(event)`` for every later emit, in emit order."""
        self._subscribers.append(callback)

    def emit(self, time: float, source: Any, kind: str, **detail: Any) -> None:
        if not self._subscribers:
            return
        event = TraceEvent(time, source, kind, detail)
        for callback in self._subscribers:
            callback(event)

    def clear(self) -> None:
        self.metrics.clear()

    # -- metrics convenience --------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the named histogram."""
        self.metrics.observe(name, value)

    def observe_phase(self, phase: str, seconds: float) -> None:
        """Record one protocol-phase latency (histogram ``phase.<name>``)."""
        self.metrics.observe(f"phase.{phase}", seconds)
