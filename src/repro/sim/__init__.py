"""Deterministic discrete-event simulation kernel.

The BFT/BASE protocols in this repository run on top of a simulated
asynchronous network rather than real sockets.  This keeps every run
deterministic (given a seed), lets tests explore Byzantine schedules
reproducibly, and lets the benchmark harness charge a calibrated cost
model for network, CPU, crypto, and disk time.

The kernel is deliberately small:

- :class:`~repro.sim.scheduler.Scheduler` — a priority queue of timed
  callbacks (the event loop).
- :class:`~repro.sim.network.Network` — unreliable, delay-injecting
  point-to-point and multicast message delivery between registered nodes.
- :class:`~repro.sim.node.Node` — base class for protocol participants
  with timer helpers.
- :class:`~repro.sim.tracing.Tracer` — event publishing to subscribers
  (the evidence stream) plus the metrics registry.
- :class:`~repro.sim.metrics.Metrics` — counters/gauges/histograms with
  percentile summaries, exportable as JSON or harness tables.
"""

from repro.sim.scheduler import Event, Scheduler
from repro.sim.metrics import Histogram, Metrics, Span
from repro.sim.network import LinkConfig, Network, NetworkConfig
from repro.sim.node import Node, Timer
from repro.sim.tracing import PHASES, Tracer

__all__ = [
    "Event",
    "Scheduler",
    "Histogram",
    "LinkConfig",
    "Metrics",
    "Network",
    "NetworkConfig",
    "Node",
    "PHASES",
    "Span",
    "Timer",
    "Tracer",
]
