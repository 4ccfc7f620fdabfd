"""Plain-text table/figure rendering for the benchmark harness.

Each benchmark prints the same rows/series the paper reports, alongside
the paper's values, so a reader can eyeball the shape agreement.  The
metrics helpers render the observability layer's per-phase latency
histograms (see :mod:`repro.sim.metrics`) next to those tables.

``python -m repro.harness.report --selftest`` stands up a small cluster,
runs a burst of operations, and prints the metrics export end-to-end —
a smoke target for CI.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.sim.metrics import Metrics
from repro.sim.tracing import PHASES


def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence], note: str = "") -> str:
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [max([len(h)] + [len(row[i]) for row in cells])
              for i, h in enumerate(headers)]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    if not cells:
        lines.append("(no rows)")
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i])
                               for i in range(len(row))))
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def overhead_pct(measured: float, baseline: float) -> float:
    """Percentage overhead of ``measured`` relative to ``baseline``.

    A non-positive baseline means the benchmark produced no work to
    compare against — that is a broken run, not a 0% overhead, so the
    result is NaN (which :func:`assert_shape` rejects loudly).
    """
    if baseline <= 0:
        return float("nan")
    return 100.0 * (measured - baseline) / baseline


def shape_note(label: str, measured_pct: float, paper_pct: float) -> str:
    return (f"{label}: measured +{measured_pct:.0f}% vs paper "
            f"+{paper_pct:.0f}% (shape check)")


def assert_shape(description: str, measured_pct: float, low: float,
                 high: float) -> None:
    """Benchmarks assert overheads land in a generous band around the
    paper's figure — tight enough to catch a broken shape, loose enough
    to absorb the simulator/scale substitution."""
    assert not math.isnan(measured_pct), (
        f"{description}: overhead is NaN (zero or negative baseline — "
        f"the benchmark measured nothing)")
    assert low <= measured_pct <= high, (
        f"{description}: overhead {measured_pct:.1f}% outside the "
        f"expected band [{low}, {high}]%")


# -- metrics rendering --------------------------------------------------------

def histogram_table(metrics: Metrics, title: str, prefix: str = "",
                    scale: float = 1.0, unit: str = "s",
                    order: Optional[Sequence[str]] = None,
                    note: str = "") -> str:
    """Render every histogram under ``prefix`` as count/mean/percentiles.

    ``scale`` multiplies the recorded values (1e6 renders seconds as
    microseconds); ``order`` lists short names (prefix stripped) that
    should sort first, in that order.
    """
    items = metrics.histograms_with_prefix(prefix)
    if order:
        rank = {name: i for i, name in enumerate(order)}
        items.sort(key=lambda kv: (rank.get(kv[0][len(prefix):], len(rank)),
                                   kv[0]))
    rows = []
    for name, hist in items:
        if hist.count == 0:
            continue
        rows.append((name[len(prefix):] if prefix else name,
                     hist.count,
                     hist.mean * scale,
                     hist.percentile(50) * scale,
                     hist.percentile(90) * scale,
                     hist.percentile(99) * scale,
                     hist.max * scale))
    headers = ["phase" if prefix == "phase." else "histogram", "count",
               f"mean ({unit})", f"p50 ({unit})", f"p90 ({unit})",
               f"p99 ({unit})", f"max ({unit})"]
    return format_table(title, headers, rows, note=note)


def phase_breakdown_table(metrics: Metrics,
                          title: str = "Per-phase latency breakdown "
                                       "(microseconds, simulated)",
                          note: str = "") -> str:
    """The canonical per-phase table benchmarks print alongside the
    paper's figures: one row per protocol phase, in protocol order."""
    return histogram_table(metrics, title, prefix="phase.", scale=1e6,
                           unit="us", order=list(PHASES), note=note)


def counters_table(metrics: Metrics, title: str = "Counters",
                   prefix: str = "") -> str:
    rows = [(name, value) for name, value in sorted(metrics.counters.items())
            if name.startswith(prefix)]
    return format_table(title, ["counter", "value"], rows)


# -- CLI smoke target ---------------------------------------------------------

def run_selftest(ops: int = 25, verbose: bool = True) -> Metrics:
    """Exercise the metrics pipeline end-to-end on a small cluster.

    Builds a 4-replica key-value group, runs a burst of writes and
    reads, then asserts that every normal-case phase histogram is
    populated, that a tracer subscriber saw one ``executed`` event per
    replica per op, and that the JSON export round-trips.  Returns the
    populated registry.
    """
    import json

    from repro.bft.statemachine import InMemoryStateManager
    from repro.harness.cluster import build_cluster

    cluster = build_cluster(lambda i: InMemoryStateManager(size=16))
    executed = []

    def on_event(event) -> None:
        if event.kind == "executed":
            executed.append((event.source, event.detail["request_id"]))

    cluster.tracer.subscribe(on_event)
    client = cluster.add_client("selftest")
    for i in range(ops):
        client.call(InMemoryStateManager.op_put(i % 8, b"v%d" % i))
    for i in range(5):
        client.call(InMemoryStateManager.op_get(i % 8), read_only=True)
    cluster.run(1.0)  # replicas outside the accepting quorum catch up

    metrics = cluster.metrics
    for phase in ("request_to_pre_prepare", "pre_prepare_to_prepared",
                  "prepared_to_committed", "prepared_to_executed",
                  "request_to_reply"):
        hist = metrics.histograms.get(f"phase.{phase}")
        assert hist is not None and hist.count > 0, \
            f"selftest: phase.{phase} never observed"
    assert sorted(executed) == sorted(
        (r.node_id, request_id) for r in cluster.replicas
        for request_id in range(1, ops + 6)), \
        "selftest: not one executed event per replica per op"
    assert metrics.counter_value("client.requests") == ops + 5

    exported = json.loads(metrics.to_json())
    assert "phase.request_to_reply" in exported["histograms"]

    if verbose:
        print(cluster.phase_report())
        print()
        print(counters_table(metrics, title="Client counters",
                             prefix="client."))
        print()
        print(metrics.to_json())
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.report",
        description="Benchmark-report utilities.")
    parser.add_argument("--selftest", action="store_true",
                        help="run the end-to-end metrics smoke test")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress table/JSON output")
    args = parser.parse_args(argv)
    if args.selftest:
        run_selftest(verbose=not args.quiet)
        print("selftest: ok")
        return 0
    parser.print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
