"""BaseBench: end-to-end BASE-stack workloads with per-layer attribution.

Run from the repository root::

    python3 basebench/run.py --workload basefs_andrew --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced repeats of the same run
and prints the per-layer metrics (see ``basebench/README.md``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
sample counts and per-repeat figures.

Every repeat rebuilds the deployment from the seed and drives the same
simulated run, so the simulated results of all repeats must be
identical -- the run checks that, and checks each repeat's outputs.
Wall throughput is the median over the repeats; wall latency
percentiles pool the requests of all repeats.  Wall times are counted
in reference seconds, rescaled to a fixed CPU speed sampled throughout
the run (see ``basebench/refclock.py``); the detail line also gives the
raw wall seconds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from basebench.layers import LAYERS, LayerTracer  # noqa: E402
from basebench.refclock import ReferenceClock, reference_loop  # noqa: E402
from basebench.workloads import BACKEND_CLASSES, WORKLOADS, Run  # noqa: E402

#: Measured repeats per run at least, whatever ``--seconds`` says.
MIN_REPEATS = 3
#: Set-ups timed per run: repeats that fall short of MIN_SETUPS, or of
#: SETUP_SECONDS of set-up time in all, are topped up with set-up-only
#: builds (a deployment that builds in milliseconds is timed many times),
#: up to MAX_SETUPS.
MIN_SETUPS = 5
SETUP_SECONDS = 1.0
MAX_SETUPS = 200
#: Where the traced run writes its spans (relative to the working
#: directory, which is the repository checkout).
SPAN_DIR = Path(".basebench")
#: A percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10

END_TO_END_UNITS = {
    "wall_ops_per_s": "ops/s",
    "wall_op_p50_us": "us",
    "wall_op_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_ops_per_s": "ops/sim_s",
    "sim_latency_p50_ms": "sim_ms",
    "sim_latency_p99_ms": "sim_ms",
    "sim_max_gap_ms": "sim_ms",
    "completed_op_ratio": "ratio",
}


def percentile(samples: List[float], p: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def timed_build(workload: str, seed: int) -> Tuple[Run, float]:
    """Build a workload's deployment; returns it and the set-up time in
    reference seconds."""
    gc.collect()
    clock = ReferenceClock()
    clock.start()
    run = WORKLOADS[workload](seed)
    clock.stop()
    return run, clock.elapsed


class Repeat:
    """One build + measured drive + check of a workload."""

    def __init__(self, workload: str, seed: int,
                 tracer: Optional[LayerTracer] = None):
        if tracer is None:
            run, self.setup_s = timed_build(workload, seed)
            before = _counters(run)
            clock = run.timed_drive()
        else:
            gc.collect()
            # Installed before the build: some entry points are bound at
            # construction (the wrapper's handle on ``modify``).  Set-up
            # work is then forgotten, so only the measured window counts.
            tracer.install(BACKEND_CLASSES[workload])
            try:
                run = WORKLOADS[workload](seed)
                self.setup_s = 0.0
                before = _counters(run)
                self.phases = _capture_phases(run)
                # The reference samples are spans of their own, so no
                # layer's self time includes them.
                run.recorder.clock = ReferenceClock(loop=tracer.wrap(
                    reference_loop, "reference.loop", "reference"))
                tracer.reset()
                clock = tracer.wrap(run.timed_drive, "workloads.drive",
                                    "workloads")()
            finally:
                tracer.uninstall()
            del run.cluster.tracer.observe_phase
        self.wall_s = clock.elapsed
        self.raw_wall_s = clock.wall_elapsed
        self.speed = clock.speed
        after = _counters(run)
        self.delta = {k: after[k] - before[k] for k in after}
        rec = run.recorder
        self.ops = rec.completed
        self.read_only_attempts = rec.read_only_attempts
        self.sim_latencies = rec.sim_latencies()
        self.wall_latencies = rec.wall_latencies()
        self.sim_window = run.sim_end - run.sim_start
        self.max_gap = rec.max_gap(run.sim_end)
        self.recoveries = [r for replica in run.replicas
                           for r in replica.recovery.records
                           if r.completed_at >= run.sim_start]
        self.views = max(r.view for r in run.correct_replicas())
        self.problems = run.problems()
        self.attempted = run.attempted()
        self.failed = run.failures()
        self.signature = hashlib.sha256(repr((
            rec.signature(), sorted(self.delta.items()), self.views,
            self.failed)).encode()).hexdigest()
        del run
        gc.collect()


def _counters(run: Run) -> Dict[str, float]:
    """Deterministic simulator-side counters, read at a window's ends."""
    metrics = run.cluster.metrics
    out: Dict[str, float] = {
        "events": run.scheduler.events_run,
        "messages": run.cluster.network.messages_sent,
        "bytes": run.cluster.network.bytes_sent,
    }
    for name in ("client.accept_read_only", "client.accept_tentative",
                 "client.accept_committed", "client.retransmissions",
                 "transfer.objects_fetched"):
        out[name] = metrics.counters.get(name, 0)
    batch = metrics.histograms.get("batch.size")
    out["batch.count"] = batch.count if batch else 0
    out["batch.sum"] = batch.sum if batch else 0.0
    return out


def _capture_phases(run: Run) -> Dict[str, List[float]]:
    """Collect the exact per-phase samples the tracer observes."""
    tracer = run.cluster.tracer
    observe = tracer.observe_phase
    samples: Dict[str, List[float]] = {"request_to_pre_prepare": [],
                                       "view_change": []}

    def capture(phase, seconds):
        if phase in samples:
            samples[phase].append(seconds)
        observe(phase, seconds)

    tracer.observe_phase = capture
    return samples


def _median(values: List[float]) -> float:
    return statistics.median(values)


def end_to_end(measured: List[Repeat], setups: List[float],
               detail: Dict) -> Dict[str, float]:
    first = measured[0]
    # Wall latencies of all repeats are pooled: more samples beyond p99.
    wall_latencies = [t for r in measured for t in r.wall_latencies]
    wall_p50, _ = percentile(wall_latencies, 50)
    wall_p99, wall_beyond = percentile(wall_latencies, 99)
    sim_p50, _ = percentile(first.sim_latencies, 50)
    sim_p99, sim_beyond = percentile(first.sim_latencies, 99)
    detail.update({
        "sim_latency_samples": len(first.sim_latencies),
        "sim_p99_beyond": sim_beyond,
        "wall_latency_samples": len(wall_latencies),
        "wall_p99_beyond": wall_beyond,
        "repeat_reference_s": [r.wall_s for r in measured],
        "repeat_raw_wall_s": [r.raw_wall_s for r in measured],
        "setups": len(setups),
    })
    return {
        "wall_ops_per_s": _median([r.ops / r.wall_s for r in measured]),
        "wall_op_p50_us": wall_p50 * 1e6,
        "wall_op_p99_us": wall_p99 * 1e6,
        "setup_s": _median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_ops_per_s": first.ops / first.sim_window,
        "sim_latency_p50_ms": sim_p50 * 1e3,
        "sim_latency_p99_ms": sim_p99 * 1e3,
        "sim_max_gap_ms": first.max_gap * 1e3,
        "completed_op_ratio": (first.attempted - first.failed)
        / first.attempted,
    }


def per_layer(untraced: List[Repeat], traced: List[Tuple[Repeat, LayerTracer]]
              ) -> Dict[str, Tuple[float, str]]:
    rep, tracer = traced[-1]
    ops = rep.ops
    d = rep.delta

    # Traced times are rescaled to reference seconds by each repeat's
    # median reference sample: spans keep raw wall timestamps.
    def self_us(layer: str) -> float:
        index = LAYERS.index(layer)
        return _median([t.self_time[index] * r.speed / r.ops * 1e6
                        for r, t in traced])

    def calls(*names: str) -> int:
        return sum(tracer.calls_of(n) for n in names)

    def per_call_us(*names: str) -> float:
        count = calls(*names)
        if not count:
            return 0.0
        return _median([sum(t.inclusive_of(n) for n in names) * r.speed
                        / count for r, t in traced]) * 1e6

    def ms_mean(values: List[float]) -> float:
        return statistics.fmean(values) * 1e3 if values else 0.0

    xdr = sum(c for n, c in zip(tracer.span_names, tracer.calls)
              if n.startswith(("XdrEncoder.", "XdrDecoder.")))
    ordered_accepts = (d["client.accept_tentative"]
                       + d["client.accept_committed"])
    queue_wait = rep.phases["request_to_pre_prepare"]
    metrics = {
        "sim.self_us_per_op": (self_us("sim"), "us/op"),
        "sim.events_per_op": (d["events"] / ops, "count/op"),
        "sim.messages_per_op": (d["messages"] / ops, "count/op"),
        "sim.bytes_per_op": (d["bytes"] / ops, "B/op"),
        "bft.self_us_per_op": (self_us("bft"), "us/op"),
        "bft.batch_size_mean": (d["batch.sum"] / d["batch.count"]
                                if d["batch.count"] else 0.0, "count"),
        "bft.queue_wait_ms_p50": (percentile(queue_wait, 50)[0] * 1e3
                                  if queue_wait else 0.0, "sim_ms"),
        "bft.read_only_accept_ratio": (
            d["client.accept_read_only"] / rep.read_only_attempts
            if rep.read_only_attempts else 0.0, "ratio"),
        "bft.tentative_accept_ratio": (
            d["client.accept_tentative"] / ordered_accepts
            if ordered_accepts else 0.0, "ratio"),
        "bft.retransmissions_per_op": (d["client.retransmissions"] / ops,
                                       "count/op"),
        "bft.view_changes": (rep.views, "count"),
        "bft.view_change_ms": (ms_mean(rep.phases["view_change"]),
                               "sim_ms"),
        "bft.transfer_objects_fetched": (d["transfer.objects_fetched"],
                                         "count"),
        "bft.recovery_ms_mean": (ms_mean([r.total for r in rep.recoveries]),
                                 "sim_ms"),
        "crypto.self_us_per_op": (self_us("crypto"), "us/op"),
        "crypto.macs_per_op": (tracer.work["macs"] / ops, "count/op"),
        "crypto.mac_verifies_per_op": (calls("Authenticator.verify") / ops,
                                       "count/op"),
        "crypto.digests_per_op": (calls("digest", "digest_many") / ops,
                                  "count/op"),
        "crypto.digest_bytes_per_op": (tracer.work["digest_bytes"] / ops,
                                       "B/op"),
        "encoding.self_us_per_op": (self_us("encoding"), "us/op"),
        "encoding.encodes_per_op": (calls("canonical") / ops, "count/op"),
        "encoding.decodes_per_op": (calls("decanonical") / ops, "count/op"),
        "encoding.encoded_bytes_per_op": (tracer.work["encoded_bytes"] / ops,
                                          "B/op"),
        "encoding.xdr_calls_per_op": (xdr / ops, "count/op"),
        "base.self_us_per_op": (self_us("base"), "us/op"),
        "base.checkpoints_per_op": (
            calls("AbstractStateManager.take_checkpoint") / ops, "count/op"),
        "base.checkpoint_us_mean": (
            per_call_us("AbstractStateManager.take_checkpoint"), "us"),
        "base.modifies_per_op": (calls("AbstractStateManager.modify") / ops,
                                 "count/op"),
        "service.self_us_per_op": (self_us("service"), "us/op"),
        "service.get_obj_per_op": (
            calls("NfsConformanceWrapper.get_obj",
                  "SqlConformanceWrapper.get_obj") / ops, "count/op"),
        "service.get_obj_us_mean": (
            per_call_us("NfsConformanceWrapper.get_obj",
                        "SqlConformanceWrapper.get_obj"), "us"),
        "service.put_objs_objects": (tracer.work["put_objs_objects"],
                                     "count"),
        "backend.self_us_per_op": (self_us("backend"), "us/op"),
        "backend.calls_per_op": (tracer.calls_in_layer("backend") / ops,
                                 "count/op"),
        "workloads.self_us_per_op": (self_us("workloads"), "us/op"),
        "trace.overhead_ratio": (
            _median([r.wall_s for r, _ in traced])
            / _median([r.wall_s for r in untraced]), "ratio"),
    }
    return metrics


def work_counts(tracer: LayerTracer) -> Tuple:
    """Everything a traced repeat counted; must repeat exactly.  (How
    often the reference loop ran depends on the machine, not the run.)"""
    reference = LAYERS.index("reference")
    return (tuple(c for c, layer in zip(tracer.calls, tracer.layer_of)
                  if layer != reference),
            tuple(sorted(tracer.work.items())))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    repeats: List[Repeat] = []
    measured: List[Repeat] = []
    traced: List[Tuple[Repeat, LayerTracer]] = []
    started = time.perf_counter()

    def more() -> bool:
        if any(rep.problems for rep in repeats):
            return False
        if time.perf_counter() - started < args.seconds:
            return True
        return not traced if args.trace else len(measured) < MIN_REPEATS

    while more():
        measured.append(Repeat(args.workload, args.seed))
        repeats.append(measured[-1])
        if args.trace:
            tracer = LayerTracer()
            rep = Repeat(args.workload, args.seed, tracer)
            traced.append((rep, tracer))
            repeats.append(rep)

    setups = [rep.setup_s for rep in measured]
    while not args.trace and len(setups) < MAX_SETUPS and (
            len(setups) < MIN_SETUPS or sum(setups) < SETUP_SECONDS):
        setups.append(timed_build(args.workload, args.seed)[1])

    problems = [p for rep in repeats for p in rep.problems]
    if any(rep.ops == 0 for rep in repeats):
        problems.append("a repeat completed no operations")
    if len({rep.signature for rep in repeats}) != 1:
        problems.append("repeats of one seed gave different simulated "
                        "results" + (" (tracing perturbed the simulation)"
                                     if args.trace else ""))
    if args.trace and len({work_counts(t) for _, t in traced}) != 1:
        problems.append("traced repeats counted different work")
    first = repeats[0]
    detail: Dict = {"workload": args.workload, "seed": args.seed,
                    "repeats": len(repeats), "ops": first.ops}
    metrics: Dict[str, Dict[str, float]] = {}
    if not problems and args.trace:
        for name, (value, unit) in per_layer(measured, traced).items():
            metrics[name] = {"value": value, "unit": unit}
        _, tracer = traced[-1]
        tracer.write_spans(SPAN_DIR / f"spans-{args.workload}")
        detail["spans"] = len(tracer.spans)
        detail["spans_dropped"] = tracer.spans.dropped
    elif not problems:
        values = end_to_end(measured, setups, detail)
        if min(detail["wall_p99_beyond"], detail["sim_p99_beyond"]) \
                < MIN_TAIL_SAMPLES:
            problems.append("too few samples beyond p99")
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
    detail["problems"] = problems[:20]
    print(json.dumps({"detail": detail}))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": first.attempted,
                      "failed": first.failed,
                      "metrics": metrics if correct else {}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
