"""The observability layer: event subscribers, histograms, metrics,
and the per-phase latency instrumentation in the BFT stack."""

import json
import math

import pytest

from repro.bft.statemachine import InMemoryStateManager
from repro.harness.report import (
    counters_table,
    histogram_table,
    phase_breakdown_table,
    run_selftest,
)
from repro.edge import EdgeTier
from repro.sim import Histogram, Metrics, Tracer, tracing
from tests.conftest import make_kv_cluster, record_events

put = InMemoryStateManager.op_put
get = InMemoryStateManager.op_get


# -- Tracer subscribers --------------------------------------------------------

def test_subscribers_see_every_event_in_emit_order():
    tracer = Tracer()
    first, second = [], []
    tracer.subscribe(lambda e: first.append((e.time, e.source, e.kind,
                                             e.detail)))
    tracer.subscribe(lambda e: second.append(first[-1]))
    for i in range(5):
        tracer.emit(float(i), f"n{i % 2}", "ab"[i % 2], i=i)
    assert first == [(float(i), f"n{i % 2}", "ab"[i % 2], {"i": i})
                     for i in range(5)]
    assert second == first  # each subscriber runs after the one before


def test_no_silent_drops_when_events_disabled(monkeypatch):
    """With no subscriber nothing is built or kept, however many events
    are emitted; a subscriber attached later misses none of its own."""
    built = []

    class CountingEvent(tracing.TraceEvent):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(tracing, "TraceEvent", CountingEvent)
    tracer = Tracer()
    before = dict(vars(tracer))
    for i in range(100_000):
        tracer.emit(float(i), "n", "e", i=i)
    assert built == []
    assert vars(tracer) == before
    assert tracer.metrics.to_json() == Metrics().to_json()
    seen = record_events(tracer)
    for i in range(3):
        tracer.emit(float(i), "n", "e", i=i)
    assert [e.detail["i"] for e in seen] == [0, 1, 2] and len(built) == 3


def test_clear_resets_metrics():
    tracer = Tracer()
    seen = record_events(tracer)
    tracer.observe("x", 1.0)
    tracer.clear()
    assert not tracer.metrics.histograms
    tracer.emit(1.0, "n", "a")
    assert [e.kind for e in seen] == ["a"]  # subscribers stay attached


def test_executed_and_accepted_events_carry_results():
    """Ordered, read-only and edge-read executions each emit one
    ``executed`` event with ``read_only`` and the computed result; the
    client's ``result_accepted`` carries the accepted result."""
    cluster = make_kv_cluster()
    events = record_events(cluster.tracer, "executed", "result_accepted")
    client = cluster.add_client("client0")
    assert client.call(put(2, b"two")) == b"ok"
    assert client.call(get(2), read_only=True) == b"two"
    tier = EdgeTier.for_cluster(cluster, read_timeout=0.05)
    tier.ports[0].breaker.signal_view_change()  # refresh from one replica
    assert tier.read(get(2)).result == b"two"
    cluster.run(1.0)

    def executed(client_id, request_id):
        return [e for e in events if e.kind == "executed"
                and e.detail["client"] == client_id
                and e.detail["request_id"] == request_id]

    write, read = executed("client0", 1), executed("client0", 2)
    assert sorted(e.source for e in write) == cluster.config.replica_ids
    assert {(e.detail["read_only"], e.detail["result"],
             e.detail["seq"]) for e in write} == {(False, b"ok", 1)}
    assert sorted(e.source for e in read) == cluster.config.replica_ids
    assert {(e.detail["read_only"], e.detail["result"])
            for e in read} == {(True, b"two")}
    edge = [e for e in events if e.kind == "executed"
            and e.detail["client"] == tier.edge_id]
    assert edge and {(e.detail["read_only"], e.detail["result"])
                     for e in edge} == {(True, b"two")}
    accepted = [(e.source, e.detail["request_id"], e.detail["result"])
                for e in events if e.kind == "result_accepted"
                and e.source == "client0"]
    assert accepted == [("client0", 1, b"ok"), ("client0", 2, b"two")]
    times = [e.time for e in events]
    assert times == sorted(times)


# -- Histogram ----------------------------------------------------------------

def test_histogram_aggregates_and_percentiles():
    hist = Histogram("h")
    for v in range(1, 101):
        hist.observe(float(v))
    assert hist.count == 100
    assert hist.sum == pytest.approx(5050.0)
    assert hist.mean == pytest.approx(50.5)
    assert hist.min == 1.0 and hist.max == 100.0
    assert hist.percentile(50) == 50.0
    assert hist.percentile(99) == 99.0
    assert hist.percentile(100) == 100.0
    assert hist.percentile(0) == 1.0


def test_histogram_empty_is_nan_not_zero():
    hist = Histogram("h")
    assert math.isnan(hist.mean)
    assert math.isnan(hist.percentile(50))
    with pytest.raises(ValueError):     # range is checked before emptiness
        hist.percentile(101)
    summary = hist.summary()
    assert summary["count"] == 0
    assert math.isnan(summary["mean"])


def test_histogram_bounded_samples_exact_aggregates():
    hist = Histogram("h", max_samples=8)
    for v in range(1000):
        hist.observe(float(v))
    assert hist.count == 1000           # exact even past the sample cap
    assert hist.max == 999.0
    assert len(hist._samples) == 8      # memory stays bounded
    with pytest.raises(ValueError):
        hist.percentile(101)


def test_full_sample_window_drops_the_oldest_observation():
    """Regression: ``observe`` overwrote slot ``count % max_samples``
    after incrementing ``count``, so 1..5 into four slots kept
    {1, 3, 4, 5} — the oldest sample outlived a newer one."""
    hist = Histogram("h", max_samples=4)
    for v in range(1, 6):
        hist.observe(float(v))
    assert sorted(hist._samples) == [2.0, 3.0, 4.0, 5.0]


@pytest.mark.parametrize("split", [0, 1, 2, 4, 6])
def test_merging_a_stream_keeps_the_window_observing_it_keeps(split):
    stream = [float(v) for v in range(1, 7)]
    observed = Metrics(max_samples_per_histogram=4)
    for v in stream:
        observed.observe("lat", v)
    head = Metrics(max_samples_per_histogram=4)
    tail = Metrics(max_samples_per_histogram=4)
    for v in stream[:split]:
        head.observe("lat", v)
    for v in stream[split:]:
        tail.observe("lat", v)
    head.merge(tail)
    merged, direct = head.histogram("lat"), observed.histogram("lat")
    assert sorted(merged._samples) == sorted(direct._samples) \
        == [3.0, 4.0, 5.0, 6.0]
    assert merged.count == direct.count and merged.sum == direct.sum


# -- Metrics registry ---------------------------------------------------------

def test_metrics_counters_gauges_histograms():
    m = Metrics()
    m.inc("ops")
    m.inc("ops", 4)
    m.observe("lat", 0.25)
    assert m.counter_value("ops") == 5
    assert m.counter_value("missing") == 0
    assert m.histogram("lat").count == 1


def test_metrics_json_export_round_trips():
    m = Metrics()
    m.inc("ops", 3)
    m.observe("lat", 0.5)
    exported = json.loads(m.to_json())
    assert exported["counters"]["ops"] == 3
    assert exported["histograms"]["lat"]["count"] == 1
    assert exported["histograms"]["lat"]["p50"] == 0.5
    # NaN (empty histogram) must export as null, not break JSON.
    m.histogram("empty")
    assert json.loads(m.to_json())["histograms"]["empty"]["mean"] is None


def test_metrics_merge():
    a, b = Metrics(), Metrics()
    a.inc("ops", 2)
    b.inc("ops", 3)
    a.observe("lat", 1.0)
    b.observe("lat", 3.0)
    a.merge(b)
    assert a.counter_value("ops") == 5
    assert a.histogram("lat").count == 2
    assert a.histogram("lat").mean == pytest.approx(2.0)


def test_merge_into_full_histogram_still_absorbs_samples():
    """Regression: merge used to stop copying the other registry's
    samples once the destination buffer was full, so merged percentiles
    silently ignored every late source.  It must overwrite round-robin
    exactly as ``observe`` does."""
    a = Metrics(max_samples_per_histogram=4)
    b = Metrics(max_samples_per_histogram=4)
    for _ in range(4):
        a.observe("lat", 1.0)       # destination buffer now full
    for _ in range(4):
        b.observe("lat", 100.0)
    a.merge(b)
    hist = a.histogram("lat")
    assert hist.count == 8
    assert hist.sum == pytest.approx(404.0)
    assert hist.max == 100.0
    # The buffer kept rotating: the merged percentile sees b's samples
    # (before the fix, p95 stayed at 1.0 forever).
    assert hist.percentile(95) == 100.0


def test_merge_with_prefix_namespaces_every_metric():
    a, b = Metrics(), Metrics()
    b.inc("requests", 7)
    b.observe("phase.commit", 0.5)
    a.merge(b, prefix="shard1.")
    assert a.counter_value("shard1.requests") == 7
    assert a.counter_value("requests") == 0
    assert a.histogram("shard1.phase.commit").count == 1
    assert "phase.commit" not in a.histograms


def test_prefixed_merge_preserves_percentiles_bit_for_bit():
    """A sharded deployment's aggregate must report each group's
    percentiles exactly as the group recorded them — the prefix merge
    into an empty registry carries every retained sample unchanged."""
    source = Metrics()
    for i in range(1000):
        source.observe("lat", (i * 37 % 1000) / 10.0)
    merged = Metrics()
    merged.merge(source, prefix="shard0.")
    original = source.histogram("lat")
    copied = merged.histogram("shard0.lat")
    assert copied.count == original.count
    assert copied.sum == original.sum
    assert copied.min == original.min and copied.max == original.max
    for p in (0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0):
        assert copied.percentile(p) == original.percentile(p)


def test_prefixed_merge_keeps_identically_named_shards_apart():
    shard0, shard1 = Metrics(), Metrics()
    shard0.inc("executed", 10)
    shard1.inc("executed", 4)
    shard0.observe("phase.commit", 1.0)
    shard1.observe("phase.commit", 9.0)
    total = Metrics()
    total.merge(shard0, prefix="shard0.")
    total.merge(shard1, prefix="shard1.")
    assert total.counter_value("shard0.executed") == 10
    assert total.counter_value("shard1.executed") == 4
    assert total.histogram("shard0.phase.commit").mean == 1.0
    assert total.histogram("shard1.phase.commit").mean == 9.0


def test_merge_partially_full_buffer_appends_then_rotates():
    a = Metrics(max_samples_per_histogram=4)
    b = Metrics(max_samples_per_histogram=4)
    for v in (1.0, 2.0):
        a.observe("lat", v)
    for v in (10.0, 20.0, 30.0):
        b.observe("lat", v)
    a.merge(b)
    hist = a.histogram("lat")
    assert hist.count == 5
    assert len(hist._samples) == 4              # memory stays bounded
    assert 30.0 in hist._samples                # the overflow wrapped in


# -- protocol phase instrumentation -------------------------------------------

def test_normal_case_populates_phase_histograms():
    cluster = make_kv_cluster()
    client = cluster.add_client("client0")
    for i in range(10):
        client.call(put(i % 8, b"v%d" % i))
    metrics = cluster.metrics
    # With tentative execution on (the default), execution happens at
    # prepared time, so the fast-path phase replaces committed_to_executed.
    for phase in ("request_to_pre_prepare", "pre_prepare_to_prepared",
                  "prepared_to_committed", "prepared_to_executed",
                  "request_to_reply"):
        hist = metrics.histograms.get(f"phase.{phase}")
        assert hist is not None and hist.count > 0, phase
    # The client saw every op end-to-end; latencies are causally ordered
    # (a request cannot reach the client faster than it committed).
    e2e = metrics.histogram("phase.request_to_reply")
    assert e2e.count == 10
    assert e2e.min > 0
    assert cluster.metrics.counter_value("client.requests") == 10


def test_view_change_duration_recorded():
    cluster = make_kv_cluster(view_change_timeout=0.5,
                              client_retry_timeout=0.3)
    client = cluster.add_client("client0")
    cluster.replicas[0].crash()
    client.call(put(0, b"survived"))
    vc = cluster.metrics.histograms.get("phase.view_change")
    assert vc is not None and vc.count >= 1
    assert vc.min > 0


def test_state_transfer_duration_recorded():
    cluster = make_kv_cluster(checkpoint_interval=4)
    client = cluster.add_client("client0")
    lagger = cluster.replicas[3]
    for other in cluster.config.replica_ids:
        if other != lagger.node_id:
            cluster.network.partition(lagger.node_id, other)
    for i in range(12):
        client.call(put(i % 16, b"w%d" % i))
    cluster.network.heal_all()
    for i in range(4):
        client.call(put(i % 16, b"x%d" % i))
    cluster.run(5.0)
    st = cluster.metrics.histograms.get("phase.state_transfer")
    assert st is not None and st.count >= 1
    assert cluster.metrics.counter_value("transfer.objects_fetched") > 0


def test_recovery_breakdown_recorded():
    cluster = make_kv_cluster(checkpoint_interval=4, reboot_delay=1.0)
    client = cluster.add_client("client0")
    for i in range(8):
        client.call(put(i % 8, b"r%d" % i))
    cluster.run(1.0)
    cluster.replicas[2].recovery.start_recovery()
    cluster.run(10.0)
    metrics = cluster.metrics
    assert metrics.counter_value("recovery.completed") == 1
    assert metrics.histogram("recovery.reboot").mean == pytest.approx(1.0)
    total = metrics.histogram("recovery.total").mean
    parts = sum(metrics.histogram(f"recovery.{p}").mean
                for p in ("shutdown", "reboot", "restart", "fetch_and_check"))
    assert total == pytest.approx(parts)


# -- rendering and the smoke target -------------------------------------------

def test_phase_breakdown_table_renders_in_protocol_order():
    cluster = make_kv_cluster()
    client = cluster.add_client("client0")
    for i in range(5):
        client.call(put(i, b"v"))
    table = cluster.phase_report()
    lines = table.splitlines()
    order = [line.split()[0] for line in lines[3:] if line.strip()]
    assert order.index("pre_prepare_to_prepared") \
        < order.index("prepared_to_executed") \
        < order.index("prepared_to_committed") \
        < order.index("request_to_reply")


def test_histogram_and_counter_tables_render_empty_registries():
    m = Metrics()
    assert "(no rows)" in histogram_table(m, "empty")
    assert "(no rows)" in counters_table(m)
    assert "(no rows)" in phase_breakdown_table(m)


def test_report_selftest_end_to_end(capsys):
    metrics = run_selftest(ops=10, verbose=True)
    out = capsys.readouterr().out
    assert "Per-phase latency breakdown" in out
    assert "client.requests" in out
    assert metrics.counter_value("client.requests") == 15
