"""Edge reads — bounded-stale serves from the lease cache vs quorum reads.

The EdgeTier's reason to exist: after warming it with linearizable
(quorum) reads and partitioning the edge from the core, bounded-stale
reads come straight from the lease cache, with no messages and no
quorum.  Their wall-clock throughput must beat the ``read_heavy`` closed
loop (90/10 reads over the read-only optimization, writes on tentative
commit certificates) by at least ``MIN_SPEEDUP`` on the same machine.
A rolling digest over every served ``(result, mode)`` record, compared
across two identical-seed runs, is the determinism witness.
"""

import gc
import random
import time

from benchmarks.conftest import lan_kv_cluster, run_once
from repro.bft.statemachine import InMemoryStateManager
from repro.crypto.digest import digest
from repro.edge import BOUNDED_STALE, LINEARIZABLE, EdgeTier
from repro.harness import costs as C
from repro.harness.report import format_table
from repro.sim.metrics import Metrics

put = InMemoryStateManager.op_put
get = InMemoryStateManager.op_get

SEED = 3
SLOTS = 16
DELTA = 60.0                    # lease ttl: every degraded serve is a hit
WARM_READS = 16
DEGRADED_READS = 800
EDGE_RUNS = 2
READ_HEAVY_SCALE = 25           # ops per client
READ_HEAVY_REPEATS = 3
MIN_SPEEDUP = 2.0


def edge_read_once():
    """Warm, partition, serve; returns (served modes, record digest chain)."""
    cluster = lan_kv_cluster(SEED, checkpoint_interval=16, batch_max=8)
    client = cluster.add_client("warmup", costs=C.PROTOCOL_COSTS)
    for key in range(SLOTS):
        client.call(put(key, b"edge%d" % key))
    tier = EdgeTier.for_cluster(cluster, delta=DELTA, read_timeout=0.05,
                                failure_threshold=1, cooldown=3600.0,
                                costs=C.PROTOCOL_COSTS)
    records = []

    def on_event(event) -> None:
        if event.kind == "edge_read":
            records.append(event.detail["record"])

    tier.tracer.subscribe(on_event)
    modes = [tier.read(get(i % SLOTS)).mode for i in range(WARM_READS)]
    edge_ids = set(tier.edge_node_ids)
    for edge_id in sorted(edge_ids):
        for other in cluster.network.node_ids():
            if other not in edge_ids:
                cluster.network.partition(edge_id, other)
    modes += [tier.read(get(i % SLOTS)).mode for i in range(DEGRADED_READS)]
    chain = b""
    for record in records:
        chain = digest(chain + record.result_digest + record.mode.encode())
    return modes, chain.hex()


def measure_edge_reads():
    """Time ``EDGE_RUNS`` identical-seed runs; returns (req/s, runs)."""
    runs = []
    wall = 0.0
    for _ in range(EDGE_RUNS):
        start = time.perf_counter()
        runs.append(edge_read_once())
        wall += time.perf_counter() - start
    return EDGE_RUNS * (WARM_READS + DEGRADED_READS) / wall, runs


def read_heavy(seed: int):
    """90/10 read/write closed loop from four clients over the fast path.

    Reads are issued with ``read_only=True``; the 10% writes keep ordered
    traffic (and tentative commit certificates) flowing and make the
    occasional read race a write.  The op mix is a pure function of the
    seed.  Returns the cluster and how many requests it served.
    """
    cluster = lan_kv_cluster(seed, checkpoint_interval=16, batch_max=8,
                             client_retry_timeout=0.4)
    n_clients = 4
    rng = random.Random(1_000_003 * seed + 17)
    plans = []
    for c in range(n_clients):
        ops = []
        for i in range(READ_HEAVY_SCALE):
            key = rng.randrange(16)
            if rng.random() < 0.9:
                ops.append((get(key), True))
            else:
                ops.append((put(key, b"rh%d" % i), False))
        plans.append(ops)

    done = {}
    clients = [cluster.add_client(f"client{c}", costs=C.PROTOCOL_COSTS).client
               for c in range(n_clients)]
    # Seed every key once so reads never hit an unwritten slot.
    warm = cluster.add_client("warmup", costs=C.PROTOCOL_COSTS)
    for key in range(16):
        warm.call(put(key, b"seed"))

    def make_cb(client, ops):
        def cb(_result):
            seq = done[client.node_id] = done.get(client.node_id, 0) + 1
            if seq < len(ops):
                op, read_only = ops[seq]
                client.invoke(op, cb, read_only=read_only)
        return cb

    for client, ops in zip(clients, plans):
        op, read_only = ops[0]
        client.invoke(op, make_cb(client, ops), read_only=read_only)
    assert cluster.run_until(
        lambda: all(done.get(c.node_id, 0) >= READ_HEAVY_SCALE
                    for c in clients)), "read_heavy did not complete"
    return cluster, n_clients * READ_HEAVY_SCALE


def measure_read_heavy():
    """The quorum-read baseline: one untimed warm-up run, then timed
    repeats with the collector paused; returns (req/s, merged metrics)."""
    read_heavy(seed=READ_HEAVY_REPEATS)
    merged = Metrics()
    wall = 0.0
    requests = 0
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for seed in range(READ_HEAVY_REPEATS):
            start = time.perf_counter()
            cluster, served = read_heavy(seed)
            wall += time.perf_counter() - start
            requests += served
            merged.merge(cluster.metrics)
    finally:
        if gc_was_enabled:
            gc.enable()
    return requests / wall, merged


def test_edge_read(benchmark):
    edge_rate, runs = run_once(benchmark, measure_edge_reads)
    (modes, chain), (_, other_chain) = runs
    assert other_chain == chain, "two runs with one seed served different " \
                                 "records"
    assert modes[:WARM_READS] == [LINEARIZABLE] * WARM_READS
    assert modes[WARM_READS:] == [BOUNDED_STALE] * DEGRADED_READS

    baseline_rate, metrics = measure_read_heavy()
    # The baseline must witness both fast paths and the batching path.
    assert metrics.counter_value("client.accept_read_only") > 0
    assert metrics.counter_value("client.accept_tentative") > 0
    assert metrics.histogram("batch.size").count > 0
    speedup = edge_rate / baseline_rate

    print()
    print(format_table(
        "Edge reads vs quorum reads (wall clock)",
        ["path", "req/s"],
        [("edge cache, bounded-stale", edge_rate),
         ("read_heavy, read-only quorum", baseline_rate)],
        note=f"{speedup:.1f}x (need >= {MIN_SPEEDUP}x); record digest "
             f"{chain[:12]}"))

    assert speedup >= MIN_SPEEDUP
