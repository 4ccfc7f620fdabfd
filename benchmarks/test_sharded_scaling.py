"""Shard scaling — simulated throughput of 1 → 2 → 4 co-tenant BASE groups.

A weak-scaling sweep over :class:`~repro.service.sharding.ShardedDeployment`
of the SQL service on one fabric: every shard carries the same
closed-loop load (clients pinned to a table that hashes to it), so
simulated elapsed time stays flat while completed work grows with the
shard count.  The claim is at least 3x the 1-shard simulated req/s at
4 shards.  Two runs with one seed must reproduce the sweep bit for bit,
including the router's per-shard request-log digest chains.
"""

from benchmarks.conftest import run_once
from repro.bft.config import BftConfig
from repro.encoding.canonical import canonical
from repro.harness import costs as C
from repro.harness.report import format_table
from repro.service.sharding import ShardedDeployment, stable_shard
from repro.sql.service import SQL_SERVICE

SEED = 7
SHARD_COUNTS = (1, 2, 4)
CLIENTS_PER_SHARD = 2
OPS_PER_CLIENT = 6
MIN_SCALING = 3.0


def shard_tables(num_shards: int) -> list:
    """One table name per shard, in shard order (stable digest hashing)."""
    tables = {}
    i = 0
    while len(tables) < num_shards:
        name = f"t{i}"
        tables.setdefault(stable_shard(name, num_shards), name)
        i += 1
    return [tables[shard] for shard in range(num_shards)]


def sweep_point(num_shards: int) -> dict:
    """Build, load every shard, audit row counts through the router."""
    deployment = ShardedDeployment.build(
        SQL_SERVICE, num_shards,
        config=BftConfig(checkpoint_interval=16, batch_max=8),
        network_config=C.lan_network(SEED),
        replica_costs=[C.PROTOCOL_COSTS] * 4,
        seed=SEED)
    tables = shard_tables(num_shards)
    for table in tables:
        deployment.client.create_table(table, ["id", "val"], "id")

    done = {}
    drivers = []
    for shard_index, table in enumerate(tables):
        cluster = deployment.shards[shard_index].cluster
        for c in range(CLIENTS_PER_SHARD):
            sync = cluster.add_client(f"shard{shard_index}/loadgen{c}",
                                      costs=C.PROTOCOL_COSTS)
            drivers.append((sync.client, table, (c + 1) * 1_000_000))

    def make_cb(client, table, base):
        def cb(_result):
            seq = done[client.node_id] = done.get(client.node_id, 0) + 1
            if seq < OPS_PER_CLIENT:
                client.invoke(
                    canonical(("insert", table, (base + seq, f"w{seq}"))),
                    cb)
        return cb

    sim_start = deployment.scheduler.now
    for client, table, base in drivers:
        client.invoke(canonical(("insert", table, (base, "w0"))),
                      make_cb(client, table, base))
    assert deployment.scheduler.run_until_idle_or(
        lambda: all(done.get(client.node_id, 0) >= OPS_PER_CLIENT
                    for client, _, _ in drivers)), \
        f"{num_shards}-shard point did not complete"
    sim_seconds = deployment.scheduler.now - sim_start
    completed = sum(done.values())
    # Every shard holds exactly its clients' rows (the audit also
    # extends the digest chains deterministically).
    counts = [deployment.client.row_count(table) for table in tables]
    assert counts == [CLIENTS_PER_SHARD * OPS_PER_CLIENT] * num_shards, \
        f"per-shard row counts {counts}"
    return {
        "shards": num_shards,
        "requests": completed,
        "sim_seconds": sim_seconds,
        "sim_req_s": completed / sim_seconds,
        "ops_routed": list(deployment.router.ops_routed),
        "shard_log": [d.hex() for d in deployment.router.shard_logs],
    }


def sweep() -> list:
    return [sweep_point(n) for n in SHARD_COUNTS]


def test_sharded_scaling(benchmark):
    points = run_once(benchmark, sweep)
    assert sweep() == points, "two sweeps with one seed disagree"
    scaling = points[-1]["sim_req_s"] / points[0]["sim_req_s"]

    print()
    print(format_table(
        "Shard scaling: SQL ShardedDeployment, closed loop per shard "
        "(simulated)",
        ["shards", "requests", "sim seconds", "sim req/s", "ops routed"],
        [(p["shards"], p["requests"], p["sim_seconds"], p["sim_req_s"],
          p["ops_routed"]) for p in points],
        note=f"{scaling:.2f}x simulated req/s at {SHARD_COUNTS[-1]} shards "
             f"vs 1 (need >= {MIN_SCALING}x)"))

    for p in points:
        assert len(p["shard_log"]) == p["shards"]
    assert scaling >= MIN_SCALING
