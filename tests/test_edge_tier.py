"""EdgeTier: the lease cache, the circuit breaker, and the full
degradation ladder (LINEARIZABLE -> BOUNDED_STALE -> LAST_KNOWN_GOOD)
over a live cluster, including re-promotion after the partition heals.
"""

import pytest

from repro.bft.statemachine import InMemoryStateManager
from repro.crypto.digest import digest
from repro.edge import (
    BOUNDED_STALE,
    CLOSED,
    EVIDENCE_CERTIFICATE,
    EVIDENCE_VECTOR,
    HALF_OPEN,
    LAST_KNOWN_GOOD,
    LINEARIZABLE,
    OPEN,
    CircuitBreaker,
    EdgeCache,
    EdgeReply,
    EdgeTier,
    EdgeUnavailable,
    ReadLease,
    StalenessEvidence,
)
from tests.conftest import make_kv_cluster, record_events

put = InMemoryStateManager.op_put
get = InMemoryStateManager.op_get


def vector_evidence(issued_at, replicas=("replica0",)):
    return StalenessEvidence(kind=EVIDENCE_VECTOR,
                             issued_at_us=int(round(issued_at * 1_000_000)),
                             replicas=tuple(replicas))


# -- units: lease, cache, breaker, evidence ----------------------------------------


def test_read_lease_validity_window():
    lease = ReadLease(issued_at=1.0, ttl=0.5)
    assert lease.expires_at == pytest.approx(1.5)
    assert lease.valid(1.5)
    assert not lease.valid(1.51)


def test_edge_cache_lease_lifecycle():
    clock = [0.0]
    cache = EdgeCache(lambda: clock[0], delta=1.0)
    assert cache.get_fresh("k") is None
    assert cache.misses == 1
    cache.put("k", b"v", vector_evidence(0.0))
    assert len(cache) == 1 and cache.refreshes == 1
    clock[0] = 0.9
    entry = cache.get_fresh("k")
    assert entry is not None and entry.result == b"v"
    assert cache.hits == 1
    assert cache.staleness(entry) == pytest.approx(0.9)
    clock[0] = 1.1  # past Δ: the lease no longer validates
    assert cache.get_fresh("k") is None
    assert cache.misses == 2
    stale = cache.get_any("k")
    assert stale is not None and stale.result == b"v"
    assert cache.expired_hits == 1


def test_edge_cache_lease_starts_at_evidence_time_not_insert_time():
    """A refresh whose evidence is already old must not get a full Δ of
    freshness from the insertion clock."""
    clock = [2.0]
    cache = EdgeCache(lambda: clock[0], delta=1.0)
    entry = cache.put("k", b"v", vector_evidence(0.5))
    assert not entry.lease.valid(clock[0])


def test_edge_cache_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        EdgeCache(lambda: 0.0, delta=0.0)


def test_breaker_walks_the_state_machine():
    clock = [0.0]
    transitions = []
    breaker = CircuitBreaker(
        lambda: clock[0], failure_threshold=2, cooldown=1.0, probe_quota=2,
        on_transition=lambda old, new: transitions.append((old, new)))
    assert breaker.state == CLOSED and breaker.allow_attempt()
    breaker.record_failure()
    assert breaker.state == CLOSED  # below the threshold
    breaker.record_failure()
    assert breaker.state == OPEN and not breaker.allow_attempt()
    clock[0] = 0.5
    assert breaker.state == OPEN    # cooldown not yet elapsed
    clock[0] = 1.0
    assert breaker.state == HALF_OPEN and breaker.allow_attempt()
    breaker.record_success()
    assert breaker.state == HALF_OPEN  # quota is two probes
    breaker.record_success()
    assert breaker.state == CLOSED
    assert breaker.trips == 1 and breaker.promotions == 1
    assert (CLOSED, OPEN) in transitions
    assert (HALF_OPEN, CLOSED) in transitions


def test_breaker_half_open_probe_failure_reopens():
    clock = [0.0]
    breaker = CircuitBreaker(lambda: clock[0], failure_threshold=1,
                             cooldown=1.0)
    breaker.record_failure()
    clock[0] = 1.0
    assert breaker.state == HALF_OPEN
    breaker.record_failure()
    assert breaker.state == OPEN
    assert breaker.trips == 2


def test_breaker_view_change_signal_trips_immediately():
    clock = [0.0]
    breaker = CircuitBreaker(lambda: clock[0], failure_threshold=5)
    breaker.signal_view_change()
    assert breaker.state == OPEN
    breaker.signal_view_change()  # counted, but no double trip
    assert breaker.view_change_signals == 2
    assert breaker.trips == 1


def test_reply_flags_and_evidence_times():
    evidence = StalenessEvidence(kind=EVIDENCE_CERTIFICATE,
                                 issued_at_us=2_500_000,
                                 replicas=("replica0", "replica1"))
    assert evidence.issued_at == pytest.approx(2.5)
    assert not EdgeReply(b"r", LINEARIZABLE, None, evidence).degraded
    assert EdgeReply(b"r", BOUNDED_STALE, 0.5, evidence).degraded
    assert EdgeReply(b"r", LAST_KNOWN_GOOD, None, evidence).degraded


# -- integration: the ladder over a live cluster -----------------------------------


def make_tier(cluster, **kw):
    kw.setdefault("delta", 0.5)
    kw.setdefault("read_timeout", 0.05)
    kw.setdefault("refresh_timeout", 0.05)
    kw.setdefault("failure_threshold", 1)
    kw.setdefault("cooldown", 0.2)
    return EdgeTier.for_cluster(cluster, **kw)


def isolate_edge(cluster, tier):
    """Partition every edge identity from everything non-edge."""
    for edge_id in tier.edge_node_ids:
        for other in cluster.network.node_ids():
            if other not in tier.edge_node_ids:
                cluster.network.partition(edge_id, other)


def test_linearizable_read_with_certificate_evidence():
    cluster = make_kv_cluster()
    sync = cluster.add_client("client0")
    sync.call(put(3, b"fresh"))
    tier = make_tier(cluster)
    reads = record_events(tier.tracer, "edge_read")
    reply = tier.read(get(3))
    assert reply.mode == LINEARIZABLE and not reply.degraded
    assert reply.result == b"fresh"
    assert reply.staleness_bound is None
    assert reply.evidence.kind == EVIDENCE_CERTIFICATE
    quorum = 2 * cluster.config.f + 1
    assert len(reply.evidence.replicas) >= quorum
    record = reads[-1].detail["record"]
    assert record.mode == LINEARIZABLE
    assert record.result_digest == digest(b"fresh")
    assert tier.metrics.counter_value("edge.reads") == 1


def test_degradation_ladder_and_repromotion():
    cluster = make_kv_cluster()
    sync = cluster.add_client("client0")
    sync.call(put(1, b"v1"))
    tier = make_tier(cluster)
    reads = record_events(tier.tracer, "edge_read")
    op = get(1)
    assert tier.read(op).mode == LINEARIZABLE  # warms the lease

    isolate_edge(cluster, tier)
    # The fast path times out, the breaker trips, the warm lease serves.
    reply = tier.read(op)
    assert reply.mode == BOUNDED_STALE and reply.degraded
    assert reply.staleness_bound == tier.delta
    assert reply.result == b"v1"
    assert tier.now - reply.evidence.issued_at <= tier.delta
    assert tier.ports[0].breaker.state == OPEN

    # Past Δ with the core still gone: flagged last-known-good, no bound.
    cluster.run(tier.delta + 0.2)
    reply = tier.read(op)
    assert reply.mode == LAST_KNOWN_GOOD and reply.degraded
    assert reply.staleness_bound is None
    assert reply.result == b"v1"

    # A key the edge never saw is refused, never fabricated.
    with pytest.raises(EdgeUnavailable):
        tier.read(get(9))

    # Heal, wait out the cooldown: a half-open probe re-promotes.
    cluster.network.heal_all()
    cluster.run(1.0)
    reply = tier.read(op)
    assert reply.mode == LINEARIZABLE and not reply.degraded
    assert tier.ports[0].breaker.state == CLOSED
    assert tier.ports[0].breaker.promotions >= 1
    assert tier.metrics.counter_value("edge.degraded_reads") >= 2
    assert tier.metrics.counter_value("edge.unavailable") == 1
    modes = [event.detail["record"].mode for event in reads]
    assert modes[0] == LINEARIZABLE and modes[-1] == LINEARIZABLE
    assert BOUNDED_STALE in modes and LAST_KNOWN_GOOD in modes


def test_vector_refresh_from_a_single_replica():
    """With only the quorum client cut off, bounded-stale reads refresh
    from one replica and carry its stable-checkpoint version vector."""
    cluster = make_kv_cluster(checkpoint_interval=4)
    sync = cluster.add_client("client0")
    for i in range(8):  # past two checkpoint intervals: stable vectors
        sync.call(put(i % 4, bytes([i])))
    tier = make_tier(cluster)
    ro_id = tier.ports[0].client.node_id
    for other in cluster.network.node_ids():
        if other != ro_id:
            cluster.network.partition(ro_id, other)

    reply = tier.read(get(0))
    assert reply.mode == BOUNDED_STALE
    evidence = reply.evidence
    assert evidence.kind == EVIDENCE_VECTOR
    assert len(evidence.replicas) == 1
    assert evidence.checkpoint_seq is not None and evidence.checkpoint_seq > 0
    # The advertised vector is one some correct replica actually made
    # stable — exactly what the FaultLab audit replays.
    vectors = {pair for replica in cluster.replicas
               for pair in replica.checkpoint_history}
    assert (evidence.checkpoint_seq, evidence.root_digest) in vectors
    assert tier.metrics.counter_value("edge.vector_reads") == 1


def test_view_change_signal_degrades_before_any_timeout():
    """The monitoring plane trips the breaker the moment a view change
    is observed — no read has to burn a timeout to find out."""
    cluster = make_kv_cluster(view_change_timeout=0.5,
                              client_retry_timeout=0.2)
    sync = cluster.add_client("client0")
    sync.call(put(2, b"warm"))
    tier = make_tier(cluster, delta=30.0)
    assert tier.read(get(2)).mode == LINEARIZABLE
    cluster.replicas[0].crash()
    sync.call(put(3, b"drive-view-change"))
    assert max(r.view for r in cluster.replicas) >= 1
    reply = tier.read(get(2))
    assert reply.degraded and reply.mode == BOUNDED_STALE
    assert tier.ports[0].breaker.view_change_signals >= 1
    assert tier.metrics.counter_value("edge.view_signals") >= 1


def test_edge_read_routes_across_a_sharded_deployment():
    """for_deployment over a two-shard SQL stack: each shard gets its
    own port, reads route along the service's shard-key axis."""
    from repro.bft.config import BftConfig
    from repro.encoding.canonical import canonical
    from repro.service.sharding import ShardedDeployment, stable_shard
    from repro.sql.service import SQL_SERVICE
    deployment = ShardedDeployment.build(
        SQL_SERVICE, 2, config=BftConfig(checkpoint_interval=8), seed=0)
    client = deployment.client
    tables = {}
    i = 0
    while len(tables) < 2:  # one table hashing to each shard
        tables.setdefault(stable_shard(f"t{i}", 2), f"t{i}")
        i += 1
    for table in tables.values():
        client.create_table(table, ["id", "val"], "id")
        client.insert(table, [1, f"{table}-row"])
    tier = EdgeTier.for_deployment(deployment, read_timeout=0.05)
    reads = record_events(tier.tracer, "edge_read")
    assert len(tier.ports) == 2
    for shard, table in tables.items():
        reply = tier.read(canonical(("select", table, 1)))
        assert reply.mode == LINEARIZABLE and not reply.degraded
        assert reads[-1].detail["record"].shard == shard


# -- satellite: the read-certificate path on the BFT client ------------------------


def test_collect_read_certificate_happy_path():
    cluster = make_kv_cluster()
    sync = cluster.add_client("client0")
    sync.call(put(7, b"certified"))
    client = cluster.clients["client0"]
    box = {}
    client.collect_read_certificate(get(7), lambda c: box.update(cert=c))
    cluster.run_until(lambda: "cert" in box)
    cert = box["cert"]
    assert cert.result == b"certified"
    assert cert.result_digest == digest(b"certified")
    assert cert.path == "read_only" and not cert.fell_back
    assert len(cert.voters) >= 2 * cluster.config.f + 1
    assert cert.issued_at <= cert.accepted_at


def test_lease_refresh_fallback_clears_banked_votes():
    """A lease refresh that falls back to the ordered path must discard
    every read-only-era vote: votes certifying a read of *unordered*
    state never count toward the ordered quorums, and the certificate
    must say the fallback happened."""
    cluster = make_kv_cluster(client_retry_timeout=0.2)
    sync = cluster.add_client("client0")
    sync.call(put(4, b"right"))
    client = cluster.clients["client0"]

    # Stall the read-only attempt: no read-only reply ever arrives.
    cluster.network.add_filter(
        lambda src, dst, msg: not (getattr(msg, "kind", "") == "reply"
                                   and msg.read_only))
    box = {}
    client.collect_read_certificate(get(4), lambda c: box.update(cert=c))
    request_id = client._next_request_id
    cluster.run(0.05)
    assert client._pending is not None and client._pending.read_only

    # Two colluders bank tentative votes during the read-only attempt.
    from repro.bft.messages import Reply
    from repro.crypto.mac import Authenticator

    def stale_tentative(replica_id):
        reply = Reply(0, request_id, "client0", replica_id, b"stale",
                      digest(b"stale"), tentative=True)
        reply.auth = Authenticator.create(cluster.registry, replica_id,
                                          ["client0"], reply.digest())
        return reply

    client.on_message("replica2", stale_tentative("replica2"))
    client.on_message("replica3", stale_tentative("replica3"))
    assert len(client._pending.tentative_votes[digest(b"stale")]) == 2

    # Two retry timeouts later the refresh falls back to ordering; every
    # read-only-era vote is gone and the ordered path answers.
    cluster.run_until(lambda: client._pending is None
                      or not client._pending.read_only)
    assert client._pending is not None and not client._pending.read_only
    assert not client._pending.tentative_votes
    assert not client._pending.ro_votes
    assert not client._pending.votes
    cluster.run_until(lambda: "cert" in box)
    cert = box["cert"]
    assert cert.result == b"right"
    assert cert.fell_back and cert.path in ("tentative", "committed")
    assert len(cert.voters) >= cluster.config.f + 1
