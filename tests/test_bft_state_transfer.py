"""State transfer: catching up out-of-date replicas, repairing corruption."""

from repro.bft.costs import CostModel
from repro.bft.messages import FetchCert, FetchTable
from repro.bft.statemachine import InMemoryStateManager
from tests.conftest import make_kv_cluster, record_events

put = InMemoryStateManager.op_put
get = InMemoryStateManager.op_get


def run_writes(cluster, client, count, start=0):
    for i in range(count):
        client.call(put((start + i) % 16, b"w%d" % (start + i)))


def test_lagging_replica_catches_up_via_state_transfer():
    cluster = make_kv_cluster(checkpoint_interval=4)
    transfers = record_events(cluster.tracer, "transfer_complete")
    client = cluster.add_client("client0")
    lagger = cluster.replicas[3]
    # Disconnect replica 3 (n=4 still has 2f+1=3 live).
    for other in cluster.config.replica_ids:
        if other != lagger.node_id:
            cluster.network.partition(lagger.node_id, other)
    run_writes(cluster, client, 12)
    assert lagger.last_executed == 0
    cluster.network.heal_all()
    # More traffic delivers checkpoint messages; the lagger transfers.
    run_writes(cluster, client, 4, start=12)
    cluster.run(5.0)
    assert lagger.last_executed >= 12
    reference = cluster.replicas[0]
    assert lagger.state.values == reference.state.values
    assert any(e.source == lagger.node_id for e in transfers)


def test_transfer_fetches_only_changed_objects():
    """Hierarchical transfer: a lagger missing writes to 3 slots fetches
    only those objects, not the whole array."""
    cluster = make_kv_cluster(checkpoint_interval=4, size=64)
    client = cluster.add_client("client0")
    run_writes(cluster, client, 4)  # everyone at checkpoint 4
    cluster.run(1.0)
    lagger = cluster.replicas[3]
    for other in cluster.config.replica_ids:
        if other != lagger.node_id:
            cluster.network.partition(lagger.node_id, other)
    # Writes touch only slots 0..2.
    for i in range(8):
        client.call(put(i % 3, b"only%d" % i))
    cluster.network.heal_all()
    for i in range(4):
        client.call(put(i % 3, b"more%d" % i))
    cluster.run(5.0)
    assert lagger.state.values == cluster.replicas[0].state.values
    assert 0 < lagger.transfer.objects_fetched_total <= 6


def test_corrupt_replica_detected_and_repaired():
    """A replica whose concrete state silently corrupts diverges at its
    next checkpoint and repairs itself from the others."""
    cluster = make_kv_cluster(checkpoint_interval=4)
    client = cluster.add_client("client0")
    run_writes(cluster, client, 2)
    victim = cluster.replicas[2]
    victim.state.values[0] = b"CORRUPTED"
    victim.state.mark_all_dirty()
    run_writes(cluster, client, 6, start=2)
    cluster.run(5.0)
    assert victim.state.values == cluster.replicas[0].state.values
    assert b"CORRUPTED" not in victim.state.values


def test_transfer_survives_lying_donor():
    """A Byzantine donor sending garbage objects cannot corrupt the
    fetcher: digests fail, the donor is rotated, transfer completes."""
    cluster = make_kv_cluster(checkpoint_interval=4)
    events = record_events(cluster.tracer, "transfer_bad_object",
                           "transfer_donor_switch")
    client = cluster.add_client("client0")
    lagger = cluster.replicas[3]
    for other in cluster.config.replica_ids:
        if other != lagger.node_id:
            cluster.network.partition(lagger.node_id, other)
    run_writes(cluster, client, 8)
    cluster.network.heal_all()

    # First donor the lagger will ask is replicas[0]; make it lie.
    from repro.bft.messages import ObjectReply

    def corrupt_object_replies(src, dst, msg):
        if (src == cluster.replicas[0].node_id and dst == lagger.node_id
                and getattr(msg, "kind", "") == "object_reply"):
            msg.value = b"LIES" + msg.value
        return True

    cluster.network.add_filter(corrupt_object_replies)
    run_writes(cluster, client, 4, start=8)
    cluster.run(10.0)
    assert lagger.state.values == cluster.replicas[1].state.values
    assert b"LIES" not in b"".join(v for v in lagger.state.values)
    assert {e.kind for e in events} == {"transfer_bad_object",
                                        "transfer_donor_switch"}


def test_client_reply_cache_transfers_with_state():
    """After transfer, the lagger's reply cache matches, so duplicate
    requests are not re-executed by recovered replicas."""
    cluster = make_kv_cluster(checkpoint_interval=4)
    client = cluster.add_client("client0")
    lagger = cluster.replicas[3]
    for other in cluster.config.replica_ids:
        if other != lagger.node_id:
            cluster.network.partition(lagger.node_id, other)
    run_writes(cluster, client, 8)
    cluster.network.heal_all()
    run_writes(cluster, client, 4, start=8)
    cluster.run(5.0)
    assert lagger.client_table.get("client0") is not None
    ref = cluster.replicas[0]
    assert lagger.client_table["client0"][0] == ref.client_table["client0"][0]


def test_meta_walk_prunes_matching_partitions():
    """The fetcher never fetches metadata for subtrees whose digests match."""
    cluster = make_kv_cluster(checkpoint_interval=4, size=64)
    client = cluster.add_client("client0")
    run_writes(cluster, client, 4)
    cluster.run(1.0)
    lagger = cluster.replicas[3]
    for other in cluster.config.replica_ids:
        if other != lagger.node_id:
            cluster.network.partition(lagger.node_id, other)
    for i in range(4):
        client.call(put(0, b"solo%d" % i))
    cluster.network.heal_all()
    before = cluster.network.messages_sent
    for i in range(4):
        client.call(put(0, b"post%d" % i))
    cluster.run(5.0)
    assert lagger.state.values == cluster.replicas[0].state.values
    # Only one object changed; at most a handful of fetches happened.
    assert lagger.transfer.objects_fetched_total <= 2


def test_serving_cert_and_table_charges_cpu():
    """A donor pays simulated CPU for every transfer reply it serves —
    including the certificate and reply-cache paths, so a replica
    bombarded with fetches cannot do free work (regression: these two
    handlers used to skip ``charge``, found by DEEP-COST)."""
    cluster = make_kv_cluster(checkpoint_interval=4)
    client = cluster.add_client("client0")
    run_writes(cluster, client, 8)
    cluster.run(1.0)
    donor = cluster.replicas[0]
    assert donor.stable_cert, "need a stable checkpoint to serve"
    seq = donor.last_stable
    assert seq in donor.table_checkpoints
    # The default test cost model is free; give digests a price so an
    # uncharged serving path shows up as zero CPU.
    donor.costs = CostModel(digest_fixed=1e-4, digest_per_byte=1e-7)
    before = donor.busy_until
    donor.transfer.on_fetch_cert("replica1", FetchCert("replica1", 1))
    after_cert = donor.busy_until
    assert after_cert > before
    donor.transfer.on_fetch_table("replica1", FetchTable("replica1", seq))
    assert donor.busy_until > after_cert
