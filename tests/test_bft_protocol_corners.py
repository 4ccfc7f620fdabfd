"""Protocol corner cases: watermarks, null-request gap fill, GC."""

from repro.bft.messages import PrePrepare, Request
from repro.bft.statemachine import InMemoryStateManager
from repro.bft.viewchange import ViewChangeManager
from tests.conftest import make_kv_cluster

put = InMemoryStateManager.op_put


def test_primary_respects_high_water_mark():
    """With checkpoints blocked, the primary may propose at most
    log_window sequence numbers and must then stall, not run ahead."""
    cluster = make_kv_cluster(checkpoint_interval=2, batch_max=1,
                              client_retry_timeout=60.0)
    # Block all checkpoint messages: nothing ever becomes stable.
    cluster.network.add_filter(
        lambda s, d, m: getattr(m, "kind", "") != "checkpoint")
    clients = [cluster.add_client(f"c{i}") for i in range(8)]
    done = []
    for i, sync in enumerate(clients):
        sync.client.invoke(put(i, b"w"), lambda res, i=i: done.append(i))
    cluster.run(5.0)
    primary = cluster.replicas[0]
    window = cluster.config.log_window  # 2 * 2 = 4
    assert primary.seq_assigned <= primary.last_stable + window
    assert len(done) <= window
    # Unblock checkpoints: the backlog drains.
    cluster.network._filters.clear()
    # Client retransmissions are far away; replica-side progress resumes
    # as soon as checkpoints stabilize on the next executions.
    cluster.run(1.0)
    for sync in clients:
        if sync.client.busy:
            sync.client._on_retry()
    cluster.run(5.0)
    assert len(done) == 8


def test_new_view_fills_gaps_with_null_requests():
    """compute_new_view_pre_prepares inserts null requests for sequence
    numbers nobody prepared."""
    from repro.bft.messages import PreparedProof, ViewChange
    pp5 = PrePrepare(0, 5, (Request("c", 1, b"op"),), b"")
    proof5 = PreparedProof(0, 5, pp5.batch_digest(), pp5)
    vcs = [ViewChange(1, 2, (), (proof5,), f"replica{i}")
           for i in range(3)]
    pps = ViewChangeManager.compute_new_view_pre_prepares(1, vcs)
    assert [pp.seq for pp in pps] == [3, 4, 5]
    assert pps[0].requests[0].is_null
    assert pps[1].requests[0].is_null
    assert not pps[2].requests[0].is_null
    assert pps[2].batch_digest() != pp5.batch_digest()  # view changed
    assert pps[2].requests == pp5.requests


def test_new_view_prefers_highest_view_proof():
    from repro.bft.messages import PreparedProof, ViewChange
    pp_old = PrePrepare(0, 3, (Request("c", 1, b"old"),), b"")
    pp_new = PrePrepare(1, 3, (Request("c", 2, b"new"),), b"")
    vcs = [
        ViewChange(2, 2, (), (PreparedProof(0, 3, pp_old.batch_digest(),
                                            pp_old),), "replica0"),
        ViewChange(2, 2, (), (PreparedProof(1, 3, pp_new.batch_digest(),
                                            pp_new),), "replica1"),
        ViewChange(2, 2, (), (), "replica2"),
    ]
    pps = ViewChangeManager.compute_new_view_pre_prepares(2, vcs)
    assert len(pps) == 1
    assert pps[0].requests == pp_new.requests


def test_checkpoint_messages_garbage_collected():
    cluster = make_kv_cluster(checkpoint_interval=2)
    client = cluster.add_client("client0")
    for i in range(10):
        client.call(put(i % 4, b"gc%d" % i))
    cluster.run(1.0)
    for replica in cluster.replicas:
        assert all(seq > replica.last_stable
                   for seq in replica.checkpoint_msgs)
        # Retained state checkpoints stay within the window.
        retained = [s for s in (replica.last_stable,)
                    if replica.state.checkpoint_root(s) is not None]
        assert retained, "stable checkpoint must be retained"


def test_executed_log_bounded_by_watermarks():
    cluster = make_kv_cluster(checkpoint_interval=4)
    client = cluster.add_client("client0")
    for i in range(30):
        client.call(put(i % 8, b"x%d" % i))
    cluster.run(1.0)
    for replica in cluster.replicas:
        assert len(replica.log) <= cluster.config.log_window + 1
