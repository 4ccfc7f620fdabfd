"""View changes: replacing crashed or Byzantine primaries."""

from repro.bft.faults import (
    BadNondetBehavior,
    EquivocatingPrimaryBehavior,
    MuteBehavior,
)
from repro.bft.statemachine import InMemoryStateManager
from tests.conftest import make_kv_cluster, record_events

put = InMemoryStateManager.op_put
get = InMemoryStateManager.op_get


def test_crashed_primary_replaced_and_request_completes():
    cluster = make_kv_cluster(view_change_timeout=0.5,
                              client_retry_timeout=0.3)
    new_views = record_events(cluster.tracer, "new_view_accepted")
    client = cluster.add_client("client0")
    cluster.replicas[0].crash()
    result = client.call(put(0, b"survived"))
    assert result == b"ok"
    live = [r for r in cluster.replicas if not r.crashed]
    assert all(r.view >= 1 for r in live)
    assert all(r.state.values[0] == b"survived" for r in live)
    assert new_views


def test_service_continues_after_view_change():
    cluster = make_kv_cluster(view_change_timeout=0.5,
                              client_retry_timeout=0.3)
    client = cluster.add_client("client0")
    client.call(put(0, b"before"))
    cluster.replicas[0].crash()
    client.call(put(1, b"during"))
    client.call(put(2, b"after"))
    live = [r for r in cluster.replicas if not r.crashed]
    for r in live:
        assert r.state.values[:3] == [b"before", b"during", b"after"]


def test_mute_primary_triggers_view_change():
    cluster = make_kv_cluster(view_change_timeout=0.5,
                              client_retry_timeout=0.3)
    client = cluster.add_client("client0")
    cluster.replicas[0].behavior = MuteBehavior()
    assert client.call(put(0, b"x")) == b"ok"
    assert any(r.view >= 1 for r in cluster.replicas[1:])


def test_equivocating_primary_never_splits_state():
    """A primary sending conflicting orderings must not make correct
    replicas diverge.  The replica fed the conflicting pre-prepare cannot
    commit (no quorum for its digest) — it falls behind and converges via
    state transfer at the next stable checkpoint; it never executes the
    conflicting request."""
    cluster = make_kv_cluster(view_change_timeout=0.5,
                              client_retry_timeout=0.3)
    client = cluster.add_client("client0")
    cluster.replicas[0].behavior = EquivocatingPrimaryBehavior()
    assert client.call(put(0, b"safe")) == b"ok"
    # At no point may two correct replicas hold different values for an
    # executed slot: any replica that executed slot 0 saw b"safe".
    executed_values = {r.state.values[0] for r in cluster.replicas[1:]
                       if r.last_executed >= 1}
    assert executed_values <= {b"safe"}
    # Make the primary honest again and drive past a checkpoint so the
    # lagging replica state-transfers.
    from repro.bft.faults import HONEST
    cluster.replicas[0].behavior = HONEST
    for i in range(1, 6):
        client.call(put(i, b"c%d" % i))
    cluster.run(5.0)
    values = {tuple(r.state.values[:6]) for r in cluster.replicas[1:]}
    assert len(values) == 1
    assert cluster.replicas[1].state.values[0] == b"safe"


def test_bad_nondet_primary_rejected_then_replaced():
    """check_nondet rejects the faulty proposal; the view change installs
    an honest primary and the request completes."""
    cluster = make_kv_cluster(view_change_timeout=0.5,
                              client_retry_timeout=0.3)
    rejected = record_events(cluster.tracer, "nondet_rejected")
    client = cluster.add_client("client0")
    cluster.replicas[0].behavior = BadNondetBehavior(b"\xde\xad")
    assert client.call(put(0, b"ok-anyway")) == b"ok"
    assert rejected
    assert any(r.view >= 1 for r in cluster.replicas[1:])


def test_successive_primary_failures_walk_views():
    cluster = make_kv_cluster(view_change_timeout=0.4,
                              client_retry_timeout=0.3)
    client = cluster.add_client("client0")
    cluster.replicas[0].crash()
    cluster.replicas[1].crash()
    # Only 2 of 4 alive: cannot commit (needs 3). Revive one non-primary.
    cluster.replicas[1].restart_node()
    result = client.call(put(0, b"deep"))
    assert result == b"ok"
    live = [r for r in cluster.replicas if not r.crashed]
    assert all(r.state.values[0] == b"deep" for r in live)


def test_view_change_preserves_committed_requests():
    """Requests committed before the view change survive it (the
    re-proposal logic must carry prepared batches forward)."""
    cluster = make_kv_cluster(view_change_timeout=0.5,
                              client_retry_timeout=0.3)
    client = cluster.add_client("client0")
    for i in range(5):
        client.call(put(i, b"v%d" % i))
    cluster.replicas[0].crash()
    client.call(put(5, b"v5"))
    live = [r for r in cluster.replicas if not r.crashed]
    for r in live:
        assert r.state.values[:6] == [b"v%d" % i for i in range(6)]


def test_executed_requests_not_reexecuted_after_view_change():
    cluster = make_kv_cluster(view_change_timeout=0.5,
                              client_retry_timeout=0.3)
    executed = record_events(cluster.tracer, "executed")
    client = cluster.add_client("client0")
    for i in range(3):
        client.call(put(0, b"w%d" % i))
    cluster.replicas[0].crash()
    client.call(put(1, b"post"))
    for r in cluster.replicas[1:]:
        requests = [(e.detail["client"], e.detail["request_id"])
                    for e in executed if e.source == r.node_id]
        # The write issued after the view change executed exactly once.
        assert requests.count(("client0", 4)) == 1


def test_view_change_timer_does_not_fire_when_idle():
    cluster = make_kv_cluster(view_change_timeout=0.2)
    client = cluster.add_client("client0")
    client.call(put(0, b"x"))
    cluster.run(5.0)
    assert all(r.view == 0 for r in cluster.replicas)


def test_join_rule_threshold_is_weak_quorum():
    """The liveness rule drags a replica into a view change only once a
    weak quorum (f+1, guaranteeing one correct proposer) wants the view
    — a single view-change message must not move it (regression for the
    join threshold, now spelled ``config.weak_quorum``)."""
    cluster = make_kv_cluster(view_change_timeout=60.0)
    bystander = cluster.replicas[3]
    assert cluster.config.weak_quorum == 2
    # One replica alone asks for view 1: below the weak quorum.
    cluster.replicas[1].view_changes.start(1)
    cluster.run(1.0)
    assert not bystander.view_changes.active
    assert bystander.view == 0
    # A second request reaches f+1 = weak quorum: the bystander joins
    # (and the view change then completes) without its own 60 s timer
    # ever firing.
    cluster.replicas[2].view_changes.start(1)
    cluster.run(1.0)
    assert bystander.view == 1
