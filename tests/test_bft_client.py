"""Client protocol details: retransmission, vote counting, view tracking."""

import pytest

from repro.bft.messages import Reply
from repro.bft.statemachine import InMemoryStateManager
from repro.crypto.digest import digest
from repro.crypto.mac import Authenticator
from tests.conftest import make_kv_cluster, record_events


def authed_reply(cluster, replica_id, client_id, request_id, result,
                 result_digest=None, view=0):
    """A reply carrying a *valid* MAC from ``replica_id``."""
    reply = Reply(view, request_id, client_id, replica_id, result,
                  result_digest if result_digest is not None
                  else digest(result))
    reply.auth = Authenticator.create(cluster.registry, replica_id,
                                      [client_id], reply.digest())
    return reply

put = InMemoryStateManager.op_put
get = InMemoryStateManager.op_get


def test_client_retransmits_when_primary_drops_request():
    cluster = make_kv_cluster(client_retry_timeout=0.3,
                              view_change_timeout=5.0)
    sync = cluster.add_client("client0")
    dropped = {"count": 0}

    def drop_first_request(src, dst, msg):
        if (getattr(msg, "kind", "") == "request" and src == "client0"
                and dropped["count"] == 0):
            dropped["count"] += 1
            return False
        return True

    cluster.network.add_filter(drop_first_request)
    assert sync.call(put(0, b"x")) == b"ok"
    assert cluster.clients["client0"].retransmissions >= 1


def test_client_ignores_replies_for_other_requests():
    cluster = make_kv_cluster()
    sync = cluster.add_client("client0")
    sync.call(put(0, b"first"))
    client = cluster.clients["client0"]
    # Inject a stale reply for an old request id mid-flight.
    result_box = {}
    client.invoke(put(1, b"second"), lambda res: result_box.update(r=res))
    stale = Reply(0, 1, "client0", "replica0", b"WRONG", digest(b"WRONG"))
    client.on_message("replica0", stale)
    cluster.run_until(lambda: "r" in result_box)
    assert result_box["r"] == b"ok"


def test_client_rejects_reply_with_mismatched_digest():
    cluster = make_kv_cluster()
    client = cluster.add_client("client0").client
    box = {}
    client.invoke(put(0, b"v"), lambda res: box.update(r=res))
    forged = Reply(0, 1, client.node_id, "replica1", b"EVIL",
                   digest(b"not-evil"))
    client.on_message("replica1", forged)
    cluster.run_until(lambda: "r" in box)
    assert box["r"] == b"ok"


def test_client_learns_view_from_replies():
    cluster = make_kv_cluster(view_change_timeout=0.5,
                              client_retry_timeout=0.3)
    sync = cluster.add_client("client0")
    sync.call(put(0, b"a"))
    assert cluster.clients["client0"].view_estimate == 0
    cluster.replicas[0].crash()
    sync.call(put(1, b"b"))
    assert cluster.clients["client0"].view_estimate >= 1
    # Next request goes straight to the new primary: no *timeout-driven*
    # retransmission needed (at most the instant full-reply nudge when the
    # crashed replica happens to be the designated replier).
    before = cluster.clients["client0"].retransmissions
    start = cluster.scheduler.now
    sync.call(put(2, b"c"))
    assert cluster.clients["client0"].retransmissions <= before + 1
    assert cluster.scheduler.now - start < \
        cluster.config.client_retry_timeout


def test_votes_from_same_replica_counted_once():
    cluster = make_kv_cluster()
    client = cluster.add_client("client0").client
    box = {}
    client.invoke(put(0, b"v"), lambda res: box.update(r=res))
    result = b"ok"
    reply = Reply(0, 1, client.node_id, "replica2", result, digest(result))
    # The same replica repeating itself must not reach the f+1 quorum.
    client.on_message("replica2", reply)
    client.on_message("replica2", reply)
    client.on_message("replica2", reply)
    assert "r" not in box
    cluster.run_until(lambda: "r" in box)
    assert box["r"] == b"ok"


def test_reply_from_non_replica_ignored():
    cluster = make_kv_cluster()
    client = cluster.add_client("client0").client
    box = {}
    client.invoke(put(0, b"v"), lambda res: box.update(r=res))
    fake = Reply(0, 1, client.node_id, "intruder", b"x", digest(b"x"))
    client.on_message("intruder", fake)
    assert "r" not in box
    cluster.run_until(lambda: "r" in box)


def test_read_only_falls_back_to_ordered_path():
    """If tentative replies cannot reach a 2f+1 quorum, the client
    re-issues the read through ordering and still completes."""
    cluster = make_kv_cluster(client_retry_timeout=0.2)
    sync = cluster.add_client("client0")
    sync.call(put(3, b"fallback"))
    pre_prepares = record_events(cluster.tracer, "pre_prepare_sent")

    def drop_tentative_replies(src, dst, msg):
        if (getattr(msg, "kind", "") == "reply" and msg.tentative
                and src in ("replica2", "replica3")):
            return False
        return True

    cluster.network.add_filter(drop_tentative_replies)
    # Only 2 tentative replies can arrive (< 2f+1 = 3): the client times
    # out, downgrades to the ordered path, and gets the result.
    assert sync.call(get(3), read_only=True) == b"fallback"
    assert cluster.clients["client0"].retransmissions >= 2
    assert pre_prepares


def test_stale_read_only_attempt_votes_never_survive_the_fallback():
    """Regression for the read-only -> ordered fallback bookkeeping:
    votes gathered while the call was read-only (including *tentative*
    votes from lying replicas) must be discarded when the call is
    re-issued through ordering, or f Byzantine replicas could bank votes
    against the read attempt and complete a 2f+1 certificate for a
    result no correct replica computed once one more vote lands after
    the fallback."""
    cluster = make_kv_cluster(client_retry_timeout=0.2)
    sync = cluster.add_client("client0")
    sync.call(put(5, b"right"))
    client = cluster.clients["client0"]

    # Stall the read-only attempt: no read-only reply ever arrives.
    cluster.network.add_filter(
        lambda src, dst, msg: not (getattr(msg, "kind", "") == "reply"
                                   and msg.read_only))
    box = {}
    client.invoke(get(5), lambda res: box.update(r=res), read_only=True)
    request_id = client._next_request_id
    cluster.run(0.05)

    def stale_tentative(replica_id):
        reply = Reply(0, request_id, "client0", replica_id, b"stale",
                      digest(b"stale"), tentative=True)
        reply.auth = Authenticator.create(cluster.registry, replica_id,
                                          ["client0"], reply.digest())
        return reply

    # Two colluders bank tentative votes during the read-only attempt.
    client.on_message("replica2", stale_tentative("replica2"))
    client.on_message("replica3", stale_tentative("replica3"))
    assert "r" not in box
    assert len(client._pending.tentative_votes[digest(b"stale")]) == 2

    # Two retry timeouts later the call falls back to the ordered path;
    # every read-only-era vote must be gone.
    cluster.run_until(lambda: client._pending is None
                      or not client._pending.read_only)
    assert client._pending is not None and not client._pending.read_only
    assert not client._pending.tentative_votes
    assert not client._pending.ro_votes
    assert not client._pending.votes

    # A third stale vote lands after the fallback: had the first two
    # survived, this would complete a bogus 2f+1 commit certificate.
    client.on_message("replica1", stale_tentative("replica1"))
    assert "r" not in box
    cluster.run_until(lambda: "r" in box)
    assert box["r"] == b"right"
    assert cluster.metrics.counter_value("client.read_only_fallbacks") == 1


def test_unauthenticated_replies_never_reach_a_quorum():
    """Regression: auth-less replies used to be counted as quorum votes
    (the MAC check was skipped when ``reply.auth is None``), so f+1
    forged messages — free to fabricate for anyone on the network —
    could make the client accept an arbitrary result."""
    cluster = make_kv_cluster()
    client = cluster.add_client("client0").client
    box = {}
    client.invoke(put(0, b"v"), lambda res: box.update(r=res))
    # A full weak quorum (f+1 = 2 distinct replicas) of unauthenticated
    # replies, complete with matching full result bytes.
    for replica in ("replica1", "replica2"):
        evil = Reply(0, 1, "client0", replica, b"EVIL", digest(b"EVIL"))
        assert evil.auth is None
        client.on_message(replica, evil)
    assert "r" not in box
    cluster.run_until(lambda: "r" in box)
    assert box["r"] == b"ok"


def test_reply_with_someone_elses_authenticator_rejected():
    """A valid MAC from replica2 on a reply claiming to be replica1's
    must not count as replica1's vote (one replica, one vote)."""
    cluster = make_kv_cluster()
    client = cluster.add_client("client0").client
    box = {}
    client.invoke(put(0, b"v"), lambda res: box.update(r=res))
    for claimed in ("replica1", "replica3"):
        evil = Reply(0, 1, "client0", claimed, b"EVIL", digest(b"EVIL"))
        evil.auth = Authenticator.create(cluster.registry, "replica2",
                                         ["client0"], evil.digest())
        client.on_message(claimed, evil)
    assert "r" not in box
    cluster.run_until(lambda: "r" in box)
    assert box["r"] == b"ok"


def test_missing_full_result_nudge_does_not_escalate_backoff():
    """Regression: the fast retransmit for a digest-certified result with
    no full bytes used to run through ``_on_retry``, bumping
    ``call.retries`` (doubling the next backoff), miscounting
    ``client.retransmissions``, and burning one of a read-only request's
    two attempts before the ordered fallback."""
    cluster = make_kv_cluster(client_retry_timeout=0.3)
    client = cluster.add_client("client0").client
    box = {}
    client.invoke(put(0, b"v"), lambda res: box.update(r=res))
    # f+1 digest-only votes certify the result, but nobody sent bytes.
    rdigest = digest(b"ok")
    for replica in ("replica1", "replica2"):
        client.on_message(replica, authed_reply(cluster, replica, "client0",
                                                1, None, rdigest))
    assert client.fast_retransmissions == 1
    assert client.retransmissions == 0          # not a timeout
    assert client._pending.retries == 0         # backoff schedule untouched
    assert client.tracer.metrics.counter_value(
        "client.fast_retransmissions") == 1
    cluster.run_until(lambda: "r" in box)
    assert box["r"] == b"ok"


def test_timeout_backoff_escalates_exponentially():
    """Only timeout-driven retransmissions advance the backoff: with all
    client traffic dropped, retries land at 0.1, 0.3, 0.7, 1.5s
    (doubling gaps), not on a fixed or double-escalated schedule."""
    cluster = make_kv_cluster(client_retry_timeout=0.1)
    client = cluster.add_client("client0").client
    cluster.network.add_filter(lambda src, dst, msg: src != "client0")
    client.invoke(put(0, b"never"), lambda res: None)
    expected = 0
    for horizon in (0.1, 0.3, 0.7, 1.5):
        cluster.scheduler.run_until(horizon + 0.01)
        expected += 1
        assert client.retransmissions == expected
    assert client.fast_retransmissions == 0


def test_cancel_abandons_the_call_and_frees_the_client():
    cluster = make_kv_cluster()
    client = cluster.add_client("client0").client
    box = {}
    client.invoke(put(0, b"old"), lambda res: box.update(r=res))
    assert client.cancel()
    assert not client.busy
    assert not client.cancel()                  # nothing left to abandon
    cluster.run(1.0)                            # late replies: ignored
    assert "r" not in box
    assert client.cancelled == 1
    # The pool slot is immediately reusable under a fresh request id.
    box2 = {}
    client.invoke(put(1, b"new"), lambda res: box2.update(r=res))
    cluster.run_until(lambda: "r" in box2)
    assert box2["r"] == b"ok"
    assert "r" not in box
