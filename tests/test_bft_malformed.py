"""Malformed wire input from an authenticated peer never crashes a node.

Every message kind declares its fields once (``bft/messages.py``), and
``Node.on_message`` checks each message against that declaration before
any ``handle_<kind>`` sees it.  A message that does not fit is dropped,
counted as ``bad_message`` and emitted as a ``bad_message`` event.

The named tests are the probes that used to raise a ``TypeError`` out of
``Scheduler.run``.  The fuzzer takes type- and range-mutated copies of
real messages of every kind (nested messages included) captured from an
honest run, authenticates them as their sender would, delivers them and
runs the cluster on: nothing may raise.
"""

import dataclasses

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from repro.bft.faults import IllTypedBehavior
from repro.bft.messages import (
    Commit,
    FetchMeta,
    Message,
    PrePrepare,
    Prepare,
    Request,
    ViewChange,
)
from repro.bft.statemachine import InMemoryStateManager
from repro.crypto.mac import Authenticator
from repro.crypto.signatures import sign
from repro.edge.tier import EdgeTier
from tests.conftest import make_kv_cluster, record_events
from tests.test_bft_messages import sample_messages

SIGNED = frozenset({"view_change", "new_view", "recovery_request"})

put = InMemoryStateManager.op_put


def _bad_messages(cluster):
    return record_events(cluster.tracer, "bad_message")


def _send_from_replica1(cluster, msg):
    """Replica1 MACs ``msg`` for replica0 and sends it over the network."""
    sender = cluster.replicas[1]
    sender.authenticate_for(msg, "replica0")
    sender.send("replica0", msg)
    cluster.run(0.1)


@pytest.mark.parametrize("msg, field", [
    (Prepare(0, "x", b"d" * 32, "replica1"), "seq"),
    (Prepare(None, 3, b"d" * 32, "replica1"), "view"),
    (Commit(0, None, b"d" * 32, "replica1"), "seq"),
    (FetchMeta("replica1", 0, "x", 0), "level"),
], ids=["prepare-seq-str", "prepare-view-none", "commit-seq-none",
        "fetch-meta-level-str"])
def test_ill_typed_message_is_dropped_and_counted(msg, field):
    cluster = make_kv_cluster()
    events = _bad_messages(cluster)
    _send_from_replica1(cluster, msg)
    assert [(e.source, e.detail) for e in events] == [
        ("replica0", {"peer": "replica1", "message": msg.kind,
                      "field": field})]
    assert cluster.tracer.metrics.counters["bad_message"] == 1


def test_bool_is_not_a_sequence_number():
    cluster = make_kv_cluster()
    events = _bad_messages(cluster)
    _send_from_replica1(cluster, Prepare(0, True, b"d" * 32, "replica1"))
    assert [e.detail["field"] for e in events] == ["seq"]


def test_nested_request_and_bad_authenticator_are_checked():
    good = Request("c", 1, b"op")
    assert PrePrepare(0, 1, (good,), b"").malformed() is None
    assert PrePrepare(0, 1, (Request("c", "1", b"op"),),
                      b"").malformed() == "requests"
    assert PrePrepare(0, 1, [good], b"").malformed() == "requests"
    prep = Prepare(0, 1, b"d", "replica1")
    for auth in ("not an authenticator", Authenticator("replica1", ["x"])):
        prep.auth = auth
        assert prep.malformed() == "auth"
    prep.auth, prep.sig = None, 7
    assert prep.malformed() == "sig"


def test_authenticator_with_a_non_bytes_tag_fails_verification():
    """Used to raise out of hmac.compare_digest past dispatch."""
    cluster = make_kv_cluster()
    events = _bad_messages(cluster)
    msg = Prepare(0, 1, b"d" * 32, "replica1")
    msg.auth = Authenticator("replica1", {"replica0": 5})
    cluster.replicas[1].send("replica0", msg)
    cluster.run(0.1)
    assert events == []
    assert not cluster.replicas[0].log.slot(1).prepares


def test_float_field_or_missing_declaration_fails_at_class_creation():
    with pytest.raises(TypeError, match="not a wire type"):
        class Timed(Message):
            kind = "timed"
            at: float
    with pytest.raises(TypeError, match="must declare"):
        class Bare(Message):
            kind = "bare"


def _honest_run():
    """A cluster driven through checkpoints, state transfer, proactive
    recovery, a view change and edge reads, with the first message of
    each kind the network carried captured as ``(src, dst, msg)``."""
    cluster = make_kv_cluster(reboot_delay=0.5)
    events = _bad_messages(cluster)
    captured = {}

    def tap(src, dst, msg):
        captured.setdefault(msg.kind, (src, dst, msg))
        return True

    cluster.network.add_filter(tap)
    tier = EdgeTier.for_cluster(cluster)
    client = cluster.add_client("client0")
    lagger = cluster.replicas[3]
    lagger.crash()
    for i in range(10):
        client.call(put(i % 8, b"v%d" % i))
    lagger.restart_node()
    cluster.replicas[2].recovery.start_recovery()
    cluster.run(5.0)
    cluster.replicas[0].crash()
    for i in range(6):
        client.call(put(i, b"w%d" % i))
    tier.read(InMemoryStateManager.op_get(1))
    cluster.run(2.0)
    cluster.network.remove_filter(tap)
    return cluster, tier, client.client, captured, events


def test_honest_cluster_sends_no_bad_messages():
    """Every message an honest node sends fits its declaration, and the
    run exercises every message kind."""
    cluster, _, _, captured, events = _honest_run()
    assert cluster.replicas[1].view >= 1
    assert cluster.replicas[3].last_stable > 0
    assert set(captured) == set(sample_messages())
    assert events == []


def test_ill_typed_backup_is_tolerated_and_its_log_untouched():
    """A backup sending re-authenticated, ill-typed copies of half its
    messages: each copy is dropped and counted where it lands, the
    group still serves every request, and the originals it multicast
    (and logged) are never mutated."""
    cluster = make_kv_cluster(checkpoint_interval=64)
    events = _bad_messages(cluster)
    liar = cluster.replicas[2]
    liar.behavior = IllTypedBehavior()
    client = cluster.add_client("client0")
    for i in range(8):
        client.call(put(i, b"v%d" % i))
    cluster.run(1.0)
    assert liar.behavior.sent_ill_typed > 0
    assert len(events) == liar.behavior.sent_ill_typed
    assert {e.detail["peer"] for e in events} == {"replica2"}
    assert cluster.metrics.counter_value("bad_message") == len(events)
    logged = [msg for seq in liar.log.seqs()
              for slot in [liar.log.get(seq)]
              for msg in (*slot.prepares.values(), *slot.commits.values())]
    assert logged and all(msg.malformed() is None for msg in logged)


# -- forged view-change proofs ---------------------------------------------


@pytest.mark.parametrize("view, seq", [(0, 10 ** 9), (99, 3)],
                         ids=["beyond-log-window", "from-a-future-view"])
def test_forged_view_change_proof_is_rejected(view, seq):
    """A signed VIEW-CHANGE citing a self-made prepared proof far above
    the log window (or from a view not yet reached) used to make the new
    primary gap-fill up to that seq."""
    cluster = make_kv_cluster()
    new_views = record_events(cluster.tracer, "new_view_sent")
    forger = cluster.replicas[2]
    forged = ViewChange(1, 0, (), (PrePrepare(view, seq, (), b""),),
                        "replica2")
    forger.sign_msg(forged)
    forger.send("replica1", forged)
    cluster.run(0.1)
    for replica in (cluster.replicas[0], cluster.replicas[3]):
        replica.view_changes.start(1)
    cluster.run(1.0)
    assert [e.detail["reproposed"] for e in new_views] == [0]
    assert cluster.replicas[1].view == 1


# -- the fuzzer -------------------------------------------------------------


def _paths(value, prefix=()):
    """(path, slot) for every field of ``value``, nested messages
    included: slot "message" for a nested-message position (replaced
    by another message), "leaf" for a plain field."""
    nested = {i for i, _, _ in value._nested}
    for i, name in enumerate(value._names):
        field_value = getattr(value, name)
        path = prefix + (name,)
        if i not in nested:
            yield path, "leaf"
        elif isinstance(field_value, tuple):
            for j, item in enumerate(field_value):
                yield path + (j,), "message"
                yield from _paths(item, path + (j,))
        else:
            yield path, "message"
            yield from _paths(field_value, path)


PATHS = {kind: list(_paths(msg)) for kind, msg in sample_messages().items()}

#: Ill-typed or out-of-range stand-ins for a plain field.  All encode
#: canonically, so the sender can still digest and authenticate them.
WRONG = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.sampled_from([-1, 10 ** 9, 2 ** 63, 2 ** 64]),
    st.text(max_size=3), st.binary(max_size=3),
    st.tuples(st.integers(-3, 3), st.text(max_size=2)),
)


@st.composite
def mutations(draw):
    kind = draw(st.sampled_from(sorted(PATHS)))
    path, slot = draw(st.sampled_from(PATHS[kind]))
    if slot == "message":
        value = ("message", draw(st.sampled_from(sorted(PATHS))))
    else:
        value = draw(WRONG)
    return kind, path, value


def _replaced(msg, path, value):
    """A copy of ``msg`` with the field at ``path`` set to ``value``; the
    original (and every message it shares) is left untouched.  Paths
    come from the pinned samples, so a tuple index wraps around the real
    message's tuple, and a path into structure it lacks is rejected."""
    name, rest = path[0], path[1:]
    current = getattr(msg, name)
    if rest and isinstance(current, tuple):
        if not current:
            reject()
        i, rest = rest[0] % len(current), rest[1:]
        item = _replaced(current[i], rest, value) if rest else value
        value = current[:i] + (item,) + current[i + 1:]
    elif rest:
        if current is None:
            reject()
        value = _replaced(current, rest, value)
    return dataclasses.replace(msg, **{name: value})


@pytest.fixture(scope="module")
def live():
    """The honest run's cluster, left with a client call and an edge read
    in flight (their sends cut off) for mutated replies to land on."""
    cluster, tier, client, captured, _ = _honest_run()
    cluster.replicas[0].restart_node()
    cluster.network.add_filter(lambda s, d, m: s not in ("client0", "edge0"))
    client.invoke(put(0, b"x"), lambda result: None)
    edge = tier.ports[0].node
    nonce = edge.fetch("replica1", InMemoryStateManager.op_get(0))
    src, dst, reply = captured["reply"]
    captured["reply"] = (src, dst, dataclasses.replace(
        reply, request_id=client._pending.request.request_id))
    src, dst, reply = captured["edge_read_reply"]
    captured["edge_read_reply"] = (src, dst, dataclasses.replace(
        reply, nonce=nonce))
    return cluster, captured


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutation=mutations())
@example(mutation=("prepare", ("seq",), "x"))
@example(mutation=("commit", ("view",), None))
@example(mutation=("prepare", ("seq",), 2 ** 64))
@example(mutation=("fetch_meta", ("level",), 10 ** 9))
@example(mutation=("fetch_meta", ("index",), 10 ** 9))
@example(mutation=("fetch_object", ("index",), 10 ** 9))
@example(mutation=("pre_prepare", ("requests", 0), ("message", "prepare")))
@example(mutation=("cert_reply", ("cert", 0), ("message", "commit")))
def test_mutated_messages_never_raise_past_dispatch(live, mutation):
    cluster, captured = live
    kind, path, value = mutation
    src, dst, original = captured[kind]
    if isinstance(value, tuple) and value[:1] == ("message",):
        value = captured[value[1]][2]
    msg = _replaced(original, path, value)
    try:
        body = msg.body()
    except (AttributeError, TypeError):
        # A message of the wrong kind where a view-change summarizes a
        # pre-prepare: the sender itself cannot encode it.
        reject()
    if kind in SIGNED:
        msg.sig = sign(cluster.registry, src, body)
    else:
        msg.auth = Authenticator.create(cluster.registry, src, [dst],
                                        msg.digest())
    bad = cluster.metrics.counter_value("bad_message")
    cluster.network._nodes[dst].on_message(src, msg)
    cluster.run(0.2)
    dropped = cluster.metrics.counter_value("bad_message") - bad
    assert dropped == (msg.malformed() is not None)
