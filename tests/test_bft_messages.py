"""Wire-format pins: one instance of every message kind.

The canonical body bytes are what MACs and signatures cover and what
replicas must agree on bit for bit, and ``wire_size()`` is what the
network charges.  Each sample's body digest and wire size is pinned
here, so any change to how a message is declared must leave both alone.
"""

import pytest

from repro.bft.messages import (
    CertReply,
    CheckpointMsg,
    Commit,
    EdgeRead,
    EdgeReadReply,
    FetchCert,
    FetchMeta,
    FetchObject,
    FetchTable,
    Message,
    MetaReply,
    NewView,
    ObjectReply,
    PrePrepare,
    Prepare,
    RecoveryRequest,
    Reply,
    Request,
    TableReply,
    ViewChange,
)
from repro.crypto.digest import digest
from repro.crypto.keys import KeyRegistry
from repro.crypto.mac import Authenticator
from repro.crypto.signatures import sign

REPLICAS = ("replica0", "replica1", "replica2", "replica3")


def _mac(registry, msg, sender, receivers):
    msg.auth = Authenticator.create(registry, sender, receivers, msg.digest())
    return msg


def _sign(registry, msg, signer):
    msg.sig = sign(registry, signer, msg.body())
    return msg


def _others(sender):
    return [r for r in REPLICAS if r != sender]


def sample_messages(registry=None):
    """One authenticated, well-formed instance of every message kind,
    keyed by kind, with the cross-field relations a real run has."""
    registry = registry or KeyRegistry()
    req = _mac(registry, Request("client0", 7, b"put k v"), "client0",
               REPLICAS)
    ro = _mac(registry, Request("client1", 3, b"get k", read_only=True),
              "client1", REPLICAS)
    pp = _mac(registry, PrePrepare(1, 5, (req, ro), b"nondet-5"),
              "replica1", _others("replica1"))
    root, table = digest(b"root-8"), digest(b"table-8")
    cert = tuple(_mac(registry, CheckpointMsg(8, root, table, r), r,
                      _others(r)) for r in REPLICAS[:3])
    vc = _sign(registry, ViewChange(2, 0, (), (pp,), "replica1"), "replica1")
    reproposed = _mac(registry, PrePrepare(2, 5, (req, ro), b"nondet-5"),
                      "replica2", _others("replica2"))
    nv = _sign(registry, NewView(2, (vc,), (reproposed,), "replica2"),
               "replica2")
    result = b"ok:v"
    return {
        "request": req,
        "reply": _mac(registry, Reply(1, 7, "client0", "replica2", result,
                                      digest(result), tentative=True),
                      "replica2", ["client0"]),
        "pre_prepare": pp,
        "prepare": _mac(registry, Prepare(1, 5, pp.batch_digest(),
                                          "replica2"),
                        "replica2", _others("replica2")),
        "commit": _mac(registry, Commit(1, 5, pp.batch_digest(), "replica3"),
                       "replica3", _others("replica3")),
        "checkpoint": cert[0],
        "view_change": vc,
        "new_view": nv,
        "fetch_cert": _mac(registry, FetchCert("replica3", 11), "replica3",
                           _others("replica3")),
        "cert_reply": _mac(registry, CertReply("replica1", 11, cert, nv),
                           "replica1", ["replica3"]),
        "fetch_meta": _mac(registry, FetchMeta("replica3", 8, 1, 2),
                           "replica3", ["replica1"]),
        "meta_reply": _mac(registry, MetaReply(
            "replica1", 8, 1, 2, ((digest(b"c0"), 4), (digest(b"c1"), 8))),
            "replica1", ["replica3"]),
        "fetch_object": _mac(registry, FetchObject("replica3", 8, 17),
                             "replica3", ["replica1"]),
        "object_reply": _mac(registry, ObjectReply("replica1", 8, 17,
                                                   b"object-17"),
                             "replica1", ["replica3"]),
        "fetch_table": _mac(registry, FetchTable("replica3", 8), "replica3",
                            ["replica1"]),
        "table_reply": _mac(registry, TableReply("replica1", 8, b"table"),
                            "replica1", ["replica3"]),
        "recovery_request": _sign(registry, RecoveryRequest("replica3", 1),
                                  "replica3"),
        "edge_read": _mac(registry, EdgeRead("edge0", 4, b"get k"), "edge0",
                          ["replica1"]),
        "edge_read_reply": _mac(registry, EdgeReadReply(
            "replica1", "edge0", 4, result, digest(result), 8, root,
            1_500_000, 2_250_000), "replica1", ["edge0"]),
    }


#: kind -> (first 16 hex digits of the body digest, wire size in bytes).
PINNED = {
    "cert_reply": ("2051a44d9da75979", 1777),
    "checkpoint": ("65bfaf2f743a6505", 161),
    "commit": ("1f74c37db069270b", 126),
    "edge_read": ("18862d5859417e21", 61),
    "edge_read_reply": ("7fe35adfe524e586", 183),
    "fetch_cert": ("4f818767ff994a76", 88),
    "fetch_meta": ("41de8e42ea6e217b", 67),
    "fetch_object": ("9769f5f4100f587a", 64),
    "fetch_table": ("dcd32ba0a8ddff1d", 56),
    "meta_reply": ("44df32c33178e111", 168),
    "new_view": ("569c27735ce05920", 1085),
    "object_reply": ("fb2292f7d7c1ef91", 78),
    "pre_prepare": ("45b481b31ccf7179", 395),
    "prepare": ("be375eedd1e91dcc", 127),
    "recovery_request": ("a0d595867172af73", 77),
    "reply": ("6f47f71cc17df10a", 116),
    "request": ("df10fc715112ea6f", 112),
    "table_reply": ("12fc37e4011e88d1", 66),
    "view_change": ("cf3a6258aec29229", 537),
}


def test_samples_cover_every_message_kind():
    kinds = {cls.kind for cls in Message.__subclasses__()}
    assert len(kinds) == 19
    assert set(sample_messages()) == kinds == set(PINNED)


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_body_digest_and_wire_size_are_pinned(kind):
    msg = sample_messages()[kind]
    assert msg.kind == kind
    assert (msg.digest().hex()[:16], msg.wire_size()) == PINNED[kind]
