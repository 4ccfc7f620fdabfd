"""BFT protocol messages, each kind declared once.

A kind is a ``@message`` class with a ``kind`` (the dispatch key of
:class:`repro.sim.Node`) and annotated fields, which give its constructor
and slots, the canonical ``body()`` MACs and signatures cover (a nested
message enters as its digest), ``digest()``, the ``wire_size()`` the
network charges, and ``malformed()``, which a node runs on each message
it receives.  Field types are ``int`` (exactly: ``True`` is no sequence
number), ``str``, ``bytes``, ``bool``, ``Optional``, tuples and message
kinds; any other type (a float, say) fails at class creation."""

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Annotated, Optional, Tuple, Union, get_args, get_origin

from repro.crypto.digest import digest as sha_digest
from repro.crypto.mac import Authenticator
from repro.crypto.signatures import SIGNATURE_SIZE
from repro.encoding.canonical import canonical

NULL_CLIENT = "__null__"

#: Wire integers are unsigned 64-bit: views, sequence numbers, ids,
#: nonces, tree coordinates and sim times are never negative.
UINT64_MAX = 2 ** 64 - 1


def _compile(tp, ns: dict):
    """``(check, encode, size)`` for a declared type: an expression over
    ``v`` that holds when it fits (names it uses go in ``ns``), then, if nested
    messages sit inside (else None), ``v``'s body value and their wire
    size.  ``Annotated`` metadata replaces a nested digest in the body."""
    origin, args = get_origin(tp), get_args(tp)
    if tp is int:
        return "type(v) is int and 0 <= v <= UINT64_MAX", None, None
    if tp in (str, bytes, bool):
        return f"type(v) is {tp.__name__}", None, None
    if origin is Annotated:
        check, _, size = _compile(args[0], ns)
        return check, args[1], size
    if origin is Union and len(args) == 2 and args[1] is type(None):
        inner, encode, size = _compile(args[0], ns)
        return (f"v is None or ({inner})",
                encode and (lambda v: None if v is None else encode(v)),
                size and (lambda v: 0 if v is None else size(v)))
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        item, encode, size = _compile(args[0], ns)
        return (f"type(v) is tuple and all(map(lambda v: {item}, v))",
                encode and (lambda v: tuple(map(encode, v))),
                size and (lambda v: sum(map(size, v))))
    if origin is tuple:
        items = "".join(f" and (lambda v: {_compile(a, ns)[0]})(v[{i}])"
                        for i, a in enumerate(args))
        return f"type(v) is tuple and len(v) == {len(args)}{items}", None, None
    if isinstance(tp, type) and issubclass(tp, Message):
        ns[tp.__name__] = tp
        return (f"type(v) is {tp.__name__} and v.malformed() is None",
                Message.digest, Message.wire_size)
    raise TypeError(f"{tp!r} is not a wire type")


#: What the authentication tags, which ride outside the body, may hold.
_TAGS = (("auth", "v is None or type(v) is Authenticator"
                  " and type(v.tags) is dict"),
         ("sig", "v is None or type(v) is bytes"))


@dataclass(eq=False, slots=True)
class Message:
    """Base for protocol messages; see the module docstring."""

    _body: Optional[bytes] = field(default=None, init=False, repr=False)
    _digest: Optional[bytes] = field(default=None, init=False, repr=False)
    auth: Optional[Authenticator] = field(default=None, init=False,
                                          repr=False)
    sig: Optional[bytes] = field(default=None, init=False, repr=False)

    def __init_subclass__(cls):
        """Compile the declaration: field names and values in body order,
        (position, encode, size) for nested messages, and ``malformed()``:
        the name of the first field (or tag) that breaks it, or None."""
        declared = cls.__dict__.get("__annotations__", {})
        if "kind" not in cls.__dict__ or not declared:
            raise TypeError(f"message {cls.__name__} must declare a kind "
                            f"and its fields")
        ns = {"UINT64_MAX": UINT64_MAX, "Authenticator": Authenticator}
        specs = [_compile(tp, ns) for tp in declared.values()]
        cls._names = names = tuple(declared)
        cls._values = attrgetter(*names) if len(names) > 1 \
            else lambda m: (getattr(m, names[0]),)
        cls._nested = tuple((i, encode, size) for i, (_, encode, size)
                            in enumerate(specs) if encode is not None)
        tests = "".join(
            f"    v = self.{name}\n    if not ({check}):\n"
            f"        return {name!r}\n" for name, check
            in [*zip(names, (check for check, _, _ in specs)), *_TAGS])
        exec(f"def malformed(self):\n{tests}    return None\n", ns)
        cls.malformed = ns["malformed"]

    def body(self) -> bytes:
        if self._body is None:
            values = list(self._values(self))
            for i, encode, _ in self._nested:
                values[i] = encode(values[i])
            self._body = canonical((self.kind, *values))
        return self._body

    def digest(self) -> bytes:
        if self._digest is None:
            self._digest = sha_digest(self.body())
        return self._digest

    def wire_size(self) -> int:
        size = len(self.body())
        if self.auth is not None:
            size += self.auth.wire_size()
        if self.sig is not None:
            size += SIGNATURE_SIZE
        for i, _, nested_size in self._nested:
            size += nested_size(self._values(self)[i])
        return size


#: Declares a message kind: a slotted dataclass over its annotations.
message = dataclass(eq=False, slots=True)


@message
class Request(Message):
    """Client request to execute ``op`` (opaque service-level bytes)."""

    kind = "request"
    client_id: str
    request_id: int
    op: bytes
    read_only: bool = False

    @classmethod
    def null(cls) -> "Request":
        """The no-op request that fills seq gaps after a view change."""
        return cls(NULL_CLIENT, 0, b"")

    @property
    def is_null(self) -> bool:
        return self.client_id == NULL_CLIENT


@message
class Reply(Message):
    """Replica's reply: the full result, or only its digest when another
    replica is designated.  A client that fell back to the ordered path
    must not count a ``read_only`` reply (of unordered state)."""

    kind = "reply"
    view: int
    request_id: int
    client_id: str
    replica_id: str
    result: Optional[bytes]
    result_digest: bytes
    tentative: bool = False
    read_only: bool = False


@message
class PrePrepare(Message):
    """Primary's proposal of a batch at ``seq``: the requests (piggybacked,
    as in BFT) and its ``propose_value`` output for them (``nondet``)."""

    kind = "pre_prepare"
    view: int
    seq: int
    requests: Tuple[Request, ...]
    nondet: bytes

    def batch_digest(self) -> bytes:
        """Digest that prepares/commits certify (covers seq/view/batch/nondet)."""
        return self.digest()


@message
class Prepare(Message):
    kind = "prepare"
    view: int
    seq: int
    batch_digest: bytes
    replica_id: str


@message
class Commit(Message):
    kind = "commit"
    view: int
    seq: int
    batch_digest: bytes
    replica_id: str


@message
class CheckpointMsg(Message):
    """A replica's checkpoint at ``seq``: the abstract-state root digest and
    that of the reply cache, replicated state as in BFT."""

    kind = "checkpoint"
    seq: int
    root_digest: bytes
    table_digest: bytes
    replica_id: str


@message
class ViewChange(Message):
    """Signed request to move to ``view``: the stable checkpoint proof and
    the pre-prepares prepared above it, in the body as (view, seq, digest)."""

    kind = "view_change"
    view: int
    last_stable: int
    checkpoint_proof: Tuple[CheckpointMsg, ...]
    prepared: Tuple[Annotated[PrePrepare, lambda pp: (
        pp.view, pp.seq, pp.batch_digest())], ...]
    replica_id: str


@message
class NewView(Message):
    """The new primary's signed 2f+1 view-changes and its re-proposals."""

    kind = "new_view"
    view: int
    view_changes: Tuple[ViewChange, ...]
    pre_prepares: Tuple[PrePrepare, ...]
    replica_id: str


# -- state transfer ---------------------------------------------------------


@message
class FetchCert(Message):
    """Ask a replica for its latest stable checkpoint certificate."""

    kind = "fetch_cert"
    replica_id: str
    nonce: int


@message
class CertReply(Message):
    """Latest stable checkpoint certificate and, if any, the sender's last
    (self-validating) NEW-VIEW, so a recovering replica catches up."""

    kind = "cert_reply"
    replica_id: str
    nonce: int
    cert: Tuple[CheckpointMsg, ...]
    new_view: Optional[NewView] = None


@message
class FetchMeta(Message):
    """Fetch the children of tree node (level, index) at checkpoint seq."""

    kind = "fetch_meta"
    replica_id: str
    seq: int
    level: int
    index: int


@message
class MetaReply(Message):
    """A tree node's children as (digest, last-modified checkpoint)."""

    kind = "meta_reply"
    replica_id: str
    seq: int
    level: int
    index: int
    children: Tuple[Tuple[bytes, int], ...]


@message
class FetchObject(Message):
    kind = "fetch_object"
    replica_id: str
    seq: int
    index: int


@message
class ObjectReply(Message):
    kind = "object_reply"
    replica_id: str
    seq: int
    index: int
    value: bytes


@message
class FetchTable(Message):
    """Fetch the client reply cache as of stable checkpoint ``seq``."""

    kind = "fetch_table"
    replica_id: str
    seq: int


@message
class TableReply(Message):
    kind = "table_reply"
    replica_id: str
    seq: int
    blob: bytes


@message
class RecoveryRequest(Message):
    """Signed: a replica is recovering; peers send their stable certs."""

    kind = "recovery_request"
    replica_id: str
    epoch: int


# -- edge tier (bounded-staleness reads) ------------------------------------


@message
class EdgeRead(Message):
    """An edge node's single-replica read, answered with staleness evidence."""

    kind = "edge_read"
    edge_id: str
    nonce: int
    op: bytes


@message
class EdgeReadReply(Message):
    """One replica's answer to an :class:`EdgeRead` with its version
    vector: the stable checkpoint it last proved, when that went stable
    and when this read ran, in integer microseconds (no float fields)."""

    kind = "edge_read_reply"
    replica_id: str
    edge_id: str
    nonce: int
    result: bytes
    result_digest: bytes
    checkpoint_seq: int
    root_digest: bytes
    stable_at_us: int
    issued_at_us: int
