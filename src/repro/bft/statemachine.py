"""Service-state interface between the BFT protocol and the service layer.

The replica protocol engine never touches service state directly — it
goes through a :class:`StateManager`.  The BASE library's
:class:`~repro.base.state.AbstractStateManager` is the production
implementation (conformance wrappers + abstraction functions); the
:class:`InMemoryStateManager` here is a small self-contained reference
used by the BFT protocol tests and for differential testing.

A note on ``lm`` (last-modified): the partition tree commits to a
per-object *last modified at sequence number* alongside each digest, and
internal digests cover both.  For all correct replicas to agree on tree
digests, ``lm`` must be a deterministic function of the operation history
— we define it as the sequence number of the request that last modified
the object (0 for never-modified objects), which every replica computes
identically.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence, Tuple

from repro.bft.messages import Request
from repro.bft.parttree import PartitionTree, TreeSnapshot
from repro.crypto.digest import digest
from repro.encoding.canonical import canonical, decanonical


class StateManager(abc.ABC):
    """Everything the replica needs from the service it replicates."""

    # -- execution ------------------------------------------------------------

    @abc.abstractmethod
    def execute(self, op: bytes, client_id: str, request_id: int, seq: int,
                nondet: bytes, read_only: bool = False) -> bytes:
        """Run one operation (ordered at ``seq``) and return result bytes.

        Read-only operations are executed with ``seq`` of the last
        executed request and must not modify state.
        """

    def propose_nondet(self, requests: Sequence[Request], seq: int) -> bytes:
        """Primary-side choice of the nondeterministic value for a batch."""
        return b""

    def check_nondet(self, requests: Sequence[Request], seq: int,
                     nondet: bytes) -> bool:
        """Backup-side validation of the primary's nondeterministic value."""
        return nondet == b""

    # -- checkpoints -------------------------------------------------------------

    @abc.abstractmethod
    def take_checkpoint(self, seq: int) -> bytes:
        """Record a checkpoint at ``seq``; returns the state root digest."""

    @abc.abstractmethod
    def discard_checkpoints_below(self, seq: int) -> None:
        """Garbage-collect retained checkpoints older than ``seq``."""

    @abc.abstractmethod
    def checkpoint_root(self, seq: int) -> Optional[bytes]:
        """Root digest of the retained checkpoint at ``seq``, if any."""

    def restore_checkpoint(self, seq: int) -> bool:
        """Roll the live state back to the retained checkpoint at ``seq``,
        discarding any retained checkpoints above it (they describe
        executions being rolled back).  Returns False when no such
        checkpoint is retained — the caller falls back to state transfer.
        Default: unsupported."""
        return False

    # -- state transfer: serving side -------------------------------------------

    @abc.abstractmethod
    def meta_children(self, seq: int, level: int,
                      index: int) -> Optional[Tuple[Tuple[bytes, int], ...]]:
        """(digest, lm) of a tree node's children at checkpoint ``seq``."""

    @abc.abstractmethod
    def object_at(self, seq: int, index: int) -> Optional[bytes]:
        """Abstract object ``index`` as of checkpoint ``seq``."""

    # -- state transfer: fetching side --------------------------------------------

    @abc.abstractmethod
    def local_leaf_info(self, index: int) -> Tuple[bytes, int]:
        """(digest, lm) of abstract object ``index`` in the *current* state,
        recomputing the digest if the object is dirty."""

    @abc.abstractmethod
    def apply_fetched(self, seq: int, root_digest: bytes,
                      objects: Dict[int, Tuple[bytes, int]]) -> bool:
        """Install fetched ``{index: (value, lm)}``, bringing the state to
        checkpoint ``seq``.

        Returns True iff the resulting tree root equals ``root_digest``
        (which carries a 2f+1 proof, so a False return means a donor lied
        or the local state is corrupt beyond the fetched set).
        """

    def fix_leaf_lm(self, index: int, lm: int) -> None:
        """Adopt a certified last-modified value for a leaf whose *value*
        already matches the transfer target (state transfer discovered our
        lm was stale, e.g. after missing checkpoints)."""
        self.tree.set_leaf(index, self.tree.leaf_digest(index), lm)

    def refresh_dirty(self) -> None:
        """Recompute leaf digests for objects modified since the last
        checkpoint, so the live tree reflects the current state.  The
        default is a no-op for managers whose tree is always current."""

    def mark_all_dirty(self) -> None:
        """Force :meth:`refresh_dirty` to re-derive every leaf digest from
        the concrete state — the integrity 'check' pass of recovery."""

    # -- tree shape ---------------------------------------------------------------

    @property
    @abc.abstractmethod
    def tree(self) -> PartitionTree:
        """The live partition tree over the abstract state."""

    # -- recovery -------------------------------------------------------------------

    def shutdown(self) -> float:
        """Persist what recovery needs; returns simulated seconds spent."""
        return 0.0

    def restart(self) -> float:
        """Rebuild volatile state after a reboot; returns simulated seconds."""
        return 0.0


class InMemoryStateManager(StateManager):
    """Reference manager: a deterministic key-value store.

    The abstract state is an array of ``size`` slots; operations are
    canonical-encoded tuples built by :meth:`op_put` / :meth:`op_get`.
    Checkpoints retain full snapshots — simple and obviously correct,
    which is the point of a reference implementation (the copy-on-write
    manager in :mod:`repro.base.state` is differential-tested against it).
    """

    def __init__(self, size: int = 64, branching: int = 8):
        self.size = size
        self.values: list = [b""] * size
        self._tree = PartitionTree(size, branching)
        self._checkpoints: Dict[int, Tuple[TreeSnapshot, list]] = {}
        for i in range(size):
            self._tree.set_leaf(i, digest(b""), 0)

    # -- op helpers -----------------------------------------------------------

    @staticmethod
    def op_put(slot: int, value: bytes) -> bytes:
        return canonical(("put", slot, value))

    @staticmethod
    def op_get(slot: int) -> bytes:
        return canonical(("get", slot))

    # -- StateManager ------------------------------------------------------------

    #: Decoded-op memo shared by every instance: all replicas in a group
    #: execute the same op bytes, so the first decode serves the rest.
    #: Bounded; cleared wholesale when full (ops are tiny tuples).
    _OP_CACHE: Dict[bytes, tuple] = {}
    _OP_CACHE_MAX = 8192

    def execute(self, op: bytes, client_id: str, request_id: int, seq: int,
                nondet: bytes, read_only: bool = False) -> bytes:
        if op == b"":
            return b"null"
        decoded = self._OP_CACHE.get(op)
        if decoded is None:
            decoded = decanonical(op)
            if len(self._OP_CACHE) >= self._OP_CACHE_MAX:
                self._OP_CACHE.clear()
            self._OP_CACHE[op] = decoded
        kind = decoded[0]
        if kind == "put":
            _, slot, value = decoded
            if read_only:
                raise ValueError("put issued as read-only")
            self.values[slot] = value
            self._tree.set_leaf(slot, digest(value), seq)
            return b"ok"
        if kind == "get":
            return self.values[decoded[1]]
        raise ValueError(f"unknown op kind {kind!r}")

    def take_checkpoint(self, seq: int) -> bytes:
        snap = self._tree.snapshot()
        self._checkpoints[seq] = (snap, list(self.values))
        return snap.root_digest

    def discard_checkpoints_below(self, seq: int) -> None:
        for old in [s for s in self._checkpoints if s < seq]:
            del self._checkpoints[old]

    def checkpoint_root(self, seq: int) -> Optional[bytes]:
        entry = self._checkpoints.get(seq)
        return entry[0].root_digest if entry else None

    def restore_checkpoint(self, seq: int) -> bool:
        entry = self._checkpoints.get(seq)
        if entry is None:
            return False
        snap, values = entry
        self.values = list(values)
        leaf_digests = snap.digests[-1]
        leaf_lms = snap.lms[-1]
        for i in range(self.size):
            self._tree.set_leaf(i, leaf_digests[i], leaf_lms[i])
        for s in [s for s in self._checkpoints if s > seq]:
            del self._checkpoints[s]
        return True

    def meta_children(self, seq: int, level: int, index: int):
        entry = self._checkpoints.get(seq)
        if entry is None:
            return None
        return entry[0].children_info(level, index, self._tree.branching)

    def object_at(self, seq: int, index: int) -> Optional[bytes]:
        entry = self._checkpoints.get(seq)
        if entry is None or not 0 <= index < self.size:
            return None
        return entry[1][index]

    def local_leaf_info(self, index: int) -> Tuple[bytes, int]:
        return self._tree.leaf_digest(index), self._tree.leaf_lm(index)

    def apply_fetched(self, seq: int, root_digest: bytes,
                      objects: Dict[int, Tuple[bytes, int]]) -> bool:
        for index, (value, lm) in objects.items():
            self.values[index] = value
            self._tree.set_leaf(index, digest(value), lm)
        ok = self._tree.root_digest == root_digest
        if ok:
            self._checkpoints[seq] = (self._tree.snapshot(), list(self.values))
        return ok

    def mark_all_dirty(self) -> None:
        # Re-derive every leaf digest from the concrete values, so silent
        # corruption of ``values`` becomes visible in the tree.
        for i, value in enumerate(self.values):
            self._tree.set_leaf(i, digest(value), self._tree.leaf_lm(i))

    @property
    def tree(self) -> PartitionTree:
        return self._tree
