"""Hierarchical state transfer.

An out-of-date, diverged, or recovering replica brings itself to a proven
stable checkpoint by walking the partition tree top-down: it fetches
(digest, lm) metadata for tree nodes whose digests differ from its own and
fetches only the leaf objects that are actually out-of-date or corrupt.
Every reply is self-verifying — metadata hashes up to the certified root,
object values hash to the certified leaf digests — so a lying donor can
only stall the transfer (we rotate donors on timeout), never corrupt it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.bft.messages import (
    CertReply,
    CheckpointMsg,
    FetchCert,
    FetchMeta,
    FetchObject,
    FetchTable,
    MetaReply,
    ObjectReply,
    TableReply,
)
from repro.bft.parttree import PartitionTree
from repro.crypto.digest import digest


class StateTransferManager:
    """Per-replica state-transfer protocol state (fetching and serving)."""

    RETRY_PERIOD = 1.0

    def __init__(self, replica) -> None:
        self.replica = replica
        self.active = False
        self.target_seq = 0
        self.target_root = b""
        self.target_table_digest = b""
        self._table_blob: Optional[bytes] = None
        self._table_pending = False
        self.cert: Tuple[CheckpointMsg, ...] = ()
        self._donor_index = 0
        self._attempts = 0
        # (level, index) -> expected digest of that tree node
        self._outstanding_meta: Dict[Tuple[int, int], bytes] = {}
        # leaf index -> (expected digest, lm)
        self._outstanding_objects: Dict[int, Tuple[bytes, int]] = {}
        self._fetched: Dict[int, Tuple[bytes, int]] = {}
        # leaves whose value matches but whose lm must be adopted
        self._lm_fixes: Dict[int, int] = {}
        self._progress = 0
        self._last_progress_seen = -1
        self._timer = replica.make_timer(self.RETRY_PERIOD, self._on_timeout)
        self.objects_fetched_total = 0
        self.bytes_fetched_total = 0
        self._cert_nonce = 0
        # When the current transfer began, for phase.state_transfer
        # (kept across re-targets to a newer checkpoint mid-transfer).
        self._started_at = 0.0

    # -- initiating a transfer ---------------------------------------------------

    def initiate(self, seq: int, root: bytes, cert, force: bool = False) -> None:
        """Start fetching the stable checkpoint ``seq`` with digest ``root``.

        ``cert`` must be a valid 2f+1 checkpoint certificate; an invalid
        one is ignored (a faulty replica may try to lure us into fetching
        garbage).  ``force`` re-checks state even when we already consider
        ``seq`` stable — recovery uses it to audit a possibly corrupt state.
        """
        r = self.replica
        if self.active and seq <= self.target_seq:
            return
        if seq <= r.last_stable and not force:
            return
        if not r.valid_checkpoint_cert(seq, root, cert):
            r.trace("transfer_bad_cert", seq=seq)
            return
        r.trace("transfer_started", seq=seq)
        if not self.active:
            self._started_at = r.now
        self.active = True
        self.target_seq = seq
        self.target_root = root
        self.target_table_digest = cert[0].table_digest
        self.cert = tuple(cert)
        self._attempts = 0
        self._begin_walk()

    def _begin_walk(self) -> None:
        r = self.replica
        self._outstanding_meta.clear()
        self._outstanding_objects.clear()
        self._fetched.clear()
        self._lm_fixes.clear()
        self._table_blob = None
        self._table_pending = False
        self._progress = 0
        self._last_progress_seen = -1
        # Refresh dirty leaf digests so local comparisons are meaningful;
        # during recovery everything is dirty and this is the expensive
        # "check" phase of Table IV.
        r.state.refresh_dirty()
        local_table = r.serialize_client_table()
        if digest(local_table) != self.target_table_digest:
            self._table_pending = True
            r.send(self.donor, FetchTable(r.node_id, self.target_seq))
        if r.state.tree.root_digest == self.target_root:
            self._check_done()
            return
        self._request_meta(0, 0, self.target_root)
        self._timer.restart(self.RETRY_PERIOD)

    # -- donor management -----------------------------------------------------------

    @property
    def donor(self) -> str:
        others = self.replica.other_replicas
        return others[self._donor_index % len(others)]

    def _on_timeout(self) -> None:
        if not self.active:
            return
        if self._progress == self._last_progress_seen:
            # No progress since last tick: rotate donor and re-request.
            self._donor_index += 1
            self.replica.trace("transfer_donor_switch", donor=self.donor)
            for (level, index) in self._outstanding_meta:
                msg = FetchMeta(self.replica.node_id, self.target_seq,
                                level, index)
                self.replica.send(self.donor, msg)
            for index in self._outstanding_objects:
                msg = FetchObject(self.replica.node_id, self.target_seq, index)
                self.replica.send(self.donor, msg)
            if self._table_pending:
                self.replica.send(self.donor, FetchTable(
                    self.replica.node_id, self.target_seq))
        self._last_progress_seen = self._progress
        self._timer.restart(self.RETRY_PERIOD)

    # -- fetch requests ---------------------------------------------------------------

    def _request_meta(self, level: int, index: int, expected: bytes) -> None:
        self._outstanding_meta[(level, index)] = expected
        msg = FetchMeta(self.replica.node_id, self.target_seq, level, index)
        self.replica.send(self.donor, msg)

    def _request_object(self, index: int, expected: bytes, lm: int) -> None:
        self._outstanding_objects[index] = (expected, lm)
        msg = FetchObject(self.replica.node_id, self.target_seq, index)
        self.replica.send(self.donor, msg)

    # -- serving side --------------------------------------------------------------------

    def on_fetch_cert(self, src, msg: FetchCert) -> None:
        r = self.replica
        r.charge(r.costs.digest(64 * len(r.stable_cert)))
        reply = CertReply(r.node_id, msg.nonce, r.stable_cert,
                          new_view=r.view_changes.last_new_view)
        r.send(src, reply)

    def on_cert_reply(self, src, msg: CertReply) -> None:
        """A valid certificate is self-validating: start a transfer to the
        newest one we learn about (used after recovery restarts)."""
        r = self.replica
        recovering = r.recovery.recovering
        if msg.new_view is not None and msg.new_view.view > r.view:
            # Catch up to the current view (self-validating NEW-VIEW).
            r.view_changes.on_new_view(src, msg.new_view)
        if not msg.cert:
            r.recovery.note_empty_cert(src)
            return
        seq = msg.cert[0].seq
        root = msg.cert[0].root_digest
        if self.active and seq <= self.target_seq:
            return
        if seq < r.last_stable or (seq == r.last_stable and not recovering):
            return
        self.initiate(seq, root, msg.cert, force=recovering)

    def on_fetch_meta(self, src, msg: FetchMeta) -> None:
        r = self.replica
        children = r.state.meta_children(msg.seq, msg.level, msg.index)
        if children is None:
            return
        r.charge(r.costs.digest(64 * len(children)))
        reply = MetaReply(r.node_id, msg.seq, msg.level, msg.index,
                          tuple(children))
        r.send(src, reply)

    def on_fetch_object(self, src, msg: FetchObject) -> None:
        r = self.replica
        value = r.state.object_at(msg.seq, msg.index)
        if value is None:
            return
        # Serving costs the donor real work (reading and encoding the
        # object) — a permanently-lagging replica's constant fetching
        # slows the rest of the group, as the paper observes in the
        # heterogeneous setup.
        r.charge(r.costs.digest(len(value)))
        r.send(src, ObjectReply(r.node_id, msg.seq, msg.index, value))

    # -- fetching side ------------------------------------------------------------------------

    def on_meta_reply(self, src, msg: MetaReply) -> None:
        r = self.replica
        if not self.active or msg.seq != self.target_seq:
            return
        key = (msg.level, msg.index)
        expected = self._outstanding_meta.get(key)
        if expected is None:
            return
        if PartitionTree.combine(msg.children) != expected:
            r.trace("transfer_bad_meta", level=msg.level, index=msg.index)
            return  # donor lied; timeout will rotate
        r.charge(r.costs.digest(64 * len(msg.children)))
        del self._outstanding_meta[key]
        self._progress += 1
        tree = r.state.tree
        child_level = msg.level + 1
        base = msg.index * tree.branching
        if child_level == tree.leaf_level:
            for off, (child_digest, lm) in enumerate(msg.children):
                idx = base + off
                local_digest, local_lm = r.state.local_leaf_info(idx)
                if local_digest != child_digest:
                    self._request_object(idx, child_digest, lm)
                elif local_lm != lm:
                    # Same value, stale last-modified (we missed the
                    # checkpoints that advanced it): adopt the certified lm
                    # without fetching the object.
                    self._lm_fixes[idx] = lm
        else:
            for off, (child_digest, lm) in enumerate(msg.children):
                idx = base + off
                # Compare against our own digest for the same node.
                local_digest = self._local_node_digest(child_level, idx)
                if local_digest != child_digest:
                    self._request_meta(child_level, idx, child_digest)
        self._check_done()

    def _local_node_digest(self, level: int, index: int) -> bytes:
        tree = self.replica.state.tree
        tree.refresh()
        row = tree._digests[level]
        if index < len(row):
            return row[index]
        return b""

    def on_object_reply(self, src, msg: ObjectReply) -> None:
        r = self.replica
        if not self.active or msg.seq != self.target_seq:
            return
        expected = self._outstanding_objects.get(msg.index)
        if expected is None:
            return
        expected_digest, lm = expected
        r.charge(r.costs.digest(len(msg.value)))
        if digest(msg.value) != expected_digest:
            r.trace("transfer_bad_object", index=msg.index)
            return
        del self._outstanding_objects[msg.index]
        self._fetched[msg.index] = (msg.value, lm)
        self._progress += 1
        self.objects_fetched_total += 1
        self.bytes_fetched_total += len(msg.value)
        self._check_done()

    def on_fetch_table(self, src, msg: FetchTable) -> None:
        r = self.replica
        entry = r.table_checkpoints.get(msg.seq)
        if entry is None:
            return
        r.charge(r.costs.digest(len(entry[1])))
        r.send(src, TableReply(r.node_id, msg.seq, entry[1]))

    def on_table_reply(self, src, msg: TableReply) -> None:
        r = self.replica
        if not self.active or msg.seq != self.target_seq:
            return
        if not self._table_pending:
            return
        r.charge(r.costs.digest(len(msg.blob)))
        if digest(msg.blob) != self.target_table_digest:
            r.trace("transfer_bad_table", donor=src)
            return
        self._table_blob = msg.blob
        self._table_pending = False
        self._progress += 1
        self._check_done()

    def _check_done(self) -> None:
        if (self._outstanding_meta or self._outstanding_objects
                or self._table_pending):
            return
        self._finish(self._fetched)

    def _finish(self, objects: Dict[int, Tuple[bytes, int]]) -> None:
        r = self.replica
        for idx, lm in self._lm_fixes.items():
            r.state.fix_leaf_lm(idx, lm)
        ok = r.state.apply_fetched(self.target_seq, self.target_root, objects)
        if not ok:
            self._attempts += 1
            r.trace("transfer_apply_failed", attempt=self._attempts)
            if self._attempts < 3:
                # Local state was corrupt beyond the fetched set; re-check
                # everything and walk again.
                r.state.mark_all_dirty()
                self._begin_walk()
                return
            raise RuntimeError(
                f"{r.node_id}: state transfer to seq {self.target_seq} "
                f"failed after {self._attempts} attempts")
        self.active = False
        self._timer.stop()
        if self._table_blob is not None:
            r.install_client_table(self._table_blob)
        table_blob = r.serialize_client_table()
        r.table_checkpoints[self.target_seq] = (digest(table_blob), table_blob)
        r.last_executed = self.target_seq
        r.last_stable = self.target_seq
        # The installed checkpoint carries a 2f+1 certificate — every
        # execution under it is durable.
        r.last_committed_exec = self.target_seq
        r.stable_cert = self.cert
        r.note_stable_vector(self.target_seq, self.target_root)
        r.log.truncate_below(self.target_seq)
        # If this was a rollback to the stable checkpoint (recovery or
        # divergence repair), the retained committed slots above it must
        # replay: clear their executed flags so try_execute re-runs them
        # against the restored state.
        for seq in r.log.seqs():
            slot = r.log.slot(seq)
            slot.executed = False
            slot.tentative = False
        r.state.discard_checkpoints_below(self.target_seq)
        for old in [s for s in r.table_checkpoints if s < self.target_seq]:
            del r.table_checkpoints[old]
        for old in [s for s in r.checkpoint_msgs if s <= self.target_seq]:
            del r.checkpoint_msgs[old]
        # Requests we were waiting on were covered by the checkpoint (or
        # will be retransmitted by their clients); stop suspecting.
        r.waiting.clear()
        r.vc_timer.stop()
        r.trace("transfer_complete", seq=self.target_seq,
                objects=len(objects))
        r.tracer.observe_phase("state_transfer", r.now - self._started_at)
        r.tracer.metrics.inc("transfer.objects_fetched", len(objects))
        r.recovery.on_transfer_complete()
        r.try_execute()

    # -- cert solicitation (recovery) ----------------------------------------------------------

    def solicit_certs(self) -> None:
        """Ask every other replica for its latest stable checkpoint cert."""
        r = self.replica
        self._cert_nonce += 1
        msg = FetchCert(r.node_id, self._cert_nonce)
        r.multicast(r.other_replicas, msg)
