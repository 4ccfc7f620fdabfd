"""Safety/liveness invariant checkers run against every FaultLab trial.

The trial runner records two streams of evidence while the simulation
runs — every execution at every replica (its ``executed`` events, with
``rollback`` and ``transfer_complete`` marking restored checkpoints) and
every reply the clients accepted (their ``result_accepted`` events), both
read by a subscriber on the cluster's tracer — then hands them, plus the
settled cluster, to the checkers:

- **agreement** — all correct replicas' committed op sequences are
  prefixes of one another: any sequence number executed by two correct
  replicas carries the same request and produced the same result;
- **reply validity** — the client's f+1 vote only certifies results a
  correct replica actually computed; every accepted reply must match the
  result recorded by at least one correct replica for that request (with
  agreement, that makes all f+1 matching correct replies identical);
- **convergence** — after faults quiesce and state transfer settles, the
  correct replicas at the execution frontier expose identical abstract
  state roots, and every triggered proactive recovery completed;
- **liveness** — under a quiescent plan (all faults within f, network
  healed), every client workload ran to completion within the trial's
  simulated-time budget.

Checkers return :class:`Violation` lists with deterministic detail
strings, so a replay of the same (scenario, seed) yields bit-identical
violations — the property the shrinker and ``replay`` rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.edge.evidence import (BOUNDED_STALE, EVIDENCE_CERTIFICATE,
                                 EVIDENCE_VECTOR, LINEARIZABLE, MODES)


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with a replay-stable description."""

    invariant: str
    detail: str

    @property
    def key(self) -> Tuple[str, str]:
        return (self.invariant, self.detail)

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


@dataclass(frozen=True)
class ExecutionEntry:
    """One execution at one replica (recorded pre-corruption, so a lying
    replica's entry is what it *computed*, not what it sent)."""

    seq: int
    client_id: str
    request_id: int
    result_digest: bytes
    read_only: bool


@dataclass(frozen=True)
class RollbackEntry:
    """State transfer completed at this replica, restoring checkpoint
    ``seq``: executions beyond it are discarded and will be re-run (the
    normal recovery path), so re-execution after this marker supersedes
    instead of conflicting."""

    seq: int


@dataclass(frozen=True)
class AcceptedReply:
    """One result a client accepted (f+1 or 2f+1 vote passed)."""

    client_id: str
    request_id: int
    result_digest: bytes
    at: float


#: Per-replica stream of :class:`ExecutionEntry` interleaved with
#: :class:`RollbackEntry` markers, in simulation order.
ExecutionLog = Dict[str, List[object]]


def check_agreement(exec_log: ExecutionLog,
                    correct_ids: Sequence[str]) -> List[Violation]:
    """Committed op sequences of correct replicas agree point-wise (and
    hence are prefixes of one another, since each replica executes its
    ordered batches in increasing seq order).  One sequence number covers
    a whole pre-prepare batch, so the unit of comparison is the ordered
    tuple of (client, request, result) executions at that seq."""
    violations: List[Violation] = []
    Ident = Tuple[Tuple[str, int, bytes], ...]
    # seq -> {ordered batch identity -> [replica ids]}
    by_seq: Dict[int, Dict[Ident, List[str]]] = {}
    for replica_id in sorted(correct_ids):
        last_seq = 0
        open_seq = None  # the batch currently being appended to
        batches: Dict[int, List[Tuple[str, int, bytes]]] = {}
        for e in exec_log.get(replica_id, ()):
            if isinstance(e, RollbackEntry):
                # Checkpoint restored at e.seq: later executions are
                # gone and will be legitimately re-run.
                for seq in [s for s in batches if s > e.seq]:
                    del batches[seq]
                last_seq = e.seq
                open_seq = None
                continue
            if e.read_only:
                continue
            if e.seq < last_seq:
                violations.append(Violation(
                    "agreement",
                    f"{replica_id} executed seq {e.seq} out of order "
                    f"(after seq {last_seq})"))
            if e.seq != open_seq:
                batches[e.seq] = []  # a fresh batch supersedes any re-run
                open_seq = e.seq
            last_seq = max(last_seq, e.seq)
            batches[e.seq].append(
                (e.client_id, e.request_id, e.result_digest))
        for seq, batch in batches.items():
            by_seq.setdefault(seq, {}).setdefault(tuple(batch), []).append(
                replica_id)
    for seq in sorted(by_seq):
        idents = by_seq[seq]
        if len(idents) <= 1:
            continue
        parts = []
        for batch, replicas in sorted(
                idents.items(),
                key=lambda kv: [(c, r, d.hex()) for c, r, d in kv[0]]):
            ops = ";".join(f"({client},{request_id},{rdigest.hex()[:12]})"
                           for client, request_id, rdigest in batch)
            parts.append(f"{'+'.join(sorted(replicas))}=[{ops}]")
        violations.append(Violation(
            "agreement", f"seq {seq} diverged across correct replicas: "
                         + " vs ".join(parts)))
    return violations


def check_reply_validity(accepted: Sequence[AcceptedReply],
                         exec_log: ExecutionLog,
                         correct_ids: Sequence[str]) -> List[Violation]:
    """Every client-accepted reply is backed by a correct replica's
    computation of that very request."""
    violations: List[Violation] = []
    computed: Dict[Tuple[str, int], Set[bytes]] = {}
    for replica_id in correct_ids:
        for e in exec_log.get(replica_id, ()):
            if isinstance(e, RollbackEntry):
                continue
            computed.setdefault((e.client_id, e.request_id),
                                set()).add(e.result_digest)
    for reply in accepted:
        digests = computed.get((reply.client_id, reply.request_id))
        if digests is None:
            violations.append(Violation(
                "reply_validity",
                f"client {reply.client_id} accepted a reply for request "
                f"{reply.request_id} that no correct replica executed"))
        elif reply.result_digest not in digests:
            violations.append(Violation(
                "reply_validity",
                f"client {reply.client_id} accepted result "
                f"{reply.result_digest.hex()[:12]} for request "
                f"{reply.request_id}, but correct replicas computed "
                f"{sorted(d.hex()[:12] for d in digests)}"))
    return violations


def check_convergence(cluster, correct_ids: Sequence[str],
                      expect_liveness: bool) -> List[Violation]:
    """After quiesce + settle: correct replicas at the execution frontier
    share one abstract state root; triggered recoveries completed."""
    violations: List[Violation] = []
    live = [r for r in cluster.replicas
            if r.node_id in correct_ids and not r.crashed
            and not r.recovery.recovering and not r.transfer.active]
    for r in cluster.replicas:
        if r.node_id not in correct_ids:
            continue
        if r.recovery.recovering and expect_liveness:
            violations.append(Violation(
                "convergence",
                f"{r.node_id} still mid-recovery after the settle phase"))
    if not live:
        return violations
    frontier = max(r.last_executed for r in live)
    at_frontier = [r for r in live if r.last_executed == frontier]
    if expect_liveness and len(at_frontier) < cluster.config.weak_quorum:
        violations.append(Violation(
            "convergence",
            f"only {len(at_frontier)} correct replicas reached the "
            f"execution frontier (seq {frontier}); need at least "
            f"{cluster.config.weak_quorum}"))
    roots = {}
    for r in at_frontier:
        r.state.refresh_dirty()
        roots.setdefault(r.state.tree.root_digest, []).append(r.node_id)
    if len(roots) > 1:
        parts = [f"{'+'.join(sorted(ids))}={root.hex()[:12]}"
                 for root, ids in sorted(roots.items(),
                                         key=lambda kv: kv[0].hex())]
        violations.append(Violation(
            "convergence",
            f"abstract state roots diverged at frontier seq {frontier}: "
            + " vs ".join(parts)))
    return violations


def check_liveness(scripts_done: Sequence[Tuple[str, bool]],
                   expect_liveness: bool,
                   duration: float) -> List[Violation]:
    """Bounded progress: a quiescent-fault trial must finish its workload
    inside the simulated-time budget."""
    if not expect_liveness:
        return []
    stuck = sorted(client_id for client_id, done in scripts_done if not done)
    if not stuck:
        return []
    return [Violation(
        "liveness",
        f"clients {stuck} did not finish their workload within "
        f"{duration:g} simulated seconds despite a quiescent fault plan")]


def check_staleness_contract(
        records: Sequence,
        histories: Dict[str, Sequence[Tuple[int, bytes]]],
        breaker_states: Sequence[Tuple[int, str]] = (),
        expect_repromotion: bool = False,
        slack: float = 1e-9) -> List[Violation]:
    """The edge tier's advertised staleness contract, audited against the
    abstract-state history correct replicas actually passed through:

    - every reply names a known consistency mode, and a linearizable
      claim is only ever backed by quorum (read-certificate) evidence —
      a degraded reply can never masquerade as fresh;
    - a bounded-stale reply's *actual* staleness (serve time minus the
      time its evidence proves the result was current) never exceeds
      its advertised bound;
    - version-vector evidence anchors at a ``(seq, digest)`` checkpoint
      some correct replica genuinely recorded;
    - after the plan quiesces, every shard's breaker re-promoted to the
      top of the ladder (when the trial expects liveness).

    ``records`` are :class:`~repro.edge.evidence.EdgeReadRecord`;
    ``histories`` maps correct replica ids to their retained
    ``checkpoint_history``; ``breaker_states`` is the final
    ``(shard, breaker state)`` per shard.
    """
    violations: List[Violation] = []
    known: Set[Tuple[int, bytes]] = set()
    for replica_id in sorted(histories):
        known.update(histories[replica_id])
    for i, rec in enumerate(records):
        tag = f"read[{i}]"
        if rec.mode not in MODES:
            violations.append(Violation(
                "staleness_contract",
                f"{tag} served under unknown mode {rec.mode!r}"))
            continue
        ev = rec.evidence
        if ev is None:
            violations.append(Violation(
                "staleness_contract",
                f"{tag} ({rec.mode}) carries no staleness evidence"))
            continue
        if rec.mode == LINEARIZABLE:
            if ev.kind != EVIDENCE_CERTIFICATE:
                violations.append(Violation(
                    "staleness_contract",
                    f"{tag} claims linearizable but is backed by "
                    f"{ev.kind} evidence from {list(ev.replicas)}"))
            if rec.staleness_bound is not None:
                violations.append(Violation(
                    "staleness_contract",
                    f"{tag} linearizable reply advertises a staleness "
                    f"bound ({rec.staleness_bound:g}s)"))
        elif rec.mode == BOUNDED_STALE:
            if rec.staleness_bound is None:
                violations.append(Violation(
                    "staleness_contract",
                    f"{tag} bounded-stale reply advertises no bound"))
            else:
                actual = rec.served_at - ev.issued_at
                if actual > rec.staleness_bound + slack:
                    violations.append(Violation(
                        "staleness_contract",
                        f"{tag} actual staleness {actual:.6f}s exceeds "
                        f"its advertised bound "
                        f"{rec.staleness_bound:g}s"))
        else:  # LAST_KNOWN_GOOD claims nothing but the flag itself
            if rec.staleness_bound is not None:
                violations.append(Violation(
                    "staleness_contract",
                    f"{tag} last-known-good reply advertises a bound "
                    f"({rec.staleness_bound:g}s) it cannot honor"))
        if ev.kind == EVIDENCE_VECTOR:
            vector = (ev.checkpoint_seq, ev.root_digest)
            if ev.checkpoint_seq is None or vector not in known:
                root = (ev.root_digest or b"").hex()[:12]
                violations.append(Violation(
                    "staleness_contract",
                    f"{tag} version vector (seq {ev.checkpoint_seq}, "
                    f"root {root}) matches no correct replica's "
                    f"checkpoint history"))
    if expect_repromotion:
        for shard, state in breaker_states:
            if state != "closed":
                violations.append(Violation(
                    "staleness_contract",
                    f"shard {shard} breaker ended {state}; expected "
                    f"re-promotion to linearizable after the plan "
                    f"quiesced"))
    return violations


def check_all(cluster, exec_log: ExecutionLog,
              accepted: Sequence[AcceptedReply],
              correct_ids: Sequence[str],
              scripts_done: Sequence[Tuple[str, bool]],
              expect_liveness: bool, duration: float) -> List[Violation]:
    """Run the full suite in its canonical order."""
    violations = []
    violations += check_agreement(exec_log, correct_ids)
    violations += check_reply_validity(accepted, exec_log, correct_ids)
    violations += check_convergence(cluster, correct_ids, expect_liveness)
    violations += check_liveness(scripts_done, expect_liveness, duration)
    return violations
