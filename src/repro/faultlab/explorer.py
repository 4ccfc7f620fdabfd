"""The FaultLab trial runner, shrinker, and sweep.

A **trial** is one fully deterministic experiment: build a cluster for a
scenario with a seeded network, draw the scenario's fault plan from a
seeded RNG, drive seeded client workloads while the injector applies the
plan, then quiesce, settle, and run the invariant suite.  Everything —
plan, network jitter, workload contents — derives from the (scenario,
seed) pair through string-seeded ``random.Random`` instances, so
re-running the pair reproduces the trial bit for bit; that is what makes
``replay`` and the shrinker trustworthy.  The invariant suite's evidence
— executions, rollbacks, accepted replies, edge reads — comes from
subscribers on the trial cluster's tracer: FaultLab reads only what the
protocol emits and patches no replica or client.

The **shrinker** takes a failing (plan, seed) and greedily drops one
fault term at a time, re-running the trial after each drop and keeping
any candidate that still violates an invariant, until no single removal
keeps the failure.  The result is a locally-minimal plan: every remaining
fault term is necessary to reproduce *some* violation under that seed.

The **sweep** iterates the scenario registry across a seed range,
shrinking and emitting a replay command for every failure; the CI smoke
job is just ``python -m repro.faultlab sweep --quick``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.crypto.digest import digest
from repro.faultlab.injector import FaultInjector
from repro.faultlab.invariants import (
    AcceptedReply,
    ExecutionEntry,
    ExecutionLog,
    RollbackEntry,
    Violation,
    check_all,
    check_staleness_contract,
)
from repro.faultlab.plan import FaultPlan
from repro.faultlab.scenarios import (
    Scenario,
    get_scenario,
    kv_probe,
    kv_workload,
    scenario_names,
)

ScenarioRef = Union[str, Scenario]


def _resolve(scenario: ScenarioRef) -> Scenario:
    if isinstance(scenario, str):
        return get_scenario(scenario)
    return scenario


@dataclass
class TrialContext:
    """What workload generators and builders get to see about the trial."""

    scenario: Scenario
    seed: int

    def rng_for(self, label: str) -> random.Random:
        """A dedicated RNG stream, stable across processes (string
        seeding hashes the text, not object identity)."""
        return random.Random(f"{self.scenario.name}:{self.seed}:{label}")


class ClientScript:
    """Drives one client through a workload generator, callback-chained:
    each accepted result is fed back into the generator, which yields the
    next :class:`~repro.faultlab.scenarios.Issue` until exhausted."""

    def __init__(self, client, gen):
        self.client = client
        self.gen = gen
        self.done = False
        self.issued = 0
        self.accepted = 0

    @property
    def client_id(self) -> str:
        return self.client.node_id

    def start(self) -> None:
        self._step(None, first=True)

    def _step(self, result: Optional[bytes], first: bool = False) -> None:
        if not first:
            self.accepted += 1
        try:
            issue = next(self.gen) if first else self.gen.send(result)
        except StopIteration:
            self.done = True
            return
        self.issued += 1
        self.client.invoke(issue.op, self._step, read_only=issue.read_only)


@dataclass
class TrialResult:
    """Outcome of one deterministic trial."""

    scenario: str
    seed: int
    plan: FaultPlan
    violations: List[Violation]
    issued: int
    accepted: int
    sim_seconds: float
    wall_seconds: float
    faults_injected: int
    faults_cleared: int
    #: Tentative executions undone during the trial (in-place restores
    #: plus state-transfer fallbacks) — the fast path's rollback
    #: machinery actually firing, not just being available.
    rollbacks: int = 0
    #: Edge reads served per consistency mode (empty when the scenario
    #: runs no edge tier) — the non-vacuity witness that an edge
    #: scenario actually exercised degradation, not just stayed green.
    edge_modes: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def violation_keys(self) -> List:
        """Replay-stable identity of the failure (what ``replay`` must
        reproduce and the shrinker preserves the non-emptiness of)."""
        return sorted(v.key for v in self.violations)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "plan": self.plan.to_dict(),
            "plan_text": self.plan.describe(),
            "ok": self.ok,
            "violations": [{"invariant": v.invariant, "detail": v.detail}
                           for v in self.violations],
            "issued": self.issued,
            "accepted": self.accepted,
            "sim_seconds": round(self.sim_seconds, 6),
            "wall_seconds": round(self.wall_seconds, 3),
            "faults_injected": self.faults_injected,
            "faults_cleared": self.faults_cleared,
            "rollbacks": self.rollbacks,
            "edge_modes": dict(self.edge_modes),
        }


def replay_command(scenario: str, seed: int,
                   plan_file: Optional[str] = None) -> str:
    """The shell line that reproduces a failing trial bit for bit."""
    cmd = (f"PYTHONPATH=src python -m repro.faultlab replay "
           f"--scenario {scenario} --seed {seed}")
    if plan_file:
        cmd += f" --plan {plan_file}"
    return cmd


# -- evidence capture ---------------------------------------------------------------


def _subscribe_evidence(cluster):
    """Build the trial's evidence streams from what the cluster's
    protocol emits; returns ``(executions, accepted)``.

    Executions come from this cluster's replicas, each with the result
    the replica computed (emitted before a wrong-reply behavior rewrites
    it); a rollback or completed state transfer restores a checkpoint,
    so re-execution past its :class:`RollbackEntry` supersedes rather
    than conflicts.  Accepts count only from the clients present now."""
    executions: ExecutionLog = {r.node_id: [] for r in cluster.replicas}
    accepted: List[AcceptedReply] = []
    clients = {client.node_id for client in cluster.clients.values()}

    def on_event(event) -> None:
        detail = event.detail
        if event.kind == "result_accepted":
            if event.source in clients:
                accepted.append(AcceptedReply(
                    event.source, detail["request_id"],
                    digest(detail["result"]), event.time))
            return
        log = executions.get(event.source)
        if log is None:
            return
        if event.kind == "executed":
            log.append(ExecutionEntry(detail["seq"], detail["client"],
                                      detail["request_id"],
                                      digest(detail["result"]),
                                      detail["read_only"]))
        elif event.kind in ("rollback", "transfer_complete"):
            log.append(RollbackEntry(detail["seq"]))

    cluster.tracer.subscribe(on_event)
    return executions, accepted


# -- cluster construction -----------------------------------------------------------


@dataclass
class ShardedTrial:
    """The sharded side of a trial: the deployment plus the recorded
    group-boundary crossings (must stay empty — co-tenant BASE groups
    share a fabric but may never exchange a message)."""

    deployment: Any
    crossings: List


def _build(scenario: Scenario, seed: int):
    """Build the trial's system.

    Returns ``(cluster, sharded)``: the cluster the faults and evidence
    instrumentation target, and a :class:`ShardedTrial` when the
    scenario runs ``shards > 1`` co-tenant groups (``None`` otherwise —
    then ``cluster`` is the whole system).  In the sharded case the
    returned cluster is shard 0's, so the plan's replica indices fault
    that one group and every other shard stays a clean control.
    """
    from repro.bft.config import BftConfig
    from repro.sim.network import LinkConfig, NetworkConfig

    config = BftConfig(**scenario.config)
    network_config = NetworkConfig(seed=seed,
                                   default_link=LinkConfig(**scenario.link))
    if scenario.service == "kv":
        from repro.bft.statemachine import InMemoryStateManager
        from repro.harness.cluster import build_cluster
        return build_cluster(
            lambda i: InMemoryStateManager(size=scenario.state_size,
                                           branching=scenario.branching),
            config=config, network_config=network_config, seed=seed), None
    from repro.service.deploy import ReplicatedDeployment
    from repro.service.registry import get_service
    definition = get_service(scenario.service)
    if definition is None:
        raise KeyError(f"scenario {scenario.name!r} needs unknown service "
                       f"{scenario.service!r}")
    options: Dict[str, Any] = {}
    if scenario.service == "nfs":
        from repro.nfs.spec import AbstractSpecConfig
        options["spec"] = AbstractSpecConfig(array_size=scenario.state_size)
    if scenario.shards > 1:
        from repro.service.sharding import ShardedDeployment
        deployment = ShardedDeployment.build(
            definition, scenario.shards, config=config,
            network_config=network_config, seed=seed, **options)
        crossings: List = []

        def watch(src, dst, msg):
            # Observe without dropping: a message whose endpoints carry
            # different shard prefixes crossed a group boundary.
            groups = {str(end).split("/", 1)[0] for end in (src, dst)
                      if str(end).startswith("shard")}
            if len(groups) > 1:
                crossings.append((src, dst))
            return True

        deployment.network.add_filter(watch)
        return (deployment.shards[0].cluster,
                ShardedTrial(deployment, crossings))
    deployment = ReplicatedDeployment.build(definition, config=config,
                                            network_config=network_config,
                                            seed=seed, **options)
    return deployment.cluster, None


def _primary_cut(plan: FaultPlan) -> bool:
    """Did the plan cut off (partition or crash) the view-0 primary?"""
    for fault in plan:
        if fault.kind == "partition" and 0 in fault.replicas:
            return True
        if fault.kind == "crash" and fault.replica == 0:
            return True
    return False


def _check_sharded(sharded: ShardedTrial, plan: FaultPlan) -> List[Violation]:
    """The sharded-trial invariants, on top of the standard suite (which
    judges the faulted shard): isolation between co-tenant groups, the
    healthy shards' quiescence, and — when the plan cut off the faulted
    shard's view-0 primary — that the view change actually happened."""
    violations: List[Violation] = []
    if sharded.crossings:
        violations.append(Violation(
            "shard_isolation",
            f"{len(sharded.crossings)} messages crossed group boundaries "
            f"(first: {sharded.crossings[:3]})"))
    for i, shard in enumerate(sharded.deployment.shards[1:], start=1):
        views = sorted({r.view for r in shard.cluster.replicas})
        if views != [0]:
            violations.append(Violation(
                "shard_quiescence",
                f"co-tenant shard {i} left view 0 (views={views}) with no "
                f"fault injected there"))
    faulted = sharded.deployment.shards[0].cluster
    if _primary_cut(plan) and not any(r.view > 0
                                      for r in faulted.replicas):
        violations.append(Violation(
            "shard_view_change",
            "the faulted shard's view-0 primary was cut off but the group "
            "never completed a view change"))
    return violations


# -- open-loop traffic --------------------------------------------------------------


def _build_openloop(cluster, scenario: Scenario, ctx: TrialContext):
    """Construct the scenario's open-loop driver (front-door traffic
    riding alongside the closed-loop evidence clients).  Every random
    draw comes from the trial's string-seeded streams, so open-loop
    trials replay bit for bit like any other."""
    from repro.workloads.openloop import (
        OpenLoopDriver,
        default_kv_classes,
        make_process,
    )
    spec = dict(scenario.openloop)
    rate = spec.pop("rate")
    process = spec.pop("process", "poisson")
    duration = spec.pop("duration", scenario.duration / 2.0)
    slo_p95 = spec.pop("slo_p95", 0.02)
    process_kwargs = spec.pop("process_kwargs", {})
    proc = make_process(process, rate, ctx.rng_for("openloop:arrivals"),
                        **process_kwargs)
    classes = default_kv_classes(slo_p95=slo_p95,
                                 state_size=scenario.state_size)
    driver = OpenLoopDriver(cluster, proc, classes, seed=ctx.seed,
                            label=f"ol-{scenario.name}", **spec)
    return driver, duration


# -- the edge tier ------------------------------------------------------------------


class _EdgeDriver:
    """Drives edge reads from the chaos loop (outside event context —
    :meth:`EdgeTier.read` runs the scheduler itself, so it must never be
    issued from inside a scheduled callback) and collects the evidence
    the ``staleness_contract`` checker audits."""

    def __init__(self, cluster, scenario: Scenario):
        from repro.edge import EdgeTier
        spec = dict(scenario.edge)
        self.step = spec.pop("step", 0.05)
        self.slots = spec.pop("slots", 4)
        self.tier = EdgeTier.for_cluster(cluster, **spec)
        self.records: List = []
        self.tier.tracer.subscribe(self._on_event)
        # The injector resolves edge_partition faults against this.
        cluster.edge_node_ids = self.tier.edge_node_ids
        self.reads = 0
        self.unavailable = 0

    def _on_event(self, event) -> None:
        if event.kind == "edge_read":
            self.records.append(event.detail["record"])

    def read_once(self) -> None:
        from repro.bft.statemachine import InMemoryStateManager
        from repro.edge.tier import EdgeUnavailable
        op = InMemoryStateManager.op_get(self.reads % self.slots)
        self.reads += 1
        try:
            self.tier.read(op)
        except EdgeUnavailable:
            self.unavailable += 1

    def mode_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.mode] = counts.get(record.mode, 0) + 1
        return counts

    def check(self, cluster, correct_ids,
              expect_repromotion: bool) -> List[Violation]:
        histories = {r.node_id: list(r.checkpoint_history)
                     for r in cluster.replicas
                     if r.node_id in correct_ids}
        breaker_states = [(p.shard, p.breaker.state)
                          for p in self.tier.ports]
        return check_staleness_contract(
            self.records, histories, breaker_states,
            expect_repromotion=expect_repromotion)


# -- the trial runner ---------------------------------------------------------------


def run_trial(scenario: ScenarioRef, seed: int,
              plan: Optional[FaultPlan] = None) -> TrialResult:
    """One deterministic trial: same (scenario, seed, plan) in, same
    :class:`TrialResult` (minus wall time) out, in any process."""
    scenario = _resolve(scenario)
    started = time.perf_counter()  # reporting only; nothing reads it back
    ctx = TrialContext(scenario, seed)
    if plan is None:
        plan = scenario.plan(ctx.rng_for("plan"))
    cluster, sharded = _build(scenario, seed)

    workload = scenario.workload or kv_workload
    scripts = []
    for c in range(scenario.n_clients):
        sync = cluster.add_client(f"faultlab-c{c}")
        scripts.append(ClientScript(sync.client, workload(ctx, c)))
    if sharded is not None:
        # Co-tenant shards carry their own closed-loop traffic: their
        # completion is the liveness half of the isolation claim.
        for i, shard in enumerate(sharded.deployment.shards[1:], start=1):
            sync = shard.cluster.add_client(f"faultlab-s{i}c0")
            scripts.append(ClientScript(
                sync.client, workload(ctx, scenario.n_clients + i)))
    driver = openloop_duration = None
    if scenario.openloop:
        driver, openloop_duration = _build_openloop(cluster, scenario, ctx)
    # No traffic has run yet.  Accepts count from the scripted clients
    # and the open-loop pool only; the later convergence probe and the
    # edge tier's client are not evidence.
    executions, accepted = _subscribe_evidence(cluster)

    edge = None
    if scenario.edge is not None:
        if scenario.service != "kv":
            raise ValueError(f"scenario {scenario.name!r}: the edge "
                             f"driver issues kv reads and needs "
                             f"service='kv'")
        # Built before the injector arms, so an edge_partition fault can
        # resolve the edge's node ids.
        edge = _EdgeDriver(cluster, scenario)

    injector = FaultInjector(cluster, plan)
    injector.arm()
    for script in scripts:
        script.start()
    if driver is not None:
        driver.start(openloop_duration)

    # Chaos phase: run until the workload finishes AND every scheduled
    # fault window has at least opened (finishing early must not skip a
    # late fault the plan — and the shrinker — believes was exercised),
    # or until the simulated-time budget runs out.
    horizon = max([0.0] + [max(f.start, f.stop or 0.0) for f in plan])
    scheduler = cluster.scheduler
    deadline = scenario.duration
    step = edge.step if edge is not None else 1.0
    while scheduler.now < deadline:
        if all(s.done for s in scripts) and scheduler.now >= horizon \
                and (driver is None or driver.drained):
            break
        scheduler.run_until(min(scheduler.now + step, deadline))
        if edge is not None:
            # From loop level, outside event context: tier reads drive
            # the scheduler themselves (bounded by their timeouts).
            edge.read_once()

    # Quiesce and settle: force-clear lingering faults, then give the
    # healed system time to finish view changes, recoveries, and state
    # transfer before convergence/liveness are judged.
    injector.quiesce()
    cluster.run(scenario.settle)

    # Convergence probe: commit a burst of harmless ops past a checkpoint
    # boundary.  Fresh traffic is the protocol's only anti-entropy — a
    # replica left behind by the chaos only state-transfers when it sees
    # a stable checkpoint ahead of it, which this burst manufactures.
    # The probe client's accepts are deliberately not evidence.
    if scenario.expect_liveness:
        probe = scenario.probe or kv_probe
        prober = cluster.add_client("faultlab-probe")
        for k in range(cluster.config.checkpoint_interval + 2):
            prober.call(probe(ctx, k).op)
        cluster.run(scenario.settle)

    # Post-heal edge probes: give the breaker its half-open window and
    # the probe successes it needs to re-promote to linearizable before
    # the staleness contract judges the final ladder state.
    if edge is not None and scenario.expect_liveness:
        for _ in range(4):
            cluster.run(edge.step)
            edge.read_once()

    byzantine = set(plan.byzantine_replicas())
    correct_ids = [r.node_id for i, r in enumerate(cluster.replicas)
                   if i not in byzantine]
    scripts_done = [(s.client_id, s.done) for s in scripts]
    if driver is not None:
        # The open-loop front door is held to the same liveness bar as
        # the scripted clients: every arrival must resolve (complete,
        # time out, or shed) before the trial's deadline.
        scripts_done.append((driver.label, driver.drained))
    violations = check_all(
        cluster, executions, accepted, correct_ids, scripts_done,
        scenario.expect_liveness, scenario.duration)
    if sharded is not None:
        violations.extend(_check_sharded(sharded, plan))
    if edge is not None:
        violations.extend(edge.check(cluster, correct_ids,
                                     scenario.expect_liveness))
    metrics = cluster.metrics
    return TrialResult(
        scenario=scenario.name, seed=seed, plan=plan, violations=violations,
        issued=sum(s.issued for s in scripts)
        + (driver.offered if driver is not None else 0),
        accepted=sum(s.accepted for s in scripts)
        + (driver.completed if driver is not None else 0),
        sim_seconds=scheduler.now,
        wall_seconds=time.perf_counter() - started,
        faults_injected=injector.injected, faults_cleared=injector.cleared,
        rollbacks=metrics.counter_value("bft.rollback")
        + metrics.counter_value("bft.rollback_via_transfer"),
        edge_modes=edge.mode_counts() if edge is not None else {})


def replay_trial(scenario: ScenarioRef, seed: int,
                 plan: Optional[FaultPlan] = None) -> TrialResult:
    """Re-run a trial exactly as the sweep ran it (same seed ⇒ same
    plan ⇒ same violations); pass ``plan`` to replay a shrunk plan."""
    return run_trial(scenario, seed, plan=plan)


# -- shrinking ----------------------------------------------------------------------


@dataclass
class ShrinkResult:
    """A locally-minimal still-failing plan for one (scenario, seed)."""

    scenario: str
    seed: int
    original: FaultPlan
    plan: FaultPlan
    violations: List[Violation]
    trials: int

    @property
    def shrunk(self) -> bool:
        return len(self.plan) < len(self.original)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "original_faults": len(self.original),
            "plan": self.plan.to_dict(),
            "plan_text": self.plan.describe(),
            "violations": [{"invariant": v.invariant, "detail": v.detail}
                           for v in self.violations],
            "trials": self.trials,
            "replay": replay_command(self.scenario, self.seed,
                                     plan_file="plan.json"),
        }


def shrink(scenario: ScenarioRef, seed: int, plan: FaultPlan,
           violations: Optional[List[Violation]] = None) -> ShrinkResult:
    """Greedily minimize a failing plan: drop one fault term at a time,
    keep any candidate that still fails *some* invariant, repeat until no
    single removal preserves the failure."""
    scenario = _resolve(scenario)
    trials = 0
    if violations is None:
        result = run_trial(scenario, seed, plan=plan)
        trials += 1
        violations = result.violations
    if not violations:
        raise ValueError("shrink needs a failing (plan, seed): the given "
                         "plan produced no violations")
    original = plan
    best, best_violations = plan, violations
    progress = True
    while progress and len(best) > 1:
        progress = False
        for index in range(len(best)):
            candidate = best.without(index)
            result = run_trial(scenario, seed, plan=candidate)
            trials += 1
            if result.violations:
                best, best_violations = candidate, result.violations
                progress = True
                break
    return ShrinkResult(scenario=scenario.name, seed=seed, original=original,
                        plan=best, violations=best_violations, trials=trials)


# -- sweeping -----------------------------------------------------------------------


@dataclass
class SweepFailure:
    """One failing trial plus its shrunk reproduction recipe."""

    result: TrialResult
    shrunk: ShrinkResult

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trial": self.result.to_dict(),
            "shrunk": self.shrunk.to_dict(),
            "replay": replay_command(self.result.scenario, self.result.seed),
        }


@dataclass
class SweepResult:
    """Everything one sweep observed."""

    scenarios: List[str]
    seeds: List[int]
    trials: int = 0
    issued: int = 0
    accepted: int = 0
    wall_seconds: float = 0.0
    failures: List[SweepFailure] = field(default_factory=list)
    results: List[TrialResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def sweep(scenarios: Optional[Sequence[str]] = None,
          seeds: Optional[Sequence[int]] = None,
          n_seeds: int = 4, base_seed: int = 0,
          shrink_failures: bool = True,
          progress=None) -> SweepResult:
    """Run every in-sweep scenario across a seed range; shrink each
    failure and record its replay command.  ``progress`` (if given) is
    called with a one-line string after every trial."""
    names = list(scenarios) if scenarios else scenario_names(
        in_sweep_only=True)
    seed_list = list(seeds) if seeds is not None else \
        [base_seed + k for k in range(n_seeds)]
    out = SweepResult(scenarios=names, seeds=seed_list)
    started = time.perf_counter()
    for name in names:
        for seed in seed_list:
            result = run_trial(name, seed)
            out.trials += 1
            out.issued += result.issued
            out.accepted += result.accepted
            out.results.append(result)
            if progress is not None:
                status = "ok" if result.ok else \
                    f"FAIL ({len(result.violations)} violations)"
                progress(f"[{out.trials}] {name} seed={seed}: {status} "
                         f"({result.plan.describe()})")
            if not result.ok:
                shrunk = shrink(name, seed, result.plan,
                                violations=result.violations) \
                    if shrink_failures else \
                    ShrinkResult(name, seed, result.plan, result.plan,
                                 result.violations, trials=0)
                out.failures.append(SweepFailure(result, shrunk))
                if progress is not None and shrink_failures:
                    progress(f"    shrunk {len(result.plan)} -> "
                             f"{len(shrunk.plan)} faults in "
                             f"{shrunk.trials} trials; replay: "
                             + replay_command(name, seed))
    out.wall_seconds = time.perf_counter() - started
    return out
