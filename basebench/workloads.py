"""The three BaseBench workloads, each on the real BASE stack.

Every workload is a pure function of its seed: ``build(seed)`` stands up
the deployment (plus any preload) and returns a :class:`Run`;
``Run.drive()`` is the measured phase; ``Run.check()`` verifies the
outputs afterwards.  All load comes from simulated clients in this one
process -- no threads, no sockets.

- ``basefs_andrew`` -- the Andrew benchmark on BASEFS over the four
  heterogeneous NFS vendors, checkpoints every 64 requests and staggered
  proactive recovery (the Table V BASEFS-PR setup); one closed-loop
  client.
- ``sql_oltp`` -- the SQL service on two b-tree and two hash engines
  with a preloaded table; four closed-loop clients send point selects
  (read-only path), updates and an insert/delete churn; the primary
  recovers proactively mid-run.
- ``kv_failover`` -- the in-memory KV service under open-loop Poisson
  arrivals (``OpenLoopDriver``) at about half the simulated knee; the
  primary crashes halfway and a view change lands inside the run.
"""

from __future__ import annotations

import hashlib
import random
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from basebench.refclock import ReferenceClock
from repro.base.library import BaseServiceConfig
from repro.bft.config import BftConfig
from repro.bft.statemachine import InMemoryStateManager
from repro.encoding.canonical import canonical, decanonical
from repro.errors import ReproError
from repro.harness import costs as C
from repro.harness.cluster import build_cluster
from repro.nfs.backends import ALL_BACKENDS
from repro.nfs.client import NfsClient
from repro.nfs.protocol import NfsError
from repro.nfs.service import NFS_SERVICE
from repro.nfs.spec import AbstractSpecConfig
from repro.service.deploy import ReplicatedDeployment
from repro.sql.engine import BTreeStoreEngine, HashStoreEngine
from repro.sql.service import SQL_SERVICE
from repro.workloads.andrew import AndrewBenchmark, AndrewConfig
from repro.workloads.openloop import (ERROR_PREFIX, OpenLoopDriver,
                                      PoissonArrivals, RequestClass)

#: Simulated reboot during proactive recovery, scaled with the workloads
#: (the value the Table III-V benchmarks use).
REBOOT_DELAY = 0.45


class Recorder:
    """The benchmark's own per-request records.

    Wraps one client's ``invoke`` so that every request gets a due time
    (simulated), an issue time (wall) and, once its reply callback runs,
    completion times in both clocks.  ``due_of(op, now)`` lets open-loop
    workloads date a request from its arrival instead of its dispatch.
    Issuing a request ticks :attr:`clock`, the measured window's
    :class:`ReferenceClock`, which maps the wall times afterwards.
    """

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.clock = ReferenceClock()
        self.due: List[float] = []
        self.issued_wall: List[float] = []
        self.done_sim: List[Optional[float]] = []
        self.done_wall: List[float] = []
        self.read_only_attempts = 0

    def attach(self, client, due_of: Optional[Callable] = None) -> None:
        scheduler = self.scheduler
        clock = time.perf_counter

        def recorded_invoke(op, callback, read_only=False):
            index = len(self.due)
            now = scheduler.now
            self.due.append(now if due_of is None else due_of(op, now))
            self.done_sim.append(None)
            self.done_wall.append(0.0)
            self.issued_wall.append(self.clock.tick())
            if read_only:
                self.read_only_attempts += 1

            def done(result):
                self.done_wall[index] = clock()
                self.done_sim[index] = scheduler.now
                callback(result)
            # Looked up per call, so a traced ``BftClient.invoke`` is seen.
            return type(client).invoke(client, op, done, read_only=read_only)

        client.invoke = recorded_invoke

    @property
    def completed(self) -> int:
        return sum(1 for t in self.done_sim if t is not None)

    def sim_latencies(self) -> List[float]:
        return [d - s for s, d in zip(self.due, self.done_sim)
                if d is not None]

    def wall_latencies(self) -> List[float]:
        """Issue-to-reply times in reference seconds (see
        :mod:`basebench.refclock`), of the requests completed so far."""
        to_reference = self.clock.to_reference
        return [to_reference(d) - to_reference(s)
                for s, d, e in zip(self.issued_wall, self.done_wall,
                                   self.done_sim) if e is not None]

    def max_gap(self, end: float) -> float:
        """Longest simulated interval with a request outstanding and none
        completing (requests still open at ``end`` count up to it)."""
        events = []
        for due, done in zip(self.due, self.done_sim):
            events.append((due, 1))
            events.append((end if done is None else done, -1))
        events.sort()
        outstanding = 0
        last_progress = 0.0
        gap = 0.0
        for t, delta in events:
            if delta > 0:
                if outstanding == 0:
                    last_progress = t
                outstanding += 1
            else:
                gap = max(gap, t - last_progress)
                last_progress = t
                outstanding -= 1
        return gap

    def signature(self) -> List[Tuple[float, Optional[float]]]:
        return list(zip(self.due, self.done_sim))


@dataclass
class Run:
    """One built deployment, ready to drive."""

    cluster: object
    recorder: Recorder
    drive: Callable[[], None]
    check: Callable[[], List[str]]
    #: Requests that failed, were refused, shed or timed out.
    failures: Callable[[], int]
    #: Requests the load generator attempted (including shed ones).
    attempted: Callable[[], int]
    sim_start: float = 0.0
    sim_end: float = 0.0
    crash: Optional[str] = None

    @property
    def scheduler(self):
        return self.cluster.scheduler

    @property
    def replicas(self):
        return self.cluster.replicas

    def correct_replicas(self):
        return [r for r in self.replicas if not r.crashed]

    def timed_drive(self) -> ReferenceClock:
        """Run the measured phase; returns the clock that timed it."""
        self.sim_start = self.scheduler.now
        clock = self.recorder.clock
        clock.start()
        try:
            self.drive()
        except ReproError:
            # A replica raised out of an event handler, which stops the
            # whole simulation: the run has failed.  Report where.
            self.crash = ("the program raised during the run:\n"
                          + traceback.format_exc(limit=-6))
        finally:
            clock.stop()
        done = [t for t in self.recorder.done_sim if t is not None]
        self.sim_end = max(done) if done else self.scheduler.now
        return clock

    def problems(self) -> List[str]:
        """What the output checks found (after the measured phase)."""
        return [self.crash] if self.crash else self.check()


def checkpoint_agreement(replicas) -> List[str]:
    """Correct replicas must agree on the abstract checkpoint digest at
    every sequence number they both checkpointed, and share at least one
    checkpoint past the initial one."""
    histories = [dict(r.checkpoint_history) for r in replicas]
    problems = []
    common = set(histories[0])
    for history in histories[1:]:
        common &= set(history)
    if not any(seq > 0 for seq in common):
        problems.append("correct replicas share no checkpoint past seq 0")
    for seq in sorted(set().union(*histories)):
        roots = {h[seq] for h in histories if seq in h}
        if len(roots) > 1:
            problems.append(f"checkpoint digests disagree at seq {seq}")
    return problems


def _bft_config(**overrides) -> BftConfig:
    base = dict(checkpoint_interval=64, view_change_timeout=0.15,
                client_retry_timeout=0.1, reboot_delay=REBOOT_DELAY)
    base.update(overrides)
    return BftConfig(**base)


def _base_config(branching: int) -> BaseServiceConfig:
    return BaseServiceConfig(branching=branching,
                             per_object_check_cost=C.PER_OBJECT_CHECK_COST,
                             checkpoint_cost=C.CHECKPOINT_COST)


# -- basefs_andrew ----------------------------------------------------------------

#: Andrew copies per run, and the Table V BASEFS-PR recovery schedule:
#: the first watchdog fires at ANDREW_RECOVERY_FIRST simulated seconds
#: and the other replicas follow ANDREW_RECOVERY_STAGGER apart.
ANDREW_COPIES = 10
ANDREW_RECOVERY_FIRST = 1.0
ANDREW_RECOVERY_STAGGER = 3.0


@dataclass(frozen=True)
class SeededAndrewConfig(AndrewConfig):
    """The Andrew source tree with seeded file sizes and contents."""

    seed: int = 0

    def tree_files(self) -> List[Tuple[str, bytes]]:
        rng = random.Random(f"andrew:{self.seed}")
        files = []
        for name, body in super().tree_files():
            # Andrew copies one fixed source tree; the seed varies its
            # contents and, by up to 10%, its file sizes.
            size = int(len(body) * rng.uniform(0.9, 1.1))
            block = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            files.append((name, (block * (size // len(block) + 1))[:size]))
        return files


class CheckedFs:
    """Keeps what the Andrew run wrote and checks every read against it."""

    def __init__(self, fs: NfsClient):
        self.written: Dict[str, bytes] = {}
        self.unread: set = set()
        self.mismatches: List[str] = []
        write_file, read_file = fs.write_file, fs.read_file

        def checked_write(path, data, create=True):
            write_file(path, data, create=create)
            self.written[path] = bytes(data)
            self.unread.add(path)

        def checked_read(path):
            data = read_file(path)
            if self.written.get(path) != data:
                self.mismatches.append(path)
            self.unread.discard(path)
            return data

        fs.write_file = checked_write
        fs.read_file = checked_read


def build_basefs_andrew(seed: int) -> Run:
    backends = list(ALL_BACKENDS)
    deployment = ReplicatedDeployment.build(
        NFS_SERVICE, backends,
        config=_bft_config(
            recovery_interval=ANDREW_RECOVERY_FIRST,
            recovery_stagger=ANDREW_RECOVERY_STAGGER),
        base_config=_base_config(64),
        network_config=C.lan_network(seed), replica_costs=C.replica_costs(),
        seed=seed, spec=AbstractSpecConfig(array_size=4096),
        profiles=[C.vendor_profile(cls.vendor) for cls in backends])
    recorder = Recorder(deployment.scheduler)
    recorder.attach(deployment.sync.client)
    fs = NfsClient(deployment.client, attr_ttl=30.0)
    checked = CheckedFs(fs)
    bench = AndrewBenchmark(fs, SeededAndrewConfig(copies=ANDREW_COPIES,
                                                   seed=seed))
    errors: List[str] = []

    def drive() -> None:
        try:
            bench.run()
        except (NfsError, TimeoutError) as exc:
            errors.append(f"andrew aborted: {exc!r}")

    def check() -> List[str]:
        if errors:
            return list(errors)
        # Files never read back during the run (the linked executables)
        # are read now, from the servers, not the client cache.
        fs.drop_caches()
        for path in sorted(checked.unread):
            fs.read_file(path)
        problems = [f"read of {p} differs from what was written"
                    for p in checked.mismatches]
        if not checked.written:
            problems.append("andrew wrote no files")
        problems += checkpoint_agreement(
            [r for r in deployment.replicas if not r.crashed])
        return problems

    return Run(deployment.cluster, recorder, drive, check,
               failures=lambda: len(errors) + len(recorder.due)
               - recorder.completed,
               attempted=lambda: len(recorder.due))


# -- sql_oltp ---------------------------------------------------------------------

SQL_TABLE = "accounts"
SQL_ROWS = 240
SQL_CLIENTS = 4
SQL_OPS_PER_CLIENT = 1500
#: Op mix per client: point selects (read-only path), updates of the
#: client's own rows, and the rest insert/delete churn of its own keys.
SQL_SELECT_SHARE = 0.70
SQL_UPDATE_SHARE = 0.25
#: The replica that recovers proactively (the view-0 primary, so its
#: recovery also forces a view change), when (simulated seconds into
#: the run), and its simulated reboot, short enough that recovery ends
#: inside the run.  With a backup recovering instead, the longest
#: completion gap is a checkpoint-signature stall that is either ~2.0 or
#: ~2.7 ms depending on the seed, too unsteady for sim_max_gap_ms.
SQL_RECOVERING_REPLICA = 0
SQL_RECOVERY_AT = 0.2
SQL_REBOOT_DELAY = 0.2
#: Client retry short next to the view-change timer, and frequent
#: checkpoints: both make the simulated tail steady from seed to seed.
SQL_CLIENT_RETRY = 0.02
SQL_CHECKPOINT_INTERVAL = 32


def _sql_value(seed: int, key: int, version: int) -> int:
    digest = hashlib.sha256(f"{seed}:{key}:{version}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def build_sql_oltp(seed: int) -> Run:
    engines = [BTreeStoreEngine, BTreeStoreEngine, HashStoreEngine,
               HashStoreEngine]
    deployment = ReplicatedDeployment.build(
        SQL_SERVICE, engines,
        config=_bft_config(reboot_delay=SQL_REBOOT_DELAY,
                           client_retry_timeout=SQL_CLIENT_RETRY,
                           checkpoint_interval=SQL_CHECKPOINT_INTERVAL),
        base_config=_base_config(16), network_config=C.lan_network(seed),
        replica_costs=C.replica_costs(), seed=seed, array_size=1024)
    sql = deployment.client
    sql.create_table(SQL_TABLE, ("k", "ver", "val"), "k")
    for key in range(SQL_ROWS):
        sql.insert(SQL_TABLE, (key, 0, _sql_value(seed, key, 0)))

    rng = random.Random(f"sql_oltp:{seed}")
    # The model: current version of every preloaded key, the live churn
    # keys, and the version bounds each read must fall within.
    version = {key: 0 for key in range(SQL_ROWS)}
    completed_version = dict(version)
    churn_live: Dict[int, int] = {}
    problems: List[str] = []
    failures = [0]
    scheduler = deployment.scheduler
    recorder = Recorder(scheduler)
    clients = []
    for c in range(SQL_CLIENTS):
        client = deployment.cluster.add_client(
            f"oltp{c}", costs=C.PROTOCOL_COSTS).client
        recorder.attach(client)
        clients.append(client)

    def plan_for(c: int) -> List[tuple]:
        own = [k for k in range(SQL_ROWS) if k % SQL_CLIENTS == c]
        churn_next = SQL_ROWS + c
        churn_open: deque = deque()
        ops = []
        for _ in range(SQL_OPS_PER_CLIENT):
            draw = rng.random()
            if draw < SQL_SELECT_SHARE:
                ops.append(("select", rng.randrange(SQL_ROWS)))
            elif draw < SQL_SELECT_SHARE + SQL_UPDATE_SHARE:
                ops.append(("update", rng.choice(own)))
            elif churn_open and (len(churn_open) > 2 or rng.random() < 0.5):
                ops.append(("delete", churn_open.popleft()))
            else:
                ops.append(("insert", churn_next))
                churn_open.append(churn_next)
                churn_next += SQL_CLIENTS
        return ops

    plans = [plan_for(c) for c in range(SQL_CLIENTS)]
    position = [0] * SQL_CLIENTS
    # The load stays uniform: once one client has run its whole plan the
    # others stop after their current op, so no lone client is left
    # running at the end.
    stopping = [False]
    idle = [0]

    def issue(c: int) -> None:
        kind, key = plans[c][position[c]]
        client = clients[c]
        if kind == "select":
            low = completed_version[key]
            op = canonical(("select", SQL_TABLE, key))
            client.invoke(op, lambda raw: on_select(c, key, low, raw),
                          read_only=True)
            return
        if kind == "update":
            version[key] += 1
            ver = version[key]
            op = canonical(("update", SQL_TABLE, key,
                            (key, ver, _sql_value(seed, key, ver))))
            client.invoke(op, lambda raw: on_update(c, key, ver, raw))
            return
        if kind == "insert":
            row = (key, 0, _sql_value(seed, key, 0))
            op = canonical(("insert", SQL_TABLE, row))
            client.invoke(op, lambda raw: on_churn(c, "insert", key, raw))
            return
        op = canonical(("delete", SQL_TABLE, key))
        client.invoke(op, lambda raw: on_churn(c, "delete", key, raw))

    def next_op(c: int) -> None:
        position[c] += 1
        if position[c] >= len(plans[c]):
            stopping[0] = True
        if stopping[0]:
            idle[0] += 1
        else:
            issue(c)

    def accepted(raw: bytes, what: str) -> Optional[tuple]:
        """The decoded reply, or None (counted as failed) if refused."""
        reply = decanonical(raw)
        if reply[0] == "OK":
            return reply
        failures[0] += 1
        problems.append(f"{what} refused: {reply!r}")
        return None

    def on_select(c, key, low, raw) -> None:
        reply = accepted(raw, f"select {key}")
        if reply is not None:
            row = reply[1]
            ver = row[1]
            if not low <= ver <= version[key] or row != (
                    key, ver, _sql_value(seed, key, ver)):
                problems.append(f"select {key} returned {row!r}, expected "
                                f"a version in [{low}, {version[key]}]")
        next_op(c)

    def on_update(c, key, ver, raw) -> None:
        if accepted(raw, f"update {key}") is not None:
            completed_version[key] = max(completed_version[key], ver)
        next_op(c)

    def on_churn(c, kind, key, raw) -> None:
        if accepted(raw, f"{kind} {key}") is not None:
            if kind == "insert":
                churn_live[key] = 0
            else:
                churn_live.pop(key, None)
        next_op(c)

    recovering = deployment.replicas[SQL_RECOVERING_REPLICA]

    def drive() -> None:
        scheduler.schedule(SQL_RECOVERY_AT, recovering.recovery.start_recovery)
        for c in range(SQL_CLIENTS):
            issue(c)
        done = scheduler.run_until_idle_or(
            lambda: idle[0] == SQL_CLIENTS)
        if not done:
            problems.append("sql_oltp clients did not finish")

    def check() -> List[str]:
        found = list(problems)
        scheduler.run_until_idle_or(
            lambda: bool(recovering.recovery.records)
            and not recovering.recovery.recovering)
        if not recovering.recovery.records:
            found.append("the recovering replica did not complete recovery")
        expected = sorted(
            [(k, v, _sql_value(seed, k, v)) for k, v in version.items()]
            + [(k, 0, _sql_value(seed, k, 0)) for k in churn_live])
        rows = sorted(tuple(r) for r in sql.scan(SQL_TABLE))
        if rows != expected:
            found.append(f"final rows differ from the model "
                         f"({len(rows)} rows vs {len(expected)} expected)")
        found += checkpoint_agreement(deployment.replicas)
        return found

    return Run(deployment.cluster, recorder, drive, check,
               failures=lambda: failures[0] + len(recorder.due)
               - recorder.completed,
               attempted=lambda: len(recorder.due))


# -- kv_failover ------------------------------------------------------------------

KV_SLOTS = 64
KV_RATE = 8000.0        # offered req/s: about half the simulated knee
KV_DURATION = 2.0       # simulated seconds of arrivals
KV_CRASH_AT = 1.2       # the primary crashes here
KV_READ_FRACTION = 0.25
KV_POOL = 32
#: Front-door queue and per-request timeout, sized so that requests due
#: while no primary exists wait (and count) instead of being shed.
KV_QUEUE_LIMIT = 20_000
KV_TIMEOUT = 5.0
#: Failure detection: short enough that the view change lands well
#: inside the run, long next to the client retry and to the view-change
#: protocol itself, so the outage length varies little with the seed.
KV_VIEW_CHANGE_TIMEOUT = 0.3
KV_CLIENT_RETRY = 0.02
#: The new view re-proposes every slot since the last stable checkpoint;
#: frequent checkpoints keep that log, and so the view change's length,
#: short whatever point the crash hits.
KV_CHECKPOINT_INTERVAL = 32


def build_kv_failover(seed: int) -> Run:
    # The decoded-op memo is shared by every KV replica in the process;
    # start each run with it empty so that work counts (decodes) do not
    # depend on what ran before.
    InMemoryStateManager._OP_CACHE.clear()
    config = BftConfig(checkpoint_interval=KV_CHECKPOINT_INTERVAL,
                       view_change_timeout=KV_VIEW_CHANGE_TIMEOUT,
                       client_retry_timeout=KV_CLIENT_RETRY)
    cluster = build_cluster(lambda i: InMemoryStateManager(size=KV_SLOTS),
                            config=config, network_config=C.lan_network(seed),
                            costs=C.PROTOCOL_COSTS, seed=seed)
    arrivals: Dict[bytes, deque] = {}
    # What each op does, kept at generation time so that checking a
    # reply costs the load generator no decoding.
    meaning: Dict[bytes, Tuple[str, int]] = {}
    written: Dict[int, set] = {slot: {b""} for slot in range(KV_SLOTS)}
    serial = [0]
    scheduler = cluster.scheduler
    problems: List[str] = []
    errors = [0]

    def arrive(op: bytes, kind: str, slot: int) -> bytes:
        arrivals.setdefault(op, deque()).append(scheduler.now)
        meaning[op] = (kind, slot)
        return op

    def make_read(rng: random.Random, user: int) -> Tuple[bytes, bool]:
        slot = user % KV_SLOTS
        return arrive(InMemoryStateManager.op_get(slot), "get", slot), True

    def make_write(rng: random.Random, user: int) -> Tuple[bytes, bool]:
        serial[0] += 1
        slot = user % KV_SLOTS
        value = b"u%d:%d" % (user, serial[0])
        written[slot].add(value)
        return arrive(InMemoryStateManager.op_put(slot, value), "put",
                      slot), False

    classes = [
        RequestClass("read", KV_READ_FRACTION, make_read, 0.005, KV_TIMEOUT),
        RequestClass("write", 1.0 - KV_READ_FRACTION, make_write, 0.005,
                     KV_TIMEOUT),
    ]
    process = PoissonArrivals(KV_RATE, random.Random(f"kv_failover:{seed}"))
    driver = OpenLoopDriver(cluster, process, classes, seed=seed,
                            pool_size=KV_POOL, queue_limit=KV_QUEUE_LIMIT,
                            label="kv")
    recorder = Recorder(scheduler)

    def due_of(op: bytes, now: float) -> float:
        # The front-door queue is FIFO and nothing is shed or times out
        # (check() fails the run otherwise), so requests with equal op
        # bytes are dispatched in arrival order.
        return arrivals[op].popleft()

    for client in driver.pool:
        recorder.attach(client, due_of=due_of)
        original = client.invoke

        def checked_invoke(op, callback, read_only=False, original=original):
            def verify(result: bytes) -> None:
                kind, slot = meaning[op]
                if result.startswith(ERROR_PREFIX):
                    errors[0] += 1
                elif kind == "get" and result not in written[slot]:
                    problems.append(f"read of slot {slot} returned a value "
                                    f"never written")
                elif kind == "put" and result != b"ok":
                    problems.append(f"write returned {result!r}")
                callback(result)
            return original(op, verify, read_only=read_only)

        client.invoke = checked_invoke

    primary = cluster.replicas[0]

    def drive() -> None:
        scheduler.schedule(KV_CRASH_AT, primary.crash)
        if not driver.drive(KV_DURATION):
            problems.append("kv_failover traffic did not drain")

    def check() -> List[str]:
        found = list(problems)
        if driver.shed or driver.timed_out:
            found.append(f"{driver.shed} shed, {driver.timed_out} timed out")
        views = {r.view for r in cluster.replicas if not r.crashed}
        if views != {1}:
            found.append(f"expected exactly one view change, views {views}")
        found += checkpoint_agreement(
            [r for r in cluster.replicas if not r.crashed])
        return found

    return Run(cluster, recorder, drive, check,
               failures=lambda: driver.offered - recorder.completed
               + errors[0],
               attempted=lambda: driver.offered)


#: The backend classes each workload instantiates (their public methods
#: are the backend layer's entry points).
BACKEND_CLASSES: Dict[str, Tuple[type, ...]] = {
    "basefs_andrew": tuple(ALL_BACKENDS),
    "sql_oltp": (BTreeStoreEngine, HashStoreEngine),
    "kv_failover": (),
}

WORKLOADS: Dict[str, Callable[[int], Run]] = {
    "basefs_andrew": build_basefs_andrew,
    "sql_oltp": build_sql_oltp,
    "kv_failover": build_kv_failover,
}
