"""BASE-SQL: the §6 future-work extension, engines through full replication."""

import pytest

from repro.bft.config import BftConfig
from repro.sql.engine import (
    BTreeStoreEngine,
    HashStoreEngine,
    SqlEngineError,
)
from repro.service.deploy import ReplicatedDeployment, UnreplicatedDeployment
from repro.sql.service import SQL_SERVICE
from repro.sql.wrapper import SqlConformanceWrapper
from repro.base.state import AbstractStateManager


# -- engines --------------------------------------------------------------------

@pytest.fixture(params=[HashStoreEngine, BTreeStoreEngine],
                ids=lambda c: c.vendor)
def engine(request):
    e = request.param()
    e.create_table("users", ("id", "name", "score"), "id")
    return e


def test_engine_crud(engine):
    engine.insert("users", (1, "ada", 10))
    assert engine.select("users", 1) == (1, "ada", 10)
    assert engine.update("users", 1, (1, "ada", 99))
    assert engine.select("users", 1)[2] == 99
    assert engine.delete("users", 1)
    assert engine.select("users", 1) is None
    assert not engine.delete("users", 1)


def test_engine_duplicate_key(engine):
    engine.insert("users", (1, "a", 0))
    with pytest.raises(SqlEngineError) as err:
        engine.insert("users", (1, "b", 0))
    assert err.value.code == "23000"


def test_engine_schema_enforced(engine):
    with pytest.raises(SqlEngineError):
        engine.insert("users", (1, "too-few"))
    engine.insert("users", (1, "x", 0))
    with pytest.raises(SqlEngineError):
        engine.update("users", 1, (2, "key-change", 0))


def test_engine_unknown_table(engine):
    with pytest.raises(SqlEngineError) as err:
        engine.select("ghost", 1)
    assert err.value.code == "42S02"


def test_engines_scan_orders_differ():
    """The concrete divergence the wrapper must mask."""
    a, b = HashStoreEngine(), BTreeStoreEngine()
    for e in (a, b):
        e.create_table("t", ("k", "v"), "k")
        for k in (3, 1, 2):
            e.insert("t", (k, "v%d" % k))
    assert [r[0] for r in a.scan("t")] == [3, 1, 2]   # insertion order
    assert [r[0] for r in b.scan("t")] == [1, 2, 3]   # key order


# -- wrapper: abstract-state identity ------------------------------------------------


def make_wrapped(engine_cls):
    wrapper = SqlConformanceWrapper(engine_cls(), array_size=64)
    manager = AbstractStateManager(wrapper, branching=8)
    from repro.encoding.canonical import canonical, decanonical

    def op(*parts, read_only=False):
        return decanonical(wrapper.execute(canonical(parts), "c", b"",
                                           read_only=read_only))
    return wrapper, manager, op


def workload(op):
    assert op("create_table", "users", ("id", "name"), "id")[0] == "OK"
    assert op("create_table", "orders", ("oid", "item", "uid"), "oid")[0] \
        == "OK"
    for k in (5, 2, 9):
        assert op("insert", "users", (k, "user%d" % k))[0] == "OK"
    assert op("insert", "orders", ("o1", "book", 5))[0] == "OK"
    assert op("update", "users", 2, (2, "renamed"))[0] == "OK"
    assert op("delete", "users", 9)[0] == "OK"


def test_identical_abstract_state_across_engines():
    state = {}
    scans = {}
    for cls in (HashStoreEngine, BTreeStoreEngine):
        wrapper, _, op = make_wrapped(cls)
        workload(op)
        state[cls.vendor] = [wrapper.get_obj(i) for i in range(64)]
        scans[cls.vendor] = op("scan", "users", read_only=True)
    assert state["hashstore"] == state["btreestore"]
    assert scans["hashstore"] == scans["btreestore"]


def test_put_objs_roundtrip_across_engines():
    src_wrapper, _, src_op = make_wrapped(HashStoreEngine)
    workload(src_op)
    state = {i: src_wrapper.get_obj(i) for i in range(64)}
    dst_wrapper, _, dst_op = make_wrapped(BTreeStoreEngine)
    dst_wrapper.put_objs(state)
    assert [dst_wrapper.get_obj(i) for i in range(64)] == \
        [state[i] for i in range(64)]
    assert dst_op("select", "users", 5, read_only=True) == \
        ("OK", (5, "user5"))
    # The transferred service keeps working.
    assert dst_op("insert", "users", (9, "back"))[0] == "OK"


def test_wrapper_shutdown_restart():
    wrapper, _, op = make_wrapped(HashStoreEngine)
    workload(op)
    before = [wrapper.get_obj(i) for i in range(64)]
    wrapper.shutdown()
    wrapper.restart()
    assert [wrapper.get_obj(i) for i in range(64)] == before
    # Deterministic allocation continues after restart.
    assert op("insert", "users", (11, "post"))[0] == "OK"


def test_wrapper_deterministic_errors():
    _, _, op = make_wrapped(HashStoreEngine)
    assert op("select", "ghost", 1, read_only=True)[:2] == \
        ("ERROR", "42S02")
    op("create_table", "t", ("k",), "k")
    op("insert", "t", (1,))
    assert op("insert", "t", (1,))[:2] == ("ERROR", "23000")
    assert op("select", "t", 99, read_only=True)[:2] == ("ERROR", "02000")
    assert op("insert", "t", (2,), read_only=True)[:2] == ("ERROR", "25006")


def test_drop_table_frees_rows():
    wrapper, _, op = make_wrapped(BTreeStoreEngine)
    op("create_table", "tmp", ("k", "v"), "k")
    for k in range(5):
        op("insert", "tmp", (k, "x"))
    assert len(wrapper.rows) == 5
    op("drop_table", "tmp")
    assert len(wrapper.rows) == 0
    assert op("scan", "tmp", read_only=True)[0] == "ERROR"


# -- full replication ------------------------------------------------------------------


def test_replicated_sql_n_version():
    """Two engine vendors, four replicas, one relational service."""
    deployment = ReplicatedDeployment.build(
        SQL_SERVICE,
        [HashStoreEngine, BTreeStoreEngine, HashStoreEngine,
         BTreeStoreEngine],
        config=BftConfig(n=4, checkpoint_interval=8), array_size=64)
    cluster, client = deployment.cluster, deployment.client
    client.create_table("accounts", ("id", "owner", "balance"), "id")
    for i in (3, 1, 2):
        client.insert("accounts", (i, "owner%d" % i, 100 * i))
    client.update("accounts", 2, (2, "owner2", 999))
    client.delete("accounts", 3)
    assert client.select("accounts", 2) == (2, "owner2", 999)
    assert [r[0] for r in client.scan("accounts")] == [1, 2]
    assert client.row_count("accounts") == 2
    cluster.run(2.0)
    roots = {r.state.tree.root_digest for r in cluster.replicas}
    assert len(roots) == 1
    # Engines' concrete catalogs/row-ids differ; abstract state agrees.
    vendors = {type(r.state.upcalls.engine).vendor
               for r in cluster.replicas}
    assert vendors == {"hashstore", "btreestore"}


def test_replicated_matches_unreplicated():
    replicated = ReplicatedDeployment.build(
        SQL_SERVICE, [HashStoreEngine] * 4,
        config=BftConfig(n=4, checkpoint_interval=8), array_size=64).client
    direct = UnreplicatedDeployment.build(SQL_SERVICE, HashStoreEngine).client
    for client in (replicated, direct):
        client.create_table("t", ("k", "v"), "k")
        for k in (7, 3, 5):
            client.insert("t", (k, "val%d" % k))
        client.delete("t", 3)
    assert replicated.scan("t") == direct.scan("t")
    assert replicated.row_count("t") == direct.row_count("t")


def test_replicated_sql_survives_recovery():
    deployment = ReplicatedDeployment.build(
        SQL_SERVICE,
        [HashStoreEngine, BTreeStoreEngine, HashStoreEngine,
         BTreeStoreEngine],
        config=BftConfig(n=4, checkpoint_interval=8, reboot_delay=0.3),
        array_size=64)
    cluster, client = deployment.cluster, deployment.client
    client.create_table("t", ("k", "v"), "k")
    for k in range(10):
        client.insert("t", (k, "v%d" % k))
    cluster.run(1.0)
    victim = cluster.replicas[1]
    victim.recovery.start_recovery()
    cluster.run(20.0)
    assert not victim.recovery.recovering
    client.insert("t", (10, "post-recovery"))
    cluster.run(2.0)
    roots = {r.state.tree.root_digest for r in cluster.replicas}
    assert len(roots) == 1
