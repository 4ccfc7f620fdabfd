"""Proactive recovery: watchdog-driven rejuvenation with state checking."""

import pytest

from tests.conftest import make_kv_cluster
from repro.bft.statemachine import InMemoryStateManager

put = InMemoryStateManager.op_put


def test_manual_recovery_completes_and_replica_rejoins():
    cluster = make_kv_cluster(checkpoint_interval=4, reboot_delay=1.0)
    client = cluster.add_client("client0")
    for i in range(8):
        client.call(put(i % 8, b"r%d" % i))
    cluster.run(1.0)
    victim = cluster.replicas[2]
    victim.recovery.start_recovery()
    assert victim.recovery.recovering
    cluster.run(10.0)
    assert not victim.recovery.recovering
    rec = victim.recovery.records[-1]
    assert rec.reboot == 1.0
    assert rec.total > 1.0
    # Rejoined: subsequent writes reach it.
    for i in range(4):
        client.call(put(i, b"post%d" % i))
    cluster.run(2.0)
    assert victim.state.values == cluster.replicas[0].state.values


def test_recovery_repairs_corrupt_state():
    """Recovery's check phase recomputes every object digest, so silent
    corruption is found and repaired even when nothing else flags it."""
    cluster = make_kv_cluster(checkpoint_interval=4, reboot_delay=0.5)
    client = cluster.add_client("client0")
    for i in range(8):
        client.call(put(i % 8, b"v%d" % i))
    cluster.run(1.0)
    victim = cluster.replicas[1]
    victim.state.values[3] = b"ROT"
    victim.recovery.start_recovery()
    cluster.run(10.0)
    assert victim.state.values[3] == b"v3"
    rec = victim.recovery.records[-1]
    assert rec.objects_fetched >= 1


def test_recovery_refreshes_session_keys():
    cluster = make_kv_cluster(reboot_delay=0.5, checkpoint_interval=4)
    client = cluster.add_client("client0")
    for i in range(4):
        client.call(put(i, b"k%d" % i))
    cluster.run(1.0)
    victim = cluster.replicas[3]
    epoch_before = cluster.registry.epoch(victim.node_id)
    victim.recovery.start_recovery()
    cluster.run(10.0)
    assert cluster.registry.epoch(victim.node_id) == epoch_before + 1


def test_service_stays_available_during_recovery():
    """While one replica recovers, the other three keep serving."""
    cluster = make_kv_cluster(checkpoint_interval=4, reboot_delay=5.0)
    client = cluster.add_client("client0")
    for i in range(4):
        client.call(put(i, b"pre%d" % i))
    victim = cluster.replicas[2]
    victim.recovery.start_recovery()
    assert victim.recovery.recovering
    # Issue writes while the victim is down rebooting.
    for i in range(4):
        assert client.call(put(4 + i, b"mid%d" % i)) == b"ok"
    cluster.run(20.0)
    assert not victim.recovery.recovering
    assert victim.state.values[:8] == cluster.replicas[0].state.values[:8]


def test_watchdog_triggers_staggered_recoveries():
    cluster = make_kv_cluster(checkpoint_interval=4, reboot_delay=0.2,
                              recovery_interval=10.0, recovery_stagger=3.0)
    client = cluster.add_client("client0")
    for i in range(8):
        client.call(put(i % 8, b"w%d" % i))
    cluster.run(60.0)
    recovered = [r for r in cluster.replicas if r.recovery.records]
    assert len(recovered) == 4
    # Staggering: no two recoveries started simultaneously.
    starts = sorted(rec.started_at for r in cluster.replicas
                    for rec in r.recovery.records[:1])
    assert all(b - a >= 1.0 for a, b in zip(starts, starts[1:]))


def test_recovery_record_breakdown_phases():
    """Table IV structure: shutdown + reboot + restart + fetch-and-check."""
    cluster = make_kv_cluster(checkpoint_interval=4, reboot_delay=2.0)
    client = cluster.add_client("client0")
    for i in range(8):
        client.call(put(i, b"x%d" % i))
    cluster.run(1.0)
    victim = cluster.replicas[0]
    victim.recovery.start_recovery()
    cluster.run(20.0)
    rec = victim.recovery.records[-1]
    assert rec.reboot == 2.0
    assert rec.fetch_and_check >= 0.0
    assert rec.completed_at > rec.started_at
    assert abs(rec.completed_at - rec.started_at - rec.total) < 1e-6


def test_recovery_with_no_checkpoints_yet():
    """Recovering before any stable checkpoint exists completes at seq 0."""
    cluster = make_kv_cluster(checkpoint_interval=64, reboot_delay=0.2)
    cluster.run(0.1)
    victim = cluster.replicas[1]
    victim.recovery.start_recovery()
    cluster.run(10.0)
    assert not victim.recovery.recovering


def test_repeated_recoveries_tolerate_unbounded_faults_over_time():
    """The point of proactive recovery: one corruption per window, forever."""
    cluster = make_kv_cluster(checkpoint_interval=4, reboot_delay=0.2)
    client = cluster.add_client("client0")
    for round_no in range(3):
        for i in range(4):
            client.call(put(i, b"round%d-%d" % (round_no, i)))
        cluster.run(1.0)
        victim = cluster.replicas[round_no % 4]
        victim.state.values[round_no] = b"BAD"
        victim.recovery.start_recovery()
        cluster.run(15.0)
        assert victim.state.values == cluster.replicas[(round_no + 1) % 4].state.values


def test_idle_basefs_recovers_once_per_epoch_from_the_initial_state():
    """With no stable checkpoint yet every peer answers the recovering
    replica with an empty certificate; replies past the f+1-th (and a
    transfer completing meanwhile) must not finish the epoch twice."""
    from repro.base.library import BaseServiceConfig
    from repro.bft.config import BftConfig
    from repro.harness import costs as C
    from repro.nfs.backends import ALL_BACKENDS
    from repro.nfs.service import NFS_SERVICE
    from repro.nfs.spec import AbstractSpecConfig
    from repro.service.deploy import ReplicatedDeployment

    deployment = ReplicatedDeployment.build(
        NFS_SERVICE, list(ALL_BACKENDS),
        spec=AbstractSpecConfig(array_size=4096),
        config=BftConfig(checkpoint_interval=64, view_change_timeout=0.15,
                         client_retry_timeout=0.1, reboot_delay=0.05,
                         recovery_interval=1.0, recovery_stagger=3.0),
        base_config=BaseServiceConfig(
            branching=64,
            per_object_check_cost=C.PER_OBJECT_CHECK_COST,
            checkpoint_cost=C.CHECKPOINT_COST),
        network_config=C.lan_network(1), seed=1)
    deployment.run(20.0)
    replicas = deployment.cluster.replicas
    assert all(r.recovery.epoch >= 1 for r in replicas)
    for r in replicas:
        assert len(r.recovery.records) == \
            r.recovery.epoch - r.recovery.recovering


def test_watchdog_no_longer_than_view_change_timeout_is_rejected():
    """Recovery start and transfer completion stop the view-change timer;
    a watchdog firing that often would never let a backup suspect a
    stalled primary, so such a configuration is refused up front."""
    from repro.bft.config import BftConfig
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        BftConfig(checkpoint_interval=8, recovery_interval=0.3,
                  recovery_stagger=0.05, reboot_delay=0.02)
    with pytest.raises(ConfigurationError):
        BftConfig(recovery_interval=1.0, view_change_timeout=1.0)
    config = BftConfig(checkpoint_interval=8, recovery_interval=0.3,
                       recovery_stagger=0.05, reboot_delay=0.02,
                       view_change_timeout=0.25)
    assert config.watchdog_period == 0.3
    assert BftConfig(recovery_stagger=3.0, recovery_interval=1.0,
                     view_change_timeout=0.15).watchdog_period == 12.0
