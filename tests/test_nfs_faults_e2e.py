"""End-to-end fault scenarios on BASEFS: the claims of §1 exercised."""

import pytest

from repro.base.library import BaseServiceConfig
from repro.bft.config import BftConfig
from repro.bft.faults import WrongReplyBehavior
from repro.nfs.backends import ALL_BACKENDS, CorruptingBackend, LinuxExt2Backend
from repro.nfs.client import NfsClient
from repro.nfs.service import NFS_SERVICE
from repro.nfs.spec import AbstractSpecConfig
from repro.service.deploy import ReplicatedDeployment
from tests.conftest import record_events

SPEC = AbstractSpecConfig(array_size=128)


def cluster_with_client(backends=None, **cfg):
    defaults = dict(n=4, checkpoint_interval=8, view_change_timeout=2.0,
                    client_retry_timeout=1.0, reboot_delay=0.3)
    defaults.update(cfg)
    deployment = ReplicatedDeployment.build(
        NFS_SERVICE, backends or [LinuxExt2Backend] * 4, spec=SPEC,
        config=BftConfig(**defaults),
        base_config=BaseServiceConfig(branching=8))
    return deployment.cluster, NfsClient(deployment.client)


def test_byzantine_replica_cannot_corrupt_file_reads():
    cluster, fs = cluster_with_client()
    fs.write_file("/doc", b"the truth")
    cluster.replicas[1].behavior = WrongReplyBehavior()
    fs.drop_caches()
    assert fs.read_file("/doc") == b"the truth"


def test_latent_write_corruption_repaired_by_checkpoint_divergence():
    """One replica's disk silently corrupts writes for a while; its
    checkpoints diverge and state transfer repairs it once the fault
    clears (a disk corrupting 100% of writes forever cannot be repaired
    in place — the repair writes would rot too)."""
    cluster, fs = cluster_with_client()
    transfers = record_events(cluster.tracer, "transfer_complete")
    victim = cluster.replicas[2]
    wrapper = victim.state.upcalls
    corrupting = CorruptingBackend(wrapper.backend, probability=1.0, seed=5)
    wrapper.backend = corrupting
    for i in range(8):
        fs.write_file(f"/f{i}", b"good data %d" % i)
    assert corrupting.corruptions > 0
    corrupting.probability = 0.0  # the transient fault clears
    for i in range(8, 12):
        fs.write_file(f"/f{i}", b"good data %d" % i)
    cluster.run(10.0)
    # Checkpoint divergence caught the live corruption and transferred...
    assert any(e.source == victim.node_id for e in transfers), \
        "corruption never detected"
    # ...but rot that slipped in *during* repair is latent: the tree
    # recorded the fetched digests, so checkpoints agree again while the
    # concrete state is still rotten.  Only proactive recovery's full
    # check (re-deriving every digest from the concrete state) finds it.
    victim.recovery.start_recovery()
    cluster.run(30.0)
    assert not victim.recovery.recovering
    backend = wrapper.backend
    root = backend.mount()
    fh, _ = backend.lookup(root, "f0")
    data, _ = backend.read(fh, 0, 100)
    assert data == b"good data 0"


def test_heterogeneous_cluster_survives_one_crash_plus_recovery():
    cluster, fs = cluster_with_client(backends=list(ALL_BACKENDS))
    fs.mkdir("/work")
    fs.write_file("/work/a", b"1")
    cluster.replicas[3].crash()            # FreeBSD down
    fs.write_file("/work/b", b"2")         # 3 of 4 still serve
    cluster.replicas[1].recovery.start_recovery()  # Solaris rejuvenates
    # Down to 2 fully-live replicas + 1 recovering: writes must stall-free
    # once the recovering replica rejoins agreement (post-reboot).
    fs.write_file("/work/c", b"3")
    cluster.run(20.0)
    assert not cluster.replicas[1].recovery.recovering
    live_roots = {r.state.tree.root_digest for r in cluster.replicas
                  if not r.crashed}
    cluster.run(3.0)
    assert fs.read_file("/work/c") == b"3"


def test_stolen_keys_useless_after_recovery():
    """Session-key refresh: MACs minted before a recovery no longer
    authenticate to the recovered replica."""
    from repro.bft.messages import Request
    from repro.crypto.mac import Authenticator
    cluster, fs = cluster_with_client()
    fs.write_file("/x", b"1")
    victim = cluster.replicas[0]
    # 'Steal' a pre-recovery authenticator...
    stolen = Request("nfs-client", 999, b"evil-op")
    stolen.auth = Authenticator.create(cluster.registry, "nfs-client",
                                       cluster.config.replica_ids,
                                       stolen.body())
    victim.recovery.start_recovery()
    cluster.run(20.0)
    assert not victim.recovery.recovering
    assert not stolen.auth.verify(cluster.registry, victim.node_id,
                                  stolen.body())
    # The service still works for honest clients (fresh MACs).
    fs.write_file("/y", b"2")
    assert fs.read_file("/y") == b"2"


def test_all_four_vendors_recover_in_turn():
    cluster, fs = cluster_with_client(backends=list(ALL_BACKENDS))
    for i in range(8):
        fs.write_file(f"/seed{i}", b"s%d" % i)
    cluster.run(1.0)
    for index in (3, 2, 1, 0):
        victim = cluster.replicas[index]
        victim.recovery.start_recovery()
        cluster.run(25.0)
        assert not victim.recovery.recovering, f"replica{index} stuck"
        fs.write_file(f"/after{index}", b"ok")
    cluster.run(5.0)
    roots = {r.state.tree.root_digest for r in cluster.replicas}
    assert len(roots) == 1
