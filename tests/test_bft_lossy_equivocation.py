"""Equivocating primary on a lossy network.

Equivocation alone is survivable (the split backup falls behind and
catches up via state transfer); message loss alone is survivable (retry
and retransmission).  This is the combination: the conflicting
pre-prepares *and* the repair traffic both ride a network that drops a
slice of everything, so retries, view changes, and checkpoint catch-up
all have to work at once."""

import pytest

from repro.bft.config import BftConfig
from repro.bft.faults import EquivocatingPrimaryBehavior
from repro.bft.statemachine import InMemoryStateManager
from repro.harness.cluster import build_cluster
from repro.sim.network import LinkConfig, NetworkConfig
from tests.conftest import record_events

put = InMemoryStateManager.op_put


def make_lossy_cluster(seed, drop_rate):
    config = BftConfig(checkpoint_interval=4, view_change_timeout=0.5,
                       client_retry_timeout=0.3)
    network_config = NetworkConfig(
        seed=seed, default_link=LinkConfig(drop_rate=drop_rate))
    return build_cluster(lambda i: InMemoryStateManager(size=64),
                         config=config, network_config=network_config,
                         seed=seed)


@pytest.mark.parametrize("seed,drop_rate", [(1, 0.05), (7, 0.08)])
def test_lossy_equivocating_primary_never_splits_state(seed, drop_rate):
    cluster = make_lossy_cluster(seed, drop_rate)
    cluster.replicas[0].behavior = EquivocatingPrimaryBehavior()
    client = cluster.add_client("client0")

    for i in range(8):
        assert client.call(put(i % 8, b"op%d" % i)) == b"ok"

    # Let retransmissions, view changes, and catch-up drain.
    cluster.run(5.0)

    correct = cluster.replicas[1:]
    frontier = max(r.last_executed for r in correct)
    at_frontier = [r for r in correct if r.last_executed == frontier]
    # 2f+1 correct replicas exist; loss may leave a laggard mid-fetch,
    # but a weak quorum must reach the frontier with identical state.
    assert len(at_frontier) >= cluster.config.weak_quorum
    values = {tuple(r.state.values) for r in at_frontier}
    assert len(values) == 1, "equivocation under loss split the state"
    assert all(r.state.values[i % 8] == b"op%d" % i
               for r in at_frontier for i in range(8))


def test_lossy_equivocation_forces_and_survives_a_view_change():
    cluster = make_lossy_cluster(3, 0.08)
    new_views = record_events(cluster.tracer, "new_view_accepted")
    cluster.replicas[0].behavior = EquivocatingPrimaryBehavior()
    client = cluster.add_client("client0")
    for i in range(10):
        assert client.call(put(i % 4, b"v%d" % i)) == b"ok"
    cluster.run(5.0)
    # Under sustained equivocation plus loss the backups eventually give
    # up on the primary; the service keeps running either way, and if a
    # view change fired the trace records it on the correct replicas.
    if any(r.view >= 1 for r in cluster.replicas[1:]):
        assert new_views
    assert client.call(put(0, b"final")) == b"ok"
