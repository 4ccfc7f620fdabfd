"""Top-level helpers: stand up a BASE-replicated service.

``build_base_cluster`` takes one conformance-wrapper factory per replica.
Passing the same factory everywhere gives homogeneous replication (still
valuable: proactive recovery + nondeterminism masking, as in the Thor
example); passing different factories is opportunistic N-version
programming (the BASEFS example, where each replica wraps a different
file-system implementation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.base.state import AbstractStateManager
from repro.base.upcalls import Upcalls
from repro.bft.config import BftConfig
from repro.bft.costs import CostModel, ZERO_COSTS
from repro.harness.cluster import Cluster, build_cluster
from repro.sim.network import NetworkConfig


@dataclass
class BaseServiceConfig:
    """Knobs of the BASE layer itself (the BFT knobs live in BftConfig)."""

    branching: int = 64
    per_object_check_cost: float = 0.0   # cold (recovery check), per KB
    checkpoint_cost: float = 0.0         # hot (checkpoint get_obj), per KB
    cow_cost: float = 0.0                # modify() pre-image copy, per KB


def build_base_cluster(wrapper_factories: Sequence[Callable[[], Upcalls]],
                       config: Optional[BftConfig] = None,
                       base_config: Optional[BaseServiceConfig] = None,
                       network_config: Optional[NetworkConfig] = None,
                       costs: CostModel = ZERO_COSTS,
                       replica_costs: Optional[List[CostModel]] = None,
                       seed: int = 0,
                       scheduler=None,
                       network=None) -> Cluster:
    """Build a replicated service from per-replica conformance wrappers."""
    config = config or BftConfig(n=len(wrapper_factories))
    if len(wrapper_factories) != config.n:
        raise ValueError(f"{len(wrapper_factories)} wrapper factories for "
                         f"n={config.n} replicas")
    base_config = base_config or BaseServiceConfig()
    managers: List[AbstractStateManager] = []

    def make_state(i: int) -> AbstractStateManager:
        manager = AbstractStateManager(
            wrapper_factories[i](), branching=base_config.branching,
            per_object_check_cost=base_config.per_object_check_cost,
            checkpoint_cost=base_config.checkpoint_cost,
            cow_cost=base_config.cow_cost)
        managers.append(manager)
        return manager

    cluster = build_cluster(make_state, config=config,
                            network_config=network_config, costs=costs,
                            replica_costs=replica_costs, seed=seed,
                            scheduler=scheduler, network=network)
    # Wire CPU charging from wrappers through to their replica.  The
    # recovery check pass accounts its CPU to the recovery manager (it
    # overlaps fetch round-trips) rather than stalling the protocol.
    for replica, manager in zip(cluster.replicas, managers):
        manager.charge_hook = replica.charge

        def background(seconds: float, replica=replica) -> None:
            if replica.recovery.recovering:
                replica.recovery.background_cpu += seconds
            else:
                replica.charge(seconds)

        manager.background_hook = background
    return cluster
