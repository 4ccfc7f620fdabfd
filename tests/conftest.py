"""Shared fixtures for the test suite."""

import pytest

from repro.bft.config import BftConfig
from repro.bft.statemachine import InMemoryStateManager
from repro.harness.cluster import build_cluster


def make_kv_cluster(n=4, checkpoint_interval=4, size=64, seed=0, **cfg_kwargs):
    """A 4-replica key-value cluster with small checkpoints for testing."""
    config = BftConfig(n=n, checkpoint_interval=checkpoint_interval,
                       **cfg_kwargs)
    return build_cluster(lambda i: InMemoryStateManager(size=size),
                         config=config, seed=seed)


def record_events(tracer, *kinds):
    """Subscribe to ``tracer``; returns the list every later event of
    ``kinds`` (of any kind when none are named) is appended to."""
    events = []

    def on_event(event):
        if not kinds or event.kind in kinds:
            events.append(event)

    tracer.subscribe(on_event)
    return events


@pytest.fixture
def kv_cluster():
    return make_kv_cluster()


@pytest.fixture
def kv_client(kv_cluster):
    return kv_cluster.add_client("client0")
