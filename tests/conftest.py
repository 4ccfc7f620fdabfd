"""Shared fixtures for the test suite."""

from pathlib import Path

import pytest

from repro.analysis import lint
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


def render_findings(findings):
    """One line per finding, each followed by its call chain, if any."""
    return "\n".join(
        f.render() + "".join(f"\n    {hop}" for hop in f.chain)
        for f in findings)


@pytest.fixture(scope="session")
def src_lint_findings():
    """Every finding of one :func:`lint` run over ``src/repro``: the
    whole-tree gates each check their slice of this one pass."""
    return lint([Path(__file__).resolve().parent.parent / "src" / "repro"])


@pytest.fixture
def kv_cluster():
    return make_kv_cluster()


@pytest.fixture
def kv_client(kv_cluster):
    return kv_cluster.add_client("client0")
