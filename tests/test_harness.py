"""Harness utilities: report rendering, complexity counting, micro-benches."""

import math

import pytest

from repro.bft.statemachine import InMemoryStateManager
from repro.harness.cluster import build_cluster
from repro.harness.complexity import (
    complexity_report,
    count_statements,
)
from repro.harness.report import (
    assert_shape,
    format_table,
    overhead_pct,
)
from repro.workloads.microbench import (
    concurrent_ops,
    sequential_ops,
)
from tests.conftest import record_events


def test_overhead_pct():
    assert overhead_pct(130, 100) == pytest.approx(30.0)
    assert overhead_pct(100, 100) == 0.0


def test_overhead_pct_broken_baseline_is_nan():
    # A zero/negative baseline is a broken benchmark, not 0% overhead.
    assert math.isnan(overhead_pct(5, 0))
    assert math.isnan(overhead_pct(5, -1))


def test_assert_shape_bands():
    assert_shape("ok", 25, 20, 30)
    with pytest.raises(AssertionError):
        assert_shape("too low", 10, 20, 30)
    with pytest.raises(AssertionError):
        assert_shape("too high", 40, 20, 30)


def test_assert_shape_rejects_nan():
    with pytest.raises(AssertionError, match="NaN"):
        assert_shape("broken baseline", overhead_pct(5, 0), 0, 100)


def test_format_table_alignment():
    table = format_table("Title", ["a", "bb"], [(1, 2.5), ("x", 100.0)])
    lines = table.splitlines()
    assert lines[0] == "Title"
    assert len({len(line) for line in lines[2:4]}) == 1  # header == rule


def test_format_table_empty_rows():
    table = format_table("t", ["a", "b"], [])
    assert isinstance(table, str)
    assert "(no rows)" in table
    assert table.splitlines()[2].startswith("a")


def test_count_statements_ignores_comments_and_blanks():
    source = '''
# a comment

x = 1  # inline comment
def f():
    """Docstring is a statement (expression stmt)."""
    return x
'''
    # x=1, def, docstring-expr, return -> 4
    assert count_statements(source) == 4


def test_complexity_report_covers_all_components():
    rows = {row.component: row.statements for row in complexity_report()}
    assert rows["BFT library"] > rows["BASE library"]
    assert all(count > 0 for count in rows.values())
    assert "NFS conformance wrapper" in rows
    assert "wrapped Thor implementation" in rows


def test_sequential_microbench_counts():
    cluster = build_cluster(lambda i: InMemoryStateManager())
    result = sequential_ops(cluster, 10, "t")
    assert result.operations == 10
    assert result.messages > 10  # protocol amplification
    assert result.latency > 0
    assert result.throughput > 0


def test_concurrent_microbench_completes_all():
    cluster = build_cluster(lambda i: InMemoryStateManager())
    executed = record_events(cluster.tracer, "executed")
    result = concurrent_ops(cluster, clients=4, per_client=5, label="t")
    assert result.operations == 20
    # All 20 writes actually executed on the replicas.
    per_replica = [len([e for e in executed if e.source == r.node_id])
                   for r in cluster.replicas]
    assert max(per_replica) >= 20


def test_read_only_microbench_uses_fewer_messages():
    writes = sequential_ops(build_cluster(lambda i: InMemoryStateManager()), 20, "w")
    reads = sequential_ops(build_cluster(lambda i: InMemoryStateManager()), 20, "r", read_only=True)
    assert reads.messages < writes.messages
    assert reads.latency < writes.latency
