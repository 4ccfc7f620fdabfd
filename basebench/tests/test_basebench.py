"""BaseBench's own checks, on shortened runs of each workload.

Run from the repository root::

    PYTHONPATH=src python -m pytest basebench/tests -q

1. Two runs with one seed give identical simulated results and work
   counts.
2. Tracing does not perturb the simulation: a traced run's simulated
   results equal an untraced run's.
3. The traced call counts of ``canonical``, ``decanonical`` and
   ``digest`` equal cProfile's ``ncalls`` for the same run, so no
   by-name import of those functions escaped the tracer.
4. The command prints exactly the metrics ``BENCHMARK.json`` lists.
5. The reference clock rescales wall time by the speed it sampled.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from pathlib import Path

import pytest

import basebench.workloads as W
from basebench.layers import LayerTracer
from basebench.refclock import REFERENCE_SECONDS, ReferenceClock
from basebench.run import Repeat, main, work_counts
from repro.crypto.digest import digest
from repro.encoding.canonical import canonical, decanonical

SEED = 7


@pytest.fixture(autouse=True)
def short_runs(monkeypatch):
    """Shrink every workload to a second or two of wall time; each keeps
    its fault (recovery, crash and view change) inside the run."""
    monkeypatch.setattr(W, "ANDREW_COPIES", 2)
    monkeypatch.setattr(W, "SQL_OPS_PER_CLIENT", 300)
    monkeypatch.setattr(W, "SQL_RECOVERY_AT", 0.01)
    monkeypatch.setattr(W, "KV_DURATION", 0.4)
    monkeypatch.setattr(W, "KV_CRASH_AT", 0.1)


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_same_seed_repeats_and_tracing_does_not_perturb(workload):
    plain = Repeat(workload, SEED)
    again = Repeat(workload, SEED)
    tracers = [LayerTracer(), LayerTracer()]
    traced = [Repeat(workload, SEED, t) for t in tracers]
    for rep in (plain, again, *traced):
        assert rep.problems == []
        assert rep.failed == 0
    assert again.signature == plain.signature
    assert [t.signature for t in traced] == [plain.signature] * 2
    assert work_counts(tracers[0]) == work_counts(tracers[1])
    assert tracers[0].calls_of("canonical") > 0


def _profiled_ncalls(workload: str) -> dict:
    run = W.WORKLOADS[workload](SEED)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run.timed_drive()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    out = {}
    for fn in (canonical, decanonical, digest):
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        out[fn.__name__] = stats[key][1] if key in stats else 0
    return out


@pytest.mark.parametrize("workload", ["basefs_andrew", "sql_oltp"])
def test_traced_counts_equal_cprofile_ncalls(workload):
    expected = _profiled_ncalls(workload)
    tracer = LayerTracer()
    Repeat(workload, SEED, tracer)
    traced = {name: tracer.calls_of(name) for name in expected}
    assert traced == expected
    assert min(expected.values()) > 0


def test_tracer_restores_every_binding():
    import repro.bft.messages as messages
    import repro.nfs.service as nfs_service
    before = (messages.sha_digest, nfs_service.canonical)
    tracer = LayerTracer()
    tracer.install(W.BACKEND_CLASSES["basefs_andrew"])
    assert messages.sha_digest is not digest
    assert nfs_service.canonical is not canonical
    tracer.uninstall()
    assert (messages.sha_digest, nfs_service.canonical) == before
    assert before == (digest, canonical)


@pytest.mark.parametrize("trace", [0, 1])
def test_output_matches_benchmark_json(trace, capsys):
    spec = json.loads((Path(__file__).resolve().parents[2]
                       / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    assert main(["--workload", "kv_failover", "--seed", str(SEED),
                 "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    if trace:
        metrics = result["metrics"]
        assert metrics["service.get_obj_per_op"]["value"] == 0
        assert metrics["backend.calls_per_op"]["value"] == 0
        assert metrics["bft.view_changes"]["value"] == 1


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_reference_clock_rescales_by_the_sampled_speed():
    # Samples 1-2 find the reference loop at its nominal length, samples
    # 3-4 at twice it (a machine at half speed).
    lengths = iter([1, 1, 2, 2])
    clock = ReferenceClock(
        loop=lambda: _spin(next(lengths) * REFERENCE_SECONDS), every=0.0)
    clock.start()
    a = clock.tick()
    _spin(0.02)
    b = clock.tick()
    _spin(0.02)
    clock.stop()
    # Between samples 2 and 3 the speed is the mean of both: 2/3.
    assert clock.to_reference(b) - clock.to_reference(a) == \
        pytest.approx(0.02 * 2 / 3, rel=0.1)
    assert clock.elapsed == pytest.approx(0.02 * 2 / 3 + 0.02 / 2, rel=0.1)
    assert clock.wall_elapsed == pytest.approx(0.04, rel=0.1)
