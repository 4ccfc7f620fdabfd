"""Open-loop knee — the maximum sustainable req/s at a p95 SLO.

The load-sweep controller (:mod:`repro.workloads.openloop`) offers
seeded Poisson traffic to a fresh f=1 cluster per point, walking the
rate up a geometric ladder until the 5 ms p95 SLO breaks and then
refining toward the knee of the latency-vs-offered-load curve.  The
whole sweep is a pure function of the seed, so two runs must agree bit
for bit; the reported headline is the best sustainable achieved rate.
"""

from benchmarks.conftest import lan_kv_cluster, run_once
from repro.harness.report import format_table
from repro.workloads.openloop import default_kv_classes, walk_to_knee

SEED = 0
SLO_P95 = 0.005                 # seconds, applied to every request class
TARGET_ATTAINMENT = 0.95
START_RATE = 1000.0             # req/s
FACTOR = 2.5
MAX_POINTS = 5
REFINE = 1
DURATION = 0.2                  # simulated seconds per point


def sweep() -> dict:
    curve = walk_to_knee(
        lambda seed: lan_kv_cluster(seed, checkpoint_interval=16,
                                    batch_max=8),
        start_rate=START_RATE, duration=DURATION, seed=SEED, factor=FACTOR,
        max_points=MAX_POINTS, refine=REFINE,
        classes=default_kv_classes(slo_p95=SLO_P95),
        target_attainment=TARGET_ATTAINMENT, process="poisson")
    return curve.as_dict()


def test_openloop_knee(benchmark):
    curve = run_once(benchmark, sweep)
    assert sweep() == curve, "two sweeps with one seed disagree"
    points = curve["points"]

    print()
    print(format_table(
        "Open-loop knee: Poisson load sweep, f=1 KV cluster on a LAN "
        "(simulated)",
        ["offered req/s", "achieved req/s", "p95 ms", "attainment",
         "sustainable"],
        [(p["offered_rate"], p["achieved_rate"],
          p["p95"] * 1e3 if p["p95"] is not None else "-",
          p["attainment"], p["sustainable"]) for p in points],
        note=f"max sustainable {curve['max_sustainable_req_s']:.1f} req/s "
             f"at p95 <= {SLO_P95 * 1e3:g} ms for "
             f"{TARGET_ATTAINMENT:.0%} of requests"))

    rates = [p["offered_rate"] for p in points]
    assert all(a < b for a, b in zip(rates, rates[1:])), \
        "offered rates must increase strictly"
    assert any(p["sustainable"] for p in points), \
        "no sustainable point: lower START_RATE"
    assert any(not p["sustainable"] for p in points), \
        "the sweep never crossed the knee: raise MAX_POINTS or FACTOR"
    best = max(p["achieved_rate"] for p in points if p["sustainable"])
    assert curve["max_sustainable_req_s"] == best
