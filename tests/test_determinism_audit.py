"""Determinism self-test: the DET-* rules catch planted offenders.

Every simulation outcome must be a pure function of (scenario, seed) —
that is what makes FaultLab's replay command and the shrinker sound.
The checks live in the ProtoLint rule engine (``repro.analysis``, rules
DET-RNG / DET-CLOCK / DET-PERF).  Here ``src/repro`` must give no
determinism finding, and the determinism rules run together over the
planted fixtures, where each fixture must trip exactly its rule.
"""

from pathlib import Path

from repro.analysis import Engine, rules_by_id

from tests.conftest import render_findings

FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"

DETERMINISM_RULE_IDS = ("DET-RNG", "DET-CLOCK", "DET-PERF")


def test_src_tree_is_deterministic(src_lint_findings):
    findings = [f for f in src_lint_findings
                if f.rule in DETERMINISM_RULE_IDS]
    assert findings == [], render_findings(findings)


def test_the_determinism_rules_catch_planted_offenders():
    table = rules_by_id()
    engine = Engine([table[rule_id] for rule_id in DETERMINISM_RULE_IDS])
    by_fixture = {
        "det_rng_bad.py": "DET-RNG",
        "det_clock_bad.py": "DET-CLOCK",
        "det_perf_bad.py": "DET-PERF",
    }
    for name, rule_id in by_fixture.items():
        source = (FIXTURES / name).read_text(encoding="utf-8")
        findings = engine.check_source(source, "bft/planted.py")
        assert findings, f"{name}: expected {rule_id} findings"
        assert {f.rule for f in findings} == {rule_id}
