"""The deep gate: ``src/repro`` stays clean under the whole-program
passes.

The file rules of the same :func:`repro.analysis.lint` run are gated in
``test_analysis_engine.py``.  A new finding fails: fix the code or add a
reasoned ``# protolint: disable=`` comment.
"""

from repro.analysis.deep.catalog import DEEP_RULE_IDS

from tests.conftest import render_findings


def test_src_tree_is_deeplint_clean(src_lint_findings):
    findings = [f for f in src_lint_findings if f.rule in DEEP_RULE_IDS]
    assert findings == [], render_findings(findings)
