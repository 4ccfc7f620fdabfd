"""One lint run: every rule over one parse of the tree.

:func:`lint` loads the tree once (:func:`~repro.analysis.deep.project.
load_project` builds one :class:`~repro.analysis.engine.FileContext` per
file), walks each parsed file with the file-level rules, then runs the
four whole-program passes over the same project.  The CLI, the tier-1
gate and the tests all call it; findings come back as one sorted list.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.config import AnalysisConfig
from repro.analysis.deep.callgraph import build_callgraph
from repro.analysis.deep.catalog import DEEP_RULE_IDS
from repro.analysis.deep.conformance import (run_cost_pass,
                                             run_handler_pass,
                                             run_quorum_pass)
from repro.analysis.deep.project import load_project
from repro.analysis.deep.taint import run_taint_pass
from repro.analysis.engine import Engine, Finding
from repro.analysis.rules import all_rules

#: Every rule id a run checks (file rules plus deep rules), sorted: the
#: suppression vocabulary and the report's ``rules`` list.
RULE_IDS = tuple(sorted([r.rule_id for r in all_rules()]
                        + list(DEEP_RULE_IDS)))

_DEEP_PASSES = (run_taint_pass, run_handler_pass, run_cost_pass,
                run_quorum_pass)


def lint(roots: Sequence[Path],
         config: Optional[AnalysisConfig] = None) -> List[Finding]:
    """Every finding for the ``*.py`` files under ``roots``, sorted."""
    config = config or AnalysisConfig()
    project = load_project(roots, config, RULE_IDS)
    engine = Engine(all_rules(), config)
    findings: List[Finding] = []
    for rel in sorted(project.contexts):
        findings.extend(engine.check(project.contexts[rel]))
    graph = build_callgraph(project)
    for run_pass in _DEEP_PASSES:
        findings.extend(run_pass(project, graph))
    return sorted(findings)
