"""ProtoLint: protocol-aware static analysis for the BASE reproduction.

The repo's correctness story rests on coding invariants the test suite
cannot see at runtime: no unseeded randomness, no wall-clock reads, no
hash-ordered iteration feeding replicated state, only canonical types on
the wire, and — across call chains — no nondeterministic value reaching
a replicated sink.  This package enforces them mechanically in one run:
:func:`lint` parses each file once, walks it with the per-file rules
(:mod:`repro.analysis.engine`, :mod:`repro.analysis.rules`), and runs
the whole-program passes (:mod:`repro.analysis.deep`) over the same
parse.  Inline suppressions require a reason; reports are
schema-validated JSON (:mod:`repro.analysis.report`).
``python -m repro.analysis`` is the CLI and the CI gate.  See
docs/ANALYSIS.md for the rule catalog.
"""

from repro.analysis.config import EVERYWHERE, AnalysisConfig
from repro.analysis.engine import (SUPPRESS_RULE_ID, Engine, FileContext,
                                   Finding, Rule)
from repro.analysis.rules import all_rules, rules_by_id
from repro.analysis.runner import RULE_IDS, lint

__all__ = [
    "AnalysisConfig", "EVERYWHERE", "Engine", "FileContext", "Finding",
    "RULE_IDS", "Rule", "SUPPRESS_RULE_ID", "all_rules", "lint",
    "rules_by_id",
]
