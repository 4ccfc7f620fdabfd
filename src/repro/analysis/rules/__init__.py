"""ProtoLint rule registry.

``all_rules()`` returns one instance of every rule, sorted by id; tests
pick single rules by id from ``rules_by_id()``.  Adding a rule = write the
class, list it in ``_RULE_CLASSES``, document it in docs/ANALYSIS.md,
and add a bad/ok fixture pair under tests/analysis_fixtures/.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.engine import Rule
from repro.analysis.rules.determinism import (PerfCounterRule,
                                              UnseededRandomRule,
                                              WallClockRule)
from repro.analysis.rules.replay import (IdKeyRule, MutableDefaultRule,
                                         UnorderedIterationRule)
from repro.analysis.rules.simsafety import RealConcurrencyRule, RealIORule
from repro.analysis.rules.wire import BareExceptRule, FloatPayloadRule

_RULE_CLASSES = (
    UnseededRandomRule,     # DET-RNG
    WallClockRule,          # DET-CLOCK
    PerfCounterRule,        # DET-PERF
    RealConcurrencyRule,    # SIM-BLOCK
    RealIORule,             # SIM-IO
    UnorderedIterationRule,  # RPL-SETITER
    IdKeyRule,              # RPL-IDKEY
    MutableDefaultRule,     # RPL-MUTDEF
    FloatPayloadRule,       # WIRE-FLOAT
    BareExceptRule,         # WIRE-EXCEPT
)

def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, ordered by rule id."""
    return sorted((cls() for cls in _RULE_CLASSES),
                  key=lambda rule: rule.rule_id)


def rules_by_id() -> Dict[str, Rule]:
    return {rule.rule_id: rule for rule in all_rules()}

