"""DeepLint: interprocedural dataflow and protocol-conformance passes.

The whole-program half of a lint run (:func:`repro.analysis.lint`):

- :mod:`repro.analysis.deep.project`   — the loader: one parse per file,
  plus the module model and resolver
- :mod:`repro.analysis.deep.callgraph` — project-wide call graph
- :mod:`repro.analysis.deep.taint`     — nondeterminism-taint fixpoint
- :mod:`repro.analysis.deep.conformance` — handler/cost/quorum passes
- :mod:`repro.analysis.deep.catalog`   — rule ids and documentation
"""

from repro.analysis.deep.catalog import (DEEP_RULE_IDS, DEEP_RULES,
                                         DEEP_RULES_BY_ID, DeepRuleInfo)

__all__ = ["DEEP_RULE_IDS", "DEEP_RULES", "DEEP_RULES_BY_ID",
           "DeepRuleInfo"]
