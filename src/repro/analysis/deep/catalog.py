"""DeepLint rule catalog: ids, severities, and documentation strings."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class DeepRuleInfo:
    """Catalog entry for one whole-program rule (no visit() — deep rules
    are passes over the project, not per-node callbacks)."""

    rule_id: str
    severity: str
    title: str
    rationale: str
    example: str


DEEP_RULES: Tuple[DeepRuleInfo, ...] = (
    DeepRuleInfo(
        rule_id="DEEP-TAINT",
        severity="error",
        title="No nondeterministic value may reach a replicated sink",
        rationale=(
            "Replicas are deterministic state machines behind the "
            "abstraction function; a wall-clock read, unseeded RNG draw, "
            "hash()/id() value, or set-iteration-order value that flows — "
            "through any number of helper calls — into canonical "
            "encoding, a wire message, a digest, or abstract state breaks "
            "agreement silently.  The intraprocedural DET-*/RPL-* rules "
            "see only the call site; this pass follows the value."),
        example=("def _stamp():\n"
                 "    return time.time()          # laundered source\n"
                 "...\n"
                 "canonical((op, _stamp()))       # sink, two calls away"),
    ),
    DeepRuleInfo(
        rule_id="DEEP-HANDLER",
        severity="error",
        title="Every wire message kind has a handler",
        rationale=(
            "sim.Node dispatches a message to ``handle_<kind>`` on the "
            "receiving node; a Message subclass whose kind no class "
            "handles is silently dropped on delivery (and a handler for "
            "a kind no message declares is dead protocol surface)."),
        example=("class Probe(Message):\n"
                 "    kind = 'probe'   # no handle_probe anywhere"),
    ),
    DeepRuleInfo(
        rule_id="DEEP-COST",
        severity="error",
        title="Every protocol handler charges the CostModel",
        rationale=(
            "Benchmark numbers are only honest if every message handler "
            "charges simulated CPU for the work it models — directly or "
            "through a callee.  A handler whose whole call tree never "
            "reaches ``charge()`` executes for free and skews every "
            "req/s figure derived from the cost model."),
        example=("def handle_probe(self, src, msg):\n"
                 "    self.table[msg.key] = msg.value   # no charge()"),
    ),
    DeepRuleInfo(
        rule_id="DEEP-QUORUM",
        severity="error",
        title="Quorum sizes come from the config helpers",
        rationale=(
            "Certificate arithmetic written inline (``2 * f + 1``, "
            "``f + 1``, or a bare literal compared against a vote count) "
            "silently diverges from the group configuration when n or f "
            "changes — the helpers ``config.quorum`` and "
            "``config.weak_quorum`` are the single source of truth."),
        example="if len(votes) >= 2 * self.config.f + 1:  # use .quorum",
    ),
)

DEEP_RULE_IDS: Tuple[str, ...] = tuple(r.rule_id for r in DEEP_RULES)

DEEP_RULES_BY_ID = {r.rule_id: r for r in DEEP_RULES}
