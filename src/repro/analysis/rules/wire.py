"""Wire-hygiene rules: what goes into message bodies, and how handlers fail.

Protocol messages are digested and MACed over ``canonical(...)`` bytes,
and replicas must agree bit-for-bit.  Floats in a payload are a
cross-replica hazard (two replicas computing the "same" value by
different float paths digest differently), and dict/set displays are not
canonically encodable at all.  Handlers, for their part, must fail
loudly: a bare ``except:`` (or a handler that swallows everything with
``pass``) converts a protocol bug into silent divergence.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import FileContext, Rule


def _payload_offenders(expr: ast.AST):
    """Yield (node, description) for wire-hostile values inside a payload
    expression: float constants, float() casts, dict/set displays."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            yield node, f"float constant {node.value!r}"
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node, "float(...) cast"
        elif isinstance(node, (ast.Dict, ast.DictComp)):
            yield node, "dict display (not canonically encodable)"
        elif isinstance(node, (ast.Set, ast.SetComp)):
            yield node, "set display (not canonically encodable)"


class FloatPayloadRule(Rule):
    rule_id = "WIRE-FLOAT"
    title = "No floats or non-canonical containers in message payloads"
    rationale = ("Payloads are digested over canonical bytes; replicas "
                 "must produce them identically.  Floats invite "
                 "cross-replica rounding divergence, and dicts/sets are "
                 "rejected (or hash-ordered) by the canonical encoder — "
                 "convert to sorted tuples of ints/strs/bytes first.")
    example = 'canonical(("reply", 0.5, {"a": 1}))'
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        # Message bodies need no branch here: a message kind's declared
        # field types admit no float, dict or set.
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if name != "canonical":
            return
        for arg in node.args:
            for bad, what in _payload_offenders(arg):
                ctx.report(self, bad, f"{what} in a canonical() payload")


class BareExceptRule(Rule):
    rule_id = "WIRE-EXCEPT"
    title = "No bare excepts; handlers must not swallow exceptions"
    rationale = ("A bare `except:` catches SystemExit/KeyboardInterrupt "
                 "and hides protocol bugs; an except clause whose whole "
                 "body is `pass` in BFT or simulator code turns a failed "
                 "handler into silent state divergence.  Catch the "
                 "narrowest exception and act on it (or re-raise).")
    example = "try: handle(msg)\nexcept: pass"
    node_types = (ast.ExceptHandler,)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        if node.type is None:
            ctx.report(self, node,
                       "bare except: catches everything including "
                       "KeyboardInterrupt; name the exception type")
            return
        swallows = all(isinstance(stmt, ast.Pass) for stmt in node.body)
        if swallows and ctx.config.in_replay(ctx.rel):
            ctx.report(self, node,
                       "except clause swallows the exception with a bare "
                       "pass in replay-critical code; handle or re-raise")
