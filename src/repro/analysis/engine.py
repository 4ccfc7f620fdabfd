"""ProtoLint rule engine: a single-pass AST walker with pluggable rules.

A :class:`FileContext` parses its file once; the engine walks that tree
once and dispatches every node to the rules registered for that node
type.  Rules report :class:`Finding` records through the context, which
applies inline suppressions (``# protolint: disable=RULE-ID reason``)
before a finding is recorded, so rules never need to know about them.
The deep passes read the same contexts (see :mod:`repro.analysis.runner`).

Design constraints, in the spirit of the repo's determinism discipline:

- findings are value objects with a total order, so a run over the same
  tree always reports the same findings in the same order;
- suppressions *require* a reason — an inline disable with no reason (or
  naming an unknown rule) is itself a finding (``PL-SUPPRESS``);
- everything is pure-stdlib (``ast`` + ``tokenize``), no third-party
  dependency.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.config import AnalysisConfig

#: Rule id reserved for problems with suppression comments themselves.
SUPPRESS_RULE_ID = "PL-SUPPRESS"

SEVERITIES = ("error", "warning")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one site.

    The field order *is* the sort order: findings group by file, then by
    position, then by rule — stable across runs and Python versions.

    ``chain`` is used by the interprocedural (deep) passes: the full
    source→sink path, one ``"frame (file:line)"`` string per hop.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"
    chain: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rule": self.rule, "path": self.path, "line": self.line,
            "col": self.col, "message": self.message,
            "severity": self.severity}
        if self.chain:
            out["chain"] = list(self.chain)
        return out

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} [{self.severity}] {self.message}")


class Rule:
    """Base class for ProtoLint rules.

    Subclasses set ``rule_id``, ``title``, ``rationale``, and
    ``node_types`` (the AST classes they want dispatched), then implement
    :meth:`visit`.  ``begin_file`` runs once per file before the walk —
    rules that need a pre-pass (e.g. inferring which names hold sets)
    collect state there and must reset it per file.
    """

    rule_id: str = ""
    severity: str = "error"
    title: str = ""
    rationale: str = ""
    #: Example of a violation, for the docs rule catalog.
    example: str = ""
    node_types: Tuple[type, ...] = ()

    def applies_to(self, ctx: "FileContext") -> bool:
        """Whether this rule runs on ``ctx.rel`` at all (scope check)."""
        return True

    def begin_file(self, ctx: "FileContext") -> None:
        """Per-file pre-pass hook; default does nothing."""

    def visit(self, node: ast.AST, ctx: "FileContext") -> None:
        raise NotImplementedError


@dataclass
class _Suppression:
    line: int
    rules: Tuple[str, ...]
    reason: str
    standalone: bool  # comment-only line: also covers the next line


_DISABLE_RE = re.compile(
    r"protolint:\s*disable=([A-Za-z0-9_,\-]+)\s*(.*)\Z")


def import_table(tree: ast.AST, modname: str = "") -> Dict[str, str]:
    """Local name -> dotted origin for every import in ``tree``
    (``import time as t`` -> ``t: time``, ``from os import urandom`` ->
    ``urandom: os.urandom``); relative imports resolve against
    ``modname``."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    first = alias.name.split(".", 1)[0]
                    imports.setdefault(first, first)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = modname.split(".")
                anchor = parts[: len(parts) - node.level] \
                    if len(parts) >= node.level else []
                base = ".".join(anchor + ([node.module]
                                          if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                origin = f"{base}.{alias.name}" if base else alias.name
                imports[alias.asname or alias.name] = origin
    return imports


class FileContext:
    """Everything rules may consult about the file being checked.

    The context parses ``source`` once; ``tree`` is None (and the run
    carries a ``PL-SYNTAX`` finding) when the file does not parse.
    ``known_rule_ids`` is the suppression vocabulary and ``modname`` the
    dotted module name relative imports resolve against."""

    def __init__(self, rel: str, source: str, config: AnalysisConfig,
                 known_rule_ids: Iterable[str], modname: str = ""):
        self.rel = rel
        self.source = source
        self.config = config
        self.findings: List[Finding] = []
        self._known = set(known_rule_ids) | {SUPPRESS_RULE_ID}
        #: line -> suppression record covering that line.
        self._suppressions: Dict[int, _Suppression] = {}
        self._parse_suppressions()
        self.tree: Optional[ast.Module] = None
        self.imports: Dict[str, str] = {}
        try:
            self.tree = ast.parse(source, filename=rel)
        except SyntaxError as err:
            self._raw_report(Finding(rel, err.lineno or 1, 0, "PL-SYNTAX",
                                     f"syntax error: {err.msg}"))
            return
        self.imports = import_table(self.tree, modname)

    # -- suppressions ----------------------------------------------------------

    def _parse_suppressions(self) -> None:
        """Scan comments with ``tokenize`` (immune to '#' inside strings)."""
        try:
            tokens = list(tokenize.generate_tokens(
                io.StringIO(self.source).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return  # the ast parse will report the real problem
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _DISABLE_RE.search(tok.string)
            if match is None:
                if "protolint:" in tok.string:
                    self._raw_report(Finding(
                        self.rel, tok.start[0], tok.start[1],
                        SUPPRESS_RULE_ID,
                        "malformed protolint comment (expected "
                        "'protolint: disable=RULE-ID reason')"))
                continue
            line = tok.start[0]
            rules = tuple(r for r in match.group(1).split(",") if r)
            reason = match.group(2).strip()
            standalone = self.source.splitlines()[line - 1] \
                .lstrip().startswith("#")
            if not reason:
                self._raw_report(Finding(
                    self.rel, line, tok.start[1], SUPPRESS_RULE_ID,
                    f"suppression of {','.join(rules)} has no reason "
                    f"(format: '# protolint: disable=RULE-ID reason')"))
                continue
            unknown = [r for r in rules if r not in self._known]
            if unknown:
                self._raw_report(Finding(
                    self.rel, line, tok.start[1], SUPPRESS_RULE_ID,
                    f"suppression names unknown rule "
                    f"{', '.join(sorted(unknown))}"))
                continue
            self._suppressions[line] = _Suppression(
                line, rules, reason, standalone)

    def suppressed(self, rule_id: str, line: int) -> bool:
        """A finding is suppressed by a disable comment on its own line,
        or by a standalone disable comment on the line directly above."""
        here = self._suppressions.get(line)
        if here is not None and rule_id in here.rules:
            return True
        above = self._suppressions.get(line - 1)
        return (above is not None and above.standalone
                and rule_id in above.rules)

    # -- reporting -------------------------------------------------------------

    def _raw_report(self, finding: Finding) -> None:
        self.findings.append(finding)

    def report(self, rule: Rule, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.suppressed(rule.rule_id, line):
            return
        self._raw_report(Finding(self.rel, line, col, rule.rule_id,
                                 message, rule.severity))


class Engine:
    """Runs a rule set over sources: one parse, one walk per file."""

    def __init__(self, rules: Sequence[Rule],
                 config: Optional[AnalysisConfig] = None):
        seen: Dict[str, Rule] = {}
        for rule in rules:
            if not rule.rule_id:
                raise ValueError(f"{type(rule).__name__} has no rule_id")
            if rule.rule_id in seen:
                raise ValueError(f"duplicate rule id {rule.rule_id}")
            if rule.severity not in SEVERITIES:
                raise ValueError(f"{rule.rule_id}: bad severity "
                                 f"{rule.severity!r}")
            seen[rule.rule_id] = rule
        self.rules: Tuple[Rule, ...] = tuple(
            seen[rid] for rid in sorted(seen))
        self.config = config or AnalysisConfig()
        self._dispatch: Dict[type, List[Rule]] = {}
        for rule in self.rules:
            for node_type in rule.node_types:
                self._dispatch.setdefault(node_type, []).append(rule)

    @property
    def rule_ids(self) -> Tuple[str, ...]:
        return tuple(rule.rule_id for rule in self.rules)

    def check_source(self, source: str, rel: str) -> List[Finding]:
        """Check one file's text; ``rel`` is its path used in findings
        and in rule scope decisions (e.g. ``bft/replica.py``)."""
        return self.check(FileContext(rel, source, self.config,
                                      self.rule_ids))

    def check(self, ctx: FileContext) -> List[Finding]:
        """Walk ``ctx``'s tree once with every rule that applies to it;
        returns all of the file's findings, sorted."""
        if ctx.tree is not None:
            active = [r for r in self.rules if r.applies_to(ctx)]
            active_ids = {r.rule_id for r in active}
            for rule in active:
                rule.begin_file(ctx)
            for node in ast.walk(ctx.tree):
                for rule in self._dispatch.get(type(node), ()):
                    if rule.rule_id in active_ids:
                        rule.visit(node, ctx)
        return sorted(ctx.findings)


def relativize(path: Path, root: Path) -> str:
    """Finding path for ``path`` scanned from ``root``.

    Rule scopes are package-relative (``bft/replica.py``), so when the
    scanned tree contains the ``repro`` package the path is rebased onto
    it — ``src/repro/bft/replica.py`` and ``bft/replica.py`` agree no
    matter which directory the CLI was pointed at.
    """
    path = path.resolve()
    root = root.resolve()
    parts = path.parts
    if "repro" in parts:
        idx = len(parts) - 1 - tuple(reversed(parts)).index("repro")
        tail = parts[idx + 1:]
        if tail:
            return "/".join(tail)
    if root.is_dir():
        try:
            return path.relative_to(root).as_posix()
        except ValueError:
            pass
    return path.name
