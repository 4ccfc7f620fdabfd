"""ProtoLint command line.

    python -m repro.analysis [PATH ...] [--out FILE] [--list-rules]

Runs every rule — the per-file rules and the whole-program passes —
over every ``*.py`` under the given paths (default: ``src/repro``) in
one pass, prints each finding (with its source→sink chain, for taint
findings), and exits nonzero if any remains: that is the whole contract
of the ``protolint`` CI job.  ``--out`` also writes the schema-validated
JSON report (:mod:`repro.analysis.report`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis import report as reportlib
from repro.analysis.deep.catalog import DEEP_RULES
from repro.analysis.rules import all_rules
from repro.analysis.runner import RULE_IDS, lint


def _resolve_roots(paths):
    if paths:
        roots = [Path(p) for p in paths]
    else:
        default = Path("src") / "repro"
        if not default.is_dir():
            print("protolint: no paths given and ./src/repro does not "
                  "exist; pass the tree to check", file=sys.stderr)
            raise SystemExit(2)
        roots = [default]
    for root in roots:
        if not root.exists():
            print(f"protolint: no such path: {root}", file=sys.stderr)
            raise SystemExit(2)
    return roots


def _print_rules() -> int:
    for rule in all_rules() + list(DEEP_RULES):
        print(f"{rule.rule_id:12s} [{rule.severity}] {rule.title}")
        print(f"    {rule.rationale}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="ProtoLint: protocol-aware static analysis for the "
                    "BASE reproduction.")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to check "
                             "(default: src/repro)")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the schema-validated JSON report "
                             "here")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        return _print_rules()

    roots = _resolve_roots(args.paths)
    findings = lint(roots)
    doc = reportlib.build(findings, RULE_IDS, roots)
    if args.out:
        reportlib.dump(doc, Path(args.out))

    for finding in findings:
        print(finding.render())
        for hop in finding.chain:
            print(f"    {hop}")
    counts = doc["counts"]
    checked = ", ".join(str(r) for r in roots)
    print(f"protolint: {len(RULE_IDS)} rules over {checked}: "
          f"{counts['errors']} error(s), {counts['warnings']} warning(s)")
    return 0 if doc["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
