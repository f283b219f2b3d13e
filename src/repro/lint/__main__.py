"""CLI entry point: ``python -m repro.lint [paths] [options]``.

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage errors (including
a path that does not exist, or a named file that is not a ``.py`` file).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.lint.engine import LintReport, lint_paths
from repro.lint.registry import rule_catalog


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (separate for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Determinism-contract static analyzer (rules RPR1xx).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _render_text(report: LintReport) -> str:
    lines: List[str] = []
    for finding in report.findings:
        lines.append(f"{finding.location()}: {finding.code} {finding.message}")
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    lines.append(
        f"{report.files_scanned} files scanned: {len(report.findings)} finding(s)"
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the linter; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for meta in rule_catalog():
            print(f"{meta.code} {meta.name}: {meta.summary}")
        return 0

    errors = []
    for path in args.paths:
        if not os.path.exists(path):
            errors.append(f"no such file or directory: {path}")
        elif os.path.isfile(path) and not path.endswith(".py"):
            errors.append(f"not a Python file: {path}")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if errors:
        return 2

    report = lint_paths(args.paths)

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        print(_render_text(report))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
