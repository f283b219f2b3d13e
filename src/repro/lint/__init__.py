"""``repro.lint`` -- the determinism-contract static analyzer.

The byte-identity guarantees this repo makes (serial == pooled ==
cached execution, replayable flight traces, content-hashed job
identity) rest on source-level invariants: spawned-SeedSequence-only
randomness, no wall clock on hashed paths, sorted filesystem
iteration, canonical JSON, registered schema tokens, statically
resolvable job callables. ``repro.lint`` machine-checks them at review
time:

    python -m repro.lint src                # text findings, exit 1 if any
    python -m repro.lint src --format json  # repro.lint.report/v2 document
    python -m repro.lint --list-rules       # the rule catalog

Rules are AST-based plugins (see :mod:`repro.lint.registry`). A finding
can be silenced only inline, with ``# repro: noqa[RPRxxx] reason``
(reason mandatory); every other finding fails the run.
``docs/linting.md`` is the rule catalog.
"""

from repro.lint.engine import LintReport, iter_python_files, lint_paths, lint_source
from repro.lint.findings import Finding
from repro.lint.registry import (
    FileContext,
    LintError,
    LintRule,
    RuleMeta,
    all_rules,
    rule,
    rule_catalog,
)

__all__ = [
    "FileContext",
    "Finding",
    "LintError",
    "LintReport",
    "LintRule",
    "RuleMeta",
    "all_rules",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "rule",
    "rule_catalog",
]
