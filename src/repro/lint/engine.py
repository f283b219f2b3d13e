"""The lint engine: file discovery, rule dispatch, report assembly.

One :func:`lint_paths` call scans files in deterministic (sorted)
order, runs every registered rule per file, applies inline
suppressions and attaches each remaining finding's source line. The
result is a :class:`LintReport` the CLI renders as text or as a
``repro.lint.report/v2`` JSON document; any finding fails the run.

Example:
    >>> from repro.lint.engine import lint_source
    >>> bad = "import numpy as np\\nrng = np.random.default_rng()\\n"
    >>> [f.code for f in lint_source(bad, path="repro/sim/snippet.py")]
    ['RPR101']
    >>> good = "import os\\nnames = sorted(os.listdir('.'))\\n"
    >>> lint_source(good, path="repro/sim/snippet.py")
    []
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import schemas
from repro.lint import rules as _rules  # noqa: F401  (registers the rules)
from repro.lint import suppress
from repro.lint.findings import Finding, attach_snippets
from repro.lint.registry import (
    FileContext,
    ModuleResolver,
    all_rules,
    build_parents,
    collect_docstrings,
)


def split_repro_path(path: str) -> Tuple[Optional[str], Optional[str]]:
    """``(module, src_root)`` for a file under a ``repro`` package.

    The module path is rooted at the *last* path component named
    ``repro`` (``.../src/repro/exec/cache.py`` ->
    ``"repro/exec/cache.py"``); ``src_root`` is the absolute directory
    containing that package. Files outside any ``repro`` tree return
    ``(None, None)`` and are still linted, just without module-scoped
    rules.
    """
    absolute = os.path.abspath(path)
    parts = absolute.replace(os.sep, "/").split("/")
    for idx in range(len(parts) - 1, -1, -1):
        if parts[idx] == "repro":
            module = "/".join(parts[idx:])
            src_root = "/".join(parts[:idx]) or "/"
            return module, src_root
    return None, None


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Every ``.py`` file under ``paths``, deterministically ordered."""
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        for dirpath, _dirnames, filenames in sorted(os.walk(path)):
            if "__pycache__" in dirpath:
                continue
            for name in sorted(filenames):
                if name.endswith(".py"):
                    out.append(os.path.join(dirpath, name))
    return out


def lint_source(
    source: str,
    path: str = "<string>",
    src_root: Optional[str] = None,
    resolver: Optional[ModuleResolver] = None,
) -> List[Finding]:
    """Lint one source text; the core primitive everything else wraps.

    Args:
        source: Python source code.
        path: display path; when it contains a ``repro`` component the
            module-scoped rules activate for the corresponding module.
        src_root: package root for cross-module resolution (derived
            from ``path`` when omitted).
        resolver: shared :class:`ModuleResolver` (one per run).

    Returns:
        Findings sorted by location, with their source lines attached
        and suppressions and meta-diagnostics applied.
    """
    module, derived_root = split_repro_path(path) if path != "<string>" else (None, None)
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as exc:
        finding = Finding(
            path=path,
            line=getattr(exc, "lineno", 1) or 1,
            col=(getattr(exc, "offset", 1) or 1) - 1,
            code=suppress.PARSE_ERROR,
            message=f"file does not parse: {exc}",
        )
        return attach_snippets([finding], lines)
    ctx = FileContext(
        path=module or path,
        module=module,
        source=source,
        lines=lines,
        tree=tree,
        parents=build_parents(tree),
        docstrings=collect_docstrings(tree),
        src_root=src_root or derived_root,
        resolver=resolver or ModuleResolver(),
    )
    raw: List[Finding] = []
    for lint_rule in all_rules():
        raw.extend(lint_rule.check(ctx))
    kept, _silenced = suppress.apply(ctx.path, raw, suppress.scan(source))
    return attach_snippets(kept, lines)


@dataclass
class LintReport:
    """Aggregate outcome of one lint run.

    Attributes:
        files_scanned: number of files visited.
        findings: every unsuppressed finding, sorted.
    """

    files_scanned: int = 0
    findings: List[Finding] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """0 when clean, else 1."""
        return 1 if self.findings else 0

    def to_dict(self) -> Dict[str, object]:
        """The ``repro.lint.report/v2`` JSON document."""
        return {
            "schema": schemas.LINT_REPORT_SCHEMA,
            "files_scanned": self.files_scanned,
            "findings": [f.to_dict() for f in self.findings],
        }


def lint_paths(paths: Sequence[str]) -> LintReport:
    """Lint every Python file under ``paths``."""
    resolver = ModuleResolver()
    findings: List[Finding] = []
    files = iter_python_files(paths)
    for file_path in files:
        with open(file_path, "r", encoding="utf-8") as fh:
            source = fh.read()
        findings.extend(lint_source(source, path=file_path, resolver=resolver))
    findings.sort()
    return LintReport(files_scanned=len(files), findings=findings)
