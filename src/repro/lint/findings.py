"""The :class:`Finding` record every lint rule produces.

A finding is plain data -- code, location, message -- plus the
stripped source line it points at (``snippet``), which the engine
attaches for the text and JSON reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        path: display path of the file (module-relative when the file
            lives under a ``repro/`` package, as given otherwise).
        line: 1-based line of the offending node.
        col: 0-based column of the offending node.
        code: rule code, e.g. ``"RPR103"``.
        message: human-readable description of the violation.
        snippet: the stripped source line, for the reports; attached by
            the engine via :func:`attach_snippets`.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    snippet: str = ""

    def location(self) -> str:
        """``path:line:col`` prefix used by the text formatter."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form for the JSON report (sorted-key friendly)."""
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }


def attach_snippets(
    findings: Sequence[Finding], lines: Sequence[str]
) -> List[Finding]:
    """Sort raw rule output and fill each finding's ``snippet``.

    Args:
        findings: raw findings for one file, any order.
        lines: that file's source lines (1-based ``finding.line``).
    """
    out = []
    for finding in sorted(findings):
        snippet = ""
        if 1 <= finding.line <= len(lines):
            snippet = lines[finding.line - 1].strip()
        out.append(replace(finding, snippet=snippet))
    return out
