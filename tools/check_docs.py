"""Docs gate: markdown links must resolve, docstring examples must run.

Two checks, both fatal on failure:

1. Every relative link/image in the repo's markdown files (root + docs/)
   points at an existing file, and every ``file.md#anchor`` link targets
   a heading that actually exists (GitHub-style slugs). Inline-code
   repository paths (``src/...``, ``tests/...::test_name`` and the like)
   in README.md and docs/ must exist too.
2. The runnable examples embedded in the public ``repro.sim`` API
   docstrings pass under :mod:`doctest`.
3. Interactive (``>>>``) examples inside ``python`` code fences in the
   markdown docs pass under :mod:`doctest` too -- the docs cannot show
   a session the code no longer produces.

Run from the repository root (CI's docs job does exactly this):

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import doctest
import importlib
import re
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown files checked for dead links.
MARKDOWN_GLOBS = ("*.md", "docs/*.md")

#: Markdown files whose inline-code repository paths must exist: the
#: user-facing docs. The change log and plans name files that later
#: changes removed, and the reference notes quote other repositories.
CODE_PATH_GLOBS = ("README.md", "docs/*.md")

#: Modules whose docstring examples are executed.
DOCTEST_MODULES = (
    "repro.exec.cache",
    "repro.exec.demo",
    "repro.exec.executor",
    "repro.exec.faults",
    "repro.exec.jobspec",
    "repro.exec.queue",
    "repro.exec.worker",
    "repro.lint.engine",
    "repro.obs.recorder",
    "repro.schemas",
    "repro.seeding",
    "repro.sim.campaign",
    "repro.sim.generators",
    "repro.sim.registry",
    "repro.sim.results",
    "repro.sim.runner",
    "repro.sim.scenario",
)

_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
#: An inline-code span holding a repository path, minus any
#: ``::test`` suffix.
_CODE_PATH_RE = re.compile(
    r"`((?:src|tests|benchmarks|tools|examples|docs|perfbench)/[^`\s:]*)"
    r"(?:::[\w\[\]:.-]+)?`"
)
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _slugify(heading: str) -> str:
    """GitHub-style anchor slug of a markdown heading."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors_of(path: Path) -> set:
    return {_slugify(h) for h in _HEADING_RE.findall(path.read_text(encoding="utf-8"))}


def check_markdown_links() -> List[str]:
    """Dead relative links/anchors across the repo's markdown files."""
    errors = []
    files = sorted(
        {f for pattern in MARKDOWN_GLOBS for f in REPO_ROOT.glob(pattern)}
    )
    user_docs = {f for pattern in CODE_PATH_GLOBS for f in REPO_ROOT.glob(pattern)}
    for md in files:
        text = md.read_text(encoding="utf-8")
        rel = md.relative_to(REPO_ROOT)
        for target in _LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            if not path_part:  # same-file anchor
                if anchor and _slugify(anchor) not in _anchors_of(md):
                    errors.append(f"{rel}: broken anchor #{anchor}")
                continue
            resolved = (md.parent / path_part).resolve()
            if not resolved.exists():
                errors.append(f"{rel}: broken link {target}")
                continue
            if anchor and resolved.suffix == ".md":
                if _slugify(anchor) not in _anchors_of(resolved):
                    errors.append(f"{rel}: broken anchor {target}")
        if md not in user_docs:
            continue
        for path in _CODE_PATH_RE.findall(text):
            if not (REPO_ROOT / path).exists():
                errors.append(f"{rel}: `{path}` does not exist")
    return errors


def run_doctests() -> List[str]:
    """Docstring example failures across the public sim API."""
    errors = []
    for name in DOCTEST_MODULES:
        module = importlib.import_module(name)
        result = doctest.testmod(module, verbose=False)
        if result.failed:
            errors.append(f"{name}: {result.failed}/{result.attempted} examples failed")
        elif result.attempted == 0 and name != "repro.seeding":
            errors.append(f"{name}: expected at least one docstring example")
    return errors


_FENCE_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def run_markdown_doctests() -> List[str]:
    """Failures of ``>>>`` examples in markdown ``python`` fences."""
    errors = []
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(verbose=False)
    files = sorted(
        {f for pattern in MARKDOWN_GLOBS for f in REPO_ROOT.glob(pattern)}
    )
    for md in files:
        rel = str(md.relative_to(REPO_ROOT))
        text = md.read_text(encoding="utf-8")
        for idx, fence in enumerate(_FENCE_RE.findall(text)):
            if ">>>" not in fence:
                continue  # illustrative snippet, not a session transcript
            test = parser.get_doctest(
                fence, {}, f"{rel}[fence {idx}]", rel, 0
            )
            result = runner.run(test, clear_globs=True)
            if result.failed:
                errors.append(
                    f"{rel}: fence {idx}: "
                    f"{result.failed}/{result.attempted} examples failed"
                )
    return errors


def main() -> int:
    errors = check_markdown_links()
    errors += run_doctests()
    errors += run_markdown_doctests()
    if errors:
        for err in errors:
            print(f"FAIL {err}", file=sys.stderr)
        return 1
    print("docs OK: links resolve, docstring examples pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
