"""Engine semantics: suppressions, JSON report, CLI, meta-test.

The meta-test at the bottom is the linter's own acceptance gate: the
repo's ``src/`` tree must produce zero findings. Any determinism
violation introduced anywhere in the codebase fails the tier-1 suite
here before it ever reaches CI's dedicated lint job.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.lint import lint_paths, lint_source
from repro.lint.__main__ import main as lint_main
from repro import schemas

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BAD_SOURCE = "import numpy as np\nrng = np.random.default_rng()\n"


def codes(source, path="repro/sim/snippet.py"):
    return [f.code for f in lint_source(source, path=path)]


# -- inline suppressions -------------------------------------------------


def test_suppression_with_reason_silences():
    src = (
        "import numpy as np\n"
        "rng = np.random.default_rng()"
        "  # repro: noqa[RPR101] fixture helper, never hashed\n"
    )
    assert codes(src) == []


def test_suppression_missing_reason_is_rejected_and_does_not_suppress():
    src = (
        "import numpy as np\n"
        "rng = np.random.default_rng()  # repro: noqa[RPR101]\n"
    )
    assert sorted(codes(src)) == ["RPR001", "RPR101"]


def test_unused_suppression_flagged():
    src = "x = 1  # repro: noqa[RPR102] nothing here actually needs this\n"
    assert codes(src) == ["RPR002"]


def test_suppression_only_covers_listed_codes():
    src = (
        "import numpy as np, time\n"
        "rng = np.random.default_rng()  # repro: noqa[RPR102] wrong code\n"
    )
    # the RPR102 suppression is unused AND the RPR101 finding survives
    assert sorted(codes(src)) == ["RPR002", "RPR101"]


def test_suppression_in_string_literal_is_inert():
    """Only real comment tokens count; strings mentioning the syntax don't."""
    src = 'HELP = "write # repro: noqa[RPR101] with a reason"\n'
    assert codes(src) == []


def test_parse_error_reported_as_rpr000():
    assert codes("def broken(:\n") == ["RPR000"]


# -- JSON report ---------------------------------------------------------


@pytest.fixture
def bad_tree(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(BAD_SOURCE)
    return tmp_path


def test_report_json_document(bad_tree):
    report = lint_paths([str(bad_tree)])
    doc = report.to_dict()
    assert sorted(doc) == ["files_scanned", "findings", "schema"]
    assert doc["schema"] == schemas.LINT_REPORT_SCHEMA
    assert doc["files_scanned"] == 2
    [finding] = doc["findings"]
    assert sorted(finding) == ["code", "col", "line", "message", "path", "snippet"]
    assert finding["code"] == "RPR101"
    assert finding["path"].endswith("mod.py")
    assert finding["snippet"] == "rng = np.random.default_rng()"
    # the document is canonical-JSON clean (string keys, plain data)
    assert json.loads(json.dumps(doc, sort_keys=True)) == doc


# -- CLI -----------------------------------------------------------------


def test_cli_exit_codes(bad_tree, capsys):
    target = str(bad_tree)

    assert lint_main([target]) == 1
    out = capsys.readouterr().out
    assert "RPR101" in out and "2 files scanned: 1 finding(s)" in out

    (bad_tree / "repro" / "mod.py").write_text("x = 1\n")
    assert lint_main([target]) == 0
    assert "2 files scanned: 0 finding(s)" in capsys.readouterr().out


def test_cli_missing_path_is_usage_error(bad_tree, tmp_path, monkeypatch, capsys):
    missing = str(tmp_path / "no-such-dir")
    assert lint_main([str(bad_tree), missing]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: no such file or directory: {missing}" in captured.err

    # the default path is ``src``, relative to the working directory
    monkeypatch.chdir(tmp_path)
    assert lint_main([]) == 2
    assert "error: no such file or directory: src" in capsys.readouterr().err


def test_cli_non_python_file_is_usage_error(bad_tree, capsys):
    notes = bad_tree / "README.md"
    notes.write_text("# it's not Python\n")
    assert lint_main([str(bad_tree / "repro" / "mod.py"), str(notes)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: not a Python file: {notes}" in captured.err


def test_cli_json_format(bad_tree, capsys):
    assert lint_main([str(bad_tree), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == schemas.LINT_REPORT_SCHEMA
    assert [f["code"] for f in doc["findings"]] == ["RPR101"]


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("RPR101", "RPR102", "RPR103", "RPR104", "RPR105", "RPR106"):
        assert code in out


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--list-rules"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert "RPR101" in proc.stdout


# -- meta: the repo lints clean ------------------------------------------


def test_repo_source_tree_lints_clean():
    report = lint_paths([os.path.join(REPO_ROOT, "src")])
    assert report.files_scanned > 100
    details = "\n".join(
        f"{f.location()}: {f.code} {f.message}" for f in report.findings
    )
    assert report.findings == [], details
