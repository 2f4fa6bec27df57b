"""CLI surface of the linter: exit codes, JSON schema, stats, self-check."""

from __future__ import annotations

import io
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint.cli import main as lint_main
from repro.cli import main as repro_main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def _violation_file(tmp_path) -> str:
    path = tmp_path / "bad.py"
    path.write_text(textwrap.dedent("""
        # repro-lint: module=repro.sim.fake
        import time

        def now(t: float) -> bool:
            return t == time.time()
    """))
    return str(path)


def _clean_file(tmp_path) -> str:
    path = tmp_path / "good.py"
    path.write_text(textwrap.dedent("""
        # repro-lint: module=repro.sim.fake
        def advance(sim, dt: float) -> float:
            return sim.now + dt
    """))
    return str(path)


# -- exit codes ---------------------------------------------------------------

def test_exit_zero_on_clean_tree(tmp_path):
    out = io.StringIO()
    assert lint_main([_clean_file(tmp_path)], out=out) == 0
    assert "0 finding(s)" in out.getvalue()


def test_exit_nonzero_on_violations(tmp_path):
    out = io.StringIO()
    assert lint_main([_violation_file(tmp_path)], out=out) == 1
    assert "DET001" in out.getvalue()


def test_exit_nonzero_on_unparseable_file(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n")
    out = io.StringIO()
    assert lint_main([str(path)], out=out) == 1
    assert "error" in out.getvalue()


# -- JSON output schema -------------------------------------------------------

def test_json_output_schema(tmp_path):
    out = io.StringIO()
    code = lint_main([_violation_file(tmp_path), "--format", "json"], out=out)
    assert code == 1
    payload = json.loads(out.getvalue())
    assert set(payload) == {
        "files_checked", "findings", "baselined", "errors", "counts_by_rule",
    }
    assert payload["files_checked"] == 1
    assert payload["counts_by_rule"].keys() >= {"DET001"}
    for finding in payload["findings"]:
        assert set(finding) == {"path", "line", "col", "rule", "message"}
        assert isinstance(finding["line"], int)


# -- baseline workflow --------------------------------------------------------

def test_baseline_write_then_ratchet(tmp_path):
    bad = _violation_file(tmp_path)
    baseline = str(tmp_path / "baseline.json")

    out = io.StringIO()
    assert lint_main([bad, "--baseline", baseline, "--write-baseline"], out=out) == 0

    # Same findings, baselined: clean exit.
    out = io.StringIO()
    assert lint_main([bad, "--baseline", baseline], out=out) == 0
    assert "baselined" in out.getvalue()

    # A NEW violation alongside the baselined ones still fails.
    extra = tmp_path / "worse.py"
    extra.write_text(
        "# repro-lint: module=repro.sim.fake\nimport random\n"
    )
    out = io.StringIO()
    assert lint_main([bad, str(extra), "--baseline", baseline], out=out) == 1


def test_write_baseline_requires_baseline_path(tmp_path):
    with pytest.raises(SystemExit) as exc:
        lint_main([_clean_file(tmp_path), "--write-baseline"], out=io.StringIO())
    assert exc.value.code == 2


# -- stats / observability ----------------------------------------------------

def test_stats_prints_per_rule_counts(tmp_path):
    out = io.StringIO()
    lint_main([_violation_file(tmp_path), "--stats"], out=out)
    text = out.getvalue()
    assert "lint_findings_total{rule=DET001} 2" in text  # import + call
    assert "lint_findings_total{rule=CONC001} 0" in text
    assert "lint_files_checked" in text


def test_stats_metrics_out_feeds_repro_inspect(tmp_path, capsys):
    log = str(tmp_path / "lint.jsonl")
    out = io.StringIO()
    lint_main([_violation_file(tmp_path), "--stats", "--metrics-out", log], out=out)

    # The log is a valid metrics log: `repro inspect --mode prom` reads it.
    assert repro_main(["inspect", log, "--mode", "prom"]) == 0
    prom = capsys.readouterr().out
    assert 'lint_findings_total{rule="DET001"} 2' in prom


def test_metrics_out_requires_stats(tmp_path):
    with pytest.raises(SystemExit) as exc:
        lint_main(
            [_clean_file(tmp_path), "--metrics-out", str(tmp_path / "x.jsonl")],
            out=io.StringIO(),
        )
    assert exc.value.code == 2


# -- entry points -------------------------------------------------------------

def test_list_rules_catalog():
    out = io.StringIO()
    assert lint_main(["--list-rules"], out=out) == 0
    text = out.getvalue()
    for rule_id in ("DET001", "DET002", "DET003", "CONC001", "CONC003", "API001"):
        assert rule_id in text
    assert "CONC002" not in text


def test_repro_lint_subcommand(tmp_path, capsys):
    assert repro_main(["lint", _violation_file(tmp_path)]) == 1
    assert "DET001" in capsys.readouterr().out


def test_python_dash_m_repro_analysis(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", _violation_file(tmp_path)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "DET001" in proc.stdout


# -- the gate itself ----------------------------------------------------------

def test_src_tree_is_lint_clean_with_no_baseline():
    """`repro lint src/` must be clean at head — the CI gate's invariant."""
    out = io.StringIO()
    code = lint_main([str(SRC)], out=out)
    assert code == 0, out.getvalue()


def test_write_baseline_output_is_independent_of_finding_order(tmp_path):
    """The baseline file is a pure function of the finding *set*.

    Discovery order varies with traversal (shell glob vs os.walk vs
    explicit paths); a reordered rewrite must never show up as a diff.
    """
    import random

    from repro.analysis.lint.baseline import write_baseline
    from repro.analysis.lint.findings import Finding

    findings = [
        Finding(path=f"src/m{i % 3}.py", line=10 - i, col=i % 5,
                rule=f"DET00{1 + i % 3}", message=f"violation {i}")
        for i in range(12)
    ]
    reference = tmp_path / "a.json"
    write_baseline(str(reference), findings)

    shuffled = list(findings)
    random.Random(7).shuffle(shuffled)
    rewritten = tmp_path / "b.json"
    write_baseline(str(rewritten), shuffled)

    assert reference.read_bytes() == rewritten.read_bytes()
