"""CLI surface of the linter: exit codes, JSON schema, stats, self-check."""

from __future__ import annotations

import contextlib
import io
import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as repro_main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def lint_main(argv, out):
    """``repro lint ARGV`` with its standard output captured in ``out``."""
    with contextlib.redirect_stdout(out):
        return repro_main(["lint", *argv])


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
    assert "FLOW001" in out.getvalue()


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
        "files_checked", "findings", "errors", "counts_by_rule", "graph",
    }
    assert payload["files_checked"] == 1
    assert payload["counts_by_rule"].keys() >= {"FLOW001"}
    for finding in payload["findings"]:
        assert set(finding) == {"path", "line", "col", "rule", "message"}
        assert isinstance(finding["line"], int)


# -- file errors --------------------------------------------------------------

def test_each_bad_path_is_one_error_in_one_walk(tmp_path):
    """A broken file and a missing path: one error each, counted once."""
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    missing = str(tmp_path / "missing.py")
    out = io.StringIO()
    assert lint_main([str(broken), missing, "--format", "json"], out=out) == 1
    payload = json.loads(out.getvalue())
    assert sorted(e["path"] for e in payload["errors"]) == sorted([str(broken), missing])
    assert payload["files_checked"] == 2

    out = io.StringIO()
    assert lint_main([str(broken), missing], out=out) == 1
    assert out.getvalue().endswith("0 finding(s) in 2 file(s), 2 file error(s)\n")


# -- stats / observability ----------------------------------------------------

def test_stats_prints_per_rule_counts(tmp_path):
    out = io.StringIO()
    lint_main([_violation_file(tmp_path), "--stats"], out=out)
    text = out.getvalue()
    assert "lint_findings_total{rule=FLOW001} 1" in text
    assert "lint_findings_total{rule=DET003} 1" in text
    assert "lint_findings_total{rule=CONC001} 0" in text
    assert "lint_files_checked" in text
    assert "lint_graph_modules 1" in text


def test_stats_metrics_out_feeds_repro_inspect(tmp_path, capsys):
    log = str(tmp_path / "lint.jsonl")
    out = io.StringIO()
    lint_main([_violation_file(tmp_path), "--stats", "--metrics-out", log], out=out)

    # The log is a valid metrics log: `repro inspect --mode prom` reads it.
    assert repro_main(["inspect", log, "--mode", "prom"]) == 0
    prom = capsys.readouterr().out
    assert 'lint_findings_total{rule="FLOW001"} 1' in prom


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
    listed = [line.split(":")[0] for line in text.splitlines()
              if not line.startswith(" ")]
    assert listed == ["DET002", "DET003", "CONC001", "API001",
                      "FLOW001", "FLOW002", "FLOW004"]


def test_repro_lint_subcommand(tmp_path, capsys):
    assert repro_main(["lint", _violation_file(tmp_path)]) == 1
    assert "FLOW001" in capsys.readouterr().out


def test_help_lists_the_catalog_and_five_flags(capsys):
    with pytest.raises(SystemExit):
        repro_main(["lint", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "DET002, DET003, CONC001, API001, FLOW001, FLOW002, FLOW004" in text
    flags = sorted(set(re.findall(r"--[a-z][a-z-]+", text)))
    assert flags == ["--format", "--help", "--list-rules", "--metrics-out", "--stats"]


# -- the gate itself ----------------------------------------------------------

def test_src_tree_is_lint_clean_with_no_baseline():
    """`repro lint src/` must be clean at head — the CI gate's invariant."""
    out = io.StringIO()
    code = lint_main([str(SRC)], out=out)
    assert code == 0, out.getvalue()
