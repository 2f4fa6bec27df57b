"""The whole-program rules through the one CLI, `repro lint`.

Every `repro lint` run builds the call graph over its one parse and
reports the whole-program findings with the per-file ones.
"""

from __future__ import annotations

import io
import json
import textwrap
from pathlib import Path

from tests.test_analysis.test_lint_cli import lint_main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def _tainted_file(tmp_path) -> str:
    path = tmp_path / "pol.py"
    path.write_text(textwrap.dedent("""
        # repro-lint: module=repro.scheduling.flowfake
        import time


        class FlowFake:
            def on_job_submitted(self, job, now):
                return time.time()
    """))
    return str(path)


def _clean_file(tmp_path) -> str:
    path = tmp_path / "calm.py"
    path.write_text(textwrap.dedent("""
        # repro-lint: module=repro.scheduling.flowcalm
        class Calm:
            def score(self, job) -> float:
                return job.runtime_estimate
    """))
    return str(path)


# -- exit codes ---------------------------------------------------------------

def test_exit_zero_on_clean_tree(tmp_path):
    out = io.StringIO()
    assert lint_main([_clean_file(tmp_path)], out=out) == 0
    assert "0 finding(s)" in out.getvalue()


def test_exit_one_on_findings(tmp_path):
    out = io.StringIO()
    assert lint_main([_tainted_file(tmp_path)], out=out) == 1
    assert "FLOW001" in out.getvalue()


def test_exit_one_on_unparseable_file(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n")
    out = io.StringIO()
    assert lint_main([str(path)], out=out) == 1
    assert "syntax error" in out.getvalue()


def test_list_rules_covers_all_four(tmp_path):
    out = io.StringIO()
    assert lint_main(["--list-rules", str(tmp_path)], out=out) == 0
    listed = out.getvalue()
    for rule_id in ("FLOW001", "FLOW002", "FLOW004"):
        assert rule_id in listed
    assert "FLOW003" not in listed  # retired: part of CONC001


# -- JSON output --------------------------------------------------------------

def test_json_schema_and_finding_payload(tmp_path):
    out = io.StringIO()
    lint_main([_tainted_file(tmp_path), "--format", "json"], out=out)
    payload = json.loads(out.getvalue())
    assert set(payload) == {
        "files_checked", "findings", "errors", "counts_by_rule", "graph",
    }
    assert payload["files_checked"] == 1
    assert payload["counts_by_rule"] == {"FLOW001": 1}
    (finding,) = payload["findings"]
    assert finding["rule"] == "FLOW001"
    assert "on_job_submitted" in finding["message"]
    assert payload["graph"]["modules"] == 1


def test_json_output_is_byte_identical_across_runs(tmp_path):
    args = [
        _tainted_file(tmp_path), _clean_file(tmp_path), "--format", "json",
    ]
    first, second = io.StringIO(), io.StringIO()
    assert lint_main(args, out=first) == lint_main(args, out=second)
    assert first.getvalue() == second.getvalue()


def test_json_output_independent_of_path_order(tmp_path):
    tainted, clean = _tainted_file(tmp_path), _clean_file(tmp_path)
    first, second = io.StringIO(), io.StringIO()
    lint_main([tainted, clean, "--format", "json"], out=first)
    lint_main([clean, tainted, "--format", "json"], out=second)
    assert first.getvalue() == second.getvalue()


# -- stats --------------------------------------------------------------------

def test_stats_exports_graph_gauges_and_rule_counters(tmp_path):
    out = io.StringIO()
    lint_main([_tainted_file(tmp_path), "--stats"], out=out)
    rendered = out.getvalue()
    assert "lint_findings_total{rule=FLOW001} 1" in rendered
    assert "lint_graph_modules" in rendered
    assert "lint_graph_call_edges" in rendered
    assert "lint_files_checked" in rendered


def test_metrics_out_writes_registry_jsonl(tmp_path):
    metrics = tmp_path / "flow.jsonl"
    out = io.StringIO()
    lint_main(
        [_tainted_file(tmp_path), "--stats", "--metrics-out", str(metrics)],
        out=out,
    )
    lines = [json.loads(line) for line in metrics.read_text().splitlines()]
    assert lines[0]["type"] == "meta"
    assert lines[0]["scenario"] == "lint"
    assert lines[1]["type"] == "registry"


# -- per-file and whole-program findings in one report ------------------------

def test_lint_flow_merges_flow_findings(tmp_path):
    path = tmp_path / "both.py"
    path.write_text(textwrap.dedent("""
        # repro-lint: module=repro.scheduling.flowboth
        import time


        class FlowBoth:
            def on_job_submitted(self, job, now):
                return job.deadline == now, time.time()
    """))
    out = io.StringIO()
    # A per-file rule (DET003) and a whole-program rule (FLOW001) fire
    # on the same parse and land in one sorted report.
    assert lint_main([str(path), "--format", "json"], out=out) == 1
    payload = json.loads(out.getvalue())
    assert payload["counts_by_rule"] == {"DET003": 1, "FLOW001": 1}
    assert payload["findings"] == sorted(
        payload["findings"], key=lambda f: (f["path"], f["line"], f["col"], f["rule"]),
    )


# -- the gate itself ----------------------------------------------------------

def test_src_tree_is_flow_clean():
    """`repro lint src/` reports no whole-program finding at head."""
    out = io.StringIO()
    code = lint_main([str(SRC), "--format", "json"], out=out)
    payload = json.loads(out.getvalue())
    assert code == 0, payload
    assert payload["findings"] == [] and payload["errors"] == []
    assert payload["graph"]["modules"] > 50
