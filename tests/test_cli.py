"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestBasicCommands:
    def test_policies(self, capsys):
        code, out = run_cli(capsys, "policies")
        assert code == 0
        for name in ("edf", "libra", "librarisk"):
            assert name in out

    def test_trace_stats(self, capsys):
        code, out = run_cli(capsys, "trace-stats", "--jobs", "100")
        assert code == 0
        assert "mean_runtime_h" in out
        assert "synthetic" in out

    def test_trace_stats_describes_the_scenario_it_names(self, capsys):
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.reporting import render_table
        from repro.experiments.runner import load_base_records
        from repro.workload.traces import describe_records

        code, out = run_cli(capsys, "trace-stats", "--jobs", "300", "--nodes", "16")
        assert code == 0
        stats = describe_records(load_base_records(ScenarioConfig(num_jobs=300, num_nodes=16)))
        assert stats["max_procs"] <= 16.0
        table = render_table(["statistic", "value"], sorted(stats.items()), float_fmt="{:.3f}")
        assert out == f"workload: synthetic SDSC-SP2-like (seed=42)\n{table}\n"

    def test_run_single_scenario(self, capsys):
        code, out = run_cli(
            capsys, "run", "--policy", "libra", "--jobs", "60", "--nodes", "16"
        )
        assert code == 0
        assert "pct_deadlines_fulfilled" in out
        assert "simulated horizon" in out

    def test_compare(self, capsys):
        code, out = run_cli(capsys, "compare", "--jobs", "50", "--nodes", "16")
        assert code == 0
        assert "librarisk" in out and "edf" in out


class TestFigureCommands:
    def test_figure1_table(self, capsys):
        code, out = run_cli(capsys, "figures", "--only", "1", "--jobs", "60", "--nodes", "16")
        assert "Figure 1" in out and "Figure 2" not in out
        assert "(a)" in out and "(d)" in out
        # At this scale two Figure 1 claims fail, and the exit says so.
        assert "[FAIL] F1.edf-lowest-slowdown" in out
        assert code == 1

    def test_figure_chart_mode(self, capsys):
        code, out = run_cli(
            capsys, "figures", "--only", "3", "--jobs", "60", "--nodes", "16",
            "--format", "chart",
        )
        assert code == (1 if "[FAIL]" in out else 0)
        assert "*=edf" in out and "o=libra" in out and "+=librarisk" in out
        assert "+-" in out  # an axis was drawn

    def test_figure4_csv(self, capsys):
        code, out = run_cli(
            capsys, "figures", "--only", "4", "--jobs", "50", "--nodes", "16",
            "--format", "csv",
        )
        assert code == (1 if "[FAIL]" in out else 0)
        assert "# panel (a)" in out
        assert "% of inaccuracy,edf,libra,librarisk" in out

    def test_unknown_policy_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--policy", "quantum"])
        with pytest.raises(SystemExit):
            main(["figures", "--only", "5"])

    def test_run_with_inaccuracy_mode(self, capsys):
        code, out = run_cli(
            capsys, "run", "--policy", "librarisk", "--jobs", "50", "--nodes", "16",
            "--estimate-mode", "inaccuracy", "--inaccuracy", "40",
        )
        assert code == 0

    def test_trace_stats_from_file(self, capsys, tmp_path):
        from repro.sim.rng import RngStreams
        from repro.workload.swf import write_swf_file
        from repro.workload.synthetic import SDSCSP2Model, generate_sdsc_like_records

        path = tmp_path / "t.swf"
        write_swf_file(
            path, generate_sdsc_like_records(SDSCSP2Model(num_jobs=80), RngStreams(seed=1))
        )
        code, out = run_cli(capsys, "trace-stats", "--trace", str(path), "--jobs", "50")
        assert code == 0
        assert str(path) in out


class TestValidateCommand:
    def test_validate_prints_claim_report(self, capsys):
        code, out = run_cli(
            capsys, "figures", "--jobs", "150", "--nodes", "64", "--only", "4"
        )
        assert "paper claims hold" in out
        assert "F4." in out
        assert code == (1 if "[FAIL]" in out else 0)

    def test_json_record_is_the_checked_in_golden(self, capsys):
        from tests.test_experiments.test_paper_record import GOLDEN

        code, out = run_cli(
            capsys, "figures", "--jobs", "60", "--nodes", "16", "--format", "json"
        )
        assert out == GOLDEN.read_text(encoding="utf-8")
        assert code == 1  # 4 of the 35 claims fail at this scale


class TestReplicateCommand:
    def test_replicate_reports_ci_and_pairing(self, capsys):
        code, out = run_cli(
            capsys, "replicate", "--jobs", "80", "--nodes", "16",
            "--seeds", "1", "2", "--policies", "libra", "librarisk",
        )
        assert code == 0
        assert "±" in out
        assert "paired librarisk − libra" in out

    def test_replicate_without_pair_skips_comparison(self, capsys):
        code, out = run_cli(
            capsys, "replicate", "--jobs", "60", "--nodes", "16",
            "--seeds", "1", "--policies", "edf",
        )
        assert code == 0
        assert "paired" not in out


class TestSensitivityCommand:
    def test_sensitivity_table(self, capsys):
        code, out = run_cli(
            capsys, "sensitivity", "--jobs", "60", "--nodes", "16",
            "--policy", "libra",
        )
        assert code == 0
        assert "Sensitivity of libra" in out
        assert "most sensitive knob:" in out


class TestRobustnessCommand:
    def test_robustness_grid(self, capsys):
        code, out = run_cli(capsys, "robustness", "--jobs", "60", "--nodes", "16")
        assert code == 0
        assert "MTBF" in out
        assert "librarisk" in out


class TestParser:
    def test_missing_command_prints_usage(self, capsys):
        code, out = run_cli(capsys)
        assert code == 2
        assert "usage: repro" in out

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()


class TestObservabilityFlags:
    def test_run_metrics_out_and_profile(self, capsys, tmp_path):
        path = tmp_path / "m.jsonl"
        code, out = run_cli(
            capsys, "run", "--policy", "librarisk", "--jobs", "60", "--nodes", "16",
            "--metrics-out", str(path), "--profile",
        )
        assert code == 0
        assert f"wrote" in out and str(path) in out
        assert "-- profile" in out
        assert "events/s" in out

        from repro.obs.exporters import read_jsonl

        records = read_jsonl(str(path))
        kinds = {r["type"] for r in records}
        assert {"meta", "decision", "transition", "span",
                "metrics", "registry", "profile"} <= kinds
        rejected = [r for r in records if r["type"] == "decision"
                    and r["outcome"] == "rejected"]
        assert rejected and all(r.get("reason") for r in rejected)

    def test_run_prom_out(self, capsys, tmp_path):
        path = tmp_path / "metrics.prom"
        code, _ = run_cli(
            capsys, "run", "--policy", "libra", "--jobs", "40", "--nodes", "8",
            "--prom-out", str(path),
        )
        assert code == 0
        text = path.read_text()
        assert "# TYPE admission_decisions_total counter" in text
        assert 'policy="libra"' in text

    def test_figure_metrics_out_captures_every_run(self, capsys, tmp_path):
        path = tmp_path / "fig.jsonl"
        code, out = run_cli(
            capsys, "figures", "--only", "1", "--jobs", "40", "--nodes", "8",
            "--metrics-out", str(path),
        )
        assert code == (1 if "[FAIL]" in out else 0)
        from repro.obs.exporters import read_jsonl

        metas = [r for r in read_jsonl(str(path)) if r["type"] == "meta"]
        # Two estimate modes × 10 arrival delay factors × 3 policies.
        assert len(metas) == 60
        assert "wrote metrics for 60 runs" in out

    def test_inspect_report(self, capsys, tmp_path):
        path = tmp_path / "m.jsonl"
        run_cli(
            capsys, "run", "--policy", "edf", "--jobs", "50", "--nodes", "8",
            "--metrics-out", str(path),
        )
        code, out = run_cli(capsys, "inspect", str(path))
        assert code == 0
        assert "admission:" in out
        assert "final metrics:" in out

    def test_inspect_prom_mode(self, capsys, tmp_path):
        path = tmp_path / "m.jsonl"
        run_cli(
            capsys, "run", "--policy", "libra", "--jobs", "40", "--nodes", "8",
            "--metrics-out", str(path),
        )
        code, out = run_cli(capsys, "inspect", str(path), "--mode", "prom")
        assert code == 0
        assert "sim_events_total" in out

    def test_inspect_decisions_mode_filters_policy(self, capsys, tmp_path):
        path = tmp_path / "m.jsonl"
        run_cli(
            capsys, "run", "--policy", "librarisk", "--jobs", "50", "--nodes", "8",
            "--metrics-out", str(path),
        )
        code, out = run_cli(
            capsys, "inspect", str(path), "--mode", "decisions",
            "--policy", "librarisk",
        )
        assert code == 0
        assert "librarisk" in out
        code, out = run_cli(
            capsys, "inspect", str(path), "--mode", "decisions", "--policy", "edf"
        )
        assert code == 0
        assert out.strip() == ""

    def test_inspect_windows_output_is_pinned(self, capsys, tmp_path):
        """Windowed loss ratio over a two-run, two-policy log."""
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.runner import run_scenario
        from repro.obs.session import RunSink

        path = tmp_path / "m.jsonl"
        with RunSink(path=str(path)):
            for policy in ("edf", "librarisk"):
                run_scenario(ScenarioConfig(
                    policy=policy, num_jobs=400, num_nodes=8, seed=3,
                ))
        code, out = run_cli(capsys, "inspect", str(path), "--mode", "windows")
        assert code == 0
        assert out == (
            "window: trailing 3600s at t=1.05428e+06s\n"
            "edf: submitted=7 rejected=3 loss_ratio=0.4286\n"
            "         3  <other>\n"
            "librarisk: submitted=0 rejected=0 loss_ratio=0.0000\n"
        )
        code, out = run_cli(
            capsys, "inspect", str(path), "--mode", "windows", "--window", "259200",
        )
        assert code == 0
        zero_risk = "required nodes are zero-risk (σ_j > 0 on"
        assert out == (
            "window: trailing 259200s at t=1.05428e+06s\n"
            "edf: submitted=72 rejected=37 loss_ratio=0.5139\n"
            "        37  <other>\n"
            "librarisk: submitted=54 rejected=26 loss_ratio=0.4815\n"
            f"        10  only 0 of 1 {zero_risk} 8/8 online nodes)\n"
            f"         3  only 4 of 8 {zero_risk} 4/8 online nodes)\n"
            f"         2  only 0 of 2 {zero_risk} 8/8 online nodes)\n"
            f"         2  only 0 of 4 {zero_risk} 8/8 online nodes)\n"
            f"         2  only 6 of 8 {zero_risk} 2/8 online nodes)\n"
            f"         2  only 7 of 8 {zero_risk} 1/8 online nodes)\n"
            f"         1  only 1 of 4 {zero_risk} 7/8 online nodes)\n"
            f"         1  only 2 of 4 {zero_risk} 6/8 online nodes)\n"
            f"         1  only 2 of 8 {zero_risk} 6/8 online nodes)\n"
            f"         1  only 3 of 8 {zero_risk} 5/8 online nodes)\n"
            f"         1  only 5 of 8 {zero_risk} 3/8 online nodes)\n"
        )


class TestServiceCommands:
    def test_replay_in_process_prints_metrics(self, capsys, tmp_path):
        path = tmp_path / "replay.jsonl"
        code, out = run_cli(
            capsys, "replay", "--policy", "librarisk", "--jobs", "40",
            "--nodes", "8", "--metrics-out", str(path),
        )
        assert code == 0
        assert "replayed 40 jobs" in out
        assert "pct_deadlines_fulfilled" in out
        assert path.exists()

    def test_replay_matches_batch_run_metrics(self, capsys):
        code, replay_out = run_cli(
            capsys, "replay", "--policy", "libra", "--jobs", "50", "--nodes", "8",
        )
        assert code == 0
        code, run_out = run_cli(
            capsys, "run", "--policy", "libra", "--jobs", "50", "--nodes", "8",
        )
        assert code == 0
        # Both render the same metrics table rows.
        pick = [l for l in replay_out.splitlines() if "pct_deadlines_fulfilled" in l]
        assert pick and pick[0] in run_out

    def test_replay_against_dead_server_fails(self, capsys):
        code = main(["replay", "--url", "http://127.0.0.1:9", "--jobs", "10"])
        assert code == 1

    def test_inspect_decisions_json_lines(self, capsys, tmp_path):
        path = tmp_path / "m.jsonl"
        run_cli(
            capsys, "run", "--policy", "librarisk", "--jobs", "40", "--nodes", "8",
            "--metrics-out", str(path),
        )
        code, out = run_cli(
            capsys, "inspect", str(path), "--mode", "decisions", "--json",
        )
        assert code == 0
        import json

        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines and all(r["type"] == "decision" for r in lines)

    def test_serve_and_replay_over_http(self, capsys, tmp_path):
        # Boot the real server off the CLI plumbing (ephemeral port, in a
        # thread via ServiceServer) and drive it with `repro replay --url`.
        from repro.service.engine import AdmissionEngine, EngineConfig
        from repro.service.server import AdmissionService
        from repro.service.server import ServiceServer

        engine = AdmissionEngine(EngineConfig(policy="librarisk", num_nodes=8))
        server = ServiceServer(AdmissionService(engine), port=0).start()
        try:
            code, out = run_cli(
                capsys, "replay", "--url", server.url, "--jobs", "15",
                "--nodes", "8", "--drain",
            )
            assert code == 0
            assert "15 requests" in out
            assert "server stats:" in out
            assert "pct_deadlines_fulfilled" in out
        finally:
            server.stop()

    def test_replay_with_retries_reports_client_counters(self, capsys):
        # `--retries N` swaps in the retrying client; its counters are the
        # `client:` line, and there is no client-side breaker to report.
        from repro.service.engine import AdmissionEngine, EngineConfig
        from repro.service.server import AdmissionService
        from repro.service.server import ServiceServer

        engine = AdmissionEngine(EngineConfig(policy="librarisk", num_nodes=8))
        server = ServiceServer(AdmissionService(engine), port=0).start()
        try:
            code, out = run_cli(
                capsys, "replay", "--url", server.url, "--jobs", "10",
                "--nodes", "8", "--retries", "3",
            )
        finally:
            server.stop()
        assert code == 0
        client = [line for line in out.splitlines() if line.startswith("client:")]
        assert client == ["client: attempts=10, retries=0"]
        assert "fast_failures" not in out
