"""Tests for the scenario runner."""


from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import (
    build_scenario_jobs,
    load_base_records,
    run_policies,
    run_scenario,
)

SMALL = ScenarioConfig(num_jobs=150, num_nodes=32, seed=11)


class TestDeterminism:
    def test_same_config_same_metrics(self):
        a = run_scenario(SMALL)
        b = run_scenario(SMALL)
        assert a.metrics == b.metrics
        assert a.events == b.events
        assert a.horizon == b.horizon

    def test_different_seed_different_outcome(self):
        a = run_scenario(SMALL)
        b = run_scenario(SMALL.replace(seed=12))
        assert a.metrics != b.metrics

    def test_policies_see_identical_workloads(self):
        jobs_a = build_scenario_jobs(SMALL.replace(policy="edf"))
        jobs_b = build_scenario_jobs(SMALL.replace(policy="librarisk"))
        assert [(j.runtime, j.submit_time, j.deadline, j.numproc) for j in jobs_a] == \
               [(j.runtime, j.submit_time, j.deadline, j.numproc) for j in jobs_b]


class TestRunScenario:
    def test_result_fields(self):
        result = run_scenario(SMALL)
        assert result.config is SMALL
        assert result.events > 0
        assert result.horizon > 0
        assert result.elapsed >= 0
        assert 0.0 <= result.metrics.pct_deadlines_fulfilled <= 100.0

    def test_all_jobs_accounted_for(self):
        result = run_scenario(SMALL)
        m = result.metrics
        assert m.total_submitted == 150
        assert m.accepted + m.rejected == m.total_submitted
        assert m.completed + m.unfinished == m.accepted

    def test_prebuilt_jobs_accepted(self):
        jobs = build_scenario_jobs(SMALL)
        result = run_scenario(SMALL, jobs=jobs)
        assert result.metrics.total_submitted == 150

    def test_str_is_informative(self):
        out = str(run_scenario(SMALL))
        assert "fulfilled=" in out and "librarisk" in out


class TestRunPolicies:
    def test_runs_each_policy(self):
        results = run_policies(SMALL, ["edf", "libra", "librarisk"])
        assert set(results) == {"edf", "libra", "librarisk"}

    def test_kwargs_variant(self):
        results = run_policies(SMALL, [("librarisk", {"node_order": "index"})])
        assert results["librarisk"].config.policy_kwargs == {"node_order": "index"}

    def test_duplicate_names_suffixed(self):
        results = run_policies(
            SMALL,
            [("librarisk", {}), ("librarisk", {"suitability": "no-delay"})],
        )
        assert set(results) == {"librarisk", "librarisk#2"}


class TestLoadBaseRecords:
    def test_synthetic_by_default(self):
        records = load_base_records(SMALL)
        assert len(records) == 150

    def test_real_trace_when_path_given(self, tmp_path):
        from repro.workload.swf import write_swf_file
        from repro.workload.synthetic import SDSCSP2Model, generate_sdsc_like_records
        from repro.sim.rng import RngStreams

        trace = tmp_path / "trace.swf"
        records = generate_sdsc_like_records(SDSCSP2Model(num_jobs=300), RngStreams(seed=5))
        write_swf_file(trace, records.to_records())

        cfg = SMALL.replace(trace_path=str(trace), num_jobs=100)
        loaded = load_base_records(cfg)
        assert len(loaded) == 100  # tail subset
        assert loaded.submit_time[0] == 0.0

    def test_trace_scenario_runs_end_to_end(self, tmp_path):
        from repro.workload.swf import write_swf_file
        from repro.workload.synthetic import SDSCSP2Model, generate_sdsc_like_records
        from repro.sim.rng import RngStreams

        trace = tmp_path / "trace.swf"
        write_swf_file(
            trace,
            generate_sdsc_like_records(SDSCSP2Model(num_jobs=200), RngStreams(seed=5)).to_records(),
        )
        cfg = SMALL.replace(trace_path=str(trace), num_jobs=120)
        result = run_scenario(cfg)
        assert result.metrics.total_submitted == 120
