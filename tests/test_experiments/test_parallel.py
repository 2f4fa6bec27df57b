"""Tests for parallel scenario execution."""


from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import default_processes, run_scenarios
from repro.experiments.sweeps import sweep

SMALL = ScenarioConfig(num_jobs=80, num_nodes=16, seed=3)


class TestRunScenarios:
    def test_parallel_equals_sequential(self):
        configs = [SMALL.replace(seed=s) for s in (1, 2, 3)]
        seq = run_scenarios(configs, processes=1)
        par = run_scenarios(configs, processes=3)
        assert [r.metrics for r in seq] == [r.metrics for r in par]

    def test_order_preserved(self):
        configs = [SMALL.replace(seed=s) for s in (5, 1, 9)]
        results = run_scenarios(configs, processes=2)
        assert [r.config.seed for r in results] == [5, 1, 9]

    def test_single_config_runs_inline(self):
        results = run_scenarios([SMALL], processes=8)
        assert len(results) == 1

    def test_zero_configs(self):
        assert run_scenarios([], processes=4) == []

    def test_default_processes_positive(self):
        assert default_processes() >= 1


class TestParallelSweep:
    def test_sweep_results_identical_across_process_counts(self):
        kwargs = dict(
            base=SMALL,
            parameter="arrival_delay_factor",
            x_values=[0.5, 1.0],
            policies=["libra", "librarisk"],
        )
        seq = sweep(**kwargs, processes=1)
        par = sweep(**kwargs, processes=4)
        for metric in ("pct_deadlines_fulfilled", "avg_slowdown"):
            assert seq.series(metric) == par.series(metric)
