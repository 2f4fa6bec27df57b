"""Tests for the generic sweep machinery."""


from repro.experiments.config import ScenarioConfig
from repro.experiments.sweeps import sweep

SMALL = ScenarioConfig(num_jobs=80, num_nodes=16, seed=3)


class TestSweep:
    def test_sweeps_config_field(self):
        result = sweep(SMALL, "arrival_delay_factor", [0.5, 1.0], ["libra"])
        assert result.parameter == "arrival_delay_factor"
        assert result.x_values == [0.5, 1.0]
        assert len(result.results["libra"]) == 2
        assert result.results["libra"][0].config.arrival_delay_factor == 0.5

    def test_multiple_policies(self):
        result = sweep(SMALL, "arrival_delay_factor", [1.0], ["edf", "libra"])
        assert set(result.results) == {"edf", "libra"}

    def test_custom_transform(self):
        def set_urgency(cfg, pct):
            return cfg.replace(high_urgency_fraction=pct / 100.0)

        result = sweep(SMALL, "urgency_pct", [0.0, 50.0], ["libra"], transform=set_urgency)
        assert result.results["libra"][1].config.high_urgency_fraction == 0.5

    def test_series_extraction(self):
        result = sweep(SMALL, "arrival_delay_factor", [0.5, 1.0], ["edf", "libra"])
        series = result.series("pct_deadlines_fulfilled")
        assert set(series) == {"edf", "libra"}
        assert len(series["edf"]) == 2
        assert all(0.0 <= v <= 100.0 for v in series["edf"])

    def test_policy_kwargs_label(self):
        result = sweep(
            SMALL, "arrival_delay_factor", [1.0],
            [("librarisk", {"node_order": "index"})],
        )
        assert list(result.results) == ["librarisk:node_order=index"]

    def test_progress_callback_called(self):
        seen = []
        sweep(SMALL, "arrival_delay_factor", [0.5, 1.0], ["libra"],
              progress=seen.append)
        assert len(seen) == 2
        assert "arrival_delay_factor=0.5" in seen[0]
