"""End-to-end checks of the paper's qualitative claims (§5).

Run at a reduced but still meaningful scale (1200 jobs, the full
128-node machine) so the suite stays fast; the full 3000-job runs live
in the benchmark harness and EXPERIMENTS.md.
"""

import pytest

from repro.experiments.compare import dominance_fraction
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_policies

BASE = ScenarioConfig(num_jobs=1200, num_nodes=128, seed=42)


@pytest.fixture(scope="module")
def accurate():
    return run_policies(BASE.replace(estimate_mode="accurate"), ["edf", "libra", "librarisk"])


@pytest.fixture(scope="module")
def trace():
    return run_policies(BASE.replace(estimate_mode="trace"), ["edf", "libra", "librarisk"])


def fulfilled(results, name):
    return results[name].metrics.pct_deadlines_fulfilled


def slowdown(results, name):
    return results[name].metrics.avg_slowdown


class TestAccurateEstimates:
    """Paper §5.1, panels (a)/(c) of Figures 1–3."""

    def test_libra_fulfils_more_than_edf(self, accurate):
        assert fulfilled(accurate, "libra") > fulfilled(accurate, "edf")

    def test_librarisk_matches_libra(self, accurate):
        assert fulfilled(accurate, "librarisk") == pytest.approx(
            fulfilled(accurate, "libra"), abs=1.0
        )

    def test_libra_and_librarisk_same_slowdown(self, accurate):
        assert slowdown(accurate, "librarisk") == pytest.approx(
            slowdown(accurate, "libra"), rel=0.02
        )

    def test_edf_has_lowest_slowdown(self, accurate):
        assert slowdown(accurate, "edf") < slowdown(accurate, "libra")

    def test_everything_ends_completed_or_rejected(self, accurate):
        for res in accurate.values():
            assert res.metrics.unfinished == 0


class TestTraceEstimates:
    """Paper §5.1, panels (b)/(d): the headline result."""

    def test_everyone_worse_than_with_accurate_estimates(self, accurate, trace):
        for name in ("edf", "libra", "librarisk"):
            assert fulfilled(trace, name) < fulfilled(accurate, name)

    def test_librarisk_fulfils_many_more_jobs_than_libra(self, trace):
        # The paper reports substantial improvements (tens of percent).
        improvement = fulfilled(trace, "librarisk") - fulfilled(trace, "libra")
        assert improvement > 10.0

    def test_librarisk_slowdown_below_libra(self, trace):
        assert slowdown(trace, "librarisk") < slowdown(trace, "libra")

    def test_edf_still_lowest_slowdown(self, trace):
        assert slowdown(trace, "edf") < slowdown(trace, "librarisk")


class TestVaryingWorkload:
    """Paper §5.2 / Figure 1: EDF wins only under the heaviest load."""

    @pytest.fixture(scope="class")
    def sweep_accurate(self):
        from repro.experiments.sweeps import sweep

        return sweep(
            BASE.replace(estimate_mode="accurate"),
            "arrival_delay_factor",
            [0.1, 0.5, 1.0],
            ["edf", "libra", "librarisk"],
        )

    def test_edf_beats_libra_at_heaviest_load(self, sweep_accurate):
        s = sweep_accurate.series("pct_deadlines_fulfilled")
        assert s["edf"][0] > s["libra"][0]

    def test_libra_wins_at_light_load(self, sweep_accurate):
        s = sweep_accurate.series("pct_deadlines_fulfilled")
        assert s["libra"][-1] > s["edf"][-1]

    def test_libra_improves_with_lighter_load(self, sweep_accurate):
        s = sweep_accurate.series("pct_deadlines_fulfilled")
        assert s["libra"] == sorted(s["libra"])


class TestVaryingHighUrgency:
    """Paper §5.4 / Figure 3: LibraRisk's advantage grows with urgency."""

    @pytest.fixture(scope="class")
    def sweep_urgency(self):
        from repro.experiments.sweeps import sweep

        def set_urgency(cfg, pct):
            return cfg.replace(high_urgency_fraction=pct / 100.0)

        return sweep(
            BASE.replace(estimate_mode="trace"),
            "urgency_pct",
            [20.0, 80.0],
            ["edf", "libra", "librarisk"],
            transform=set_urgency,
        )

    def test_libra_degrades_with_urgency(self, sweep_urgency):
        s = sweep_urgency.series("pct_deadlines_fulfilled")
        assert s["libra"][1] < s["libra"][0]

    def test_librarisk_improvement_grows_with_urgency(self, sweep_urgency):
        s = sweep_urgency.series("pct_deadlines_fulfilled")
        gain_low = s["librarisk"][0] - s["libra"][0]
        gain_high = s["librarisk"][1] - s["libra"][1]
        assert gain_high > gain_low

    def test_librarisk_dominates_both_at_all_urgencies(self, sweep_urgency):
        s = sweep_urgency.series("pct_deadlines_fulfilled")
        assert dominance_fraction(s["librarisk"], s["libra"]) == 1.0


class TestVaryingInaccuracy:
    """Paper §5.5 / Figure 4."""

    @pytest.fixture(scope="class")
    def sweep_inaccuracy(self):
        from repro.experiments.sweeps import sweep

        return sweep(
            BASE.replace(estimate_mode="inaccuracy"),
            "inaccuracy_pct",
            [0.0, 50.0, 100.0],
            ["libra", "librarisk"],
        )

    def test_fulfilment_degrades_with_inaccuracy(self, sweep_inaccuracy):
        s = sweep_inaccuracy.series("pct_deadlines_fulfilled")
        assert s["libra"][-1] < s["libra"][0]

    def test_librarisk_degrades_least(self, sweep_inaccuracy):
        s = sweep_inaccuracy.series("pct_deadlines_fulfilled")
        drop_libra = s["libra"][0] - s["libra"][-1]
        drop_risk = s["librarisk"][0] - s["librarisk"][-1]
        assert drop_risk < drop_libra

    def test_equal_at_zero_inaccuracy(self, sweep_inaccuracy):
        s = sweep_inaccuracy.series("pct_deadlines_fulfilled")
        assert s["librarisk"][0] == pytest.approx(s["libra"][0], abs=1.0)

    def test_librarisk_mean_improvement_substantial(self, sweep_inaccuracy):
        s = sweep_inaccuracy.series("pct_deadlines_fulfilled")
        gains = [100.0 * (r - l) / l for r, l in zip(s["librarisk"][1:], s["libra"][1:])]
        assert sum(gains) / len(gains) > 10.0
