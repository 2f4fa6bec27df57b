"""Tests for the failure-robustness runner and its record section."""

import pytest

from repro.experiments import record
from repro.experiments.config import ScenarioConfig
from repro.experiments.record import as_table, build_record
from repro.experiments.robustness import run_with_failures

SMALL = ScenarioConfig(num_jobs=100, num_nodes=16, seed=23, estimate_mode="trace")


class TestRunWithFailures:
    def test_no_failures_baseline(self):
        cell = run_with_failures(SMALL.replace(policy="libra"), mtbf_hours=None)
        assert cell["node_failures"] == 0
        assert cell["failed"] == 0

    def test_aggressive_failures_kill_jobs(self):
        cell = run_with_failures(SMALL.replace(policy="libra"), mtbf_hours=10.0)
        assert cell["node_failures"] > 0
        assert cell["failed"] > 0

    def test_everything_terminal_despite_failures(self):
        m = run_with_failures(SMALL.replace(policy="librarisk"), mtbf_hours=10.0)
        assert m["unfinished"] == 0
        assert m["accepted"] == m["completed"] + m["failed"]

    def test_deterministic(self):
        a = run_with_failures(SMALL.replace(policy="libra"), mtbf_hours=20.0)
        b = run_with_failures(SMALL.replace(policy="libra"), mtbf_hours=20.0)
        assert a == b


class TestGrid:
    @pytest.fixture(scope="class")
    def grid(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(record, "ROBUSTNESS_MTBFS", (None, 50.0))
            return build_record(SMALL, only=["robustness"])

    @staticmethod
    def cell(grid, policy, mtbf):
        section = grid["sections"]["robustness"]
        (row,) = [r for r in section["rows"] if r[:2] == [policy, mtbf]]
        return dict(zip(section["columns"], row))

    def test_full_grid(self, grid):
        assert len(grid["sections"]["robustness"]["rows"]) == 6  # 3 policies x 2 MTBFs
        assert self.cell(grid, "libra", "none")["node failures"] == 0

    def test_failures_reduce_fulfilment(self, grid):
        for policy in ("libra", "librarisk"):
            clean = self.cell(grid, policy, "none")["fulfilled %"]
            faulty = self.cell(grid, policy, "50h")["fulfilled %"]
            assert faulty <= clean

    def test_librarisk_still_ahead_under_failures(self, grid):
        assert (self.cell(grid, "librarisk", "50h")["fulfilled %"]
                > self.cell(grid, "libra", "50h")["fulfilled %"])
        (verdict,) = grid["sections"]["robustness"]["claims"]
        assert verdict["passed"]

    def test_render(self, grid):
        text = as_table(grid)
        assert "MTBF" in text and "jobs killed" in text
        assert "none" in text
