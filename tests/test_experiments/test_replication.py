"""Tests for the replicate section of the paper record."""

import pytest

from repro.experiments import record
from repro.experiments.config import ScenarioConfig
from repro.experiments.record import PAPER_POLICIES, REPLICATE_SEEDS, build_record

SMALL = ScenarioConfig(num_jobs=100, num_nodes=32)


@pytest.fixture(scope="module")
def section():
    return build_record(SMALL, only=["replicate"])["sections"]["replicate"]


def rows(section):
    """{policy or pair: {column: value}}."""
    return {row[0]: dict(zip(section["columns"], row)) for row in section["rows"]}


class TestReplicate:
    def test_one_result_per_seed(self, section):
        cells = record.SECTIONS["replicate"].cells(SMALL)
        assert sorted({seed for _, seed in cells}) == list(REPLICATE_SEEDS)
        assert [c.seed for (p, _), c in cells.items() if p == "libra"] == list(REPLICATE_SEEDS)
        assert all(r["seeds"] == len(REPLICATE_SEEDS) for r in rows(section).values())

    def test_metric_extraction(self, section):
        means = [rows(section)[p]["mean fulfilled %"] for p in PAPER_POLICIES]
        assert len(means) == 3
        assert all(0.0 <= v <= 100.0 for v in means)

    def test_summary(self, section):
        for row in rows(section).values():
            assert row["± 95% CI"] >= 0.0

    def test_seeds_vary_outcomes(self, section):
        assert any(rows(section)[p]["± 95% CI"] > 0.0 for p in PAPER_POLICIES)

    def test_empty_seeds_rejected(self, monkeypatch):
        monkeypatch.setattr(record, "REPLICATE_SEEDS", ())
        with pytest.raises(ValueError, match="empty sample"):
            build_record(SMALL, only=["replicate"])


class TestReplicatePolicies:
    def test_matched_seeds(self):
        cells = record.SECTIONS["replicate"].cells(SMALL)
        for seed in REPLICATE_SEEDS:
            edf, *others = [cells[p, seed] for p in PAPER_POLICIES]
            assert all(c.replace(policy="edf") == edf for c in others)

    def test_paired_comparison(self, section):
        pair = rows(section)["librarisk − libra (paired)"]
        assert pair["seeds"] == len(REPLICATE_SEEDS)
        # Under trace estimates LibraRisk wins on every seed.
        assert pair["mean fulfilled %"] - pair["± 95% CI"] > 0.0
        (verdict,) = section["claims"]
        assert verdict["passed"]
        assert verdict["detail"].startswith("paired librarisk − libra: ")
