"""Tests for the sensitivity section of the paper record."""

import pytest

from repro.experiments import record
from repro.experiments.config import ScenarioConfig
from repro.experiments.record import as_table, build_record

SMALL = ScenarioConfig(num_jobs=120, num_nodes=32, seed=17)

KNOBS = (
    ("deadline_ratio", 2.0, 8.0),
    ("overrun_floor_share", 0.01, 0.25),
)


@pytest.fixture(scope="module")
def result():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(record, "SENSITIVITY_KNOBS", KNOBS)
        return build_record(SMALL, only=["sensitivity"])


def knobs(result, policy):
    """One policy's rows, as {column: value}, in table order."""
    section = result["sections"]["sensitivity"]
    return [dict(zip(section["columns"], row)) for row in section["rows"] if row[0] == policy]


class TestSensitivity:
    def test_one_entry_per_knob_sorted_by_swing(self, result):
        for policy in ("libra", "librarisk"):
            rows = knobs(result, policy)
            assert len(rows) == 2
            swings = [k["swing"] for k in rows]
            assert swings == sorted(swings, reverse=True)

    def test_deadline_ratio_moves_the_metric(self, result):
        ratio = next(k for k in knobs(result, "librarisk") if k["knob"] == "deadline_ratio")
        # Looser deadlines must not fulfil fewer jobs.
        assert ratio["@high"] >= ratio["fulfilled % @low"]

    def test_render(self, result):
        text = as_table(result)
        assert "=== Sensitivity" in text
        assert "deadline_ratio" in text
        assert "swing" in text
        assert "sensitivity.librarisk-beats-libra-every-knob" in text

    def test_swing_computation(self, result):
        for policy in ("libra", "librarisk"):
            for k in knobs(result, policy):
                at = (k["fulfilled % @low"], k["@base"], k["@high"])
                assert k["swing"] == pytest.approx(max(at) - min(at))

    def test_claim_compares_libra_and_librarisk_at_every_nudge(self, result):
        risk = {k["knob"]: k for k in knobs(result, "librarisk")}
        libra = {k["knob"]: k for k in knobs(result, "libra")}
        holds = all(risk[knob][col] > libra[knob][col]
                    for knob in risk for col in ("fulfilled % @low", "@high"))
        (verdict,) = result["sections"]["sensitivity"]["claims"]
        assert verdict["passed"] == holds
        assert verdict["detail"].startswith("smallest gap at ")
