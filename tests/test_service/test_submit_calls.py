"""How many Python calls an engine submit makes: a shrink-only ceiling.

Beside its policy's test, a submit pays for bookkeeping: the arrival
event, the RMS ledger's notes, the window note, the decision.  The test
counts ``call`` events into code objects under ``src/repro`` while an
engine with telemetry on takes a seeded stream, comprehensions left out
as in ``tests/test_workload/test_build_calls.py``.  The count is exact
and repeats, so a change that adds a call to the hot path fails here
whatever the machine's speed; one that removes calls lowers the ceiling.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario_jobs
from repro.service.engine import engine_for_scenario
from tests.test_workload.test_build_calls import calls_into_repro

#: Python calls a submit, to four places, per scenario: (policy, nodes,
#: jobs) -> ceiling. Shrink-only: a change that lowers a count lowers its
#: ceiling with it.  EDF at 1,024 nodes read 46.07 and LibraRisk at 128
#: read 533.24 when a finished job's notes and the window note still
#: made calls of their own.
CALLS_PER_SUBMIT = {
    ("edf", 1024, 3000): 29.269,
    ("librarisk", 128, 1000): 487.076,
}


@pytest.mark.parametrize("scenario", list(CALLS_PER_SUBMIT), ids=lambda s: f"{s[0]}-{s[1]}")
def test_a_submit_makes_no_more_calls_than_its_ceiling(scenario):
    policy, nodes, jobs = scenario
    config = ScenarioConfig(policy=policy, num_nodes=nodes, num_jobs=jobs, seed=42)
    stream = build_scenario_jobs(config)
    engine = engine_for_scenario(config)
    assert engine.window is not None  # telemetry on: the window note counts
    # The count is of the serving path: REPRO_VERIFY_CERT's re-proofs are
    # a debug aid that multiplies LibraRisk's calls.
    engine.policy.verify_cert = False

    def submit_all() -> None:
        for job in stream:
            engine.submit(job)

    calls = calls_into_repro(submit_all)
    per_submit = round(sum(calls.values()) / jobs, 4)
    ceiling = CALLS_PER_SUBMIT[scenario]
    busiest = ", ".join(f"{name} x{n / jobs:.2f}" for name, n in calls.most_common(6))
    assert per_submit <= ceiling, (
        f"a {policy} x {nodes} submit makes {per_submit} calls, over the "
        f"ceiling of {ceiling}; busiest per submit: {busiest}"
    )
    assert per_submit == ceiling, (
        f"a {policy} x {nodes} submit now makes {per_submit} calls: lower its "
        f"CALLS_PER_SUBMIT entry to {per_submit} so the ceiling keeps what was won"
    )
