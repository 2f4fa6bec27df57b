"""Replay parity: the online engine reproduces batch runs byte-for-byte.

``run_scenario`` batch-submits a trace and runs the kernel to the end;
``replay_scenario`` feeds the same jobs through the engine one at a
time.  The determinism contract says both execute the identical event
sequence — so their metrics, and the full observability record streams
(span records aside: replay has no batch phases), must match exactly.
"""

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario_jobs, run_scenario
from repro.obs.exporters import jsonl_line
from repro.obs.session import ObsSession
from repro.service.engine import engine_for_scenario
from repro.service.replay import replay_jobs, replay_scenario

POLICIES = ("edf", "libra", "librarisk")


def canonical_records(session: ObsSession) -> list[str]:
    """The session's record stream as canonical JSON lines, sans spans."""
    return [
        jsonl_line(record)
        for record in session.records
        if record.get("type") != "span"
    ]


class TestParityWithBatch:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_byte_identical_exports_small_scale(self, policy):
        config = ScenarioConfig(policy=policy, num_jobs=150, num_nodes=16, seed=23)

        batch_session = ObsSession(scenario=config)
        batch = run_scenario(config, obs=batch_session)

        replay_session = ObsSession(scenario=config)
        engine, report = replay_scenario(config, obs=replay_session)

        assert report.metrics.as_dict() == batch.metrics.as_dict()
        assert report.horizon == batch.horizon
        assert report.events == batch.events
        assert canonical_records(replay_session) == canonical_records(batch_session)

    def test_byte_identical_exports_full_sdsc_default(self):
        # The acceptance bar: the paper-scale default scenario (3000
        # synthetic SDSC-SP2-like jobs, 128 nodes) replayed through the
        # engine exports the same bytes as the batch path.
        config = ScenarioConfig(policy="librarisk")

        batch_session = ObsSession(scenario=config)
        batch = run_scenario(config, obs=batch_session)

        replay_session = ObsSession(scenario=config)
        _, report = replay_scenario(config, obs=replay_session)

        assert report.metrics.as_dict() == batch.metrics.as_dict()
        assert canonical_records(replay_session) == canonical_records(batch_session)


    @pytest.mark.parametrize("policy", ("edf", "fcfs", "edf-easy", "conservative"))
    def test_space_shared_policies_at_paper_scale(self, policy):
        # One completion event per started job: batch and replay must
        # still fire the same events and reach the same per-job outcomes.
        config = ScenarioConfig(policy=policy)
        jobs = build_scenario_jobs(config)
        batch = run_scenario(config, jobs=jobs)
        engine, report = replay_scenario(config)

        assert report.metrics.as_dict() == batch.metrics.as_dict()
        assert report.horizon == batch.horizon
        assert report.events == batch.events
        assert [
            (j.job_id, j.state, j.start_time, j.finish_time, j.assigned_nodes)
            for j in engine.rms.jobs
        ] == [
            (j.job_id, j.state, j.start_time, j.finish_time, j.assigned_nodes)
            for j in jobs
        ]


class TestReplayJobs:
    def test_report_counts_outcomes(self):
        config = ScenarioConfig(policy="librarisk", num_jobs=60, num_nodes=8, seed=3)
        engine = engine_for_scenario(config)
        report = replay_jobs(engine, build_scenario_jobs(config))
        assert report.submitted == 60
        assert sum(report.outcomes.values()) == 60
        assert set(report.outcomes) <= {"accepted", "queued", "rejected"}
        assert len(report.decisions) == 60
        assert engine.sim.pending == 0  # drained

    def test_no_drain_leaves_work_pending(self):
        config = ScenarioConfig(policy="librarisk", num_jobs=40, num_nodes=8, seed=3)
        engine = engine_for_scenario(config)
        report = replay_jobs(engine, build_scenario_jobs(config), drain=False)
        assert report.submitted == 40
        assert engine.sim.pending > 0

    def test_report_as_dict_is_jsonable(self):
        import json

        config = ScenarioConfig(policy="edf", num_jobs=30, num_nodes=8, seed=3)
        _, report = replay_scenario(config)
        encoded = json.dumps(report.as_dict())
        assert '"submitted": 30' in encoded
