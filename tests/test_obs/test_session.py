"""Integration tests for ObsSession: decision tracing, determinism,
zero overhead, and multi-run capture via RunSink."""


from repro.cluster.cluster import Cluster
from repro.cluster.rms import ResourceManagementSystem
from repro.cluster.share import ShareParams
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.obs.exporters import jsonl_line
from repro.obs.session import ObsSession, RunSink, active_sink
from repro.scheduling.registry import make_policy, policy_discipline
from repro.sim.kernel import Simulator
from tests.conftest import make_job


def recorder(fired: list):
    """An ``on_event`` hook recording ``(time, priority, name)`` per event."""
    return lambda event: fired.append((event.time, event.priority, event.name))


def run_observed(policy_name, jobs, num_nodes=4, profile=False, on_event=None):
    """Tiny end-to-end observed simulation; returns (session, rms)."""
    sim = Simulator(on_event=on_event)
    cluster = Cluster.homogeneous(
        sim, num_nodes, rating=1.0,
        discipline=policy_discipline(policy_name),
        share_params=ShareParams(),
    )
    rms = ResourceManagementSystem(sim, cluster, make_policy(policy_name))
    session = ObsSession(profile=profile).attach(sim, rms, rms.policy)
    rms.submit_all(jobs)
    with session.span("run"):
        sim.run()
    session.finalize(sim=sim)
    return session, rms


def decisions(session, outcome=None):
    out = [r for r in session.records if r["type"] == "decision"]
    if outcome is not None:
        out = [r for r in out if r["outcome"] == outcome]
    return out


class TestAdmissionReasonRecording:
    """Every paper policy records accept/reject decisions with reasons."""

    def test_libra_rejection_reason(self):
        jobs = [
            make_job(runtime=50.0, deadline=100.0, job_id=1),
            make_job(runtime=50.0, estimate=300.0, deadline=100.0,
                     submit=1.0, job_id=2),
        ]
        session, rms = run_observed("libra", jobs, num_nodes=2)
        rejected = decisions(session, "rejected")
        assert len(rejected) == 1
        rec = rejected[0]
        assert rec["job"] == 2 and rec["policy"] == "libra"
        assert "Σ share > 1" in rec["reason"]
        assert rec["details"]["required"] == 1
        assert rec["details"]["online"] == 2
        accepted = decisions(session, "accepted")
        assert [r["job"] for r in accepted] == [1]
        assert accepted[0]["details"]["nodes"] == [0]

    def test_librarisk_rejection_reason_counts_nodes(self):
        # numproc 8 on a 4-node cluster: even all-empty nodes cannot
        # supply enough zero-risk hosts.
        jobs = [make_job(runtime=10.0, deadline=100.0, numproc=8, job_id=1)]
        session, _ = run_observed("librarisk", jobs, num_nodes=4)
        rec = decisions(session, "rejected")[0]
        assert rec["policy"] == "librarisk"
        assert "zero-risk" in rec["reason"]
        assert rec["details"] == {
            "suitable": 4, "required": 8, "online": 4, "suitability": "sigma",
        }

    def test_edf_dispatch_rejection_reason(self):
        jobs = [make_job(runtime=50.0, estimate=300.0, deadline=100.0, job_id=1)]
        session, rms = run_observed("edf", jobs, num_nodes=2)
        rec = decisions(session, "rejected")[0]
        assert rec["policy"] == "edf"
        assert "infeasible at dispatch" in rec["reason"]
        assert rec["details"]["estimated_runtime"] == 300.0

    def test_edf_accept_recorded_at_start(self):
        jobs = [make_job(runtime=50.0, deadline=200.0, job_id=1)]
        session, _ = run_observed("edf", jobs, num_nodes=2)
        accepted = decisions(session, "accepted")
        assert len(accepted) == 1
        assert accepted[0]["reason"].startswith("started on 1 node")

    def test_decision_counters_aggregate(self):
        jobs = [
            make_job(runtime=50.0, deadline=100.0, job_id=1),
            make_job(runtime=50.0, estimate=300.0, deadline=100.0,
                     submit=1.0, job_id=2),
        ]
        session, _ = run_observed("libra", jobs, num_nodes=2)
        reg = session.registry
        assert reg.get(
            "admission_decisions_total", policy="libra", outcome="accepted"
        ).value == 1
        assert reg.get(
            "admission_decisions_total", policy="libra", outcome="rejected"
        ).value == 1


class TestLifecycleRecording:
    def test_transitions_recorded_in_order(self):
        jobs = [make_job(runtime=50.0, deadline=200.0, job_id=1)]
        session, _ = run_observed("libra", jobs, num_nodes=1)
        transitions = [
            (r["job"], r["to"]) for r in session.records
            if r["type"] == "transition"
        ]
        assert transitions == [(1, "submitted"), (1, "accepted"), (1, "completed")]

    def test_slowdown_histogram_observed_on_completion(self):
        jobs = [make_job(runtime=50.0, deadline=200.0, job_id=1)]
        session, _ = run_observed("libra", jobs, num_nodes=1)
        hist = session.registry.get("job_slowdown")
        assert hist.count == 1

    def test_running_gauge_returns_to_zero(self):
        jobs = [make_job(runtime=50.0, deadline=200.0, job_id=i) for i in (1, 2)]
        session, _ = run_observed("libra", jobs, num_nodes=2)
        assert session.registry.get("jobs_running").value == 0
        assert session.registry.get("jobs_running_peak").value == 2


class TestDeterminism:
    def test_same_seed_same_scenario_byte_identical_export(self):
        config = ScenarioConfig(policy="librarisk", num_jobs=60, num_nodes=16)

        def export():
            session = ObsSession(scenario=config)
            run_scenario(config, obs=session)
            return "\n".join(jsonl_line(r) for r in session.records).encode()

        assert export() == export()

    def test_different_seed_differs(self):
        def export(seed):
            config = ScenarioConfig(policy="librarisk", num_jobs=60,
                                    num_nodes=16, seed=seed)
            session = ObsSession(scenario=config)
            run_scenario(config, obs=session)
            return "\n".join(jsonl_line(r) for r in session.records).encode()

        assert export(1) != export(2)


class TestZeroOverhead:
    """Observation must not perturb the simulation."""

    def _jobs(self):
        return [
            make_job(runtime=50.0, deadline=100.0, submit=float(i), job_id=i + 1)
            for i in range(8)
        ]

    def test_observed_run_fires_same_event_sequence(self):
        bare_events: list = []
        sim = Simulator(on_event=recorder(bare_events))
        cluster = Cluster.homogeneous(
            sim, 2, rating=1.0, discipline=policy_discipline("libra"),
            share_params=ShareParams(),
        )
        rms = ResourceManagementSystem(sim, cluster, make_policy("libra"))
        rms.submit_all(self._jobs())
        sim.run()

        obs_events: list = []
        session, _ = run_observed("libra", self._jobs(), num_nodes=2,
                                  on_event=recorder(obs_events))
        assert obs_events and obs_events == bare_events

    def test_disabled_obs_attaches_nothing(self):
        config = ScenarioConfig(policy="libra", num_jobs=30, num_nodes=8)
        result = run_scenario(config)
        assert result.obs is None


class TestSpansAndProfile:
    def test_span_records_event_counts(self):
        jobs = [make_job(runtime=50.0, deadline=200.0, job_id=1)]
        session, _ = run_observed("libra", jobs, num_nodes=1)
        spans = [r for r in session.records if r["type"] == "span"]
        assert [s["name"] for s in spans] == ["run"]
        assert spans[0]["events"] > 0

    def test_profile_record_present_only_when_enabled(self):
        jobs = [make_job(runtime=50.0, deadline=200.0, job_id=1)]
        plain, _ = run_observed("libra", jobs, num_nodes=1)
        assert not any(r["type"] == "profile" for r in plain.records)
        profiled, _ = run_observed("libra", jobs.__class__(
            [make_job(runtime=50.0, deadline=200.0, job_id=1)]
        ), num_nodes=1, profile=True)
        profile = [r for r in profiled.records if r["type"] == "profile"]
        assert len(profile) == 1
        assert profile[0]["admission"]["libra"]["calls"] == 1
        assert profile[0]["heap_depth"]["count"] > 0

    def test_finalize_is_idempotent(self):
        jobs = [make_job(runtime=50.0, deadline=200.0, job_id=1)]
        session, _ = run_observed("libra", jobs, num_nodes=1)
        n = len(session.records)
        session.finalize()
        assert len(session.records) == n


class TestRunSink:
    def test_sink_captures_runs_and_writes_jsonl(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        config = ScenarioConfig(policy="libra", num_jobs=20, num_nodes=8)
        with RunSink(path=str(path)) as sink:
            run_scenario(config)
            run_scenario(config.replace(policy="librarisk"))
        assert sink.runs == 2
        from repro.obs.exporters import read_jsonl

        metas = [r for r in read_jsonl(str(path)) if r["type"] == "meta"]
        assert [m["policy"] for m in metas] == ["libra", "librarisk"]

    def test_sink_is_uninstalled_on_exit(self):
        assert active_sink() is None
        with RunSink() as sink:
            assert active_sink() is sink
        assert active_sink() is None

    def test_explicit_session_bypasses_sink(self):
        config = ScenarioConfig(policy="libra", num_jobs=20, num_nodes=8)
        with RunSink() as sink:
            session = ObsSession(scenario=config)
            run_scenario(config, obs=session)
        assert sink.runs == 0
        assert session.finalized
