"""End-to-end trace determinism: live vs replayed vs WAL-recovered.

The tentpole guarantee under test: `repro trace <job-id>` reconstructs
the same byte-identical span tree whether the engine is the live one
that decided the job, a fresh engine that replayed the WAL (including
after a scripted mid-trace crash), or an engine restored from a
checkpoint.  Trace ids are minted from (config seed, submit sequence,
job id) only, so no recovery path may disturb any of the three.
"""

import json

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario_jobs
from repro.service import checkpoint as checkpoint_mod
from repro.service import protocol
from repro.service.engine import AdmissionEngine, EngineConfig
from repro.service.faults import CrashPoint, FaultInjector, FaultSpec
from repro.service.loadgen import ServiceClient, job_request_payload
from repro.service.server import AdmissionService, ServiceServer
from repro.service.wal import WriteAheadLog, recover
from repro.obs.tracing import canonical_json

CRASH_POINTS = ("wal.before_append", "wal.after_append", "wal.after_apply")


def scenario(policy: str = "librarisk") -> ScenarioConfig:
    return ScenarioConfig(policy=policy, num_jobs=40, num_nodes=8, seed=31)


def submit_body(job) -> bytes:
    return json.dumps({
        "v": protocol.PROTOCOL_VERSION, "type": "submit",
        "job": job_request_payload(job),
    }).encode()


def fresh_service(config: ScenarioConfig, wal_path, faults=None) -> AdmissionService:
    engine = AdmissionEngine(EngineConfig(
        policy=config.policy, num_nodes=config.num_nodes,
    ))
    wal = WriteAheadLog.open(str(wal_path), config=engine.config.as_dict())
    return AdmissionService(engine, wal=wal, faults=faults)


def all_traces(engine: AdmissionEngine) -> dict[int, str]:
    """Canonical JSON of every decided job's trace, keyed by job id."""
    return {
        job_id: canonical_json(engine.trace(job_id))
        for job_id in sorted(engine._decision_index)
    }


class TestWalRecoveryParity:
    def test_recovered_traces_are_byte_identical(self, tmp_path):
        config = scenario()
        jobs = build_scenario_jobs(config)
        service = fresh_service(config, tmp_path / "wal.log")
        for job in jobs:
            status, response = service.handle(submit_body(job))
            assert status == 200
            # The ack carries the trace id the WAL frame recorded.
            assert response["trace"] == service.engine.trace_ids[job.job_id]
        status, _ = service.handle(b'{"v": 1, "type": "drain"}')
        assert status == 200
        service.close_wal()
        live = all_traces(service.engine)

        recovered_engine, _ = recover(str(tmp_path / "wal.log"))
        assert all_traces(recovered_engine) == live
        assert recovered_engine.trace_ids == service.engine.trace_ids
        assert recovered_engine.wal_lsns == service.engine.wal_lsns

    def test_wal_append_span_carries_the_lsn(self, tmp_path):
        config = scenario()
        jobs = build_scenario_jobs(config)
        service = fresh_service(config, tmp_path / "wal.log")
        for job in jobs[:3]:
            service.handle(submit_body(job))
        service.close_wal()
        trace = service.engine.trace(jobs[0].job_id)
        wal_span = next(
            s for s in trace["spans"] if s["name"] == "wal.append"
        )
        assert wal_span["attrs"]["lsn"] == service.engine.wal_lsns[jobs[0].job_id]

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_traces_survive_crash_at_kill_point(self, tmp_path, point):
        config = scenario()
        jobs = build_scenario_jobs(config)

        reference = fresh_service(config, tmp_path / "ref.log")
        for job in jobs:
            reference.handle(submit_body(job))
        reference.handle(b'{"v": 1, "type": "drain"}')
        reference.close_wal()
        ref_traces = all_traces(reference.engine)

        injector = FaultInjector(FaultSpec(crash_point=point, crash_at=15))
        crashing = fresh_service(config, tmp_path / "crash.log", faults=injector)
        crashed_at = None
        for index, job in enumerate(jobs):
            try:
                crashing.handle(submit_body(job))
            except CrashPoint:
                crashed_at = index
                break
        assert crashed_at is not None, "the scripted crash never fired"

        engine, _ = recover(str(tmp_path / "crash.log"))
        resumed = AdmissionService(engine, wal=WriteAheadLog.open(
            str(tmp_path / "crash.log"), config=engine.config.as_dict(),
        ))
        for job in jobs[crashed_at:]:
            status, _ = resumed.handle(submit_body(job))
            assert status == 200
        resumed.handle(b'{"v": 1, "type": "drain"}')
        resumed.close_wal()

        assert all_traces(resumed.engine) == ref_traces


class TestCheckpointParity:
    def test_trace_ids_survive_checkpoint_restore(self, tmp_path):
        config = scenario()
        jobs = build_scenario_jobs(config)
        engine = AdmissionEngine(EngineConfig(
            policy=config.policy, num_nodes=config.num_nodes,
        ))
        for job in jobs[:20]:
            engine.submit(job)
        checkpoint_mod.save(engine, str(tmp_path / "snap.ckpt"))
        restored = checkpoint_mod.load(str(tmp_path / "snap.ckpt"))

        assert restored._submit_seq == engine._submit_seq
        assert restored.trace_ids == engine.trace_ids
        assert all_traces(restored) == all_traces(engine)
        # The windowed telemetry is rebuilt from the decision log.
        assert restored.window is not None
        assert restored.window.snapshot(restored.now) == \
            engine.window.snapshot(engine.now)

        # Ids minted after the restore continue the original sequence
        # (fresh job objects per engine: submission mutates job state).
        for job in jobs[20:]:
            engine.submit(job)
        for job in build_scenario_jobs(config)[20:]:
            restored.submit(job)
        assert restored.trace_ids == engine.trace_ids

    def test_pre_tracing_checkpoint_still_loads(self, tmp_path):
        """A legacy snapshot without the `trace` block restores cleanly."""
        engine = AdmissionEngine(EngineConfig(policy="edf", num_nodes=4))
        jobs = build_scenario_jobs(scenario("edf"))
        for job in jobs[:5]:
            engine.submit(job)
        path = tmp_path / "snap.ckpt"
        checkpoint_mod.save(engine, str(path))
        snap = json.loads(path.read_text())
        snap.pop("trace", None)
        # Dropping the checksum takes the legacy (pre-checksum) load
        # path, which is exactly what a pre-tracing snapshot is.
        snap.pop("checksum", None)
        path.write_text(json.dumps(snap))
        restored = checkpoint_mod.load(str(path))
        assert restored._submit_seq == 0
        assert restored.trace_ids == {}
        # Traces still render via the seq-0 fallback mint.
        assert restored.trace(jobs[0].job_id)["trace_id"]


class TestServiceEndpoints:
    @pytest.fixture
    def fired(self):
        return []

    @pytest.fixture
    def server(self, fired):
        engine = AdmissionEngine(
            EngineConfig(policy="librarisk", num_nodes=8, rating=1.0)
        )
        # A passive kernel observer must not change what the server says.
        engine.sim.on_event = lambda ev: fired.append((ev.time, ev.priority, ev.name))
        srv = ServiceServer(AdmissionService(engine), port=0).start()
        yield srv
        srv.stop()

    @pytest.fixture
    def client(self, server):
        return ServiceClient(server.url, timeout=5.0)

    def submit(self, client, job):
        status, response = client.rpc({
            "v": protocol.PROTOCOL_VERSION, "type": "submit",
            "job": job_request_payload(job),
        })
        assert status == 200
        return response

    def test_trace_rpc_round_trips(self, server, client):
        jobs = build_scenario_jobs(scenario())[:5]
        for job in jobs:
            response = self.submit(client, job)
            assert response["trace"]
        status, payload = client.trace(jobs[0].job_id)
        assert status == 200
        trace = payload["trace"]
        assert trace["trace_id"] == server.service.engine.trace_ids[jobs[0].job_id]
        assert canonical_json(trace) == canonical_json(
            server.service.engine.trace(jobs[0].job_id)
        )

    def test_trace_rpc_unknown_job_is_404(self, client):
        status, payload = client.trace(999)
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_healthz_contract(self, server, client):
        jobs = build_scenario_jobs(scenario())[:5]
        for job in jobs:
            self.submit(client, job)
        import urllib.request

        with urllib.request.urlopen(f"{server.url}/healthz", timeout=5.0) as resp:
            assert resp.status == 200
            health = json.loads(resp.read())
        assert health["ok"] is True
        assert health["status"] == "ok"
        assert health["policy"] == "librarisk"
        slo = health["slo"]
        assert slo["deadline_miss_objective"] == 0.05
        assert slo["burn_rate"] == slo["deadline_miss_ratio"] / 0.05
        wal = health["wal"]
        assert wal["enabled"] is False
        back = health["backpressure"]
        assert back["draining"] is False
        assert back["shed_total"] == 0

    def test_metrics_surface_windows_cache_and_trace_gauges(self, server, client, fired):
        jobs = build_scenario_jobs(scenario())[:10]
        for job in jobs:
            self.submit(client, job)
        assert fired, "the kernel observer saw no event"
        import urllib.request

        with urllib.request.urlopen(f"{server.url}/metrics", timeout=5.0) as resp:
            text = resp.read().decode()
        assert 'engine_window_submitted{policy="librarisk"}' in text
        assert 'engine_window_loss_ratio{policy="librarisk"}' in text
        assert "engine_trace_events" not in text
        assert 'engine_cache_stat{stat="' in text

    def test_wal_latency_metrics_surface(self, tmp_path):
        config = scenario()
        service = fresh_service(config, tmp_path / "wal.log")
        for job in build_scenario_jobs(config)[:3]:
            service.handle(submit_body(job))
        text = service.prometheus_text()
        service.close_wal()
        assert "service_wal_append_seconds_count" in text
        assert "service_wal_applied_lsn 3" in text
        assert "service_wal_fsyncs" in text

    def test_stats_include_window_snapshot(self, server, client):
        jobs = build_scenario_jobs(scenario())[:5]
        for job in jobs:
            self.submit(client, job)
        status, payload = client.stats()
        assert status == 200
        window = payload["stats"]["window"]
        assert window["window_s"] == 3600.0
        # The scenario's submit times span more than the trailing hour,
        # so only the recent suffix is inside the window.
        policy = window["policies"]["librarisk"]
        assert 1.0 <= policy["submitted"] <= 5.0
        assert policy["loss_ratio"] == policy["rejected"] / policy["submitted"]
