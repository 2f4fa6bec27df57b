"""Batch submit: protocol frames, service semantics, WAL and loadgen parity.

The batch contract everything here pins down: a batch frame is executed
as the *same* code path as N single submits under one lock and one WAL
record per item — so a batch of one is byte-identical to a lone submit,
durable state is byte-identical to the unbatched stream, and one bad
item never voids its siblings.
"""

import json

import pytest

from repro.service import protocol
from repro.service.client import RetryingClient
from repro.service.engine import AdmissionEngine, EngineConfig
from repro.service.loadgen import LoadGenerator, ServiceClient
from repro.service.protocol import (
    MAX_BATCH_JOBS,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.service.server import AdmissionService, ServiceServer
from repro.service.wal import WriteAheadLog, read_wal


def make_service(tmp_path=None, wal_name=None, **kwargs) -> AdmissionService:
    config = EngineConfig(policy="librarisk", num_nodes=4, rating=1.0)
    engine = AdmissionEngine(config)
    wal = None
    if tmp_path is not None:
        wal = WriteAheadLog.open(
            str(tmp_path / (wal_name or "svc.wal")), config.as_dict()
        )
    return AdmissionService(engine, wal=wal, **kwargs)


def submit_payload(job_id: int, submit_time: float = 0.0, **overrides) -> dict:
    payload = {
        "id": job_id, "submit_time": submit_time, "runtime": 10.0,
        "estimated_runtime": 10.0, "numproc": 1, "deadline": 100.0,
    }
    payload.update(overrides)
    return payload


def batch_frame(payloads) -> dict:
    return {"v": PROTOCOL_VERSION, "type": "batch", "jobs": list(payloads)}


def rpc(service: AdmissionService, request: dict):
    return service.handle(json.dumps(request).encode())


class TestBatchProtocol:
    def test_parse_roundtrip(self):
        request = protocol.parse_request(
            protocol.encode(batch_frame([submit_payload(1)]))
        )
        assert isinstance(request, protocol.BatchRequest)
        assert request.jobs[0]["id"] == 1

    def test_empty_batch_is_rejected(self):
        with pytest.raises(ProtocolError) as exc:
            protocol.parse_request(protocol.encode(batch_frame([])))
        assert exc.value.code == protocol.ErrorCode.INVALID_FIELD

    def test_oversized_batch_is_typed_too_large(self):
        frame = batch_frame(
            [submit_payload(i) for i in range(MAX_BATCH_JOBS + 1)]
        )
        with pytest.raises(ProtocolError) as exc:
            protocol.parse_request(protocol.encode(frame))
        assert exc.value.code == protocol.ErrorCode.TOO_LARGE

    def test_non_mapping_item_is_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.parse_request(
                protocol.encode({"v": PROTOCOL_VERSION, "type": "batch",
                                 "jobs": [42]})
            )

    def test_unknown_top_level_field_is_rejected(self):
        frame = batch_frame([submit_payload(1)])
        frame["extra"] = True
        with pytest.raises(ProtocolError):
            protocol.parse_request(protocol.encode(frame))


class TestBatchService:
    def test_batch_of_one_is_byte_identical_to_a_single_submit(self):
        single = make_service()
        batched = make_service()
        payload = submit_payload(1)
        _, lone = rpc(single, {"v": PROTOCOL_VERSION, "type": "submit",
                               "job": payload})
        status, response = rpc(batched, batch_frame([payload]))
        assert status == 200
        assert protocol.encode(response["results"][0]) == \
            protocol.encode(lone)

    def test_batch_matches_singles_item_for_item(self):
        single = make_service()
        batched = make_service()
        payloads = [submit_payload(i, submit_time=float(i)) for i in range(1, 6)]
        lones = [
            rpc(single, {"v": PROTOCOL_VERSION, "type": "submit", "job": p})[1]
            for p in payloads
        ]
        _, response = rpc(batched, batch_frame(payloads))
        assert [protocol.encode(r) for r in response["results"]] == \
            [protocol.encode(r) for r in lones]

    def test_wal_records_are_byte_identical_to_singles(self, tmp_path):
        payloads = [submit_payload(i, submit_time=float(i)) for i in range(1, 5)]
        single = make_service(tmp_path, "single.wal")
        for p in payloads:
            rpc(single, {"v": PROTOCOL_VERSION, "type": "submit", "job": p})
        batched = make_service(tmp_path, "batched.wal")
        rpc(batched, batch_frame(payloads))
        single.wal.close()
        batched.wal.close()
        lone = read_wal(str(tmp_path / "single.wal"))
        bat = read_wal(str(tmp_path / "batched.wal"))
        assert [(r.lsn, r.t, r.req) for r in bat.records] == \
            [(r.lsn, r.t, r.req) for r in lone.records]

    def test_one_bad_item_does_not_void_its_siblings(self):
        service = make_service()
        payloads = [
            submit_payload(1, submit_time=10.0),
            submit_payload(2, submit_time=5.0),  # travels back in time
            {"id": 3},                           # schema-invalid
            submit_payload(4, submit_time=12.0),
        ]
        status, response = rpc(service, batch_frame(payloads))
        assert status == 200
        results = response["results"]
        assert results[0]["ok"] and results[3]["ok"]
        assert results[1]["ok"] is False
        assert results[1]["error"]["code"] == "out_of_order"
        assert results[2]["ok"] is False
        assert results[2]["error"]["code"] in (
            "invalid_field", "missing_field",
        )
        # The engine admitted exactly the two good jobs.
        _, stats = rpc(service, {"v": PROTOCOL_VERSION, "type": "stats"})
        assert stats["stats"]["submitted"] == 2

    def test_an_integer_past_float_range_does_not_void_its_siblings(self):
        service = make_service()
        payloads = [
            submit_payload(1, submit_time=1.0),
            submit_payload(2, submit_time=2.0, deadline=10 ** 400),
            submit_payload(3, submit_time=3.0),
        ]
        status, response = rpc(service, batch_frame(payloads))
        assert status == 200
        results = response["results"]
        assert results[0]["ok"] and results[2]["ok"]
        assert results[1] == protocol.error_response(
            "invalid_field", "job.deadline must be finite"
        )

    def test_duplicate_item_is_answered_from_the_decision_log(self):
        service = make_service()
        payload = submit_payload(1)
        _, first = rpc(service, batch_frame([payload]))
        _, second = rpc(service, batch_frame([payload]))
        item = second["results"][0]
        assert item["ok"]
        assert item["duplicate"] is True
        assert item["decision"] == first["results"][0]["decision"]

    def test_batch_counter_is_exported(self):
        service = make_service()
        rpc(service, batch_frame([submit_payload(1), submit_payload(2)]))
        from repro.obs.exporters import prometheus_text

        assert "service_batch_jobs_total 2" in prometheus_text(service.registry)


@pytest.fixture
def server():
    srv = ServiceServer(make_service(), port=0).start()
    yield srv
    srv.stop()


class TestLoadgenBatch:
    def jobs(self, n=6):
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.runner import build_scenario_jobs

        return build_scenario_jobs(
            ScenarioConfig(num_jobs=n, num_nodes=4, seed=7, policy="librarisk")
        )

    def test_batch_run_reports_every_job(self, server):
        jobs = self.jobs()
        report = LoadGenerator(
            ServiceClient(server.url, timeout=5.0), jobs,
            speedup=float("inf"), batch=3,
        ).run()
        assert report.requests == len(jobs)
        assert report.ok == len(jobs)

    def test_batch_of_one_matches_the_single_submit_path(self):
        # The regression guard for the batch fast path: batch=1 must
        # leave byte-identical durable state to the plain sender.
        jobs = self.jobs()
        singles = ServiceServer(make_service(), port=0).start()
        batched = ServiceServer(make_service(), port=0).start()
        try:
            lone = LoadGenerator(
                ServiceClient(singles.url, timeout=5.0), jobs,
                speedup=float("inf"),
            ).run()
            grouped = LoadGenerator(
                ServiceClient(batched.url, timeout=5.0), jobs,
                speedup=float("inf"), batch=1,
            ).run()
            assert (lone.ok, lone.errors) == (grouped.ok, grouped.errors)
            _, a = ServiceClient(singles.url).drain()
            _, b = ServiceClient(batched.url).drain()
            assert protocol.encode(a) == protocol.encode(b)
        finally:
            singles.stop()
            batched.stop()

    def test_batch_requires_the_single_ordered_sender(self, server):
        with pytest.raises(ValueError):
            LoadGenerator(
                ServiceClient(server.url), self.jobs(),
                workers=2, batch=2,
            )
        with pytest.raises(ValueError):
            LoadGenerator(ServiceClient(server.url), self.jobs(), batch=0)

    def test_client_submit_batch_round_trip(self, server):
        jobs = self.jobs(4)
        status, response = ServiceClient(server.url).submit_batch(jobs)
        assert status == 200
        assert len(response["results"]) == 4


class TestBatchRetryability:
    def test_batch_with_ids_is_retryable(self):
        assert RetryingClient._is_retryable(
            batch_frame([submit_payload(1), submit_payload(2)])
        )

    def test_one_idless_item_disables_retries(self):
        payload = submit_payload(2)
        del payload["id"]
        assert not RetryingClient._is_retryable(
            batch_frame([submit_payload(1), payload])
        )
