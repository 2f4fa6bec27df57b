"""The null shard honours the batch-frame contract a ShardRouter relies on."""

import threading

import pytest

from repro.service import protocol
from repro.service.engine import EngineConfig
from repro.service.sharding.partition import shard_for_submit
from repro.service.sharding.router import ShardRouter
from repro.service.sharding.supervisor import free_ports

import stub_shard


def job(job_id):
    return {"id": job_id, "submit_time": float(job_id), "runtime": 10.0,
            "estimated_runtime": 12.0, "numproc": 1, "deadline": 100.0,
            "urgency": "low"}


def test_answer_echoes_one_decision_per_job_in_order():
    reply = stub_shard.answer({"v": 1, "type": "batch", "jobs": [job(3), job(1), job(2)]})
    assert reply["ok"] and reply["type"] == "batch"
    assert [r["decision"]["job"] for r in reply["results"]] == [3, 1, 2]
    assert all(r["ok"] and r["type"] == "decision" for r in reply["results"])


def test_answer_single_submit_and_refusal():
    assert stub_shard.answer({"v": 1, "type": "submit", "job": job(9)})["decision"]["job"] == 9
    assert stub_shard.answer({"v": 1, "type": "drain"})["ok"] is False


@pytest.fixture
def two_stubs():
    servers = [stub_shard.make_server(port) for port in free_ports(2)]
    threads = [threading.Thread(target=s.serve_forever, daemon=True) for s in servers]
    for thread in threads:
        thread.start()
    yield [f"http://127.0.0.1:{s.server_address[1]}" for s in servers]
    for server in servers:
        server.shutdown()
        server.server_close()
    for thread in threads:
        thread.join(timeout=5.0)
        assert not thread.is_alive()


def test_router_splits_a_frame_over_two_stubs_and_merges_in_item_order(two_stubs):
    router = ShardRouter(EngineConfig(policy="librarisk", num_nodes=32), two_stubs)
    jobs = [job(i) for i in range(1, 33)]
    assert {shard_for_submit(j["id"], None, 2) for j in jobs} == {0, 1}
    status, response = router.handle(
        protocol.encode({"v": 1, "type": "batch", "jobs": jobs})
    )
    assert status == 200 and response["ok"]
    assert [r["decision"]["job"] for r in response["results"]] == list(range(1, 33))
    assert all(r["decision"]["policy"] == "stub" for r in response["results"])
