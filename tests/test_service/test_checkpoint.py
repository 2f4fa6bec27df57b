"""Checkpoint/restore round-trip tests.

The load-bearing guarantee: interrupting a trace mid-stream, restoring
from the snapshot, and feeding the remainder must end in **exactly**
the final metrics of the uninterrupted run — for every paper policy.
"""

import json

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario_jobs
from repro.service import checkpoint
from repro.service.checkpoint import CheckpointError
from repro.service.engine import (
    AdmissionEngine,
    DuplicateJob,
    EngineConfig,
    engine_for_scenario,
)
from repro.sim.rng import RngStreams
from tests.conftest import make_job

POLICIES = ("edf", "libra", "librarisk")


def scenario(policy: str) -> ScenarioConfig:
    return ScenarioConfig(policy=policy, num_jobs=120, num_nodes=16, seed=97)


class TestRoundTrip:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_final_metrics_identical_after_mid_trace_restore(self, policy):
        config = scenario(policy)
        cut = 60

        # Uninterrupted reference run through the engine.
        reference = engine_for_scenario(config)
        for job in build_scenario_jobs(config):
            reference.submit(job)
        reference.drain()

        # Interrupted run: snapshot at the cut, restore, feed the rest.
        first = engine_for_scenario(config)
        jobs = build_scenario_jobs(config)
        for job in jobs[:cut]:
            first.submit(job)
        snap = json.loads(checkpoint.dumps(checkpoint.snapshot(first)))
        resumed = checkpoint.restore(snap)
        assert resumed.now == first.now
        for job in jobs[cut:]:
            resumed.submit(job)
        resumed.drain()

        assert resumed.metrics().as_dict() == reference.metrics().as_dict()
        assert len(resumed.decisions) == len(reference.decisions)
        assert [d.as_dict() for d in resumed.decisions] == [
            d.as_dict() for d in reference.decisions
        ]

    def test_snapshot_is_byte_deterministic(self):
        config = scenario("librarisk")
        engine = engine_for_scenario(config)
        for job in build_scenario_jobs(config)[:40]:
            engine.submit(job)
        first = checkpoint.dumps(checkpoint.snapshot(engine))
        second = checkpoint.dumps(checkpoint.snapshot(engine))
        assert first == second

    def test_save_and_load_file(self, tmp_path):
        engine = AdmissionEngine(EngineConfig(num_nodes=4, rating=1.0))
        engine.submit(make_job(runtime=50.0, deadline=200.0, job_id=1))
        path = tmp_path / "engine.json"
        checkpoint.save(engine, str(path))
        resumed = checkpoint.load(str(path))
        resumed.drain()
        assert resumed.query(1).state.value == "completed"

    def test_restore_reserves_recovered_job_ids(self, tmp_path):
        # Restored jobs keep their explicit ids without touching the
        # auto-id counter; a job created without an id afterwards must
        # not collide with any of them.
        engine = AdmissionEngine(EngineConfig(num_nodes=4, rating=1.0))
        big = 61_000
        engine.submit(make_job(runtime=50.0, deadline=200.0, job_id=big))
        path = tmp_path / "engine.json"
        checkpoint.save(engine, str(path))
        resumed = checkpoint.load(str(path))
        fresh = make_job(runtime=5.0, deadline=100.0, submit=resumed.now)
        assert fresh.job_id > big
        decision = resumed.submit(fresh)
        assert decision.job_id == fresh.job_id

    def test_restore_preserves_queue(self):
        engine = AdmissionEngine(EngineConfig(policy="edf", num_nodes=1, rating=1.0))
        engine.submit(make_job(runtime=100.0, deadline=1000.0, job_id=1))
        engine.submit(make_job(runtime=10.0, deadline=1000.0, submit=1.0, job_id=2))
        assert len(engine.policy.queue) == 1
        resumed = checkpoint.restore(checkpoint.snapshot(engine))
        assert [j.job_id for j in resumed.policy.queue] == [2]
        resumed.drain()
        assert resumed.query(2).state.value == "completed"

    def test_edf_restore_with_multi_node_jobs_running(self):
        def feed(engine, jobs):
            for job in jobs:
                engine.submit(job)

        def jobs():
            return [
                make_job(runtime=100.0, numproc=4, deadline=1000.0, job_id=1),
                make_job(runtime=60.0, numproc=3, deadline=1000.0, submit=5.0, job_id=2),
                # Queued behind 1 and 2 (needs 4 of 8 nodes, 1 is free).
                make_job(runtime=30.0, numproc=4, deadline=1000.0, submit=6.0, job_id=3),
                make_job(runtime=20.0, numproc=2, deadline=1000.0, submit=70.0, job_id=4),
            ]

        config = EngineConfig(policy="edf", num_nodes=8, rating=1.0)
        reference = AdmissionEngine(config)
        feed(reference, jobs())
        reference.drain()

        first = AdmissionEngine(config)
        feed(first, jobs()[:3])
        assert sorted(first.policy._pending_tasks) == [1, 2]
        resumed = checkpoint.restore(json.loads(checkpoint.dumps(checkpoint.snapshot(first))))
        # One completion event per running job, not one per task.
        assert sorted(e.name for e in resumed.sim.iter_pending()) == [
            "job1:done", "job2:done",
        ]
        assert sorted(e.time for e in resumed.sim.iter_pending()) == [65.0, 100.0]
        feed(resumed, jobs()[3:])
        resumed.drain()

        assert [d.as_dict() for d in resumed.decisions] == [
            d.as_dict() for d in reference.decisions
        ]
        assert resumed.metrics().as_dict() == reference.metrics().as_dict()
        assert [(j.job_id, j.start_time, j.finish_time) for j in resumed.rms.jobs] == [
            (j.job_id, j.start_time, j.finish_time) for j in reference.rms.jobs
        ]
        assert [n.busy_time for n in resumed.cluster] == [
            n.busy_time for n in reference.cluster
        ]

    def test_restore_remembers_submitted_ids(self):
        engine = AdmissionEngine(EngineConfig(num_nodes=2, rating=1.0))
        for job_id in (1, 2, 3):
            engine.submit(make_job(runtime=10.0, deadline=100.0, job_id=job_id))
        resumed = checkpoint.restore(checkpoint.snapshot(engine))
        for job_id in (1, 2, 3):  # first / middle / last
            assert resumed.query(job_id) is resumed.rms.jobs[job_id - 1]
            with pytest.raises(DuplicateJob):
                resumed.submit(make_job(runtime=5.0, deadline=200.0, job_id=job_id))
        assert resumed.query(4) is None

    def test_rng_streams_resume_identically(self):
        streams = RngStreams(seed=5)
        streams.get("arrivals").random(4)  # advance the stream mid-run
        engine = AdmissionEngine(
            EngineConfig(num_nodes=2, rating=1.0), streams=streams
        )
        resumed = checkpoint.restore(checkpoint.snapshot(engine))
        expect = streams.get("arrivals").random(3)
        got = resumed.streams.get("arrivals").random(3)
        assert list(expect) == list(got)


class TestValidation:
    def test_rejects_foreign_format(self):
        with pytest.raises(CheckpointError, match="not an engine checkpoint"):
            checkpoint.restore({"format": "something-else", "version": 1})

    def test_rejects_future_version(self):
        with pytest.raises(CheckpointError, match="version"):
            checkpoint.restore(
                {"format": checkpoint.CHECKPOINT_FORMAT, "version": 99}
            )

    def test_rejects_unknown_job_reference(self):
        engine = AdmissionEngine(EngineConfig(num_nodes=2, rating=1.0))
        engine.submit(make_job(runtime=10.0, deadline=100.0, job_id=1))
        snap = checkpoint.snapshot(engine)
        snap["rms"]["accepted"] = [404]
        with pytest.raises(CheckpointError, match="unknown job 404"):
            checkpoint.restore(snap)

    def test_rejects_unreconstructible_pending_event(self):
        engine = AdmissionEngine(EngineConfig(num_nodes=2, rating=1.0))
        engine.sim.schedule_at(10.0, lambda e: None, name="custom:tick")
        with pytest.raises(CheckpointError, match="custom:tick"):
            checkpoint.snapshot(engine)

    @pytest.mark.parametrize("patch, cause", [
        ({"policy": "libra-budget"}, ValueError),  # a policy this build lacks
        ({"bogus": 1}, TypeError),
        ({"num_nodes": 0}, ValueError),
    ], ids=["unknown-policy", "unknown-key", "zero-nodes"])
    def test_config_this_build_cannot_construct_is_typed(self, patch, cause):
        snap = checkpoint.snapshot(AdmissionEngine(EngineConfig(num_nodes=2, rating=1.0)))
        snap["config"].update(patch)
        with pytest.raises(CheckpointError, match="cannot build an engine") as info:
            checkpoint.restore(snap)
        assert isinstance(info.value.__cause__, cause)

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{truncated", encoding="utf-8")
        with pytest.raises(CheckpointError, match="invalid checkpoint JSON"):
            checkpoint.load(str(path))


class TestDurability:
    """Atomic writes and content checksums on the checkpoint file."""

    def saved(self, tmp_path):
        engine = AdmissionEngine(EngineConfig(num_nodes=4, rating=1.0))
        engine.submit(make_job(runtime=50.0, deadline=300.0, job_id=1))
        engine.submit(make_job(runtime=10.0, deadline=300.0, submit=1.0,
                               job_id=2))
        path = tmp_path / "engine.json"
        checkpoint.save(engine, str(path))
        return engine, path

    def test_save_embeds_a_valid_content_checksum(self, tmp_path):
        _, path = self.saved(tmp_path)
        doc = json.loads(path.read_text())
        stored = doc.pop("checksum")
        assert stored["algo"] == "sha256"
        assert stored["hex"] == checkpoint._content_checksum(doc)
        checkpoint.load(str(path))  # round-trips cleanly

    def test_save_leaves_no_temp_files_behind(self, tmp_path):
        _, path = self.saved(tmp_path)
        leftovers = [p for p in tmp_path.iterdir() if p != path]
        assert leftovers == []

    def test_failed_save_preserves_the_old_checkpoint(self, tmp_path):
        engine, path = self.saved(tmp_path)
        before = path.read_bytes()
        # Poison the engine so the *snapshot* (taken before any file
        # I/O) fails; the on-disk checkpoint must be untouched.
        engine.sim.schedule_at(10.0, lambda e: None, name="custom:poison")
        with pytest.raises(CheckpointError):
            checkpoint.save(engine, str(path))
        assert path.read_bytes() == before
        leftovers = [p for p in tmp_path.iterdir() if p != path]
        assert leftovers == []

    def test_truncated_file_is_a_clear_corruption_error(self, tmp_path):
        _, path = self.saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            checkpoint.load(str(path))

    def test_flipped_byte_fails_the_checksum(self, tmp_path):
        _, path = self.saved(tmp_path)
        # Flip a content byte without breaking the JSON syntax.
        corrupted = path.read_text().replace('"runtime":50.0', '"runtime":51.0', 1)
        assert corrupted != path.read_text()
        path.write_text(corrupted)
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            checkpoint.load(str(path))

    def test_unsupported_checksum_algo_is_rejected(self, tmp_path):
        _, path = self.saved(tmp_path)
        doc = json.loads(path.read_text())
        doc["checksum"] = {"algo": "crc32", "hex": "whatever"}
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="unsupported checkpoint checksum"):
            checkpoint.load(str(path))

    def test_legacy_checkpoint_without_checksum_still_loads(self, tmp_path):
        _, path = self.saved(tmp_path)
        doc = json.loads(path.read_text())
        del doc["checksum"]
        path.write_text(json.dumps(doc))
        resumed = checkpoint.load(str(path))
        assert resumed.query(1) is not None

    def test_wal_lsn_round_trips_through_snapshots(self, tmp_path):
        engine, path = self.saved(tmp_path)
        engine.wal_lsn = 41
        checkpoint.save(engine, str(path))
        resumed = checkpoint.load(str(path))
        assert resumed.wal_lsn == 41
        # Engines that never saw a WAL keep the field out of the snapshot.
        fresh = AdmissionEngine(EngineConfig(num_nodes=2, rating=1.0))
        assert "wal_lsn" not in checkpoint.snapshot(fresh)
