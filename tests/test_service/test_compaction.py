"""WAL compaction, crash windows around it, and the integrity scrubber.

The invariant under test throughout: recovery from *checkpoint +
compacted tail* rebuilds the same engine state as recovery from the
full, never-compacted log — regardless of where in the compaction a
crash lands.  "Same state" means the checkpoint snapshot normalized by
dropping the kernel's event sequence counter (``sim.seq``): re-derived
completion timers legitimately draw fresh sequence numbers, and the
checkpoint contract exempts them (see ``repro.service.checkpoint``).
"""

import json
import os
import random

import pytest

from repro.service import checkpoint as checkpoint_mod
from repro.service import protocol
from repro.service import scrub as scrub_mod
from repro.service import wal as wal_mod
from repro.service.engine import AdmissionEngine, EngineConfig
from repro.service.faults import CRASH_POINTS, CrashPoint
from repro.service.server import AdmissionService

CONFIG = EngineConfig(policy="librarisk", num_nodes=8, rating=1.0)
COMPACT_POINTS = [p for p in CRASH_POINTS if p.startswith("compact.")]


def submit_body(job_id: int) -> bytes:
    return json.dumps({
        "v": protocol.PROTOCOL_VERSION, "type": "submit",
        "job": {
            "id": job_id, "submit_time": 0.0, "runtime": 10.0,
            "estimated_runtime": 12.0, "numproc": 1, "deadline": 100.0,
        },
    }).encode()


def build_service(path: str, compact_every: int = 0) -> AdmissionService:
    engine = AdmissionEngine(CONFIG)
    wal = wal_mod.WriteAheadLog.open(
        path, config=CONFIG.as_dict(), fsync="none"
    )
    return AdmissionService(engine, wal=wal, wal_compact_every=compact_every)


def run_submits(service: AdmissionService, job_ids) -> None:
    for job_id in job_ids:
        status, response = service.handle(submit_body(job_id))
        assert status == 200, response


def normalized(engine: AdmissionEngine) -> str:
    snap = checkpoint_mod.snapshot(engine)
    snap.get("sim", {}).pop("seq", None)
    return checkpoint_mod.dumps(snap)


def crash_at(target: str):
    def hook(point: str) -> None:
        if point == target:
            raise CrashPoint(point)
    return hook


class TestCompaction:
    def test_compact_truncates_and_archives(self, tmp_path):
        path = str(tmp_path / "w.wal")
        service = build_service(path)
        run_submits(service, range(1, 11))
        wal = service.wal
        before = os.path.getsize(path)
        report = wal.compact(service.engine, str(tmp_path / "w.ckpt"))
        assert report.archived == 10
        assert report.retained == 0
        assert wal.base_lsn == 10
        assert os.path.getsize(path) < before
        segments = wal_mod.list_segments(path)
        assert [(f, l) for f, l, _ in segments] == [(1, 10)]

    def test_appends_continue_the_lsn_chain_after_compaction(self, tmp_path):
        path = str(tmp_path / "w.wal")
        service = build_service(path)
        run_submits(service, range(1, 6))
        service.wal.compact(service.engine, str(tmp_path / "w.ckpt"))
        run_submits(service, range(6, 9))
        result = wal_mod.read_wal(path)
        assert result.base_lsn == 5
        assert [r.lsn for r in result.records] == [6, 7, 8]

    def test_compaction_bounds_the_active_log_size(self, tmp_path):
        compacted = str(tmp_path / "auto.wal")
        full = str(tmp_path / "full.wal")
        svc_auto = build_service(compacted, compact_every=5)
        svc_full = build_service(full)
        max_active = 0
        for job_id in range(1, 41):
            run_submits(svc_auto, [job_id])
            run_submits(svc_full, [job_id])
            max_active = max(max_active, os.path.getsize(compacted))
        # The active log never grows past one compaction interval's
        # worth of records (plus its one-line header), while the
        # uncompacted log grows with the full history.
        assert max_active < os.path.getsize(full)
        retained = wal_mod.read_wal(compacted).records
        assert len(retained) < 5
        assert svc_auto.wal.compactions == 8

    def test_recovery_from_compacted_chain_matches_full_log(self, tmp_path):
        compacted = str(tmp_path / "c.wal")
        full = str(tmp_path / "f.wal")
        svc_c = build_service(compacted)
        svc_f = build_service(full)
        run_submits(svc_c, range(1, 9))
        run_submits(svc_f, range(1, 9))
        svc_c.wal.compact(svc_c.engine, str(tmp_path / "c.ckpt"))
        run_submits(svc_c, range(9, 13))
        run_submits(svc_f, range(9, 13))
        svc_c.close_wal()
        svc_f.close_wal()
        engine_c, report_c = wal_mod.recover(compacted)
        engine_f, report_f = wal_mod.recover(full)
        # The archived prefix is restored through the checkpoint, not
        # replayed: only the 4 tail records are read at all.
        assert report_c.wal_records == 4
        assert report_c.replayed == 4
        assert report_c.checkpoint is not None
        assert report_f.replayed == 12
        assert normalized(engine_c) == normalized(engine_f)
        assert checkpoint_mod.dumps(engine_c.metrics().as_dict()) == \
            checkpoint_mod.dumps(engine_f.metrics().as_dict())

    def test_second_compaction_chains_segments(self, tmp_path):
        path = str(tmp_path / "w.wal")
        service = build_service(path)
        run_submits(service, range(1, 6))
        service.wal.compact(service.engine, str(tmp_path / "w.ckpt"))
        run_submits(service, range(6, 11))
        service.wal.compact(service.engine, str(tmp_path / "w.ckpt"))
        ranges = [(f, l) for f, l, _ in wal_mod.list_segments(path)]
        assert ranges == [(1, 5), (6, 10)]
        engine, _ = wal_mod.recover(path)
        assert engine.wal_lsn == 10

    def test_compact_with_nothing_new_is_a_noop(self, tmp_path):
        path = str(tmp_path / "w.wal")
        service = build_service(path)
        run_submits(service, range(1, 4))
        service.wal.compact(service.engine, str(tmp_path / "w.ckpt"))
        report = service.wal.compact(service.engine, str(tmp_path / "w.ckpt"))
        assert report.archived == 0
        assert service.wal.compactions == 1


class TestReferencedCheckpoint:
    """`recover(wal)` reads the checkpoint a compacted header names once."""

    def compacted(self, tmp_path) -> tuple[str, str]:
        path, ckpt = str(tmp_path / "w.wal"), str(tmp_path / "w.ckpt")
        service = build_service(path)
        run_submits(service, range(1, 6))
        service.wal.compact(service.engine, ckpt)
        run_submits(service, range(6, 9))
        service.close_wal()
        return path, ckpt

    def test_recovery_parses_the_checkpoint_once(self, tmp_path, monkeypatch):
        path, ckpt = self.compacted(tmp_path)
        text = open(ckpt, encoding="utf-8").read()
        parses = []
        loads = json.loads

        def counting(s, *args, **kwargs):
            parses.append(s == text)
            return loads(s, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        engine, report = wal_mod.recover(path)
        assert report.checkpoint == ckpt and report.replayed == 3
        assert parses.count(True) == 1

    def test_a_swapped_checkpoint_is_refused(self, tmp_path):
        path, ckpt = self.compacted(tmp_path)
        other = build_service(str(tmp_path / "other.wal"))
        run_submits(other, range(1, 3))
        checkpoint_mod.save(other.engine, ckpt)  # valid, but not the one compacted against
        with pytest.raises(wal_mod.WalError, match="SHA-256 does not match"):
            wal_mod.recover(path)

    def test_an_unreadable_checkpoint_names_the_wal(self, tmp_path):
        path, ckpt = self.compacted(tmp_path)
        with open(ckpt, "wb") as fp:
            fp.write(b"\xff not json")
        with pytest.raises(wal_mod.WalError, match="unreadable referenced checkpoint"):
            wal_mod.recover(path)

    def test_corrupt_content_fails_its_own_checksum(self, tmp_path):
        path, ckpt = self.compacted(tmp_path)
        doc = json.load(open(ckpt))
        doc["t"] = 123456.0  # mutate content, keep the stored checksum
        with open(ckpt, "w") as fp:
            json.dump(doc, fp)
        with pytest.raises(checkpoint_mod.CheckpointError, match="content checksum mismatch"):
            wal_mod.recover(path)


class TestServerAutoCompaction:
    def test_threshold_drives_compaction_and_health(self, tmp_path):
        path = str(tmp_path / "w.wal")
        service = build_service(path, compact_every=5)
        run_submits(service, range(1, 13))
        assert service.wal.compactions == 2
        assert service.wal.base_lsn == 10
        health = service.health_response()
        assert health["wal"]["base_lsn"] == 10
        assert health["wal"]["compactions"] == 2
        assert health["wal"]["appended_lsn"] == 12
        text = "\n".join(
            line for line in render_metrics(service).splitlines()
            if "compact" in line or "base_lsn" in line
        )
        assert "service_wal_compactions_total 2" in text
        assert "service_wal_base_lsn 10" in text

    def test_recovered_server_resumes_the_compacted_chain(self, tmp_path):
        path = str(tmp_path / "w.wal")
        service = build_service(path, compact_every=4)
        run_submits(service, range(1, 10))
        service.close_wal()
        engine, report = wal_mod.recover(path)
        assert engine.wal_lsn == 9
        # The replayed engine accepts more traffic on the same chain.
        wal = wal_mod.WriteAheadLog.open(
            path, config=CONFIG.as_dict(), fsync="none"
        )
        assert wal.base_lsn == 8
        assert wal.next_lsn == 10

    def test_validation(self, tmp_path):
        engine = AdmissionEngine(CONFIG)
        with pytest.raises(ValueError):
            AdmissionService(engine, wal=None, wal_compact_every=5)
        path = str(tmp_path / "w.wal")
        wal = wal_mod.WriteAheadLog.open(
            path, config=CONFIG.as_dict(), fsync="none"
        )
        with pytest.raises(ValueError):
            AdmissionService(engine, wal=wal, wal_compact_every=-1)


def render_metrics(service: AdmissionService) -> str:
    return service.prometheus_text()


class TestCompactionCrashWindows:
    """Satellite: a kill at any point inside compact() loses nothing."""

    def baseline(self, tmp_path, job_ids):
        full = str(tmp_path / "full.wal")
        svc = build_service(full)
        run_submits(svc, job_ids)
        svc.close_wal()
        engine, _ = wal_mod.recover(full)
        return normalized(engine)

    @pytest.mark.parametrize("point", COMPACT_POINTS)
    def test_crash_during_compact_recovers_byte_identically(
        self, tmp_path, point
    ):
        job_ids = list(range(1, 9))
        expect = self.baseline(tmp_path, job_ids)
        path = str(tmp_path / "w.wal")
        service = build_service(path)
        run_submits(service, job_ids)
        with pytest.raises(CrashPoint):
            service.wal.compact(
                service.engine, str(tmp_path / "w.ckpt"),
                crash=crash_at(point),
            )
        # "Restart": abandon every in-memory object, recover from disk.
        engine, _ = wal_mod.recover(path)
        assert normalized(engine) == expect
        # And the on-disk state passes a scrub (a torn/partial compaction
        # must never look like corruption).
        report = scrub_mod.scrub_fleet(path)
        assert report.exit_code == scrub_mod.EXIT_CLEAN, report.findings

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_crash_schedules(self, tmp_path, seed):
        """Randomized drill: random job count, random crash window, and
        a post-recovery compact must all converge to the same state."""
        rng = random.Random(seed)
        count = rng.randint(5, 15)
        point = rng.choice(COMPACT_POINTS)
        job_ids = list(range(1, count + 1))
        expect = self.baseline(tmp_path, job_ids)
        path = str(tmp_path / "w.wal")
        service = build_service(path)
        run_submits(service, job_ids)
        with pytest.raises(CrashPoint):
            service.wal.compact(
                service.engine, str(tmp_path / "w.ckpt"),
                crash=crash_at(point),
            )
        engine, _ = wal_mod.recover(path)
        assert normalized(engine) == expect
        # The restarted server can compact cleanly where the old one died.
        wal = wal_mod.WriteAheadLog.open(
            path, config=CONFIG.as_dict(), fsync="none"
        )
        wal.compact(engine, str(tmp_path / "w.ckpt"))
        wal.close()
        engine2, _ = wal_mod.recover(path)
        assert normalized(engine2) == expect
        report = scrub_mod.scrub_fleet(path)
        assert report.exit_code == scrub_mod.EXIT_CLEAN, report.findings


class TestScrub:
    def build_fleet_wal(self, tmp_path, compact=True):
        path = str(tmp_path / "w.wal")
        service = build_service(path)
        run_submits(service, range(1, 9))
        if compact:
            service.wal.compact(service.engine, str(tmp_path / "w.ckpt"))
            run_submits(service, range(9, 12))
        service.close_wal()
        return path

    def test_clean_wal_scrubs_clean(self, tmp_path):
        path = self.build_fleet_wal(tmp_path)
        report = scrub_mod.scrub_fleet(path)
        assert report.exit_code == scrub_mod.EXIT_CLEAN
        assert report.segments == 1
        assert report.checkpoints == 1
        assert report.records == 11

    def test_flipped_byte_in_archive_is_corruption(self, tmp_path):
        path = self.build_fleet_wal(tmp_path)
        _, _, seg_path = wal_mod.list_segments(path)[0]
        blob = bytearray(open(seg_path, "rb").read())
        blob[len(blob) // 2] ^= 0x01
        with open(seg_path, "wb") as fp:
            fp.write(blob)
        report = scrub_mod.scrub_fleet(path)
        assert report.exit_code == scrub_mod.EXIT_CORRUPT

    def test_corrupted_checkpoint_is_corruption(self, tmp_path):
        path = self.build_fleet_wal(tmp_path)
        ckpt = str(tmp_path / "w.ckpt")
        doc = json.load(open(ckpt))
        doc["t"] = 123456.0  # mutate content, keep the stored checksum
        with open(ckpt, "w") as fp:
            json.dump(doc, fp)
        report = scrub_mod.scrub_fleet(path)
        assert report.exit_code == scrub_mod.EXIT_CORRUPT

    def test_missing_wal_is_an_io_error(self, tmp_path):
        report = scrub_mod.scrub_fleet(str(tmp_path / "absent.wal"))
        assert report.exit_code == scrub_mod.EXIT_IO

    def test_torn_active_tail_is_only_a_warning(self, tmp_path):
        from repro.service.faults import tear_wal_tail

        path = self.build_fleet_wal(tmp_path)
        tear_wal_tail(path, nbytes=7)
        report = scrub_mod.scrub_fleet(path)
        assert report.exit_code == scrub_mod.EXIT_CLEAN
        assert any(f.kind == "warning" for f in report.findings)

    def test_compacted_header_without_checkpoint_ref_is_corruption(
        self, tmp_path
    ):
        path = self.build_fleet_wal(tmp_path)
        lines = open(path, "r", encoding="utf-8").read().splitlines(True)
        header = json.loads(lines[0].split(" ", 1)[1])
        header.pop("checkpoint")
        body = json.dumps(header, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False)
        import zlib
        frame = f"{zlib.crc32(body.encode()) & 0xFFFFFFFF:08x} {body}\n"
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(frame)
            fp.writelines(lines[1:])
        report = scrub_mod.scrub_fleet(path)
        assert report.exit_code == scrub_mod.EXIT_CORRUPT

    def test_sharded_fleet_scrub(self, tmp_path):
        from repro.service.sharding.paths import shard_path

        base = str(tmp_path / "fleet.wal")
        for shard_id in range(2):
            path = shard_path(base, shard_id, 2)
            service = build_service(path)
            run_submits(service, range(1 + 10 * shard_id,
                                       6 + 10 * shard_id))
            service.close_wal()
        report = scrub_mod.scrub_fleet(base, shards=2)
        assert report.exit_code == scrub_mod.EXIT_CLEAN
        assert report.files == 2

    def test_cli_scrub_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        path = self.build_fleet_wal(tmp_path)
        assert main(["scrub", path]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert main(["scrub", path, "--json"]) == 0
        view = json.loads(capsys.readouterr().out)
        assert view["clean"] is True
        _, _, seg_path = wal_mod.list_segments(path)[0]
        blob = bytearray(open(seg_path, "rb").read())
        blob[len(blob) // 2] ^= 0x01
        with open(seg_path, "wb") as fp:
            fp.write(blob)
        assert main(["scrub", path]) == 1
        capsys.readouterr()
        assert main(["scrub", path, "--json"]) == 1
        view = json.loads(capsys.readouterr().out)
        assert view["clean"] is False
        assert view["findings"]
        assert all(set(f) == {"path", "kind", "detail"} for f in view["findings"])
        assert main(["scrub", str(tmp_path / "nope.wal")]) == 2
