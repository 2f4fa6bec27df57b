"""Write-ahead log tests: on-disk format, durability modes, recovery.

The hard guarantee under test: any prefix of acked mutations can be
replayed from disk into an engine whose state — metrics, decisions,
clock — is byte-identical to the one that wrote the log.
"""

import json
import os
import zlib

import pytest

from repro.service import protocol
from repro.service.engine import AdmissionEngine, EngineConfig
from repro.service.faults import tear_wal_tail
from repro.service.server import AdmissionService
from repro.service.wal import (
    WalCorruptionError,
    WalError,
    WriteAheadLog,
    apply_record,
    read_wal,
    recover,
)
from tests.conftest import job_fields

CONFIG = {"policy": "edf", "num_nodes": 4, "rating": 1.0}


def submit_req(job_id: int, t: float, runtime: float = 10.0) -> dict:
    return {
        "v": protocol.PROTOCOL_VERSION, "type": "submit",
        "job": {
            "id": job_id, "submit_time": t, "runtime": runtime,
            "estimated_runtime": runtime, "numproc": 1, "deadline": 500.0,
        },
    }


def write_log(path, n: int = 3) -> WriteAheadLog:
    wal = WriteAheadLog.open(str(path), config=CONFIG)
    for i in range(1, n + 1):
        wal.append(float(i), submit_req(i, float(i)))
    wal.close()
    return wal


class TestFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.open(str(path), config=CONFIG)
        lsn1 = wal.append(1.0, submit_req(1, 1.0))
        lsn2 = wal.append(2.5, submit_req(2, 2.5), clamp=True)
        wal.close()
        assert (lsn1, lsn2) == (1, 2)

        result = read_wal(str(path))
        assert result.header["config"] == CONFIG
        assert result.torn is None
        assert [r.lsn for r in result.records] == [1, 2]
        assert result.records[0].t == 1.0
        assert result.records[0].clamp is False
        assert result.records[1].clamp is True
        assert result.records[1].req["job"]["id"] == 2

    def test_every_record_is_individually_checksummed(self, tmp_path):
        path = tmp_path / "wal.log"
        write_log(path, n=2)
        for line in path.read_bytes().splitlines():
            stored = int(line[:8], 16)
            assert stored == zlib.crc32(line[9:]) & 0xFFFFFFFF

    def test_append_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.log", tmp_path / "b.log"
        write_log(a, n=4)
        write_log(b, n=4)
        assert a.read_bytes() == b.read_bytes()

    def test_closed_wal_refuses_appends(self, tmp_path):
        wal = write_log(tmp_path / "wal.log")
        with pytest.raises(WalError, match="closed"):
            wal.append(9.0, submit_req(9, 9.0))
        wal.close()  # idempotent

    def test_rejects_non_wal_file(self, tmp_path):
        path = tmp_path / "not.log"
        path.write_text('{"what": "ever"}\n')
        with pytest.raises(WalError, match="unreadable WAL header"):
            read_wal(str(path))

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.log"
        path.write_bytes(b"")
        with pytest.raises(WalError, match="empty"):
            read_wal(str(path))

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(WalError, match="cannot read"):
            read_wal(str(tmp_path / "nope.log"))


class TestCorruption:
    def test_torn_final_record_yields_valid_prefix(self, tmp_path):
        path = tmp_path / "wal.log"
        write_log(path, n=3)
        tear_wal_tail(str(path), 7)
        result = read_wal(str(path))
        assert [r.lsn for r in result.records] == [1, 2]
        assert result.torn is not None and "record 3" in result.torn

    def test_flipped_byte_in_final_record_is_torn(self, tmp_path):
        path = tmp_path / "wal.log"
        write_log(path, n=2)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF
        path.write_bytes(bytes(raw))
        result = read_wal(str(path))
        assert [r.lsn for r in result.records] == [1]
        assert "checksum mismatch" in result.torn

    def test_flipped_byte_mid_log_is_corruption(self, tmp_path):
        path = tmp_path / "wal.log"
        write_log(path, n=3)
        lines = path.read_bytes().splitlines(keepends=True)
        corrupt = bytearray(lines[1])  # first record, not the last
        corrupt[20] ^= 0xFF
        path.write_bytes(b"".join([lines[0], bytes(corrupt)] + lines[2:]))
        with pytest.raises(WalCorruptionError, match="refusing to replay"):
            read_wal(str(path))

    def test_lsn_sequence_break_is_fatal_even_at_tail(self, tmp_path):
        # A record with a valid checksum but the wrong LSN cannot be a
        # torn write; silently dropping it would reorder history.
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.open(str(path), config=CONFIG)
        wal.append(1.0, submit_req(1, 1.0))
        wal.next_lsn = 7  # skip ahead, simulating a buggy writer
        wal.append(2.0, submit_req(2, 2.0))
        wal.close()
        with pytest.raises(WalError, match="LSN sequence broken"):
            read_wal(str(path))

    def test_open_truncates_torn_tail_and_continues(self, tmp_path):
        path = tmp_path / "wal.log"
        write_log(path, n=3)
        tear_wal_tail(str(path), 5)
        wal = WriteAheadLog.open(str(path), config=CONFIG)
        assert wal.next_lsn == 3  # records 1-2 survived, 3 was torn away
        wal.append(9.0, submit_req(9, 9.0))
        wal.close()
        result = read_wal(str(path))
        assert result.torn is None
        assert [r.lsn for r in result.records] == [1, 2, 3]
        assert result.records[-1].req["job"]["id"] == 9


class TestWriteFailures:
    class _FlakyFile:
        """Delegating file wrapper whose next write tears partway."""

        def __init__(self, fp, tear_after: int):
            self.fp = fp
            self.tear_after: int | None = tear_after

        def write(self, data):
            if self.tear_after is not None:
                self.fp.write(bytes(data[: self.tear_after]))
                self.tear_after = None
                raise OSError(28, "No space left on device")
            return self.fp.write(data)

        def fileno(self):
            return self.fp.fileno()

        def close(self):
            self.fp.close()

    def test_failed_append_truncates_torn_bytes_and_continues(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.open(str(path), config=CONFIG)
        wal.append(1.0, submit_req(1, 1.0))
        wal._fp = self._FlakyFile(wal._fp, tear_after=8)
        with pytest.raises(OSError, match="No space left"):
            wal.append(2.0, submit_req(2, 2.0))
        # The torn frame was cut off: the file is a clean one-record log.
        result = read_wal(str(path))
        assert [r.lsn for r in result.records] == [1]
        assert result.torn is None
        # The log is still usable; the failed record's LSN is reused.
        assert not wal.failed
        assert wal.append(2.0, submit_req(2, 2.0)) == 2
        wal.close()
        assert [r.lsn for r in read_wal(str(path)).records] == [1, 2]

    def test_failed_rollback_fails_the_log_permanently(self, tmp_path, monkeypatch):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.open(str(path), config=CONFIG)
        wal.append(1.0, submit_req(1, 1.0))
        wal._fp = self._FlakyFile(wal._fp, tear_after=8)
        monkeypatch.setattr(
            "repro.service.wal.os.ftruncate",
            lambda fd, size: (_ for _ in ()).throw(OSError(5, "I/O error")),
        )
        with pytest.raises(OSError, match="No space left"):
            wal.append(2.0, submit_req(2, 2.0))
        assert wal.failed and wal.closed
        with pytest.raises(WalError, match="failed permanently"):
            wal.append(3.0, submit_req(3, 3.0))

    def test_fsync_failure_fails_the_log(self, tmp_path, monkeypatch):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.open(str(path), config=CONFIG)
        monkeypatch.setattr(
            "repro.service.wal.os.fsync",
            lambda fd: (_ for _ in ()).throw(OSError(5, "I/O error")),
        )
        with pytest.raises(OSError, match="I/O error"):
            wal.append(1.0, submit_req(1, 1.0))
        assert wal.failed
        with pytest.raises(WalError, match="failed permanently"):
            wal.append(2.0, submit_req(2, 2.0))


class TestOpen:
    def test_open_resets_torn_header_only_file(self, tmp_path):
        # A crash during the very first header write leaves a single
        # unterminated line; nothing was ever acked, so open() must
        # start over instead of failing until an operator intervenes.
        path = tmp_path / "wal.log"
        path.write_bytes(b'xxxxxxxx {"format": "repro-adm')
        wal = WriteAheadLog.open(str(path), config=CONFIG)
        wal.append(1.0, submit_req(1, 1.0))
        wal.close()
        result = read_wal(str(path))
        assert result.header["config"] == CONFIG
        assert [r.lsn for r in result.records] == [1]
        assert result.torn is None

    def test_torn_header_with_records_after_it_still_fails(self, tmp_path):
        # Once any newline exists, records may have been acked after the
        # first line — a bad header is then real corruption, not a torn
        # first write.
        path = tmp_path / "wal.log"
        write_log(path, n=1)
        raw = path.read_bytes()
        first_newline = raw.index(b"\n")
        path.write_bytes(b"garbage-header" + raw[first_newline:])
        with pytest.raises(WalError, match="unreadable WAL header"):
            WriteAheadLog.open(str(path), config=CONFIG)

    def test_reopen_continues_lsn_sequence(self, tmp_path):
        path = tmp_path / "wal.log"
        write_log(path, n=2)
        wal = WriteAheadLog.open(str(path), config=CONFIG)
        assert wal.next_lsn == 3
        wal.close()

    def test_reopen_with_different_config_is_refused(self, tmp_path):
        path = tmp_path / "wal.log"
        write_log(path, n=1)
        other = dict(CONFIG, num_nodes=128)
        with pytest.raises(WalError, match="different engine config"):
            WriteAheadLog.open(str(path), config=other)

    def test_unknown_fsync_policy_is_refused(self, tmp_path):
        with pytest.raises(WalError, match="fsync policy"):
            WriteAheadLog.open(str(tmp_path / "w.log"), fsync="sometimes")


class TestFsyncPolicies:
    def test_always_syncs_every_append(self, tmp_path):
        wal = WriteAheadLog.open(str(tmp_path / "w.log"), config=CONFIG)
        for i in range(1, 4):
            wal.append(float(i), submit_req(i, float(i)))
        assert wal.syncs == 4  # header + one per append
        wal.close()

    def test_batch_syncs_every_batch(self, tmp_path):
        wal = WriteAheadLog.open(
            str(tmp_path / "w.log"), config=CONFIG, fsync="batch", batch_size=3
        )
        after_header = wal.syncs
        for i in range(1, 7):
            wal.append(float(i), submit_req(i, float(i)))
        assert wal.syncs == after_header + 2  # at appends 3 and 6
        wal.close()

    def test_none_syncs_only_on_close(self, tmp_path):
        wal = WriteAheadLog.open(
            str(tmp_path / "w.log"), config=CONFIG, fsync="none"
        )
        after_header = wal.syncs
        for i in range(1, 5):
            wal.append(float(i), submit_req(i, float(i)))
        assert wal.syncs == after_header
        wal.close()
        assert wal.syncs == after_header + 1
        # Whatever the policy, the bytes are flushed and readable.
        assert len(read_wal(str(tmp_path / "w.log")).records) == 4


class TestRecovery:
    def service(self, path, **kwargs) -> AdmissionService:
        engine = AdmissionEngine(EngineConfig(**CONFIG))
        wal = WriteAheadLog.open(str(path), config=engine.config.as_dict())
        return AdmissionService(engine, wal=wal, **kwargs)

    def test_recovered_engine_matches_original_exactly(self, tmp_path):
        path = tmp_path / "wal.log"
        svc = self.service(path)
        for i in range(1, 9):
            status, _ = svc.handle(json.dumps(submit_req(i, float(i))).encode())
            assert status == 200
        status, _ = svc.handle(b'{"v": 1, "type": "drain"}')
        assert status == 200
        svc.close_wal()

        engine, report = recover(str(path))
        assert report.replayed == 9 and report.failed == 0
        assert engine.metrics().as_dict() == svc.engine.metrics().as_dict()
        assert [d.as_dict() for d in engine.decisions] == [
            d.as_dict() for d in svc.engine.decisions
        ]
        assert engine.wal_lsn == 9
        for job_id in (1, 4, 8):  # first / middle / last
            assert job_fields(engine.query(job_id)) == job_fields(
                engine.rms.jobs[job_id - 1]
            )
            assert engine.query(job_id).job_id == job_id
        assert engine.query(9) is None

    def test_failed_applications_fail_identically_on_replay(self, tmp_path):
        # An out-of-order submit is appended (append-before-apply) but
        # the apply raises; replay must hit the identical refusal and
        # end in the identical state, not diverge.
        path = tmp_path / "wal.log"
        svc = self.service(path)
        svc.handle(json.dumps(submit_req(1, 100.0)).encode())
        status, response = svc.handle(json.dumps(submit_req(2, 5.0)).encode())
        assert status == 409 and response["error"]["code"] == "out_of_order"
        svc.close_wal()

        engine, report = recover(str(path))
        assert report.replayed == 1 and report.failed == 1
        assert engine.wal_lsn == 2
        assert engine.metrics().as_dict() == svc.engine.metrics().as_dict()

    def test_checkpoint_skips_already_applied_prefix(self, tmp_path):
        from repro.service import checkpoint

        path = tmp_path / "wal.log"
        ckpt = tmp_path / "mid.ckpt.json"
        svc = self.service(path)
        for i in range(1, 4):
            svc.handle(json.dumps(submit_req(i, float(i))).encode())
        checkpoint.save(svc.engine, str(ckpt))
        for i in range(4, 6):
            svc.handle(json.dumps(submit_req(i, float(i))).encode())
        svc.close_wal()

        engine, report = recover(str(path), checkpoint_path=str(ckpt))
        assert report.skipped == 3 and report.replayed == 2
        assert engine.metrics().as_dict() == svc.engine.metrics().as_dict()
        # Ids from the checkpoint (1, 3) and from the replayed tail (5).
        for job_id in (1, 3, 5):
            assert job_fields(engine.query(job_id)) == job_fields(
                engine.rms.jobs[job_id - 1]
            )

    def test_recover_without_config_or_checkpoint_fails(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.open(str(path))  # header carries no config
        wal.append(1.0, submit_req(1, 1.0))
        wal.close()
        with pytest.raises(WalError, match="no engine config"):
            recover(str(path))

    @pytest.mark.parametrize("patch, cause", [
        ({"policy": "libra-budget"}, ValueError),  # a policy this build lacks
        ({"bogus": 1}, TypeError),
        ({"num_nodes": 0}, ValueError),
    ], ids=["unknown-policy", "unknown-key", "zero-nodes"])
    def test_config_this_build_cannot_construct_is_typed(
        self, tmp_path, capsys, patch, cause
    ):
        from repro.cli import main

        path = tmp_path / "wal.log"
        wal = WriteAheadLog.open(str(path), config={**CONFIG, **patch})
        wal.append(1.0, submit_req(1, 1.0))
        wal.close()
        with pytest.raises(WalError, match="cannot build an engine") as info:
            recover(str(path))
        assert isinstance(info.value.__cause__, cause)

        capsys.readouterr()
        assert main(["recover", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro recover: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_ids_beyond_int64_recover(self, tmp_path):
        # The protocol sets no upper bound on a client's id, so a log can
        # hold any: every such job comes back, answered as before.
        path = tmp_path / "wal.log"
        svc = self.service(path)
        ids = (2**63, 3, 2**64 + 5)
        for i, job_id in enumerate(ids):
            status, _ = svc.handle(json.dumps(submit_req(job_id, float(i))).encode())
            assert status == 200
        svc.close_wal()

        engine, report = recover(str(path))
        assert report.replayed == 3 and report.failed == 0
        assert [d.as_dict() for d in engine.decisions] == [
            d.as_dict() for d in svc.engine.decisions
        ]
        engine.drain()
        svc.engine.drain()
        for job_id in ids:
            assert job_fields(engine.query(job_id)) == job_fields(svc.engine.query(job_id))

    def test_a_numproc_beyond_int64_recovers(self, tmp_path):
        # The protocol sets only a minimum on numproc, so a log can hold a
        # submit wider than a row's int64 field; the policy rejects it
        # with a 200, and recovery brings it back answered as before.
        path = tmp_path / "wal.log"
        svc = self.service(path)
        wide = submit_req(7, 1.0)
        wide["job"]["numproc"] = 2**63
        for req in (submit_req(3, 0.5), wide, submit_req(9, 2.0)):
            status, _ = svc.handle(json.dumps(req).encode())
            assert status == 200
        query = json.dumps({"v": protocol.PROTOCOL_VERSION, "type": "query", "job": 7})
        before = svc.handle(query.encode())
        svc.close_wal()

        engine, report = recover(str(path))
        assert report.replayed == 3 and report.failed == 0
        assert engine.query(7).numproc == 2**63
        assert AdmissionService(engine).handle(query.encode()) == before
        engine.drain()
        svc.engine.drain()
        for job_id in (3, 7, 9):
            assert job_fields(engine.query(job_id)) == job_fields(svc.engine.query(job_id))

    def test_recovered_service_assigns_fresh_auto_ids(self, tmp_path):
        # Recovery rebuilds jobs under their original explicit ids; a
        # later submit *without* an id must draw a fresh one, not
        # collide with a recovered job (which would 409 — or worse,
        # silently answer with the old job's decision).
        path = tmp_path / "wal.log"
        svc = self.service(path)
        big = 54_321
        for i in range(3):
            status, _ = svc.handle(
                json.dumps(submit_req(big + i, float(i))).encode()
            )
            assert status == 200
        svc.close_wal()

        engine, _ = recover(str(path))
        svc2 = AdmissionService(engine)
        req = {
            "v": protocol.PROTOCOL_VERSION, "type": "submit",
            "job": {
                "submit_time": 10.0, "runtime": 5.0, "estimated_runtime": 5.0,
                "numproc": 1, "deadline": 500.0,
            },
        }
        status, response = svc2.handle(json.dumps(req).encode())
        assert status == 200
        assert "duplicate" not in response
        assert response["decision"]["job"] > big + 2

    def test_apply_record_rejects_non_mutating_request(self):
        from repro.service.wal import WalRecord

        engine = AdmissionEngine(EngineConfig(**CONFIG))
        record = WalRecord(lsn=1, t=0.0, req={"v": 1, "type": "stats"})
        with pytest.raises(WalError, match="non-mutating"):
            apply_record(engine, record)

    def test_wal_metrics_are_exported(self, tmp_path):
        svc = self.service(tmp_path / "wal.log")
        svc.handle(json.dumps(submit_req(1, 1.0)).encode())
        svc.prometheus_text()  # the WAL gauges are sampled at scrape time
        appends = svc.registry.get("service_wal_appends_total")
        last_lsn = svc.registry.get("service_wal_last_lsn")
        assert appends is not None and appends.value == 1
        assert last_lsn is not None and last_lsn.value == 1
        svc.close_wal()
        assert os.path.getsize(svc.wal.path) > 0
