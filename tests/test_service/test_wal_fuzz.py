"""WAL reader fuzz: every truncation and byte flip of a real log.

``read_wal`` has exactly three answers for a damaged file: the valid
record prefix (``torn`` set only when the *final* line is bad), or a
typed ``WalError`` / ``WalCorruptionError``.  These tests cut a small
server-written log at every byte offset and flip every byte of it, and
check that nothing else ever comes out — and that recovering a cut log
rebuilds exactly the engine an uncrashed server holds after the same
surviving requests.  A log written by an earlier build is pinned
byte for byte, so the reader keeps parsing old logs identically.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Optional

import pytest

from repro.service import checkpoint, protocol
from repro.service.engine import AdmissionEngine, EngineConfig
from repro.service.server import AdmissionService
from repro.service.wal import (
    WalCorruptionError,
    WalError,
    WalReadResult,
    WalRecord,
    WalScan,
    WriteAheadLog,
    _check_header,
    _frame,
    _parse_line,
    _record_from,
    _record_payload,
    read_wal,
    recover,
)

CONFIG = EngineConfig(policy="librarisk", num_nodes=4, rating=1.0)


def requests() -> list[dict]:
    """Mutating requests, one WAL record each."""
    out = []
    for job_id in range(1, 8):
        out.append({"v": 1, "type": "submit", "job": {
            "id": job_id, "submit_time": 3.0 * job_id, "runtime": 20.0 + job_id,
            "estimated_runtime": 25.0, "numproc": 1 + job_id % 3,
            "deadline": 40.0 + 9.0 * job_id, "urgency": "high" if job_id % 2 else "low",
        }})
        if job_id == 4:
            out.append({"v": 1, "type": "advance", "to": 14.0})
    return out


def serve(path: str, reqs: list[dict]) -> AdmissionEngine:
    """A WAL-backed service fed ``reqs``; returns its engine."""
    wal = WriteAheadLog.open(path, CONFIG.as_dict())
    service = AdmissionService(AdmissionEngine(CONFIG), wal=wal)
    for request in reqs:
        status, response = service.handle(protocol.encode(request))
        assert status == 200, response
    service.close_wal()
    return service.engine


def state(engine: AdmissionEngine) -> bytes:
    return protocol.encode(checkpoint.snapshot(engine))


@pytest.fixture(scope="module")
def log(tmp_path_factory):
    """The log bytes, each line's end offset, and the full read."""
    path = str(tmp_path_factory.mktemp("wal") / "full.wal")
    serve(path, requests())
    with open(path, "rb") as fp:
        raw = fp.read()
    ends = [i + 1 for i, byte in enumerate(raw) if byte == 0x0A]
    return raw, ends, read_wal(path)


def read_bytes(tmp_path, data: bytes):
    path = tmp_path / "cut.wal"
    path.write_bytes(data)
    return read_wal(str(path))


def fields(records) -> list[tuple]:
    return [(r.lsn, r.t, r.req, r.clamp) for r in records]


def assert_prefix(result, full) -> None:
    got = fields(result.records)
    assert got == fields(full.records[:len(got)])
    assert result.header == full.header


class TestTruncation:
    def test_every_cut_is_the_record_prefix_it_leaves(self, log, tmp_path):
        raw, ends, full = log
        for cut in range(len(raw) + 1):
            if cut < ends[0]:
                with pytest.raises(WalError) as excinfo:
                    read_bytes(tmp_path, raw[:cut])
                assert not isinstance(excinfo.value, WalCorruptionError)
                continue
            result = read_bytes(tmp_path, raw[:cut])
            assert_prefix(result, full)
            whole = [end for end in ends if end <= cut]
            assert len(result.records) == len(whole) - 1
            assert result.valid_bytes == whole[-1]
            assert (result.torn is None) == (cut == whole[-1])

    def test_recovering_a_cut_log_equals_an_uncrashed_run_of_its_prefix(
        self, log, tmp_path
    ):
        raw, ends, _ = log
        reference: dict[int, bytes] = {}
        for cut in range(ends[0], len(raw) + 1):
            path = tmp_path / "cut.wal"
            path.write_bytes(raw[:cut])
            engine, report = recover(str(path))
            survivors = report.replayed
            if survivors not in reference:
                reference[survivors] = state(serve(
                    str(tmp_path / f"ref{survivors}.wal"), requests()[:survivors]
                ))
            assert state(engine) == reference[survivors], cut
        assert len(reference) == len(ends)


class TestByteFlips:
    @pytest.mark.parametrize("mask", [0x01, 0x20, 0x80])
    def test_a_flipped_byte_is_refused_or_torn_never_misread(self, log, tmp_path, mask):
        raw, ends, full = log
        starts = [0] + ends[:-1]
        for position in range(len(raw)):
            if raw[position] == 0x0A:
                continue  # a line merge: the next test's ground
            damaged = bytearray(raw)
            damaged[position] ^= mask
            line = next(i for i, end in enumerate(ends) if position < end)
            if mask == 0x20 and position - starts[line] < 8 and raw[position] >= 0x61:
                # A checksum hex digit changed case: the same number.
                result = read_bytes(tmp_path, bytes(damaged))
                assert result.torn is None and result.records == full.records
            elif line == 0:
                with pytest.raises(WalError):
                    read_bytes(tmp_path, bytes(damaged))
            elif line < len(ends) - 1:
                with pytest.raises(WalCorruptionError):
                    read_bytes(tmp_path, bytes(damaged))
            else:
                result = read_bytes(tmp_path, bytes(damaged))
                assert_prefix(result, full)
                assert result.torn is not None
                assert len(result.records) == len(full.records) - 1
                assert result.valid_bytes == starts[line]

    def test_no_damage_escapes_as_anything_but_a_wal_error(self, log, tmp_path):
        raw, _, full = log
        for position in range(len(raw)):
            for byte in (0x0A, 0x00, 0x7B, 0xFF):
                damaged = bytearray(raw)
                damaged[position] = byte
                try:
                    result = read_bytes(tmp_path, bytes(damaged))
                except WalError:
                    continue
                assert_prefix(result, full)
                if result.torn is not None:
                    # Only the final line may be bad: it is the one dropped.
                    tail = bytes(damaged)[result.valid_bytes:]
                    assert tail.count(b"\n") <= 1


#: A log written by an earlier build of the reader's writer.
PINNED_LOG = (
    b'e3781a25 {"config":{"num_nodes":4,"overrun_floor_share":0.05,"policy":"librarisk",'
    b'"policy_kwargs":{},"rating":1.0,"redistribute_spare":false,"start_time":0.0},'
    b'"format":"repro-admission-wal","version":1}\n'
    b'3db6cae7 {"lsn":1,"req":{"job":{"deadline":100.0,"estimated_runtime":12.5,"id":1,'
    b'"numproc":1,"runtime":10.0,"submit_time":0.0},"trace":"4620730dd78d8888",'
    b'"type":"submit","v":1},"t":0.0}\n'
    b'c878d584 {"lsn":2,"req":{"job":{"deadline":60.0,"estimated_runtime":30.0,"id":2,'
    b'"numproc":2,"submit_time":4.0,"urgency":"high","user":"ana"},'
    b'"trace":"b42f02aaa92650a7","type":"submit","v":1},"t":0.0}\n'
    b'af5bee84 {"lsn":3,"req":{"to":20.0,"type":"advance","v":1},"t":4.0}\n'
    b'6506305f {"lsn":4,"req":{"job":{"deadline":9.5,"estimated_runtime":5.0,"id":3,'
    b'"runtime":5.0,"submit_time":25.0},"trace":"pinned-trace","type":"submit","v":1},'
    b'"t":20.0}\n'
    b'ba972e67 {"clamp":true,"lsn":5,"req":{"job":{"deadline":50.0,"estimated_runtime":1.0,'
    b'"id":4,"submit_time":24.0},"type":"submit","v":1},"t":25.0}\n'
    b'ba58bc45 {"lsn":6,"req":{"type":"drain","v":1},"t":25.0}\n'
)

PINNED_RECORDS = [
    (1, 0.0, {"job": {"deadline": 100.0, "estimated_runtime": 12.5, "id": 1, "numproc": 1,
                      "runtime": 10.0, "submit_time": 0.0},
              "trace": "4620730dd78d8888", "type": "submit", "v": 1}, False),
    (2, 0.0, {"job": {"deadline": 60.0, "estimated_runtime": 30.0, "id": 2, "numproc": 2,
                      "submit_time": 4.0, "urgency": "high", "user": "ana"},
              "trace": "b42f02aaa92650a7", "type": "submit", "v": 1}, False),
    (3, 4.0, {"to": 20.0, "type": "advance", "v": 1}, False),
    (4, 20.0, {"job": {"deadline": 9.5, "estimated_runtime": 5.0, "id": 3, "runtime": 5.0,
                       "submit_time": 25.0},
               "trace": "pinned-trace", "type": "submit", "v": 1}, False),
    (5, 25.0, {"job": {"deadline": 50.0, "estimated_runtime": 1.0, "id": 4,
                       "submit_time": 24.0}, "type": "submit", "v": 1}, True),
    (6, 25.0, {"type": "drain", "v": 1}, False),
]


class TestOldLogs:
    def test_a_log_from_an_earlier_build_reads_identically(self, tmp_path):
        result = read_bytes(tmp_path, PINNED_LOG)
        assert result.torn is None
        assert result.valid_bytes == len(PINNED_LOG)
        assert result.header["config"] == CONFIG.as_dict()
        got = fields(result.records)
        assert got == PINNED_RECORDS
        assert [json.dumps(r, sort_keys=True) for r in got] == \
            [json.dumps(r, sort_keys=True) for r in PINNED_RECORDS]
        for record in result.records:
            assert (type(record.lsn), type(record.t), type(record.clamp)) == (int, float, bool)

    def test_reframing_what_was_read_reproduces_the_bytes(self, tmp_path):
        result = read_bytes(tmp_path, PINNED_LOG)
        reframed = _frame(result.header) + b"".join(
            _frame(_record_payload(record)) for record in result.records
        )
        assert reframed == PINNED_LOG

    def test_records_are_immutable(self, tmp_path):
        record = read_bytes(tmp_path, PINNED_LOG).records[0]
        with pytest.raises(AttributeError):
            record.lsn = 9

    def test_a_record_value_past_float_range_is_torn_not_an_escape(self, tmp_path):
        body = b'{"lsn":7,"req":{"type":"drain","v":1},"t":1' + b"0" * 400 + b"}"
        line = b"%08x " % zlib.crc32(body) + body + b"\n"
        result = read_bytes(tmp_path, PINNED_LOG + line)
        assert "malformed record payload" in result.torn
        assert len(result.records) == len(PINNED_RECORDS)
        with pytest.raises(WalCorruptionError):
            read_bytes(tmp_path, PINNED_LOG + line + line)


# -- the streaming reader against the whole-file reader it replaced ----------------

def whole_file_read_wal(path: str) -> WalReadResult:
    """The whole-file reader the streaming one replaced, kept verbatim."""
    raw = _read_bytes(path)
    if not raw:
        raise WalError(f"{path}: empty WAL file (missing header)")

    lines = raw.split(b"\n")
    # split() leaves a trailing "" when the file ends in \n; anything else
    # in the last slot is an unterminated (torn) final line.
    if lines[-1]:
        unterminated = len(lines) - 1
    else:
        lines.pop()
        unterminated = -1
    final = len(lines) - 1

    header: Optional[dict[str, Any]] = None
    records: list[WalRecord] = []
    append = records.append
    offset = 0
    lsn = 0
    torn: Optional[str] = None
    for index, line in enumerate(lines):
        try:
            if index == unterminated:
                raise ValueError("record is not newline-terminated")
            payload = _parse_line(line)
            if index == 0:
                header = _check_header(path, payload)
                lsn = int(header.get("base_lsn", 0) or 0)
            else:
                lsn += 1
                append(_record_from(path, payload, lsn))
        except WalError:
            # Header defects and LSN sequence breaks survive checksumming,
            # so they cannot be explained by a torn write — always fatal.
            raise
        except ValueError as exc:
            if index == 0:
                raise WalError(f"{path}: unreadable WAL header ({exc})") from exc
            if index != final:
                raise WalCorruptionError(
                    f"{path}: record {index} is invalid before the end of the "
                    f"log ({exc}); refusing to replay an untrustworthy log"
                ) from exc
            torn = f"record {index} ({exc})"
            break
        offset += len(line) + 1
    assert header is not None
    return WalReadResult(header=header, records=records, valid_bytes=offset, torn=torn)


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fp:
            return fp.read()
    except OSError as exc:
        raise WalError(f"cannot read WAL {path}: {exc}") from exc


def outcome(read, path: str) -> tuple:
    """Everything a reader says about one file, exceptions included."""
    try:
        result = read(path)
    except WalError as exc:
        return (type(exc), str(exc))
    return (result.header, fields(result.records), result.valid_bytes, result.torn,
            result.last_lsn)


def streamed(path: str) -> WalReadResult:
    """One :class:`WalScan` pass, collected by hand."""
    with WalScan(path) as scan:
        records = [record for record in scan]
    assert scan.count == len(records)
    return WalReadResult(scan.header, records, scan.valid_bytes, scan.torn)


class TestStreamingParity:
    """The streaming reader gives the whole-file reader's every verdict."""

    def corpus(self, raw: bytes):
        yield raw
        yield b""
        yield raw + raw[:40]
        for cut in range(len(raw)):
            yield raw[:cut]
        for position in range(len(raw)):
            for mask in (0x01, 0x20, 0x80):
                damaged = bytearray(raw)
                damaged[position] ^= mask
                yield bytes(damaged)
            for byte in (0x0A, 0x00, 0x7B, 0xFF):
                damaged = bytearray(raw)
                damaged[position] = byte
                yield bytes(damaged)

    @pytest.mark.parametrize("source", ["served", "pinned"])
    def test_every_damaged_log_reads_the_same(self, log, tmp_path, source):
        raw = log[0] if source == "served" else PINNED_LOG
        path = str(tmp_path / "cut.wal")
        verdicts = set()
        for data in self.corpus(raw):
            with open(path, "wb") as fp:
                fp.write(data)
            expected = outcome(whole_file_read_wal, path)
            assert outcome(read_wal, path) == expected, data
            assert outcome(streamed, path) == expected, data
            verdicts.add(expected[0] if isinstance(expected[0], type) else "read")
        assert verdicts == {WalError, WalCorruptionError, "read"}

    def test_a_missing_file_is_the_same_wal_error(self, tmp_path):
        path = str(tmp_path / "absent.wal")
        assert outcome(streamed, path) == outcome(whole_file_read_wal, path)
