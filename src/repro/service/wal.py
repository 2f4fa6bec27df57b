"""Write-ahead log and crash recovery for the admission service.

The service's hard promise is that an admission decision, once acked,
is never lost or re-decided differently — even across ``kill -9``.  The
mechanism is the classic one: every state-mutating protocol request
(``submit``/``advance``/``drain``) is durably appended here *before* it
is applied to the engine, and recovery replays the log on top of the
latest checkpoint.  Because the engine is deterministic (see
:mod:`repro.service.engine`), replaying the same request sequence from
the same base state reproduces byte-identical engine state and metrics.

On-disk format
--------------
A UTF-8 text file of newline-terminated records, each individually
checksummed::

    <crc32 as 8 hex chars> <canonical JSON payload>\\n

The first record is a header identifying the log and pinning the
engine configuration it belongs to::

    {"format": "repro-admission-wal", "version": 1, "config": {...}}

Every subsequent record wraps one protocol request::

    {"lsn": 7, "t": 1041.5, "clamp": false, "req": {"v": 1, "type": ...}}

* ``lsn`` — monotonically increasing log sequence number (1-based);
  checkpoints store the last applied LSN so recovery can skip the
  already-materialised prefix.
* ``t`` — the engine clock at append time.  Replay advances the kernel
  here first, which reproduces the effect of live-clock ``poll()``
  without having to log wall time.
* ``clamp`` — whether the server would have clamped a stale submit
  time (live clocks do); replay passes the same flag.

Torn tails
----------
A crash can tear the *last* record mid-write.  Readers treat an
invalid **final** record (short line, bad checksum, truncated JSON) as
a torn tail: the valid prefix is recovered and the tail is reported
(and truncated before the next append).  An invalid record anywhere
*before* the final one cannot be explained by a crash and raises
:class:`WalCorruptionError` — silently skipping interior records would
violate the replay-order contract.

Fsync policy
------------
``fsync="always"`` (the default) makes every append durable before it
is acknowledged — this is the mode under which the kill-and-recover
guarantee holds.  ``"batch"`` fsyncs every ``batch_size`` appends (and
on close), trading the tail of the log for throughput; ``"none"``
leaves durability to the OS page cache.

Compaction
----------
Logs would otherwise grow without bound, so :meth:`WriteAheadLog.compact`
anchors the log on a checkpoint: it snapshots the engine, moves every
record at or below the engine's applied LSN into an **archive segment**
(``<wal>.seg<first>-<last>``, same framed format, atomically renamed),
and rewrites the live log to a short tail whose header carries
``base_lsn`` (records resume at ``base_lsn + 1``) and a ``checkpoint``
reference (path + SHA-256).  :func:`recover` chains the referenced
checkpoint transparently, so a compacted log restores byte-identically
to replaying the full history.  Every step is a whole-file write +
``os.replace``: a crash at any point leaves either the old layout or
the new one, never a hybrid.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Callable, Iterator, NamedTuple, Optional

from repro.cluster.job import reserve_job_ids
from repro.obs.log import get_logger
from repro.service import protocol
from repro.service.engine import AdmissionEngine, EngineConfig, EngineError
from repro.service.protocol import ProtocolError

log = get_logger("service.wal")

#: Identifies a WAL file (first record's ``format`` field).
WAL_FORMAT = "repro-admission-wal"

#: Bumped whenever the record schema changes incompatibly.
WAL_VERSION = 1

#: Allowed fsync policies.
FSYNC_POLICIES = ("always", "batch", "none")

#: Request types that mutate engine state and therefore must be logged.
MUTATING_TYPES = frozenset({"submit", "advance", "drain"})

#: Records :class:`WalScan` decodes before handing them on.  Replaying
#: each record as soon as it is decoded costs a wide EDF recovery ~8 %
#: in lost locality between the decoder and the engine; a batch of 16
#: (~20 KB) wins it back.
_READ_AHEAD = 16

#: Archive segment suffix: ``<wal>.seg<first lsn>-<last lsn>`` (zero-padded).
_SEGMENT_RE = re.compile(r"\.seg(\d{8})-(\d{8})$")


class WalError(ValueError):
    """Raised for WAL misuse or unreadable log files."""


class WalCorruptionError(WalError):
    """An interior record is invalid — the log cannot be trusted."""


def _frame(payload: dict[str, Any]) -> bytes:
    """One wire record: crc32 of the canonical JSON, space, JSON, newline."""
    body = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
        allow_nan=False,
    ).encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return b"%08x " % crc + body + b"\n"


def _parse_line(line: bytes) -> dict[str, Any]:
    """Decode one record line (newline already split off).

    Raises ``ValueError`` on any defect.
    """
    if len(line) < 9 or line[8:9] != b" ":
        raise ValueError("record frame is too short")
    expected = int(line[:8], 16)
    body = line[9:]
    actual = zlib.crc32(body)
    if actual != expected:
        raise ValueError(
            f"checksum mismatch (stored {expected:08x}, computed {actual:08x})"
        )
    payload = protocol.decode_json(body.decode("utf-8"))
    if type(payload) is not dict:
        raise ValueError("record payload is not a JSON object")
    return payload


class WalRecord(NamedTuple):
    """One replayable request as read back from the log.

    A named tuple rather than a frozen dataclass, which would pay an
    ``object.__setattr__`` per field for every record read.
    """

    lsn: int
    t: float
    req: dict[str, Any]
    clamp: bool = False


@dataclass
class WalReadResult:
    """Everything a reader learned from one pass over a log file."""

    header: dict[str, Any]
    records: list[WalRecord]
    #: Byte offset of the end of the last *valid* record (truncation point).
    valid_bytes: int
    #: Human-readable description of a torn tail, or ``None`` if clean.
    torn: Optional[str] = None

    @property
    def base_lsn(self) -> int:
        """Last LSN materialised by the compaction checkpoint (0 = none)."""
        return int(self.header.get("base_lsn", 0) or 0)

    @property
    def last_lsn(self) -> int:
        return self.records[-1].lsn if self.records else self.base_lsn


def _open_log(path: str) -> BinaryIO:
    try:
        return open(path, "rb")
    except OSError as exc:
        raise WalError(f"cannot read WAL {path}: {exc}") from exc


def discard_torn_header(path: str) -> bool:
    """Reset a WAL holding only a torn header line; returns True if reset.

    A crash during the very first header write leaves a single
    unterminated line.  Records only ever follow a newline-terminated
    header, so nothing can have been acked from such a file — it is
    safe (and far kinder than failing until an operator deletes it by
    hand) to truncate it to empty and start over.  Files that are
    missing, empty, or contain any newline are left untouched.
    """
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return False
    with _open_log(path) as fp:
        if fp.readline().endswith(b"\n"):
            return False
    log.warning(
        "%s: discarding torn header-only WAL (no record was ever acked)", path
    )
    with open(path, "r+b") as fp:
        fp.truncate(0)
        fp.flush()
        os.fsync(fp.fileno())
    return True


class WalScan:
    """One validating pass over a log file, a few records at a time.

    Opening reads and checks the header; iterating yields the records
    in LSN order, holding at most a few decoded records.  Every
    verdict is the one a whole-file read would give: an invalid final
    line ends the pass as a torn tail (:attr:`torn`), an invalid line
    with anything after it raises :class:`WalCorruptionError`, and a
    header defect or an LSN break raises :class:`WalError` wherever it
    is.  Once iteration ends, :attr:`valid_bytes` is the offset of the
    end of the last valid record and :attr:`last_lsn` its LSN.  Use it
    as a context manager so the file closes even if the pass stops
    early::

        with WalScan(path) as scan:
            for record in scan:
                ...
    """

    def __init__(self, path: str) -> None:
        self.path = path
        #: Human-readable description of a torn tail, or ``None`` if clean.
        self.torn: Optional[str] = None
        self._fp = _open_log(path)
        try:
            line = self._fp.readline()
            if not line:
                raise WalError(f"{path}: empty WAL file (missing header)")
            try:
                if not line.endswith(b"\n"):
                    raise ValueError("record is not newline-terminated")
                payload = _parse_line(line[:-1])
            except ValueError as exc:
                raise WalError(f"{path}: unreadable WAL header ({exc})") from exc
            self.header: dict[str, Any] = _check_header(path, payload)
        except BaseException:
            self._fp.close()
            raise
        #: Byte offset of the end of the last *valid* record (truncation point).
        self.valid_bytes = len(line)
        #: Last LSN materialised by the compaction checkpoint (0 = none).
        self.base_lsn = int(self.header.get("base_lsn", 0) or 0)
        #: LSN of the last valid record read so far (``base_lsn`` before any).
        self.last_lsn = self.base_lsn
        #: Valid records read so far.
        self.count = 0

    def __enter__(self) -> "WalScan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._fp.close()

    def __iter__(self) -> Iterator[WalRecord]:
        path, fp = self.path, self._fp
        batch: list[WalRecord] = []
        for line in fp:
            try:
                if not line.endswith(b"\n"):
                    raise ValueError("record is not newline-terminated")
                record = _record_from(path, _parse_line(line[:-1]), self.last_lsn + 1)
            except WalError:
                # LSN sequence breaks survive checksumming, so they cannot
                # be explained by a torn write — always fatal.
                raise
            except ValueError as exc:
                index = self.count + 1  # every earlier line was valid
                if fp.read(1):
                    raise WalCorruptionError(
                        f"{path}: record {index} is invalid before the end of the "
                        f"log ({exc}); refusing to replay an untrustworthy log"
                    ) from exc
                self.torn = f"record {index} ({exc})"
                break
            self.last_lsn = record.lsn
            self.valid_bytes += len(line)
            self.count += 1
            batch.append(record)
            if len(batch) == _READ_AHEAD:
                yield from batch
                batch.clear()
        yield from batch


def scan_wal(path: str) -> WalScan:
    """A finished pass over ``path``: its header, counts and torn tail,
    with no record kept (the checks a reopen or a scrub needs)."""
    with WalScan(path) as scan:
        for _ in scan:
            pass
    return scan


def read_wal(path: str) -> WalReadResult:
    """Read and validate a WAL file, tolerating a torn final record.

    The list-building form of :class:`WalScan`, for callers that want
    every record at once (tests, tools); the service streams.

    Raises
    ------
    WalError
        If the file is missing, empty, or has a bad header.
    WalCorruptionError
        If a record *before* the final one is invalid.
    """
    with WalScan(path) as scan:
        records = list(scan)
    return WalReadResult(
        header=scan.header, records=records, valid_bytes=scan.valid_bytes,
        torn=scan.torn,
    )


def _check_header(path: str, payload: dict[str, Any]) -> dict[str, Any]:
    if payload.get("format") != WAL_FORMAT:
        raise WalError(f"{path}: not a WAL file (format={payload.get('format')!r})")
    if payload.get("version") != WAL_VERSION:
        raise WalError(
            f"{path}: unsupported WAL version {payload.get('version')!r} "
            f"(this build reads v{WAL_VERSION})"
        )
    base = payload.get("base_lsn", 0)
    if not isinstance(base, int) or base < 0:
        raise WalError(f"{path}: invalid base_lsn {base!r} in WAL header")
    return payload


def _record_from(path: str, payload: dict[str, Any], expected: int) -> WalRecord:
    """The record a decoded line holds, which must carry LSN ``expected``."""
    try:
        lsn = int(payload["lsn"])
        t = float(payload["t"])
        req = payload["req"]
        # A freshly decoded object is this record's alone: no copy.
        if type(req) is not dict:
            req = dict(req)
        record = WalRecord(lsn, t, req, bool(payload.get("clamp", False)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed record payload: {exc}") from exc
    if record.lsn != expected:
        raise WalError(
            f"{path}: LSN sequence broken (expected {expected}, got {record.lsn})"
        )
    return record


def _record_payload(record: WalRecord) -> dict[str, Any]:
    """Invert :func:`_record_from`: byte-identical when re-framed."""
    payload: dict[str, Any] = {"lsn": record.lsn, "t": record.t, "req": record.req}
    if record.clamp:
        payload["clamp"] = True
    return payload


def list_segments(path: str) -> list[tuple[int, int, str]]:
    """Archive segments of ``path`` as sorted ``(first, last, seg_path)``.

    Segments are recognised purely by name
    (``<wal>.seg<first:08d>-<last:08d>``); contents are not validated
    here — that is :mod:`repro.service.scrub`'s job.
    """
    directory = os.path.dirname(path) or "."
    base = os.path.basename(path)
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    out: list[tuple[int, int, str]] = []
    for name in names:
        if not name.startswith(base + ".seg"):
            continue
        match = _SEGMENT_RE.search(name)
        if match:
            out.append(
                (int(match.group(1)), int(match.group(2)),
                 os.path.join(directory, name))
            )
    out.sort()
    return out


class _AtomicFile:
    """A file written under a temporary name in its directory, then made
    durable and renamed into place by :meth:`commit` (tmp, fsync, rename,
    directory fsync).  Until then the real path is untouched; a file
    never committed is removed by :meth:`discard`."""

    def __init__(self, path: str) -> None:
        self._directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, self._tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".", suffix=".tmp", dir=self._directory
        )
        self._fp: Optional[BinaryIO] = os.fdopen(fd, "wb")
        self.size = 0

    def write(self, data: bytes) -> None:
        assert self._fp is not None
        self._fp.write(data)
        self.size += len(data)

    def commit(self, path: str) -> None:
        """Make the bytes durable and rename them over ``path``."""
        assert self._fp is not None
        try:
            self._fp.flush()
            os.fsync(self._fp.fileno())
            self._fp.close()
            self._fp = None
            os.replace(self._tmp_path, path)
        except BaseException:
            self.discard()
            raise
        try:
            dir_fd = os.open(self._directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass

    def discard(self) -> None:
        """Drop an uncommitted file (a no-op once committed)."""
        if self._fp is None:
            return
        try:
            self._fp.close()
            os.unlink(self._tmp_path)
        except OSError:
            pass
        self._fp = None


class WriteAheadLog:
    """Appender half of the log: durable, checksummed, crash-tolerant.

    Use :meth:`open` — it creates a fresh log (writing the header) or
    re-opens an existing one, validating its header against ``config``
    and truncating a torn tail so appends continue from a clean
    prefix.

    Write failures (``ENOSPC``, ``EIO``) never leave torn bytes in the
    *middle* of the log: a failed append is truncated back to the end
    of the last good record before any later append is accepted, and if
    that rollback itself fails — or an fsync fails, leaving durability
    of already-acked records unknowable — the log is marked
    :attr:`failed` and refuses every further append, so nothing can be
    acked against a file recovery would reject.
    """

    def __init__(
        self,
        path: str,
        fsync: str = "always",
        batch_size: int = 64,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise WalError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_POLICIES}"
            )
        if batch_size < 1:
            raise WalError("batch_size must be >= 1")
        self.path = path
        self.fsync = fsync
        self.batch_size = int(batch_size)
        self.next_lsn = 1
        self.appended = 0
        self.bytes_written = 0
        self.syncs = 0
        #: Last LSN folded into the compaction checkpoint (0 = never compacted).
        self.base_lsn = 0
        #: Completed :meth:`compact` passes over this handle's lifetime.
        self.compactions = 0
        #: Permanently broken (failed rollback or fsync); appends refused.
        self.failed = False
        self._unsynced = 0
        #: File offset of the end of the last fully-written frame — the
        #: truncation point if a later frame write fails partway.
        self._good_offset = 0
        self._fp: Optional[Any] = None

    # -- lifecycle ----------------------------------------------------------
    @classmethod
    def open(  # repro-lint: safe=CONC001  constructs the WAL before it is published
        cls,
        path: str,
        config: Optional[dict[str, Any]] = None,
        fsync: str = "always",
        batch_size: int = 64,
    ) -> "WriteAheadLog":
        """Create or re-open ``path`` for appending.

        A new file gets a header carrying ``config``; an existing file
        must have a matching header (serving a different cluster from
        the same log would make replay nonsense), and a torn tail is
        truncated away before the first append.
        """
        wal = cls(path, fsync=fsync, batch_size=batch_size)
        if discard_torn_header(path):
            exists = False
        else:
            exists = os.path.exists(path) and os.path.getsize(path) > 0
        if exists:
            scan = scan_wal(path)
            if config is not None and scan.header.get("config") not in (None, config):
                raise WalError(
                    f"{path}: WAL belongs to a different engine config; "
                    f"refusing to append (use a fresh log per configuration)"
                )
            if scan.torn is not None:
                log.warning(
                    "%s: truncating torn tail at byte %d (%s)",
                    path, scan.valid_bytes, scan.torn,
                )
                with open(path, "r+b") as fp:
                    fp.truncate(scan.valid_bytes)
                    fp.flush()
                    os.fsync(fp.fileno())
            wal.next_lsn = scan.last_lsn + 1
            wal.base_lsn = scan.base_lsn
            wal._fp = open(path, "ab", buffering=0)
            wal._good_offset = scan.valid_bytes
        else:
            wal._fp = open(path, "ab", buffering=0)
            header: dict[str, Any] = {"format": WAL_FORMAT, "version": WAL_VERSION}
            if config is not None:
                header["config"] = config
            wal._write(_frame(header))
            wal._sync()
        return wal

    @property
    def closed(self) -> bool:
        return self._fp is None

    def close(self) -> None:
        """Flush, fsync, and close; safe to call twice."""
        if self._fp is None:
            return
        self._sync()
        self._fp.close()
        self._fp = None

    # -- appending ----------------------------------------------------------
    def append(self, t: float, req: dict[str, Any], clamp: bool = False) -> int:
        """Durably log one request; returns its assigned LSN.

        Under ``fsync="always"`` the record is on disk when this
        returns — which is exactly what lets the caller ack the
        decision afterwards.
        """
        if self.failed:
            raise WalError(
                f"{self.path}: WAL failed permanently after a write error; "
                f"refusing to ack records against an untrustworthy log"
            )
        if self._fp is None:
            raise WalError(f"{self.path}: WAL is closed")
        lsn = self.next_lsn
        payload = {"lsn": lsn, "t": float(t), "req": req}
        if clamp:
            payload["clamp"] = True
        self._write(_frame(payload))
        self.next_lsn = lsn + 1
        self.appended += 1
        self._unsynced += 1
        if self.fsync == "always" or (
            self.fsync == "batch" and self._unsynced >= self.batch_size
        ):
            self._sync()
        return lsn

    # -- compaction ---------------------------------------------------------
    def compact(
        self,
        engine: Any,
        checkpoint_path: str,
        crash: Optional[Callable[[str], None]] = None,
    ) -> "CompactionReport":
        """Checkpoint ``engine`` and archive every record it has applied.

        Three crash-safe steps, each a file written under a temporary
        name, fsynced and atomically renamed into place:

        1. snapshot the engine to ``checkpoint_path``
           (:func:`repro.service.checkpoint.save`);
        2. copy records with ``lsn <= engine.wal_lsn`` into an archive
           segment named ``<wal>.seg<first>-<last>``;
        3. replace the live log with a tail whose header carries
           ``base_lsn = engine.wal_lsn`` and a checkpoint reference
           (path + content SHA-256), keeping only not-yet-checkpointed
           records.

        Steps 2 and 3 stream the log once, record by record, so the pass
        holds no more of the log than :func:`recover` does.

        A crash before step 3 leaves the full log intact (the new
        checkpoint and segment are redundant but harmless — stale
        segments are swept on the next pass); a crash after step 3
        leaves a compacted log that :func:`recover` chains through the
        referenced checkpoint.  Either way recovery is byte-identical.

        ``crash`` is the fault-injection hook (``compact.before_snapshot``,
        ``compact.after_snapshot``, ``compact.after_truncate``); pass
        :meth:`AdmissionService._crash` to make the windows drillable.
        """
        from repro.service import checkpoint as checkpoint_mod

        if self.failed:
            raise WalError(f"{self.path}: cannot compact a failed WAL")
        if self._fp is None:
            raise WalError(f"{self.path}: cannot compact a closed WAL")

        def hook(point: str) -> None:
            if crash is not None:
                crash(point)

        hook("compact.before_snapshot")
        doc = checkpoint_mod.save(engine, checkpoint_path)
        checkpoint_sha = str(doc["checksum"]["hex"])
        hook("compact.after_snapshot")

        compact_lsn = int(engine.wal_lsn)
        self._sync()
        bytes_before = os.path.getsize(self.path)
        # One pass copies each record, frame by frame, into the archive
        # segment (lsn <= compact_lsn) or the new tail.  Both are temp
        # files until committed, segment first.
        segment_file: Optional[_AtomicFile] = None
        tail_file: Optional[_AtomicFile] = None
        try:
            with WalScan(self.path) as scan:
                header = scan.header
                report = CompactionReport(
                    first_lsn=0, last_lsn=compact_lsn, archived=0, retained=0,
                    checkpoint=checkpoint_path, bytes_before=bytes_before,
                    bytes_after=bytes_before,
                )
                tail_opened = False
                last_archived = 0
                for record in scan:
                    frame = _frame(_record_payload(record))
                    if record.lsn <= compact_lsn:
                        if segment_file is None:
                            report.first_lsn = record.lsn
                            seg_header = dict(header)
                            # The reference moves with the tail.
                            seg_header.pop("checkpoint", None)
                            segment_file = _AtomicFile(self.path)
                            segment_file.write(_frame(seg_header))
                        segment_file.write(frame)
                        report.archived += 1
                        last_archived = record.lsn
                        continue
                    if not tail_opened:
                        tail_opened = True
                        tail_file = self._tail_file(
                            header, report.archived, compact_lsn, checkpoint_path,
                            checkpoint_sha,
                        )
                    if tail_file is not None:
                        tail_file.write(frame)
                    report.retained += 1
                if not tail_opened:
                    tail_file = self._tail_file(
                        header, report.archived, compact_lsn, checkpoint_path,
                        checkpoint_sha,
                    )

            if segment_file is not None:
                # Sweep stale segments from an interrupted earlier pass: any
                # segment reaching past the current base still has all of
                # its records in the live log, so dropping it loses nothing.
                for _first, last, seg_path in list_segments(self.path):
                    if last > self.base_lsn:
                        try:
                            os.unlink(seg_path)
                        except OSError:  # pragma: no cover - best-effort sweep
                            pass
                report.segment = (
                    f"{self.path}.seg{report.first_lsn:08d}-{last_archived:08d}"
                )
                segment_file.commit(report.segment)
            if tail_file is not None:
                self._fp.close()
                self._fp = None
                try:
                    tail_file.commit(self.path)
                except BaseException:
                    self._fail(
                        "compaction tail replace failed" if report.archived
                        else "checkpoint reference refresh failed"
                    )
                    raise
                self._fp = open(self.path, "ab", buffering=0)
                self._good_offset = tail_file.size
                self._unsynced = 0
                report.bytes_after = tail_file.size
        finally:
            for file in (segment_file, tail_file):
                if file is not None:
                    file.discard()
        if report.archived:
            self.base_lsn = compact_lsn
            self.compactions += 1
            log.info(
                "%s: compacted %d records (lsn<=%d) into %s; tail %d -> %d bytes",
                self.path, report.archived, compact_lsn, report.segment,
                bytes_before, report.bytes_after,
            )
        hook("compact.after_truncate")
        return report

    def _tail_file(
        self,
        header: dict[str, Any],
        archived: int,
        compact_lsn: int,
        checkpoint_path: str,
        checkpoint_sha: str,
    ) -> Optional[_AtomicFile]:
        """The new live log, its header written; ``None`` to keep the log.

        With records archived, the tail starts at ``base_lsn =
        compact_lsn`` and references the new checkpoint.  With none, the
        log is kept as it is, unless the snapshot just overwrote the very
        checkpoint its header references (a recovered engine re-derives
        kernel sequence numbers, changing the content checksum): then
        the stale reference is refreshed, or the next recovery would
        refuse the chain.
        """
        if archived:
            cp_abs = os.path.abspath(checkpoint_path)
            if os.path.dirname(cp_abs) == os.path.dirname(os.path.abspath(self.path)):
                ref_path = os.path.basename(checkpoint_path)
            else:
                ref_path = cp_abs
            new_header: dict[str, Any] = {"format": WAL_FORMAT, "version": WAL_VERSION}
            if "config" in header:
                new_header["config"] = header["config"]
            new_header["base_lsn"] = compact_lsn
            new_header["checkpoint"] = {"path": ref_path, "sha256": checkpoint_sha}
        else:
            old_ref = header.get("checkpoint")
            if not isinstance(old_ref, dict):
                return None
            old_path = str(old_ref.get("path", ""))
            if not os.path.isabs(old_path):
                old_path = os.path.join(os.path.dirname(self.path) or ".", old_path)
            if (
                os.path.abspath(old_path) != os.path.abspath(checkpoint_path)
                or old_ref.get("sha256") == checkpoint_sha
            ):
                return None
            new_header = dict(header)
            new_header["checkpoint"] = {
                "path": old_ref.get("path"), "sha256": checkpoint_sha,
            }
        tail = _AtomicFile(self.path)
        tail.write(_frame(new_header))
        return tail

    def _write(self, frame: bytes) -> None:
        """Write one whole frame (unbuffered fd), rolling back any tear."""
        assert self._fp is not None
        view = memoryview(frame)
        try:
            while view:
                written = self._fp.write(view)
                view = view[written:]
        except OSError:
            self._rollback()
            raise
        self.bytes_written += len(frame)
        self._good_offset += len(frame)

    def _rollback(self) -> None:
        """A frame tore mid-write: cut it off, or fail the log for good.

        Truncating back to the last good frame keeps the file valid so
        later appends (after the caller surfaces the error un-acked)
        land on a clean prefix instead of after garbage — which would
        be interior corruption that recovery rightly refuses to replay.
        """
        assert self._fp is not None
        try:
            os.ftruncate(self._fp.fileno(), self._good_offset)
            os.fsync(self._fp.fileno())
        except OSError as exc:
            self._fail(f"could not truncate a torn append ({exc})")

    def _fail(self, reason: str) -> None:
        """Mark the log permanently unusable; every later append raises."""
        self.failed = True
        log.error("%s: WAL failed permanently: %s", self.path, reason)
        if self._fp is not None:
            try:
                self._fp.close()
            except OSError:
                pass
            self._fp = None

    def _sync(self) -> None:
        assert self._fp is not None
        if self._unsynced or self.syncs == 0:
            try:
                os.fsync(self._fp.fileno())
            except OSError as exc:
                # Post-fsync-failure page-cache state is unknowable; no
                # further record may be acked against this file.
                self._fail(f"fsync failed ({exc})")
                raise
            self.syncs += 1
            self._unsynced = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WriteAheadLog path={self.path!r} fsync={self.fsync} "
            f"next_lsn={self.next_lsn} appended={self.appended}>"
        )


# -- compaction ---------------------------------------------------------------

@dataclass
class CompactionReport:
    """What one :meth:`WriteAheadLog.compact` pass did."""

    first_lsn: int
    last_lsn: int
    archived: int
    retained: int
    checkpoint: str
    bytes_before: int
    bytes_after: int
    segment: Optional[str] = None


def resolve_checkpoint_ref(wal_path: str, header: dict[str, Any]) -> Optional[str]:
    """Path of the checkpoint a compacted WAL header references.

    Returns ``None`` when the header carries no reference.  Relative
    paths resolve against the WAL's directory.  The file must exist;
    :func:`read_checkpoint_ref` reads and verifies it.
    """
    ref = header.get("checkpoint")
    if ref is None:
        return None
    if not isinstance(ref, dict) or not ref.get("path"):
        raise WalError(f"{wal_path}: malformed checkpoint reference {ref!r}")
    path = str(ref["path"])
    if not os.path.isabs(path):
        path = os.path.join(os.path.dirname(wal_path) or ".", path)
    if not os.path.exists(path):
        raise WalError(
            f"{wal_path}: compacted WAL references missing checkpoint {path}; "
            f"records at or below base_lsn are only recoverable through it"
        )
    return path


def read_checkpoint_ref(
    wal_path: str, header: dict[str, Any], path: str
) -> tuple[dict[str, Any], Optional[str]]:
    """The referenced checkpoint at ``path``, decoded once and verified.

    Returns what :func:`repro.service.checkpoint.read` returns, which
    checks the file against its own checksum.  That checksum must also
    equal the SHA-256 the WAL recorded at compaction time — a swapped or
    regenerated checkpoint would otherwise silently splice a different
    history under the tail.
    """
    from repro.service import checkpoint as checkpoint_mod

    try:
        snap, stored = checkpoint_mod.read(path)
    except OSError as exc:
        raise WalError(f"{wal_path}: unreadable referenced checkpoint {path}: {exc}") from exc
    except checkpoint_mod.CheckpointError as exc:
        if not isinstance(exc.__cause__, ValueError):  # decoded, but corrupt
            raise
        raise WalError(  # not UTF-8, not JSON
            f"{wal_path}: unreadable referenced checkpoint {path}: {exc.__cause__}"
        ) from exc
    expected = header["checkpoint"].get("sha256")
    if stored != expected:
        raise WalError(
            f"{path}: checkpoint SHA-256 does not match the WAL's compaction "
            f"reference (stored {stored}, expected {expected})"
        )
    return snap, stored


# -- recovery -----------------------------------------------------------------

@dataclass
class RecoveryReport:
    """What one recovery pass did, for operators and tests."""

    wal_records: int = 0
    replayed: int = 0
    skipped: int = 0
    failed: int = 0
    last_lsn: int = 0
    torn: Optional[str] = None
    checkpoint: Optional[str] = None
    horizon: float = 0.0
    outcomes: dict[str, int] = field(default_factory=dict)

    def __str__(self) -> str:
        base = (
            f"recovered {self.replayed}/{self.wal_records} WAL records "
            f"(skipped {self.skipped} before checkpoint, {self.failed} failed "
            f"applications) to t={self.horizon:.6g}s"
        )
        if self.torn is not None:
            base += f"; torn tail dropped: {self.torn}"
        return base


def apply_record(engine: AdmissionEngine, record: WalRecord) -> Optional[str]:
    """Re-apply one logged request to ``engine``.

    Returns the submit outcome (``accepted``/``queued``/``rejected``)
    for submit records, ``None`` otherwise.  Raises the same engine or
    protocol errors the original application raised — callers replaying
    a log should count those as (deterministically) failed
    applications, not abort.
    """
    # Reproduce the pre-apply clock position (live servers poll() before
    # every request; `t` is the engine clock the original apply saw).
    if record.t > engine.sim.now:
        engine.advance(record.t)
    request = protocol.parse_request(record.req)
    if isinstance(request, protocol.SubmitRequest):
        job = protocol.job_from_payload(request.job, default_submit_time=record.t)
        # The frame carries the trace id the original run gave the job
        # (when telemetry was on); passing it keeps recovered traces
        # byte-identical to the uncrashed run.
        decision = engine.submit(
            job, clamp_past=record.clamp, trace=request.trace,
            wal_lsn=record.lsn,
        )
        return decision.outcome
    if isinstance(request, protocol.AdvanceRequest):
        engine.advance(request.to)
        return None
    if isinstance(request, protocol.DrainRequest):
        engine.drain()
        return None
    raise WalError(
        f"WAL record lsn={record.lsn} holds non-mutating request "
        f"{record.req.get('type')!r}"
    )


def recover(  # repro-lint: safe=CONC001  replays into a private engine before any thread sees it
    wal_path: str,
    checkpoint_path: Optional[str] = None,
    clock: Optional[Any] = None,
    obs: Optional[Any] = None,
) -> tuple[AdmissionEngine, RecoveryReport]:
    """Rebuild an engine from ``checkpoint_path`` (optional) + the WAL.

    Records at or below the checkpoint's recorded LSN are skipped; the
    rest are replayed in order.  Applications that failed originally
    (duplicate ids, out-of-order submits) fail identically on replay
    and are counted, preserving the exact original state.  The log is
    read a few records at a time (:class:`WalScan`), so a restart holds
    the engine it builds and not the log, whatever the log's length.
    """
    with WalScan(wal_path) as scan:
        referenced = checkpoint_path is None
        if referenced:
            # A compacted log names its own base checkpoint; chain it so
            # `recover(wal)` keeps working transparently after compaction.
            checkpoint_path = resolve_checkpoint_ref(wal_path, scan.header)
        report = RecoveryReport(checkpoint=checkpoint_path)
        if checkpoint_path is not None:
            from repro.service import checkpoint as checkpoint_mod

            snap, _ = (read_checkpoint_ref(wal_path, scan.header, checkpoint_path)
                       if referenced else checkpoint_mod.read(checkpoint_path))
            engine = checkpoint_mod.restore(snap, clock=clock, obs=obs)
        else:
            config = scan.header.get("config")
            if config is None:
                raise WalError(
                    f"{wal_path}: WAL header carries no engine config and no "
                    f"checkpoint was given; cannot rebuild an engine"
                )
            try:
                engine = AdmissionEngine(
                    EngineConfig.from_dict(config), clock=clock, obs=obs
                )
            except (TypeError, ValueError) as exc:
                raise WalError(
                    f"{wal_path}: WAL header config cannot build an engine: {exc}"
                ) from exc

        if engine.wal_lsn < scan.base_lsn:
            raise WalError(
                f"{wal_path}: checkpoint stops at lsn={engine.wal_lsn} but the "
                f"log was compacted through lsn={scan.base_lsn}; the records "
                f"between them are only in archive segments — recover from the "
                f"referenced compaction checkpoint instead"
            )
        start_lsn = engine.wal_lsn
        outcomes = report.outcomes
        for record in scan:
            if record.lsn <= start_lsn:
                report.skipped += 1
                continue
            try:
                outcome = apply_record(engine, record)
            except (EngineError, ProtocolError) as exc:
                report.failed += 1
                log.debug("replay of lsn=%d failed as it originally did: %s",
                          record.lsn, exc)
            else:
                if outcome is not None:
                    outcomes[outcome] = outcomes.get(outcome, 0) + 1
                report.replayed += 1
            finally:
                engine.wal_lsn = record.lsn
    report.wal_records = scan.count
    report.torn = scan.torn
    report.last_lsn = scan.last_lsn
    # Jobs were rebuilt under their original explicit ids without
    # touching the auto-id counter; advance it so a fresh submit
    # without an id can never collide with a recovered job.
    reserve_job_ids(max(engine.rms.ledger.index, default=0))
    report.horizon = engine.now
    log.info("%s", report)
    return engine, report

__all__ = [
    "CompactionReport",
    "FSYNC_POLICIES",
    "MUTATING_TYPES",
    "RecoveryReport",
    "WAL_FORMAT",
    "WAL_VERSION",
    "WalCorruptionError",
    "WalError",
    "WalReadResult",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "apply_record",
    "discard_torn_header",
    "list_segments",
    "read_checkpoint_ref",
    "read_wal",
    "recover",
    "resolve_checkpoint_ref",
    "scan_wal",
]
