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
from typing import Any, Callable, NamedTuple, Optional

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


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fp:
            return fp.read()
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
    if b"\n" in _read_bytes(path):
        return False
    log.warning(
        "%s: discarding torn header-only WAL (no record was ever acked)", path
    )
    with open(path, "r+b") as fp:
        fp.truncate(0)
        fp.flush()
        os.fsync(fp.fileno())
    return True


def read_wal(path: str) -> WalReadResult:
    """Read and validate a WAL file, tolerating a torn final record.

    Raises
    ------
    WalError
        If the file is missing, empty, or has a bad header.
    WalCorruptionError
        If a record *before* the final one is invalid.
    """
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


def _write_file_atomic(path: str, data: bytes) -> None:
    """Whole-file write: tmp in the same directory, fsync, rename, dir fsync."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as fp:
            fp.write(data)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass


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
            result = read_wal(path)
            if config is not None and result.header.get("config") not in (None, config):
                raise WalError(
                    f"{path}: WAL belongs to a different engine config; "
                    f"refusing to append (use a fresh log per configuration)"
                )
            if result.torn is not None:
                log.warning(
                    "%s: truncating torn tail at byte %d (%s)",
                    path, result.valid_bytes, result.torn,
                )
                with open(path, "r+b") as fp:
                    fp.truncate(result.valid_bytes)
                    fp.flush()
                    os.fsync(fp.fileno())
            wal.next_lsn = result.last_lsn + 1
            wal.base_lsn = result.base_lsn
            wal._fp = open(path, "ab", buffering=0)
            wal._good_offset = result.valid_bytes
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

    def sync(self) -> None:
        """Force everything appended so far onto disk."""
        if self._fp is not None:
            self._sync()

    # -- compaction ---------------------------------------------------------
    def compact(
        self,
        engine: Any,
        checkpoint_path: str,
        crash: Optional[Callable[[str], None]] = None,
    ) -> "CompactionReport":
        """Checkpoint ``engine`` and archive every record it has applied.

        Three crash-safe steps, each a whole-file write + atomic rename:

        1. snapshot the engine to ``checkpoint_path``
           (:func:`repro.service.checkpoint.save`);
        2. copy records with ``lsn <= engine.wal_lsn`` into an archive
           segment named ``<wal>.seg<first>-<last>``;
        3. replace the live log with a tail whose header carries
           ``base_lsn = engine.wal_lsn`` and a checkpoint reference
           (path + content SHA-256), keeping only not-yet-checkpointed
           records.

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
        result = read_wal(self.path)
        bytes_before = os.path.getsize(self.path)
        archived = [r for r in result.records if r.lsn <= compact_lsn]
        retained = [r for r in result.records if r.lsn > compact_lsn]
        report = CompactionReport(
            first_lsn=archived[0].lsn if archived else 0,
            last_lsn=compact_lsn,
            archived=len(archived),
            retained=len(retained),
            checkpoint=checkpoint_path,
            bytes_before=bytes_before,
            bytes_after=bytes_before,
        )
        if not archived:
            # Nothing the checkpoint newly covers — but the snapshot
            # above may have just overwritten the very checkpoint the
            # header references (a recovered engine re-derives kernel
            # sequence numbers, changing the content checksum), so the
            # stale reference must be refreshed before leaving the log
            # alone, or the next recovery would refuse the chain.
            old_ref = result.header.get("checkpoint")
            if isinstance(old_ref, dict):
                old_path = str(old_ref.get("path", ""))
                if not os.path.isabs(old_path):
                    old_path = os.path.join(
                        os.path.dirname(self.path) or ".", old_path
                    )
                if (
                    os.path.abspath(old_path) == os.path.abspath(checkpoint_path)
                    and old_ref.get("sha256") != checkpoint_sha
                ):
                    new_header = dict(result.header)
                    new_header["checkpoint"] = {
                        "path": old_ref.get("path"), "sha256": checkpoint_sha,
                    }
                    tail_bytes = b"".join(
                        [_frame(new_header)]
                        + [_frame(_record_payload(r)) for r in result.records]
                    )
                    self._fp.close()
                    self._fp = None
                    try:
                        _write_file_atomic(self.path, tail_bytes)
                    except BaseException:
                        self._fail("checkpoint reference refresh failed")
                        raise
                    self._fp = open(self.path, "ab", buffering=0)
                    self._good_offset = len(tail_bytes)
                    self._unsynced = 0
                    report.bytes_after = len(tail_bytes)
            hook("compact.after_truncate")
            return report

        # Sweep stale segments from an interrupted earlier pass: any
        # segment reaching past the current base still has all of its
        # records in the live log, so dropping it loses nothing.
        for _first, last, seg_path in list_segments(self.path):
            if last > self.base_lsn:
                try:
                    os.unlink(seg_path)
                except OSError:  # pragma: no cover - best-effort sweep
                    pass

        segment = f"{self.path}.seg{archived[0].lsn:08d}-{archived[-1].lsn:08d}"
        seg_header = dict(result.header)
        seg_header.pop("checkpoint", None)  # the reference moves with the tail
        _write_file_atomic(
            segment,
            b"".join([_frame(seg_header)]
                     + [_frame(_record_payload(r)) for r in archived]),
        )

        cp_abs = os.path.abspath(checkpoint_path)
        if os.path.dirname(cp_abs) == os.path.dirname(os.path.abspath(self.path)):
            ref_path = os.path.basename(checkpoint_path)
        else:
            ref_path = cp_abs
        tail_header: dict[str, Any] = {"format": WAL_FORMAT, "version": WAL_VERSION}
        if "config" in result.header:
            tail_header["config"] = result.header["config"]
        tail_header["base_lsn"] = compact_lsn
        tail_header["checkpoint"] = {"path": ref_path, "sha256": checkpoint_sha}
        tail_bytes = b"".join([_frame(tail_header)]
                              + [_frame(_record_payload(r)) for r in retained])
        self._fp.close()
        self._fp = None
        try:
            _write_file_atomic(self.path, tail_bytes)
        except BaseException:
            self._fail("compaction tail replace failed")
            raise
        self._fp = open(self.path, "ab", buffering=0)
        self._good_offset = len(tail_bytes)
        self._unsynced = 0
        self.base_lsn = compact_lsn
        self.compactions += 1
        report.segment = segment
        report.bytes_after = len(tail_bytes)
        log.info(
            "%s: compacted %d records (lsn<=%d) into %s; tail %d -> %d bytes",
            self.path, len(archived), compact_lsn, segment,
            bytes_before, len(tail_bytes),
        )
        hook("compact.after_truncate")
        return report

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

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

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

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "first_lsn": self.first_lsn,
            "last_lsn": self.last_lsn,
            "archived": self.archived,
            "retained": self.retained,
            "checkpoint": self.checkpoint,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
        }
        if self.segment is not None:
            out["segment"] = self.segment
        return out


def resolve_checkpoint_ref(wal_path: str, header: dict[str, Any]) -> Optional[str]:
    """Path of the checkpoint a compacted WAL header references, verified.

    Returns ``None`` when the header carries no reference.  Relative
    paths resolve against the WAL's directory.  The referenced file's
    embedded content checksum must equal the SHA-256 recorded at
    compaction time — a swapped or regenerated checkpoint would
    otherwise silently splice a different history under the tail.
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
    try:
        with open(path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
    except (OSError, json.JSONDecodeError) as exc:
        raise WalError(f"{wal_path}: unreadable referenced checkpoint {path}: {exc}") from exc
    stored = (doc.get("checksum") or {}).get("hex") if isinstance(doc, dict) else None
    if stored != ref.get("sha256"):
        raise WalError(
            f"{path}: checkpoint SHA-256 does not match the WAL's compaction "
            f"reference (stored {stored}, expected {ref.get('sha256')})"
        )
    return path


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

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "wal_records": self.wal_records,
            "replayed": self.replayed,
            "skipped": self.skipped,
            "failed": self.failed,
            "last_lsn": self.last_lsn,
            "horizon": self.horizon,
            "outcomes": dict(self.outcomes),
        }
        if self.torn is not None:
            out["torn"] = self.torn
        if self.checkpoint is not None:
            out["checkpoint"] = self.checkpoint
        return out

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
        # The frame carries the trace id the original run minted (when
        # telemetry was on); reusing it keeps recovered traces
        # byte-identical to the uncrashed run.
        decision = engine.submit(
            job, clamp_past=record.clamp, trace=request.trace
        )
        engine.wal_lsns[job.job_id] = record.lsn
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
    and are counted, preserving the exact original state.
    """
    result = read_wal(wal_path)
    if checkpoint_path is None:
        # A compacted log names its own base checkpoint; chain it so
        # `recover(wal)` keeps working transparently after compaction.
        checkpoint_path = resolve_checkpoint_ref(wal_path, result.header)
    report = RecoveryReport(
        wal_records=len(result.records),
        torn=result.torn,
        checkpoint=checkpoint_path,
        last_lsn=result.last_lsn,
    )

    if checkpoint_path is not None:
        from repro.service import checkpoint as checkpoint_mod

        engine = checkpoint_mod.load(checkpoint_path, clock=clock, obs=obs)
    else:
        config = result.header.get("config")
        if config is None:
            raise WalError(
                f"{wal_path}: WAL header carries no engine config and no "
                f"checkpoint was given; cannot rebuild an engine"
            )
        try:
            engine = AdmissionEngine(EngineConfig.from_dict(config), clock=clock, obs=obs)
        except (TypeError, ValueError) as exc:
            raise WalError(
                f"{wal_path}: WAL header config cannot build an engine: {exc}"
            ) from exc

    if engine.wal_lsn < result.base_lsn:
        raise WalError(
            f"{wal_path}: checkpoint stops at lsn={engine.wal_lsn} but the "
            f"log was compacted through lsn={result.base_lsn}; the records "
            f"between them are only in archive segments — recover from the "
            f"referenced compaction checkpoint instead"
        )
    start_lsn = engine.wal_lsn
    for record in result.records:
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
                report.outcomes[outcome] = report.outcomes.get(outcome, 0) + 1
            report.replayed += 1
        finally:
            engine.wal_lsn = record.lsn
    # Jobs were rebuilt under their original explicit ids without
    # touching the auto-id counter; advance it so a fresh submit
    # without an id can never collide with a recovered job.
    reserve_job_ids(max(engine._jobs_by_id, default=0))
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
    "WriteAheadLog",
    "apply_record",
    "discard_torn_header",
    "list_segments",
    "read_wal",
    "recover",
    "resolve_checkpoint_ref",
]
