"""Offline integrity scrubber for WALs, archive segments, and checkpoints.

``repro scrub`` answers one operator question: *can every byte of this
fleet's durable state still be trusted?*  For each shard it verifies

* every WAL frame checksum (crc32) in the active log and in each
  archive segment produced by compaction;
* LSN chain continuity — archive segments must chain gaplessly into
  one another and into the active tail's ``base_lsn``;
* checkpoint SHA-256s — both the compaction reference recorded in a
  compacted WAL's header and the content checksum embedded in every
  checkpoint document.

Findings are graded: **corruption** (checksum mismatch, broken chain,
torn archive segment) fails the scrub; **io** (missing/unreadable
files) is an environment problem, reported with its own exit code; a
torn tail on the *active* log is only a **warning** — it is exactly
what a crash leaves behind and recovery truncates it safely.

Exit codes: ``0`` clean (warnings allowed), ``1`` corruption found,
``2`` usage or I/O error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.service import checkpoint as checkpoint_mod
from repro.service import wal as wal_mod
from repro.service.sharding.paths import shard_path

__all__ = [
    "EXIT_CLEAN",
    "EXIT_CORRUPT",
    "EXIT_IO",
    "ScrubFinding",
    "ScrubReport",
    "scrub_checkpoint",
    "scrub_fleet",
    "scrub_wal",
]

EXIT_CLEAN = 0
EXIT_CORRUPT = 1
EXIT_IO = 2

#: Finding severities, worst first (exit code picks the worst present).
_SEVERITIES = ("corruption", "io", "warning")


@dataclass(frozen=True)
class ScrubFinding:
    """One defect (or notable condition) found during a scrub."""

    path: str
    kind: str  # one of _SEVERITIES
    detail: str

    def as_dict(self) -> dict[str, Any]:
        return {"path": self.path, "kind": self.kind, "detail": self.detail}


@dataclass
class ScrubReport:
    """Aggregate result of scrubbing one or many shards."""

    files: int = 0
    records: int = 0
    segments: int = 0
    checkpoints: int = 0
    findings: list[ScrubFinding] = field(default_factory=list)

    def add(self, path: str, kind: str, detail: str) -> None:
        if kind not in _SEVERITIES:
            raise ValueError(f"unknown finding kind {kind!r}")
        self.findings.append(ScrubFinding(path=path, kind=kind, detail=detail))

    @property
    def corrupt(self) -> bool:
        return any(f.kind == "corruption" for f in self.findings)

    @property
    def io_errors(self) -> bool:
        return any(f.kind == "io" for f in self.findings)

    @property
    def exit_code(self) -> int:
        if self.corrupt:
            return EXIT_CORRUPT
        if self.io_errors:
            return EXIT_IO
        return EXIT_CLEAN

    def as_dict(self) -> dict[str, Any]:
        return {
            "files": self.files,
            "records": self.records,
            "segments": self.segments,
            "checkpoints": self.checkpoints,
            "clean": self.exit_code == EXIT_CLEAN,
            "findings": [f.as_dict() for f in self.findings],
        }

    def __str__(self) -> str:
        base = (
            f"scrubbed {self.files} file(s): {self.records} records, "
            f"{self.segments} archive segment(s), "
            f"{self.checkpoints} checkpoint(s)"
        )
        if not self.findings:
            return base + " — clean"
        worst = min(_SEVERITIES.index(f.kind) for f in self.findings)
        return base + f" — {len(self.findings)} finding(s), worst: {_SEVERITIES[worst]}"


def scrub_checkpoint(
    path: str,
    report: ScrubReport,
    read: Callable[[str], tuple[dict[str, Any], Optional[str]]] = checkpoint_mod.read,
) -> Optional[dict[str, Any]]:
    """Verify one checkpoint file, read once by ``read`` (by default
    :func:`repro.service.checkpoint.read`).

    Returns the verified document (checksum entry removed), or ``None``
    when it cannot be trusted, recording findings on the report either
    way.
    """
    try:
        doc, checked = read(path)
    except OSError as exc:
        report.add(path, "io", f"cannot read checkpoint: {exc}")
        return None
    except checkpoint_mod.CheckpointError as exc:
        report.checkpoints += 1
        report.add(path, "corruption", str(exc))
        return None
    report.checkpoints += 1
    if not checked:
        report.add(path, "warning", "checkpoint carries no content checksum")
    return doc


def _scrub_segment_chain(path: str, report: ScrubReport) -> Optional[int]:
    """Verify every archive segment of ``path``; returns the chain's last LSN."""
    prev_last: Optional[int] = None
    for first, last, seg_path in wal_mod.list_segments(path):
        try:
            scan = wal_mod.scan_wal(seg_path)
        except wal_mod.WalError as exc:
            report.add(seg_path, "corruption", str(exc))
            return None
        report.files += 1
        report.segments += 1
        report.records += scan.count
        if scan.torn is not None:
            # Archive segments are written whole and never appended to;
            # a torn frame there is corruption, not a crash artifact.
            report.add(seg_path, "corruption", f"torn frame in archive: {scan.torn}")
            return None
        if not scan.count:
            report.add(seg_path, "corruption", "archive segment holds no records")
            return None
        # The reader checked the chain, so the records run base+1..last.
        if (scan.base_lsn + 1, scan.last_lsn) != (first, last):
            report.add(
                seg_path, "corruption",
                f"segment name claims lsn {first}-{last} but contents are "
                f"{scan.base_lsn + 1}-{scan.last_lsn}",
            )
            return None
        if prev_last is not None and first != prev_last + 1:
            report.add(
                seg_path, "corruption",
                f"segment chain gap: previous archive ends at lsn {prev_last}, "
                f"this one starts at {first}",
            )
            return None
        prev_last = last
    return prev_last


def scrub_wal(path: str, report: Optional[ScrubReport] = None) -> ScrubReport:
    """Scrub one shard's WAL: archive segments, active tail, checkpoint ref."""
    report = report if report is not None else ScrubReport()
    if not os.path.exists(path):
        report.add(path, "io", "WAL file does not exist")
        return report

    chain_last = _scrub_segment_chain(path, report)

    try:
        scan = wal_mod.scan_wal(path)
    except wal_mod.WalError as exc:
        report.add(path, "corruption", str(exc))
        return report
    report.files += 1
    report.records += scan.count
    if scan.torn is not None:
        report.add(
            path, "warning",
            f"torn tail ({scan.torn}); recovery will truncate it safely",
        )
    if chain_last is not None and scan.base_lsn != chain_last:
        report.add(
            path, "corruption",
            f"active tail base_lsn={scan.base_lsn} does not continue the "
            f"archive chain ending at lsn {chain_last}",
        )

    try:
        checkpoint_path = wal_mod.resolve_checkpoint_ref(path, scan.header)
        doc = None if checkpoint_path is None else scrub_checkpoint(
            checkpoint_path, report,
            lambda p: wal_mod.read_checkpoint_ref(path, scan.header, p),
        )
    except wal_mod.WalError as exc:
        report.add(path, "corruption", str(exc))
        return report
    if doc is not None:
        cp_lsn = int(doc.get("wal_lsn", 0))
        if cp_lsn != scan.base_lsn:
            report.add(
                checkpoint_path, "corruption",
                f"checkpoint stops at lsn={cp_lsn} but the tail's "
                f"base_lsn is {scan.base_lsn}",
            )
    elif checkpoint_path is None and scan.base_lsn:
        report.add(
            path, "corruption",
            f"log compacted through lsn={scan.base_lsn} but the header "
            f"names no checkpoint to recover the prefix from",
        )
    return report


def scrub_fleet(
    wal_base: str,
    shards: int = 1,
    checkpoints: Optional[list[str]] = None,
) -> ScrubReport:
    """Scrub every shard of a fleet plus any explicitly named checkpoints.

    ``shards == 1`` scrubs ``wal_base`` itself; larger fleets scrub the
    namespaced ``shard_path`` variants, mirroring how ``repro serve
    --shards N`` lays files out.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    report = ScrubReport()
    if shards == 1:
        scrub_wal(wal_base, report)
    else:
        for shard_id in range(shards):
            scrub_wal(shard_path(wal_base, shard_id, shards), report)
    for cp in checkpoints or []:
        scrub_checkpoint(cp, report)
    return report
