"""Standard Workload Format (SWF) reader and writer.

The Parallel Workloads Archive distributes supercomputer traces (the
paper uses SDSC SP2 v2.2) in SWF: one job per line, 18 whitespace-
separated integer-ish fields, with ``;``-prefixed header comments that
carry machine metadata (``; MaxNodes: 128`` and friends).  Missing
values are encoded as ``-1``.

Reference: Feitelson's "Standard Workload Format" definition (PWA).

Field order::

     1 job_number        2 submit_time       3 wait_time
     4 run_time          5 allocated_procs   6 avg_cpu_time
     7 used_memory       8 requested_procs   9 requested_time
    10 requested_memory 11 status           12 user_id
    13 group_id         14 executable       15 queue
    16 partition        17 preceding_job    18 think_time
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO, Union

#: SWF sentinel for "unknown / not applicable".
MISSING = -1

#: SWF status codes (field 11).
STATUS_FAILED = 0
STATUS_COMPLETED = 1
STATUS_PARTIAL = 2  # partial execution (to be continued)
STATUS_LAST_PARTIAL = 3
STATUS_CANCELLED = 4
STATUS_UNKNOWN = 5


@dataclass(frozen=True)
class SWFRecord:
    """One job line of an SWF trace.  Times are seconds, ``-1`` = missing."""

    job_number: int
    submit_time: float
    wait_time: float = MISSING
    run_time: float = MISSING
    allocated_procs: int = MISSING
    avg_cpu_time: float = MISSING
    used_memory: int = MISSING
    requested_procs: int = MISSING
    requested_time: float = MISSING
    requested_memory: int = MISSING
    status: int = MISSING
    user_id: int = MISSING
    group_id: int = MISSING
    executable: int = MISSING
    queue: int = MISSING
    partition: int = MISSING
    preceding_job: int = MISSING
    think_time: float = MISSING

    def to_line(self) -> str:
        """Render the record as a canonical SWF data line."""
        vals = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and v == int(v):
                v = int(v)
            vals.append(str(v))
        return " ".join(vals)


@dataclass
class SWFHeader:
    """Header comments of an SWF file.

    Well-known directives are parsed into attributes; everything else
    is retained verbatim in :attr:`extra`.
    """

    version: Optional[str] = None
    computer: Optional[str] = None
    installation: Optional[str] = None
    max_jobs: Optional[int] = None
    max_nodes: Optional[int] = None
    max_procs: Optional[int] = None
    unix_start_time: Optional[int] = None
    timezone: Optional[str] = None
    note: Optional[str] = None
    extra: list[str] = field(default_factory=list)

    _INT_KEYS = {
        "maxjobs": "max_jobs",
        "maxnodes": "max_nodes",
        "maxprocs": "max_procs",
        "unixstarttime": "unix_start_time",
    }
    _STR_KEYS = {
        "version": "version",
        "computer": "computer",
        "installation": "installation",
        "timezone": "timezone",
        "note": "note",
    }

    def absorb(self, comment: str) -> None:
        """Parse one ``;`` header line into the appropriate attribute."""
        body = comment.lstrip(";").strip()
        if ":" in body:
            key, _, value = body.partition(":")
            norm = key.strip().lower().replace(" ", "").replace("-", "")
            value = value.strip()
            if norm in self._INT_KEYS:
                try:
                    setattr(self, self._INT_KEYS[norm], int(value))
                    return
                except ValueError:
                    pass
            elif norm in self._STR_KEYS:
                attr = self._STR_KEYS[norm]
                if getattr(self, attr) is None:
                    setattr(self, attr, value)
                    return
        self.extra.append(body)

    def to_lines(self) -> list[str]:
        out = [f"; {label}: {getattr(self, attr)}" for label, attr in _DIRECTIVES
               if getattr(self, attr) is not None]
        out.extend(f"; {line}" for line in self.extra)
        return out


#: Header directives in the order :meth:`SWFHeader.to_lines` writes them.
_DIRECTIVES = (("Version", "version"), ("Computer", "computer"),
               ("Installation", "installation"), ("MaxJobs", "max_jobs"),
               ("MaxNodes", "max_nodes"), ("MaxProcs", "max_procs"),
               ("UnixStartTime", "unix_start_time"), ("TimeZone", "timezone"), ("Note", "note"))


class SWFParseError(ValueError):
    """Raised for malformed SWF data lines."""


_FIELD_NAMES = [f.name for f in fields(SWFRecord)]
_FLOAT_FIELDS = {"submit_time", "wait_time", "run_time", "avg_cpu_time", "requested_time",
                 "think_time"}
_INT64 = 2**63


def _values(line: str, lineno: int) -> list[float]:
    """The 18 values of a data line, each checked: a number, finite, and
    within int64 where the field is an integer (an SWF integer field is
    read as a float and truncated, so ``1.5`` reads as 1).  Raises
    :class:`SWFParseError` naming the line and the first bad field."""
    parts = line.split()
    if len(parts) != 18:
        raise SWFParseError(
            f"line {lineno}: expected 18 fields, got {len(parts)}: {line[:80]!r}"
        )
    values = []
    for name, token in zip(_FIELD_NAMES, parts):
        try:
            value = float(token)
        except ValueError as exc:
            raise SWFParseError(f"line {lineno}: bad value {token!r} for {name}") from exc
        if not math.isfinite(value):  # nan, inf, or an overflow such as 1e999
            raise SWFParseError(f"line {lineno}: non-finite value {token!r} for {name}")
        if name not in _FLOAT_FIELDS and not -_INT64 <= value < _INT64:  # an int64 column
            raise SWFParseError(f"line {lineno}: value {token!r} out of range for {name}")
        values.append(value)
    return values


def _parse_line(line: str, lineno: int) -> SWFRecord:
    values = _values(line, lineno)
    return SWFRecord(*[
        value if name in _FLOAT_FIELDS else int(value)
        for name, value in zip(_FIELD_NAMES, values)
    ])


def parse_swf(stream: Union[str, TextIO]) -> tuple[SWFHeader, list[SWFRecord]]:
    """Parse SWF text (string or file-like) into a header and records.

    Blank lines are skipped; lines starting with ``;`` feed the header.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    header = SWFHeader()
    records: list[SWFRecord] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(";"):
            header.absorb(line)
            continue
        records.append(_parse_line(line, lineno))
    return header, records


def read_swf_file(path: Union[str, Path]) -> tuple[SWFHeader, list[SWFRecord]]:
    """Read and parse an SWF trace file."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return parse_swf(fh)


#: The columns :func:`read_swf_columns` fills, in order.
COLUMNS = ("job_number", "submit_time", "run_time", "procs", "requested_time", "user_id")


def read_swf_columns(
    path: Union[str, Path],
) -> tuple[SWFHeader, tuple[list[int], list[float], list[float], list[int],
                            list[float], list[int]]]:
    """Read an SWF trace file straight into the :data:`COLUMNS` lists.

    Every data line is checked as :func:`read_swf_file` checks it (same
    errors, same messages) but no :class:`SWFRecord` is built.  ``procs``
    is the allocated processor count, else the requested one.
    """
    header = SWFHeader()
    number: list[int] = []
    submit: list[float] = []
    run: list[float] = []
    procs: list[int] = []
    requested: list[float] = []
    user: list[int] = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith(";"):
                header.absorb(line)
                continue
            # A line of 18 numbers whose sum is finite (so is every value)
            # and that all lie within int64 passes every check at once;
            # any other line is checked field by field, which raises.
            try:
                values = list(map(float, line.split()))
                total = sum(values)
                valid = (len(values) == 18 and total - total == 0.0
                         and -_INT64 <= min(values) and max(values) < _INT64)
            except ValueError:
                valid = False
            if not valid:
                values = _values(line, lineno)
            number.append(int(values[0]))
            submit.append(values[1])
            run.append(values[3])
            allocated = int(values[4])
            procs.append(allocated if allocated > 0 else int(values[7]))
            requested.append(values[8])
            user.append(int(values[11]))
    return header, (number, submit, run, procs, requested, user)


def iter_swf_records(path: Union[str, Path]) -> Iterator[SWFRecord]:
    """Stream records from an SWF file without keeping them all in memory."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith(";"):
                continue
            yield _parse_line(line, lineno)


def write_swf_file(
    path: Union[str, Path],
    records: Iterable[SWFRecord],
    header: Optional[SWFHeader] = None,
) -> int:
    """Write records (and optional header) as an SWF file; returns count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            for line in header.to_lines():
                fh.write(line + "\n")
        for rec in records:
            fh.write(rec.to_line() + "\n")
            count += 1
    return count
