"""The RMS's one record of every job it has seen.

A live job — arrived, not yet finished — is a :class:`~repro.cluster.job.Job`
object, because the policy and the nodes work on it.  A job that reaches
COMPLETED, REJECTED or FAILED is packed into one fixed-size row and the
ledger drops its object, so what an RMS keeps grows with its live work
plus a fixed number of bytes for each finished job:

* ``index`` maps every job id to its row; rows are numbered in arrival
  order, whatever order the ids come in.
* ``buf`` holds one :data:`ROW` per arrival: zero (state 0) while the
  job is live, then every field of the finished job.  It grows by the
  rows that arrived since, each time finished jobs are packed.
* ``outcomes`` holds one byte per row: the engine's decision (0: none)
  and whether the submission has a trace id.  It grows a batch of rows
  at a time.
* Per row, ``_jobs`` holds the live job, and once the row is packed the
  job's id (the object the job was submitted with).
* The node ids a finished job ran on go into one flat ``array('i')``,
  reject reasons into one UTF-8 text heap, and users are interned; a
  ``numproc`` of 2**63 or more is kept beside its row (which holds 0).

The submit path only notes what happens to a job: its arrival, and its
acceptance and finish as one list append each (``accept`` and ``retire``
are those lists' ``append``); the engine writes the decision's byte.
Every :data:`BATCH` arrivals, and as soon as a reader needs the rows,
the notes are applied and the finished jobs packed.  Until then a
finished job is still its object, and single-job readers answer from it.

Every reader — metrics, the engine's decision log, ``query``, traces,
checkpoints — gets its answer from these rows (or from the job object),
and a finished job read back is a fresh :class:`Job` equal in every
field to the one that finished.
"""

from __future__ import annotations

from array import array
from itertools import count
from operator import attrgetter
from struct import Struct
from typing import Callable, Iterator, Optional, Union

from repro.cluster.job import Job, JobState, UrgencyClass

#: Submit time, runtime, estimate, deadline, numproc, user (0: none),
#: urgency; acceptance ordinal (0: never accepted, and then no start
#: time), start time, offset of its node ids in ``nodes``; finish time
#: (NaN: none), reason offset and length in ``text`` (length 0: none),
#: finish ordinal, state (0: live), and the WAL LSN (0: not logged).
#: An accepted job ran on ``numproc`` nodes, any other on none; a job
#: that did not has its count in ``_node_counts``.
ROW = Struct("<4dqIBIdId3IBq")
LSN = Struct("<q")
LSN_AT = ROW.size - LSN.size
INT64 = 1 << 63  #: the first ``numproc`` a row's int64 field cannot hold

# Positions in an unpacked row.
_SUBMIT, _RUNTIME, _DEADLINE, _URGENCY, _ACCEPTED, _FINISH = 0, 1, 3, 6, 7, 10
_REASON_AT, _REASON_N, _ORDINAL, _STATE, _LSN = 11, 12, 13, 14, 15

#: Arrivals between two packings of the finished jobs.
BATCH = 256

#: Decision outcomes by code (0: the engine has not decided the row).
OUTCOMES = ("", "accepted", "queued", "rejected")
OUTCOME_CODES = {name: code for code, name in enumerate(OUTCOMES) if name}
#: Outcome-byte flag: the submission has a trace id.
TRACED = 4

STATES = tuple(JobState)
URGENCIES = tuple(UrgencyClass)
NAN = float("nan")
_VALUES = attrgetter(*Job.__slots__)  # a live job's fields, in slot order


class JobLedger:
    """Live jobs as objects, finished jobs as packed rows, in arrival order."""

    __slots__ = (
        "index", "rows", "buf", "outcomes", "accept", "retire", "_jobs",
        "_accepted", "_done", "_accept_of", "_accepted_n", "_lsn_of", "_finished",
        "_counts", "_nodes", "_node_counts", "_numprocs", "_text", "_users", "_user_ids",
    )

    def __init__(self) -> None:
        #: job id -> row, for every job that arrived.
        self.index: dict[int, int] = {}
        self.rows = 0
        self.buf = bytearray()
        #: Per row: the decision's outcome code, ``| TRACED`` when the
        #: submission has a trace id (0: no decision).
        self.outcomes = bytearray()
        self._jobs: list[Union[Job, int]] = []  # per row: the live job, or its id
        # Acceptances and finishes since the last packing, in order.
        self._accepted: list[Job] = []
        self._done: list[Job] = []
        #: Record that a live job was accepted (it started).
        self.accept: Callable[[Job], None] = self._accepted.append
        #: Record that a live job finished; it is packed with its batch.
        self.retire: Callable[[Job], None] = self._done.append
        self._accept_of: dict[Job, int] = {}  # live accepted job -> ordinal
        self._accepted_n = 0  # acceptance ordinals handed out
        self._lsn_of: dict[int, int] = {}  # row -> LSN, rows not packed yet
        self._finished = 0  # finish ordinal of the next packed row
        self._counts = [0] * len(STATES)  # packed rows by state code
        self._nodes = array("i")
        self._node_counts: dict[int, int] = {}  # row -> count, where unusual
        self._numprocs: dict[int, int] = {}  # row -> numproc, where >= INT64
        self._text = bytearray()
        self._users: list[Optional[str]] = [None]
        self._user_ids: dict[Optional[str], int] = {None: 0}

    # -- writers ----------------------------------------------------------
    def arrive(self, job: Job) -> int:
        """Give an arriving ``job`` the next row; returns the row.

        Raises
        ------
        ValueError
            If a job with the same id already arrived: the id is the
            handle every reader finds the job by.
        """
        job_id, row = job.job_id, self.rows
        if self.index.setdefault(job_id, row) != row:
            raise ValueError(f"job {job_id} already arrived; job ids must be unique")
        self.rows = row + 1
        self._jobs.append(job)
        if not row % BATCH:
            self.outcomes += bytes(BATCH)
            self._pack()
        return row

    @property
    def accepted_count(self) -> int:
        """Jobs accepted so far."""
        return self._accepted_n + len(self._accepted)

    def log(self, row: int, wal_lsn: int) -> None:
        """Record the LSN of the WAL record that carried ``row``'s submit."""
        if isinstance(self._jobs[row], Job):
            self._lsn_of[row] = wal_lsn
        else:
            LSN.pack_into(self.buf, row * ROW.size + LSN_AT, wal_lsn)

    def _pack(self) -> None:
        """Give every arrival its row, number the acceptances, and pack
        every finished job into its row, dropping the object (row readers
        call this first)."""
        short = self.rows * ROW.size - len(self.buf)
        if short:
            self.buf += bytes(short)
        accepted, accept_of = self._accepted, self._accept_of
        if accepted:
            accept_of.update(zip(accepted, count(self._accepted_n + 1)))
            self._accepted_n += len(accepted)
            accepted.clear()
        done = self._done
        if not done:
            return
        buf, index, jobs, counts = self.buf, self.index, self._jobs, self._counts
        lsn_of, user_ids = self._lsn_of, self._user_ids
        pack_into, size = ROW.pack_into, ROW.size
        fromlist = self._nodes.fromlist
        raws: list[bytes] = []  # the batch's reasons go into the heap at once
        nodes_at, text_at = len(self._nodes), len(self._text)
        for finished, job in enumerate(done, self._finished):
            job_id = job.job_id
            row = index[job_id]
            jobs[row] = job_id
            user = user_ids.get(job.user)
            if user is None:
                user = user_ids[job.user] = len(self._users)
                self._users.append(job.user)
            start = job.start_time
            if start is None:
                accepted_at, start = 0, NAN
            else:  # only a started job was accepted
                accepted_at = accept_of.pop(job, 0)
            numproc, node_ids = job.numproc, job.assigned_nodes
            nodes_n = len(node_ids)
            if nodes_n != (numproc if accepted_at else 0):
                self._node_counts[row] = nodes_n
            if numproc >= INT64:
                self._numprocs[row], numproc = numproc, 0
            reason = job.reject_reason
            if reason:
                raw = reason.encode()
                raws.append(raw)
                reason_n = len(raw)
            else:
                reason_n = 0
            finish, state = job.finish_time, job.state.code
            pack_into(
                buf, row * size,
                job.submit_time, job.runtime, job.estimated_runtime, job.deadline,
                numproc, user, job.urgency.code, accepted_at, start, nodes_at,
                NAN if finish is None else finish, text_at, reason_n, finished, state,
                lsn_of.pop(row, 0) if lsn_of else 0,
            )
            if nodes_n:
                fromlist(node_ids)
                nodes_at += nodes_n
            text_at += reason_n
            counts[state] += 1
        self._text += b"".join(raws)
        self._finished = finished + 1
        done.clear()

    # -- lookups ----------------------------------------------------------
    def job_id(self, row: int) -> int:
        """The id of the job that arrived in ``row``."""
        slot = self._jobs[row]
        return slot.job_id if isinstance(slot, Job) else slot

    def job(self, row: int) -> Job:
        """The job of ``row``: its object until packed, then read back."""
        slot = self._jobs[row]
        if isinstance(slot, Job):
            return slot
        return self._read(slot, ROW.unpack_from(self.buf, row * ROW.size), row)

    def jobs(self) -> Iterator[Job]:
        """Every job, in arrival order."""
        self._pack()
        for row, (slot, fields) in enumerate(zip(self._jobs, ROW.iter_unpack(self.buf))):
            yield slot if isinstance(slot, Job) else self._read(slot, fields, row)

    def records(self) -> Iterator[tuple[int, tuple, int, int]]:
        """``(row, fields in Job.__slots__ order, outcome byte, wal_lsn)`` of
        every job in arrival order; a packed row builds no :class:`Job`."""
        self._pack()
        rows = zip(self._jobs, ROW.iter_unpack(self.buf), self.outcomes)
        for row, (slot, fields, code) in enumerate(rows):
            if isinstance(slot, Job):
                yield row, _VALUES(slot), code, self._lsn_of.get(row, 0)
            else:
                yield row, self._values(slot, fields, row), code, fields[_LSN]

    def _read(self, job_id: int, fields: tuple, row: int) -> Job:
        """The job packed in ``row`` as a fresh :class:`Job`: ``_values``'s
        decoding, each field stored straight into its slot."""
        (submit, runtime, estimate, deadline, numproc, user, urgency, accepted, start,
         nodes_at, finish, reason_at, reason_n, _, state, _) = fields
        numproc = numproc or self._numprocs[row]  # 0: the row could not hold it
        nodes_n = self._node_counts.get(row, numproc if accepted else 0)
        job = Job.__new__(Job)
        job.job_id = job_id
        job.submit_time = submit
        job.runtime = runtime
        job.estimated_runtime = estimate
        job.numproc = numproc
        job.deadline = deadline
        job.urgency = URGENCIES[urgency]
        job.user = self._users[user]
        job.state = STATES[state]
        job.start_time = start if accepted else None
        job.finish_time = None if finish != finish else finish
        job.assigned_nodes = self._nodes[nodes_at:nodes_at + nodes_n].tolist() if nodes_n else ()
        job.reject_reason = self._text[reason_at:reason_at + reason_n].decode() if reason_n else None
        return job

    def _values(self, job_id: int, fields: tuple, row: int) -> tuple:
        """The fields of the job packed in ``row``, in ``Job.__slots__`` order."""
        (submit, runtime, estimate, deadline, numproc, user, urgency, accepted, start,
         nodes_at, finish, _, _, _, state, _) = fields
        numproc = numproc or self._numprocs[row]  # 0: the row could not hold it
        nodes_n = self._node_counts.get(row, numproc if accepted else 0)
        return (
            job_id, submit, runtime, estimate, numproc, deadline, URGENCIES[urgency],
            self._users[user], STATES[state], start if accepted else None,
            None if finish != finish else finish,
            self._nodes[nodes_at:nodes_at + nodes_n].tolist() if nodes_n else (),
            self._reason(fields),
        )

    def _reason(self, fields: tuple) -> Optional[str]:
        at, n = fields[_REASON_AT], fields[_REASON_N]
        return self._text[at:at + n].decode() if n else None

    def state_counts(self) -> list[int]:
        """Finished jobs by state code."""
        self._pack()
        return self._counts

    def accepted_rows(self) -> list[int]:
        """Rows of the accepted jobs, in the order they were accepted."""
        self._pack()
        index = self.index
        ordered = [(ordinal, index[job.job_id]) for job, ordinal in self._accept_of.items()]
        ordered += [
            (fields[_ACCEPTED], row)
            for row, fields in enumerate(ROW.iter_unpack(self.buf))
            if fields[_ACCEPTED]
        ]
        ordered.sort()
        return [row for _, row in ordered]

    def finished_rows(self, state: JobState) -> list[int]:
        """Rows of the jobs that finished in ``state``, in finish order."""
        self._pack()
        code = state.code
        ordered = [
            (fields[_ORDINAL], row)
            for row, fields in enumerate(ROW.iter_unpack(self.buf))
            if fields[_STATE] == code
        ]
        ordered.sort()
        return [row for _, row in ordered]

    # -- per-row views for readers ------------------------------------------
    def decision(self, row: int) -> Optional[tuple[str, bool, int, float, str]]:
        """``(outcome, traced, wal_lsn, t, reason)`` the engine recorded
        for ``row``, or ``None`` if it decided none."""
        code, job = self.outcomes[row], self._jobs[row]
        if not code:
            return None
        if isinstance(job, Job):
            return _decided(code, job.submit_time, job.reject_reason, self._lsn_of.get(row, 0))
        fields = ROW.unpack_from(self.buf, row * ROW.size)
        return _decided(code, fields[_SUBMIT], self._reason(fields), fields[_LSN])

    def decisions(self) -> Iterator[tuple[int, int, str, bool, int, float, str]]:
        """``(row, job_id, outcome, traced, wal_lsn, t, reason)`` of every
        decided row, in arrival order."""
        self._pack()
        rows = zip(self._jobs, ROW.iter_unpack(self.buf), self.outcomes)
        for row, (slot, fields, code) in enumerate(rows):
            if code and isinstance(slot, Job):
                yield (row, slot.job_id) + _decided(
                    code, slot.submit_time, slot.reject_reason, self._lsn_of.get(row, 0))
            elif code:
                yield (row, slot) + _decided(
                    code, fields[_SUBMIT], self._reason(fields), fields[_LSN])

    def summary_rows(
        self,
    ) -> Iterator[tuple[JobState, UrgencyClass, float, float, float, float]]:
        """``(state, urgency, submit, runtime, deadline, finish)`` of every
        job in arrival order (finish NaN while none)."""
        self._pack()
        for slot, fields in zip(self._jobs, ROW.iter_unpack(self.buf)):
            if isinstance(slot, Job):
                finish = slot.finish_time
                yield (slot.state, slot.urgency, slot.submit_time, slot.runtime,
                       slot.deadline, NAN if finish is None else finish)
            else:
                yield (STATES[fields[_STATE]], URGENCIES[fields[_URGENCY]],
                       fields[_SUBMIT], fields[_RUNTIME], fields[_DEADLINE],
                       fields[_FINISH])


def _decided(code: int, t: float, reason: Optional[str],
             wal_lsn: int) -> tuple[str, bool, int, float, str]:
    """The decision an outcome byte records; a rejection's reason is the
    one its job was refused with."""
    outcome = OUTCOMES[code & ~TRACED]
    return outcome, bool(code & TRACED), wal_lsn, t, (reason or "") if outcome == "rejected" else ""
