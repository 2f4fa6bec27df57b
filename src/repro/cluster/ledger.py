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
  reject reasons into one UTF-8 text heap, and users are interned.

The submit path only notes what happens to a job: its arrival, and its
acceptance and finish as one list append each (``accept`` and ``retire``
are those lists' ``append``).  Every :data:`BATCH` arrivals, and as soon
as a reader needs the rows, the notes are applied and the finished jobs
packed.  Until then a finished job is still its object, and single-job
readers answer from it.

Every reader — metrics, the engine's decision log, ``query``, traces,
checkpoints — gets its answer from these rows (or from the job object),
and a finished job read back is a fresh :class:`Job` equal in every
field to the one that finished.
"""

from __future__ import annotations

from array import array
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

LIVE = 0  # state byte of a row not packed yet
STATES = tuple(JobState)
URGENCIES = tuple(UrgencyClass)
NAN = float("nan")


class JobLedger:
    """Live jobs as objects, finished jobs as packed rows, in arrival order."""

    __slots__ = (
        "index", "rows", "buf", "outcomes", "accept", "retire", "_jobs",
        "_accepted", "_done", "_accept_of", "_accepted_n", "_lsn_of", "_finished",
        "_counts", "_nodes", "_nodes_len", "_node_counts", "_text", "_text_len",
        "_users", "_user_ids",
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
        self._nodes_len = 0
        self._node_counts: dict[int, int] = {}  # row -> count, where unusual
        self._text = bytearray()
        self._text_len = 0
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
        job_id, index = job.job_id, self.index
        if job_id in index:
            raise ValueError(f"job {job_id} already arrived; job ids must be unique")
        row = self.rows
        self.rows = row + 1
        index[job_id] = row
        self._jobs.append(job)
        if not row % BATCH:
            self.outcomes += bytes(BATCH)
            self._pack()
        return row

    @property
    def accepted_count(self) -> int:
        """Jobs accepted so far."""
        return self._accepted_n + len(self._accepted)

    def decide(self, row: int, outcome: str, traced: bool, wal_lsn: int = 0) -> None:
        """Record the engine's decision for ``row``: its outcome, whether the
        submission has a trace id, and the LSN of the WAL record that
        carried it (0: not logged)."""
        code = OUTCOME_CODES[outcome]
        self.outcomes[row] = code | TRACED if traced else code
        if not wal_lsn:
            return
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
        accept_of = self._accept_of
        if self._accepted:
            ordinal = self._accepted_n
            for job in self._accepted:
                ordinal += 1
                accept_of[job] = ordinal
            self._accepted_n = ordinal
            self._accepted.clear()
        done = self._done
        if not done:
            return
        buf, index, jobs, counts = self.buf, self.index, self._jobs, self._counts
        lsn_of, user_ids, nodes = self._lsn_of, self._user_ids, self._nodes
        pack_into, size = ROW.pack_into, ROW.size
        nodes_len, finished = self._nodes_len, self._finished
        for job in done:
            job_id = job.job_id
            row = index[job_id]
            jobs[row] = job_id
            user = job.user
            if user not in user_ids:
                user_ids[user] = len(self._users)
                self._users.append(user)
            start = job.start_time
            if start is None:
                accepted, start = 0, NAN
            else:  # only a started job was accepted
                accepted = accept_of.pop(job, 0)
            node_ids = job.assigned_nodes
            nodes_at = nodes_len
            nodes_n = 0
            if node_ids:  # a started job's list (``mark_running`` stores one)
                nodes.fromlist(node_ids)  # type: ignore[arg-type]
                nodes_n = len(node_ids)
                nodes_len += nodes_n
            if nodes_n != (job.numproc if accepted else 0):
                self._node_counts[row] = nodes_n
            reason = job.reject_reason
            reason_at = reason_n = 0
            if reason:
                raw = reason.encode()
                reason_at = self._text_len
                reason_n = len(raw)
                self._text += raw
                self._text_len = reason_at + reason_n
            finish, state = job.finish_time, job.state.code
            pack_into(
                buf, row * size,
                job.submit_time, job.runtime, job.estimated_runtime, job.deadline,
                job.numproc, user_ids[user], job.urgency.code, accepted, start,
                nodes_at, NAN if finish is None else finish,
                reason_at, reason_n, finished, state,
                lsn_of.pop(row, 0) if lsn_of else 0,
            )
            finished += 1
            counts[state] += 1
        self._nodes_len, self._finished = nodes_len, finished
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

    def _read(self, job_id: int, fields: tuple, row: int) -> Job:
        (submit, runtime, estimate, deadline, numproc, user, urgency, accepted, start,
         nodes_at, finish, _, _, _, state, _) = fields
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
        nodes_n = self._node_counts.get(row, numproc if accepted else 0)
        job.assigned_nodes = (
            self._nodes[nodes_at:nodes_at + nodes_n].tolist() if nodes_n else ()
        )
        job.reject_reason = self._reason(fields)
        return job

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
        code = self.outcomes[row]
        if not code:
            return None
        job = self._jobs[row]
        if not isinstance(job, Job):
            return self._decision(code, ROW.unpack_from(self.buf, row * ROW.size))
        outcome = OUTCOMES[code & ~TRACED]
        reason = job.reject_reason if outcome == "rejected" else None
        return (outcome, bool(code & TRACED), self._lsn_of.get(row, 0),
                job.submit_time, reason or "")

    def decisions(self) -> Iterator[tuple[int, int, str, bool, int, float, str]]:
        """``(row, job_id, outcome, traced, wal_lsn, t, reason)`` of every
        decided row, in arrival order."""
        self._pack()
        rows = zip(self._jobs, ROW.iter_unpack(self.buf), self.outcomes)
        for row, (slot, fields, code) in enumerate(rows):
            if not code:
                continue
            if isinstance(slot, Job):
                decided = self.decision(row)
                assert decided is not None
                yield (row, slot.job_id) + decided
            else:
                yield (row, slot) + self._decision(code, fields)

    def _decision(self, code: int, fields: tuple) -> tuple[str, bool, int, float, str]:
        outcome = OUTCOMES[code & ~TRACED]
        # A rejection's reason is the one it was refused with.
        reason = self._reason(fields) if outcome == "rejected" else None
        return outcome, bool(code & TRACED), fields[_LSN], fields[_SUBMIT], reason or ""

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
