"""The Job model and its lifecycle state machine.

Terminology follows the paper (Section 3):

* ``runtime`` — the *actual* time the job needs on a full node of the
  reference SPEC rating.  It excludes waiting time and communication
  latency, and translates across heterogeneous nodes via the rating.
* ``estimated_runtime`` — what the user *claimed* at submission; the
  admission controls see only this.
* ``numproc`` — minimum number of processors (nodes) required.
* ``deadline`` — a *duration* from submission: the job is useful only
  if ``finish_time − submit_time ≤ deadline`` (hard deadline SLA).

Derived quantities (Eq. 3 of the paper):

* ``delay = max(0, (finish_time − submit_time) − deadline)``
* ``slowdown = response_time / runtime`` where
  ``response_time = finish_time − submit_time``.
"""

from __future__ import annotations

import enum
import math
import threading
from typing import Optional, Sequence


class JobState(enum.Enum):
    """Lifecycle of a job inside the RMS."""

    CREATED = "created"        # built from the workload, not yet submitted
    SUBMITTED = "submitted"    # handed to the RMS, admission pending
    QUEUED = "queued"          # accepted but waiting (EDF only)
    RUNNING = "running"        # at least one task executing
    COMPLETED = "completed"    # all tasks finished
    REJECTED = "rejected"      # admission control refused it
    FAILED = "failed"          # a node it ran on failed

    successors: tuple["JobState", ...]  # this member's row of _VALID_TRANSITIONS
    code: int  # position in declaration order, the state byte of a ledger row


class UrgencyClass(enum.Enum):
    """Deadline urgency class from the experimental methodology (§4)."""

    HIGH = "high"  # low deadline/runtime factor — tight deadline
    LOW = "low"    # high deadline/runtime factor — loose deadline

    code: int  # position in declaration order, the urgency byte of a ledger row


_VALID_TRANSITIONS: dict[JobState, tuple[JobState, ...]] = {
    JobState.CREATED: (JobState.SUBMITTED,),
    JobState.SUBMITTED: (JobState.QUEUED, JobState.RUNNING, JobState.REJECTED),
    JobState.QUEUED: (JobState.RUNNING, JobState.REJECTED),
    JobState.RUNNING: (JobState.COMPLETED, JobState.FAILED),
    JobState.COMPLETED: (),
    JobState.REJECTED: (),
    JobState.FAILED: (),
}
# Each member carries its row: ``Job.transition`` then checks legality by
# identity, where indexing the table would run the Python ``Enum.__hash__``.
for _state, _allowed in _VALID_TRANSITIONS.items():
    _state.successors = _allowed
# Codes are read as attributes for the same reason.
for _members in (JobState, UrgencyClass):
    for _code, _member in enumerate(_members):
        _member.code = _code
# The states as globals: a submit reads a dozen, and a global is cheaper.
CREATED, SUBMITTED, QUEUED, RUNNING, COMPLETED, REJECTED, FAILED = JobState

_id_lock = threading.Lock()
_next_auto_id = 1


def _auto_id() -> int:
    global _next_auto_id
    with _id_lock:
        assigned = _next_auto_id
        _next_auto_id += 1
        return assigned


def reserve_job_ids(through: int) -> None:
    """Advance the auto-id counter past ``through``.

    Restoring a checkpoint or replaying a WAL rebuilds jobs under their
    original explicit ids without drawing from the counter; a service
    that then accepts a submit *without* an id must not hand out an id
    a recovered job already owns (the duplicate-id guard would refuse
    it, or worse, answer with the old job's decision).  Recovery paths
    call this with the highest id they materialised.
    """
    global _next_auto_id
    with _id_lock:
        if through >= _next_auto_id:
            _next_auto_id = through + 1

#: Completions within this many seconds past the deadline count as on
#: time.  Libra's proportional share finishes jobs *exactly at* their
#: deadline by construction, so event-time float noise must not flip
#: them to "late" (sub-microsecond precision is far below anything the
#: second-scale traces can express).
DELAY_TOLERANCE = 1e-6


class Job:
    """A deadline-constrained parallel job.

    Parameters
    ----------
    runtime:
        Actual runtime in seconds on a reference-rating node (> 0).
    estimated_runtime:
        User-supplied runtime estimate in seconds (> 0).
    numproc:
        Number of nodes the job needs (>= 1).
    deadline:
        Relative hard deadline in seconds from submission (> 0).
    submit_time:
        Workload-specified submission time (absolute simulated seconds).
    urgency:
        Deadline urgency class, for per-class metrics.
    job_id:
        Stable identifier; auto-assigned when omitted.
    """

    __slots__ = (
        "job_id",
        "submit_time",
        "runtime",
        "estimated_runtime",
        "numproc",
        "deadline",
        "urgency",
        "user",
        "state",
        "start_time",
        "finish_time",
        "assigned_nodes",
        "reject_reason",
    )

    def __init__(
        self,
        runtime: float,
        estimated_runtime: float,
        numproc: int,
        deadline: float,
        submit_time: float = 0.0,
        urgency: UrgencyClass = UrgencyClass.LOW,
        user: Optional[str] = None,
        job_id: Optional[int] = None,
    ) -> None:
        # Written as ranges so that NaN, which fails every comparison,
        # is refused along with the infinities.
        if not 0.0 < runtime < math.inf:
            raise ValueError(f"runtime must be finite and > 0, got {runtime}")
        if not 0.0 < estimated_runtime < math.inf:
            raise ValueError(
                f"estimated_runtime must be finite and > 0, got {estimated_runtime}"
            )
        if numproc < 1:
            raise ValueError(f"numproc must be >= 1, got {numproc}")
        if not 0.0 < deadline < math.inf:
            raise ValueError(f"deadline must be finite and > 0, got {deadline}")
        if not 0.0 <= submit_time < math.inf:
            raise ValueError(f"submit_time must be finite and >= 0, got {submit_time}")
        self.job_id = int(job_id) if job_id is not None else _auto_id()
        self.submit_time = float(submit_time)
        self.runtime = float(runtime)
        self.estimated_runtime = float(estimated_runtime)
        self.numproc = int(numproc)
        self.deadline = float(deadline)
        self.urgency = urgency
        self.user = user
        self.state = CREATED
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        #: Unstarted jobs share one empty tuple; ``mark_running`` stores a list.
        self.assigned_nodes: Sequence[int] = ()
        self.reject_reason: Optional[str] = None

    # -- state machine ----------------------------------------------------
    def transition(self, new_state: JobState) -> None:
        """Move the job to ``new_state``, enforcing legal transitions."""
        if new_state not in self.state.successors:
            raise ValueError(
                f"job {self.job_id}: illegal transition {self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    def mark_submitted(self) -> None:
        if SUBMITTED not in self.state.successors:
            self.transition(SUBMITTED)
        self.state = SUBMITTED

    def mark_queued(self) -> None:
        if QUEUED not in self.state.successors:
            self.transition(QUEUED)
        self.state = QUEUED

    def mark_running(self, now: float, nodes: list[int]) -> None:  # keeps ``nodes``
        if RUNNING not in self.state.successors:
            self.transition(RUNNING)
        self.state = RUNNING
        self.start_time = float(now)
        self.assigned_nodes = nodes

    def mark_completed(self, now: float) -> None:
        if COMPLETED not in self.state.successors:
            self.transition(COMPLETED)
        self.state = COMPLETED
        self.finish_time = float(now)

    def mark_rejected(self, reason: str = "") -> None:
        self.transition(REJECTED)
        self.reject_reason = reason or None

    def mark_failed(self, now: float) -> None:
        """The job was killed by a node failure; it will never finish."""
        self.transition(FAILED)
        self.finish_time = float(now)

    # -- deadlines and SLA quantities (Eq. 3) ------------------------------
    @property
    def absolute_deadline(self) -> float:
        """Wall-clock instant by which the job must finish."""
        return self.submit_time + self.deadline

    def remaining_deadline(self, now: float) -> float:
        """Time left until the deadline (negative once expired)."""
        return self.absolute_deadline - now

    @property
    def accepted(self) -> bool:
        return self.state in (QUEUED, RUNNING, COMPLETED, FAILED)

    @property
    def completed(self) -> bool:
        return self.state is COMPLETED

    @property
    def response_time(self) -> Optional[float]:
        """``finish − submit``; includes waiting time.  ``None`` until done."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    @property
    def delay(self) -> Optional[float]:
        """Eq. 3: positive part of response time beyond the deadline."""
        rt = self.response_time
        if rt is None:
            return None
        raw = rt - self.deadline
        return 0.0 if raw <= DELAY_TOLERANCE else raw

    @property
    def deadline_met(self) -> Optional[bool]:
        """True iff the job completed within its hard deadline."""
        if not self.completed:
            return None if self.state is RUNNING else False
        return self.delay == 0.0

    @property
    def slowdown(self) -> Optional[float]:
        """Response time over minimum runtime (>= 1 for a well-formed run)."""
        rt = self.response_time
        if rt is None:
            return None
        return rt / self.runtime

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Job {self.job_id} {self.state.value} run={self.runtime:.6g} "
            f"est={self.estimated_runtime:.6g} np={self.numproc} dl={self.deadline:.6g}>"
        )
