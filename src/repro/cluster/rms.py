"""The cluster Resource Management System (RMS) front-end.

The RMS is the *single* interface through which jobs enter the cluster
(paper §3, assumption 4), so the admission control policy it hosts is
aware of the entire workload.  It:

* turns a workload (a list of :class:`~repro.cluster.job.Job`) into
  arrival events on the simulator,
* hands each arriving job to the policy's ``on_job_submitted``,
* records every job in one :class:`~repro.cluster.ledger.JobLedger`:
  live jobs as objects, finished ones as packed rows.

The policy object owns all scheduling state (queues, node listeners);
the RMS is deliberately thin so that policies are interchangeable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.job import CREATED, REJECTED, Job, JobState
from repro.cluster.ledger import JobLedger
from repro.sim.events import Event, EventPriority
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.hooks import LifecycleObserver
    from repro.scheduling.base import SchedulingPolicy

_ARRIVAL = EventPriority.ARRIVAL  # a global read: see ``repro.cluster.job.CREATED``


class ResourceManagementSystem:
    """Hosts one admission-control policy over one cluster."""

    def __init__(self, sim: Simulator, cluster: Cluster, policy: "SchedulingPolicy") -> None:
        self.sim = sim
        self.cluster = cluster
        self.policy = policy
        #: Every job that arrived, in arrival order.
        self.ledger = JobLedger()
        #: Optional :class:`~repro.obs.hooks.LifecycleObserver` notified
        #: of every job transition the RMS witnesses.  Must be passive.
        self.observer: Optional["LifecycleObserver"] = None
        policy.bind(sim=sim, cluster=cluster, rms=self)

    # -- workload intake -----------------------------------------------------
    def submit(self, job: Job) -> None:
        """Schedule the arrival event for one job at its submit time.

        This is the single intake path: :meth:`submit_all` loops over it
        for closed batch workloads, and the online serving engine
        (:class:`repro.service.engine.AdmissionEngine`) calls it for
        each live arrival.

        Raises
        ------
        ValueError
            If the job was already submitted, or its ``submit_time``
            lies before the simulated clock — an out-of-order arrival
            the event heap could not honour.
        """
        if job.state is not CREATED:
            raise ValueError(f"job {job.job_id} already {job.state.value}; cannot submit")
        if job.submit_time < self.sim.now:
            raise ValueError(
                f"job {job.job_id} arrives out of order: submit_time "
                f"{job.submit_time:.6g}s is before the clock at {self.sim.now:.6g}s"
            )
        self.sim.schedule_at(
            job.submit_time, self._on_arrival, _ARRIVAL,
            f"arrive:job{job.job_id}", job,
        )

    def submit_all(self, jobs: Iterable[Job]) -> int:
        """Schedule an arrival event for every job at its submit time."""
        count = 0
        for job in jobs:
            self.submit(job)
            count += 1
        return count

    def _on_arrival(self, event: Event) -> None:
        job: Job = event.payload
        job.mark_submitted()
        self.ledger.arrive(job)
        # The observer checks are inline: these run once or twice a job.
        if self.observer is not None:
            self.observer.on_job_transition(job, "submitted", event.time)
        self.policy.on_job_submitted(job, event.time)

    # -- policy callbacks -------------------------------------------------------
    def notify_accepted(self, job: Job) -> None:
        """Policy accepted ``job`` (it is running)."""
        self.ledger.accept(job)
        if self.observer is not None:
            self.observer.on_job_transition(job, "accepted", self.sim.now)

    def notify_rejected(self, job: Job, reason: str = "") -> None:
        """Policy refused ``job`` at admission (or EDF's dispatch check)."""
        if not job.state is REJECTED:
            job.mark_rejected(reason)
        self.ledger.retire(job)
        if self.observer is not None:
            self.observer.on_job_transition(job, "rejected", self.sim.now)

    def notify_completed(self, job: Job) -> None:
        """Policy observed the last task of ``job`` finish."""
        self.ledger.retire(job)
        if self.observer is not None:
            self.observer.on_job_transition(job, "completed", self.sim.now)

    def notify_failed(self, job: Job) -> None:
        """Policy observed ``job`` die with a failed node."""
        self.ledger.retire(job)
        if self.observer is not None:
            self.observer.on_job_transition(job, "failed", self.sim.now)

    # -- views read from the ledger -------------------------------------------------
    # Each builds a fresh list: a finished job comes back as a new Job
    # equal in every field to the one that finished.  For tests, examples
    # and reports, not for a per-job path.
    @property
    def jobs(self) -> list[Job]:
        """Every job that arrived, in arrival order."""
        return list(self.ledger.jobs())

    @property
    def accepted(self) -> list[Job]:
        """Accepted jobs, in the order they started."""
        ledger = self.ledger
        return [ledger.job(row) for row in ledger.accepted_rows()]

    @property
    def rejected(self) -> list[Job]:
        return self._finished(JobState.REJECTED)

    @property
    def completed(self) -> list[Job]:
        return self._finished(JobState.COMPLETED)

    @property
    def failed(self) -> list[Job]:
        return self._finished(JobState.FAILED)

    def _finished(self, state: JobState) -> list[Job]:
        ledger = self.ledger
        return [ledger.job(row) for row in ledger.finished_rows(state)]

    @property
    def acceptance_ratio(self) -> Optional[float]:
        if not self.ledger.rows:
            return None
        return self.ledger.accepted_count / self.ledger.rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = self.ledger.state_counts()
        return (
            f"<RMS jobs={self.ledger.rows} accepted={self.ledger.accepted_count} "
            f"rejected={counts[JobState.REJECTED.code]} "
            f"completed={counts[JobState.COMPLETED.code]}>"
        )
