"""The cluster Resource Management System (RMS) front-end.

The RMS is the *single* interface through which jobs enter the cluster
(paper §3, assumption 4), so the admission control policy it hosts is
aware of the entire workload.  It:

* turns a workload (a list of :class:`~repro.cluster.job.Job`) into
  arrival events on the simulator,
* hands each arriving job to the policy's ``on_job_submitted``,
* records the outcome of every job for the metrics layer.

The policy object owns all scheduling state (queues, node listeners);
the RMS is deliberately thin so that policies are interchangeable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.job import Job, JobState
from repro.sim.events import Event, EventPriority
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.hooks import LifecycleObserver
    from repro.scheduling.base import SchedulingPolicy


class ResourceManagementSystem:
    """Hosts one admission-control policy over one cluster."""

    def __init__(self, sim: Simulator, cluster: Cluster, policy: "SchedulingPolicy") -> None:
        self.sim = sim
        self.cluster = cluster
        self.policy = policy
        self.jobs: list[Job] = []           # every job ever submitted, in arrival order
        self.accepted: list[Job] = []
        self.rejected: list[Job] = []
        self.completed: list[Job] = []
        self.failed: list[Job] = []
        #: Optional :class:`~repro.obs.hooks.LifecycleObserver` notified
        #: of every job transition the RMS witnesses.  Must be passive.
        self.observer: Optional["LifecycleObserver"] = None
        policy.bind(sim=sim, cluster=cluster, rms=self)

    def _notify_observer(self, job: Job, transition: str) -> None:
        if self.observer is not None:
            self.observer.on_job_transition(job, transition, self.sim.now)

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
        if job.state is not JobState.CREATED:
            raise ValueError(f"job {job.job_id} already {job.state.value}; cannot submit")
        if job.submit_time < self.sim.now:
            raise ValueError(
                f"job {job.job_id} arrives out of order: submit_time "
                f"{job.submit_time:.6g}s is before the clock at {self.sim.now:.6g}s"
            )
        self.sim.schedule_at(
            job.submit_time,
            self._on_arrival,
            priority=EventPriority.ARRIVAL,
            name=f"arrive:job{job.job_id}",
            payload=job,
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
        self.jobs.append(job)
        self._notify_observer(job, "submitted")
        self.policy.on_job_submitted(job, self.sim.now)

    # -- policy callbacks -------------------------------------------------------
    def notify_accepted(self, job: Job) -> None:
        """Policy accepted ``job`` (it is queued or running)."""
        self.accepted.append(job)
        self._notify_observer(job, "accepted")

    def notify_rejected(self, job: Job, reason: str = "") -> None:
        """Policy refused ``job`` at admission (or EDF's dispatch check)."""
        if not job.state is JobState.REJECTED:
            job.mark_rejected(reason)
        self.rejected.append(job)
        self._notify_observer(job, "rejected")

    def notify_completed(self, job: Job) -> None:
        """Policy observed the last task of ``job`` finish."""
        self.completed.append(job)
        self._notify_observer(job, "completed")

    def notify_failed(self, job: Job) -> None:
        """Policy observed ``job`` die with a failed node."""
        self.failed.append(job)
        self._notify_observer(job, "failed")

    # -- bookkeeping views ---------------------------------------------------------
    @property
    def acceptance_ratio(self) -> Optional[float]:
        if not self.jobs:
            return None
        return len(self.accepted) / len(self.jobs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RMS jobs={len(self.jobs)} accepted={len(self.accepted)} "
            f"rejected={len(self.rejected)} completed={len(self.completed)}>"
        )
