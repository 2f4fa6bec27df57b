"""Non-preemptive Earliest Deadline First with relaxed admission (paper §4).

EDF differs structurally from Libra/LibraRisk:

* nodes are **space-shared** — a job holds ``numproc`` whole nodes for
  its runtime;
* arriving jobs are *not* rejected at submission.  They enter a queue,
  and at every scheduling event the waiting job with the earliest
  absolute deadline is (re)selected — so a later-arriving, more urgent
  job can displace the current selection while it waits for processors
  ("better selection choice");
* a selected job is rejected only *prior to execution*, when its
  deadline has expired or ``now + estimated_runtime`` exceeds its
  absolute deadline ("more generous job admission control").

Both quoted behaviours are the advantages the paper grants EDF; they
explain why EDF wins under the heaviest workloads (Fig. 1) and lose
their value as load drops.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.job import Job
from repro.cluster.node import SpaceSharedNode, start_job_tasks
from repro.scheduling.base import SchedulingPolicy


class QueuedSpaceSharedPolicy(SchedulingPolicy):
    """Shared machinery for queue-based space-shared policies.

    Subclasses define the selection order via :meth:`select_next`.
    Dispatch is non-preemptive and non-backfilling: if the selected job
    cannot get its processors, the policy waits (it does not try a
    different job behind it).
    """

    discipline = "space_shared"

    def __init__(self) -> None:
        super().__init__()
        self.queue: list[Job] = []

    # -- selection hook -----------------------------------------------------
    def select_next(self, now: float) -> Optional[Job]:
        """Return the queued job to dispatch next (``None`` if queue empty)."""
        raise NotImplementedError

    # -- event handlers -------------------------------------------------------
    def on_job_submitted(self, job: Job, now: float) -> None:
        job.mark_queued()
        self.queue.append(job)
        self._dispatch(now)

    def on_job_completed(self, job: Job, now: float) -> None:
        self._dispatch(now)

    def on_node_failure(self, node, now: float) -> None:
        # Failed jobs freed sibling nodes; queued work may now fit.
        self._dispatch(now)

    def on_node_repair(self, node, now: float) -> None:
        self._dispatch(now)

    # -- dispatch loop ----------------------------------------------------------
    def _dispatch(self, now: float) -> None:
        assert self.cluster is not None and self.rms is not None
        while self.queue:
            job = self.select_next(now)
            if job is None:
                return
            if not self._feasible(job, now):
                # "Prior to execution": a job that cannot meet its deadline
                # even if started right now will only get worse by waiting,
                # so reject it at selection rather than letting a doomed
                # wide job block the head of the queue.
                self.queue.remove(job)
                remaining = job.remaining_deadline(now)
                if remaining <= 0:
                    reason = (
                        f"deadline expired {-remaining:.6g}s before dispatch"
                    )
                else:
                    reason = (
                        f"infeasible at dispatch: estimate {job.estimated_runtime:.6g}s "
                        f"exceeds remaining deadline {remaining:.6g}s"
                    )
                self._reject(
                    job, reason,
                    remaining_deadline=remaining,
                    estimated_runtime=job.estimated_runtime,
                    queued=len(self.queue),
                )
                continue
            # Stop scanning as soon as numproc free nodes are found: the
            # first numproc in cluster order are exactly the slice the
            # full list comprehension would have taken.
            free: list[SpaceSharedNode] = []
            wanted = job.numproc
            for n in self.cluster.nodes:
                if not n.tasks and n.online:
                    free.append(n)
                    wanted -= 1
                    if not wanted:
                        break
            else:
                # Non-preemptive wait: the selection is revisited at the
                # next scheduling event, which may pick a different job.
                return
            self.queue.remove(job)
            self._start(job, free, now)

    def _feasible(self, job: Job, now: float) -> bool:
        """Paper's dispatch-time check, based on the *estimate*."""
        return now + job.estimated_runtime <= job.absolute_deadline

    def _start(self, job: Job, nodes: list[SpaceSharedNode], now: float) -> None:
        assert self.cluster is not None and self.rms is not None
        work = self.cluster.work_of(job.runtime)
        job.mark_running(now, [n.node_id for n in nodes])
        self._track(job)
        self.rms.notify_accepted(job)
        start_job_tasks(job, nodes, work, now)

    @property
    def queued_jobs(self) -> int:
        return len(self.queue)


class EDFPolicy(QueuedSpaceSharedPolicy):
    """Earliest Deadline First: select the queued job with the earliest
    absolute deadline (ties: earlier submission, then lower job id)."""

    name = "edf"

    def select_next(self, now: float) -> Optional[Job]:
        if not self.queue:
            return None
        return min(
            self.queue,
            key=lambda j: (j.absolute_deadline, j.submit_time, j.job_id),
        )
