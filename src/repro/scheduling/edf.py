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

from typing import Optional, Union

from repro.cluster.job import Job
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
        if self.queue:  # freed nodes matter only to waiting work
            self._dispatch(now)

    def on_node_failure(self, node, now: float) -> None:
        # Failed jobs freed sibling nodes; queued work may now fit.
        self._dispatch(now)

    def on_node_repair(self, node, now: float) -> None:
        self._dispatch(now)

    # -- dispatch loop ----------------------------------------------------------
    def _dispatch(self, now: float) -> None:
        assert self.cluster is not None and self.rms is not None
        occupancy = self.cluster.occupancy
        while self.queue:
            job = self.select_next(now)
            if job is None:
                return
            # The paper's check on the *estimate*, "prior to execution": a job
            # that cannot meet its deadline if started now only gets worse
            # by waiting, so reject it at selection rather than let a doomed
            # wide job block the head of the queue.
            deadline = job.submit_time + job.deadline  # absolute
            if now + job.estimated_runtime > deadline:
                self.queue.remove(job)
                remaining = deadline - now
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
            # The first numproc idle online positions in cluster order, found
            # by C-level scans of the occupancy list: a slice when they are
            # one consecutive run, else the positions one by one.
            wanted = job.numproc
            try:
                lo = occupancy.index(None)
                if occupancy[lo:lo + wanted].count(None) == wanted:
                    where: Union[slice, list[int]] = slice(lo, lo + wanted)
                else:
                    where = [lo]
                    for _ in range(wanted - 1):
                        lo = occupancy.index(None, lo + 1)
                        where.append(lo)
            except ValueError:
                # Too few free nodes.  Non-preemptive wait: the selection is
                # revisited at the next scheduling event, which may pick a
                # different job.
                return
            self.queue.remove(job)
            self._start(job, where, now)

    def _start(self, job: Job, where: Union[slice, list[int]], now: float) -> None:
        cluster = self.cluster
        assert cluster is not None and self.rms is not None
        ids = cluster.ids
        job.mark_running(now, ids[where] if type(where) is slice else [ids[pos] for pos in where])
        self._track(job)
        self.rms.notify_accepted(job)
        cluster.occupy(job, where, cluster.work_of(job.runtime), now)


class EDFPolicy(QueuedSpaceSharedPolicy):
    """Earliest Deadline First: select the queued job with the earliest
    absolute deadline (ties: earlier submission, then lower job id)."""

    name = "edf"

    def select_next(self, now: float) -> Optional[Job]:
        queue = self.queue
        if len(queue) < 2:  # a lone job needs no key
            return queue[0] if queue else None
        return min(queue, key=lambda j: (j.submit_time + j.deadline, j.submit_time, j.job_id))
