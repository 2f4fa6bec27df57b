"""Libra: deadline-based proportional processor share admission (§3.1).

A new job ``new`` requiring ``numproc_new`` nodes is admitted iff there
are at least ``numproc_new`` nodes ``j`` for which the Eq. 2 total
share — including the new job's Eq. 1 share
``estimated_runtime / deadline`` — does not exceed the node's capacity
of 1.  Accepted jobs start immediately at their allocated shares.

Node selection is **best fit**: "nodes that have the least available
processor time after accepting the new job will be selected first so
that nodes are saturated to their maximum" (§3.3).  That saturation is
exactly what makes Libra fragile to estimate error, which LibraRisk
then fixes.

Libra's Eq. 2 sum omits resident jobs whose state the estimate can no
longer describe — an overrunning job (estimate exhausted) or one whose
deadline has already passed.  Eq. 1 is undefined for them, and leaving
them out reproduces the blindness the paper attributes to Libra ("it
relies heavily on the idealistic assumption of accurate runtime
estimates").
"""

from __future__ import annotations

from repro.cluster.job import Job
from repro.cluster.node import TimeSharedNode
from repro.cluster.share import WORK_EPSILON
from repro.scheduling.base import SchedulingPolicy

#: Slack for float error in the Σ share <= 1 capacity test.
CAPACITY_EPSILON = 1e-9


class LibraPolicy(SchedulingPolicy):
    """Deadline-based proportional-share admission with best-fit placement."""

    name = "libra"
    discipline = "time_shared"

    # -- admission ----------------------------------------------------------
    def on_job_submitted(self, job: Job, now: float) -> None:
        """Eq. 2 on every online node, with
        :meth:`~repro.cluster.node.TimeSharedNode.total_admission_share`
        inlined: its skip rule and summation order, bit-identical
        totals, but no per-node method dispatch, no extra-pair list,
        and no sync calls on idle nodes (an empty node's sync only
        moves its clock).  A job whose deadline already passed gets an
        infinite Eq. 1 share on every node, so its scan only syncs and
        counts.  ``tests/test_scheduling/reference_scans.py`` keeps the
        plain per-node scan this must equal byte for byte."""
        cluster = self.cluster
        assert cluster is not None and self.rms is not None
        suitable: list[tuple[float, TimeSharedNode]] = []
        online = 0
        rem_new = job.remaining_deadline(now)
        feasible = rem_new > 0.0
        # est_time_on(node, est) = (est * reference_rating) / rating.
        est_work_new = job.estimated_runtime * cluster.reference_rating

        for node in cluster.nodes:
            if not node.online:
                continue
            online += 1
            tasks = node.tasks
            if tasks:
                node.sync(now)
            if not feasible:
                continue  # admission_share(·, rem <= 0) = inf on every node
            rating = node.rating
            work_threshold = WORK_EPSILON / rating
            total = 0.0
            for task in tasks.values():
                est = task.remaining_est_work / rating
                rem = task.deadline - now
                if est <= work_threshold or rem <= 0.0:
                    continue  # expired/exhausted jobs vanish from Eq. 2
                total += est / rem
            total += (est_work_new / rating) / rem_new
            if total <= 1.0 + CAPACITY_EPSILON:
                suitable.append((total, node))

        self._bump_cache_stats(
            online_scans=online, inline_share_sums=online if feasible else 0
        )
        self._finish(job, suitable, online, now)

    def _finish(
        self,
        job: Job,
        suitable: list[tuple[float, TimeSharedNode]],
        online: int,
        now: float,
    ) -> None:
        if len(suitable) < job.numproc:
            self._reject(
                job,
                f"only {len(suitable)} of {job.numproc} required nodes have "
                f"capacity (Σ share > 1 on {online - len(suitable)}/{online} "
                f"online nodes)",
                suitable=len(suitable),
                required=job.numproc,
                online=online,
            )
            return

        # Best fit: highest post-acceptance total share first (least
        # available processor time remaining), ties by node id.
        suitable.sort(key=lambda pair: (-pair[0], pair[1].node_id))
        chosen = [node for _, node in suitable[: job.numproc]]
        self._allocate(job, chosen, now)

    def _allocate(self, job: Job, nodes: list[TimeSharedNode], now: float) -> None:
        assert self.cluster is not None and self.rms is not None
        work = self.cluster.work_of(job.runtime)
        est_work = self.cluster.work_of(job.estimated_runtime)
        job.mark_running(now, [n.node_id for n in nodes])
        self._track(job)
        self.rms.notify_accepted(job)
        for node in nodes:
            node.add_task(job, work=work, est_work=est_work, now=now)
