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

The ``expired_job_share_mode`` knob controls how Libra's Eq. 2 sum
sees resident jobs whose state the estimate can no longer describe —
an overrunning job (estimate exhausted) or one whose deadline has
already passed.  Eq. 1 is undefined for them; the default ``"zero"``
simply omits them, reproducing the blindness the paper attributes to
Libra ("it relies heavily on the idealistic assumption of accurate
runtime estimates").
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.cluster.job import Job
from repro.cluster.node import TimeSharedNode
from repro.cluster.share import WORK_EPSILON
from repro.scheduling.base import SchedulingPolicy

#: Slack for float error in the Σ share <= 1 capacity test.
CAPACITY_EPSILON = 1e-9

#: Robustness margin of the O(1) over-commitment certificate (relative).
_CERT_REL = 1e-4
#: Absolute slack absorbing aggregate accumulation error.
_CERT_SLACK = 1e-9


def _over_commitment_certified(
    agg: tuple,
    now: float,
    s_new: float,
    rating: float,
) -> bool:
    """O(1) proof that the Eq. 2 zero-mode total robustly exceeds 1.

    ``agg`` is the ``TimeSharedNode.admission_aggregate`` tuple of the
    node's current generation, ``s_new`` the candidate's exact unclamped
    Eq. 1 share.  Sound because every resident share counted at build
    time ``t0`` is non-decreasing while its execution rate stays fixed
    (no generation bump), *provided* no counted resident crosses its
    deadline (``d_min_z`` guard) or falls under the zero-mode skip
    threshold (``min_w_est0`` guard, estimates decline at most at the
    node's rating) by ``now``.  Returns ``True`` only when the walk
    would certainly reject; ``False`` means "walk the node".
    """
    t0, sum_zero, d_min_z, min_w_est0 = agg
    if now >= d_min_z:
        return False
    if min_w_est0 - rating * (now - t0) <= WORK_EPSILON + _CERT_SLACK:
        return False
    total_lo = sum_zero * (1.0 - _CERT_SLACK) - _CERT_SLACK + s_new
    return total_lo > 1.0 + CAPACITY_EPSILON + _CERT_REL * (1.0 + total_lo)


class LibraPolicy(SchedulingPolicy):
    """Deadline-based proportional-share admission with best-fit placement."""

    name = "libra"
    discipline = "time_shared"

    def __init__(self, expired_job_share_mode: str = "zero") -> None:
        super().__init__()
        if expired_job_share_mode not in ("zero", "floor", "infinite"):
            raise ValueError(f"unknown expired_job_share_mode {expired_job_share_mode!r}")
        self.expired_job_share_mode = expired_job_share_mode

    def validate_cluster(self, cluster: Cluster) -> None:
        for node in cluster:
            if not isinstance(node, TimeSharedNode):
                raise TypeError(
                    f"{self.name} requires time-shared nodes; node {node.node_id} "
                    f"is {type(node).__name__}"
                )
        if self.expired_job_share_mode == "zero":
            # Non-default Eq. 2 modes always take the reference scan,
            # which syncs directly — deferral would never be exercised.
            self._attach_sync_deferral(cluster)

    # -- admission ----------------------------------------------------------
    def on_job_submitted(self, job: Job, now: float) -> None:
        # The inlined fast scan only replicates the default "zero" Eq. 2
        # semantics; the research knobs take the reference path.
        if self.fast_path and self.expired_job_share_mode == "zero":
            self._submit_fast(job, now)
        else:
            self._submit_reference(job, now)

    def _submit_reference(self, job: Job, now: float) -> None:
        """Pre-cache admission scan, kept verbatim as the escape hatch
        (``REPRO_DISABLE_ADMISSION_CACHE=1``) and for the non-default
        ``expired_job_share_mode`` values."""
        assert self.cluster is not None and self.rms is not None
        suitable: list[tuple[float, TimeSharedNode]] = []
        for node in self.cluster:
            assert isinstance(node, TimeSharedNode)
            if not node.online:
                continue
            node.sync(now)  # bring work ledgers to `now` before reading shares
            est_time = self.cluster.est_time_on(node, job.estimated_runtime)
            total = node.total_admission_share(
                now,
                extra=[(est_time, job.remaining_deadline(now))],
                expired_job_share_mode=self.expired_job_share_mode,
            )
            if total <= 1.0 + CAPACITY_EPSILON:
                suitable.append((total, node))

        online = sum(1 for n in self.cluster if n.online)
        self._finish(job, suitable, online, now)

    def _submit_fast(self, job: Job, now: float) -> None:
        """The ``"zero"``-mode scan with ``total_admission_share``
        inlined: same skip rule, same summation order, bit-identical
        totals — but no per-node method dispatch, no extra-pair list,
        and no sync calls on idle nodes (an empty node's sync is a pure
        no-op).  A job whose deadline already passed gets an infinite
        Eq. 1 share on every node, so the scan degenerates to the online
        count (ledger syncs deferred through the shared chop log).  An
        over-committed node's generation gets an
        :meth:`~repro.cluster.node.TimeSharedNode.admission_aggregate`
        built once, after which :func:`_over_commitment_certified`
        rejects it in O(1) — no sync, no resident walk — until its task
        set changes."""
        cluster = self.cluster
        assert cluster is not None and self.rms is not None
        verify = self.verify_cert
        suitable: list[tuple[float, TimeSharedNode]] = []
        online = 0
        n_walked = n_cert = n_agg_hit = n_agg_built = 0
        rem_new = job.remaining_deadline(now)
        feasible = rem_new > 0.0
        # est_time_on(node, est) = (est * reference_rating) / rating.
        est_work_new = job.estimated_runtime * cluster.reference_rating
        self._note_scan_chop(now)

        for node in cluster.nodes:
            if not node.online:
                continue
            online += 1
            tasks = node.tasks
            if not feasible:
                # admission_share(·, rem <= 0) = inf on every node;
                # occupied nodes' syncs are deferred to the chop log.
                continue
            rating = node.rating
            if tasks:
                if node._agg_gen == node.generation:
                    agg = node._agg
                    if agg is not None:
                        n_agg_hit += 1
                        s_new = (est_work_new / rating) / rem_new
                        if _over_commitment_certified(agg, now, s_new, rating):
                            n_cert += 1
                            if verify:
                                self._assert_capacity_cert(node, job, now)
                            continue
                node.sync(now)
            work_threshold = WORK_EPSILON / rating
            total = 0.0
            n_walked += 1
            for task in tasks.values():
                est = task.remaining_est_work / rating
                rem = task.deadline - now
                if est <= work_threshold or rem <= 0.0:
                    continue  # "zero" mode: expired/exhausted jobs vanish
                total += est / rem
            total += (est_work_new / rating) / rem_new
            if total <= 1.0 + CAPACITY_EPSILON:
                suitable.append((total, node))
            elif tasks and node._agg_gen != node.generation:
                # Over-committed: build the aggregate once per node
                # generation so later scans reject in O(1).  No
                # staleness refresh: the certificate is one-sided
                # (sum_zero only grows while rates are fixed), so an
                # aging aggregate weakens it but never unsounds it —
                # and re-building every scan costs more than the walks
                # the sharper bounds would save.
                n_agg_built += 1
                node.admission_aggregate()

        self._bump_cache_stats(
            online_scans=online,
            inline_share_sums=n_walked,
            capacity_cert_hits=n_cert,
            agg_hits=n_agg_hit,
            agg_rebuilds=n_agg_built,
        )
        self._finish(job, suitable, online, now)

    def _assert_capacity_cert(self, node: TimeSharedNode, job: Job, now: float) -> None:
        """``REPRO_VERIFY_CERT``: prove a fired over-commitment
        certificate against the exact Eq. 2 walk (debug/test only)."""
        assert self.cluster is not None
        node.sync(now)
        est_time = self.cluster.est_time_on(node, job.estimated_runtime)
        total = node.total_admission_share(
            now, extra=[(est_time, job.remaining_deadline(now))]
        )
        if total <= 1.0 + CAPACITY_EPSILON:
            raise AssertionError(
                f"over-commitment certificate contradicted by the Eq. 2 walk on "
                f"node {node.node_id} for job {job.job_id} at t={now:.6g}"
            )

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
