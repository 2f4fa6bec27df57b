"""Common machinery shared by all admission-control policies.

A policy is bound once to a ``(sim, cluster, rms)`` triple and then
driven entirely by events:

* the RMS calls :meth:`SchedulingPolicy.on_job_submitted` for every
  arriving job;
* nodes call the policy back (it installs itself as their task
  listener) whenever one or more nodes finish their share of a job.

The base class tracks multi-node job completion: a parallel job runs
on ``numproc`` nodes and completes when the last one finishes.

Observability: setting :attr:`SchedulingPolicy.observer` (a
:class:`~repro.obs.hooks.PolicyObserver`) surfaces every admission
decision — accepts via :meth:`SchedulingPolicy._track`, rejects via
:meth:`SchedulingPolicy._reject` — with its reason and any structured
details the concrete policy supplies.
"""

from __future__ import annotations

import abc
import os
from typing import TYPE_CHECKING, Any, Optional

from repro.cluster.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import Node, NodeTask
    from repro.cluster.rms import ResourceManagementSystem
    from repro.obs.hooks import PolicyObserver
    from repro.sim.kernel import Simulator

#: Escape hatch: set to ``1`` to run every policy on its pre-cache
#: reference admission path (production debugging; the fast paths are
#: exact memoization, so both paths produce byte-identical output).
DISABLE_CACHE_ENV = "REPRO_DISABLE_ADMISSION_CACHE"

#: Debug: re-prove every node LibraRisk's σ>0 refutation refuses
#: against the exact projection, and assert on disagreement.  Slows
#: scans back down to projection cost.  Test/diagnosis only.
VERIFY_CERT_ENV = "REPRO_VERIFY_CERT"


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes", "on")


class SchedulingPolicy(abc.ABC):
    """Abstract deadline-constrained admission control policy."""

    #: Short name used by the registry, CLI and result tables.
    name: str = "abstract"

    #: Node execution discipline this policy requires
    #: (``"space_shared"`` or ``"time_shared"``).
    discipline: str = "time_shared"

    def __init__(self) -> None:
        self.sim: Optional["Simulator"] = None
        self.cluster: Optional["Cluster"] = None
        self.rms: Optional["ResourceManagementSystem"] = None
        #: Optional :class:`~repro.obs.hooks.PolicyObserver` notified of
        #: every admission decision with its reason.  Observers are
        #: passive: they may not mutate jobs or scheduling state.
        self.observer: Optional["PolicyObserver"] = None
        self._pending_tasks: dict[int, int] = {}  # job_id -> nodes still running it
        #: Admission fast-path switches, read once at construction so a
        #: policy's behaviour is fixed for its lifetime (tests override
        #: the attributes directly).
        self.fast_path = not _env_flag(DISABLE_CACHE_ENV)
        self.verify_cert = _env_flag(VERIFY_CERT_ENV)
        #: Monotone counters describing fast-path effectiveness
        #: (suitability cache hits/misses, projections avoided, ...).
        #: Surfaced by the profiler's ``cache`` block and the service
        #: ``stats`` endpoint; never part of deterministic exports.
        self.cache_stats: dict[str, int] = {}
        #: Trace id of the submission currently being admitted, set by
        #: the serving engine around each ``submit`` so admission hooks
        #: and observers can correlate with the job's trace.  Read-only
        #: for policies; never injected into decision records (byte
        #: parity between traced and untraced runs).
        self.trace_context: Optional[str] = None

    # -- wiring -----------------------------------------------------------
    def bind(self, sim: "Simulator", cluster: "Cluster", rms: "ResourceManagementSystem") -> None:
        """Attach to a simulation; installs this policy as node listener."""
        self.sim = sim
        self.cluster = cluster
        self.rms = rms
        for node in cluster:
            if node.listener is not None and node.listener is not self._task_listener:
                raise RuntimeError(f"node {node.node_id} already has a listener")
            node.listener = self._task_listener
        self.validate_cluster(cluster)

    def validate_cluster(self, cluster: "Cluster") -> None:
        """Hook: subclasses verify the node discipline matches."""

    def _bump_cache_stats(self, **counts: int) -> None:
        """Add per-scan counts to :attr:`cache_stats` in one place.

        Replaces the ``stats.get(key, 0) + n`` pattern that the fast
        paths used to repeat per counter; keyword names become counter
        keys verbatim.
        """
        stats = self.cache_stats
        get = stats.get
        for key, n in counts.items():
            stats[key] = get(key, 0) + n

    # -- admission entry point ----------------------------------------------
    @abc.abstractmethod
    def on_job_submitted(self, job: Job, now: float) -> None:
        """Handle a job arriving at the RMS at simulated time ``now``."""

    # -- task/job completion tracking -----------------------------------------
    def _task_listener(self, node: "Node", task: "NodeTask", now: float, count: int) -> None:
        job = task.job
        remaining = self._pending_tasks.get(job.job_id)
        if remaining is None:
            raise RuntimeError(
                f"task completion for untracked job {job.job_id} on node {node.node_id}"
            )
        remaining -= count
        if remaining > 0:
            self._pending_tasks[job.job_id] = remaining
            return
        del self._pending_tasks[job.job_id]
        job.mark_completed(now)
        assert self.rms is not None
        self.rms.notify_completed(job)
        self.on_job_completed(job, now)

    def on_job_completed(self, job: Job, now: float) -> None:
        """Hook: called after a job's last task finished (e.g. to dispatch
        queued work).  Default: nothing."""

    # -- node failure handling ---------------------------------------------
    def handle_node_failure(self, node: "Node", now: float) -> None:
        """A node failed: kill its jobs (SPMD semantics — losing one
        task kills the whole job, including its tasks on other nodes).

        Called by :class:`~repro.cluster.failures.NodeFailureInjector`
        (or tests) rather than by the node itself, because cleaning up
        a multi-node job requires cluster-wide bookkeeping only the
        policy has."""
        assert self.cluster is not None and self.rms is not None
        affected = node.fail(now)
        for job in affected:
            self._fail_job(job, now)
        self.on_node_failure(node, now)

    def handle_node_repair(self, node: "Node", now: float) -> None:
        """A failed node came back (empty)."""
        node.repair(now)
        self.on_node_repair(node, now)

    def _fail_job(self, job: Job, now: float) -> None:
        assert self.cluster is not None and self.rms is not None
        # Remove sibling tasks from the (online) nodes still running them.
        for node_id in job.assigned_nodes:
            other = self.cluster.node(node_id)
            if other.online and other.has_job(job.job_id):
                other.remove_task(job.job_id, now)
        self._pending_tasks.pop(job.job_id, None)
        job.mark_failed(now)
        self.rms.notify_failed(job)

    def on_node_failure(self, node: "Node", now: float) -> None:
        """Hook after a failure was processed.  Default: nothing."""

    def on_node_repair(self, node: "Node", now: float) -> None:
        """Hook after a repair (queue-based policies re-dispatch here)."""

    def _track(self, job: Job) -> None:
        """Register a started job for completion tracking.

        Every policy routes accepted jobs through here right after
        ``mark_running``, which makes it the one place an *accepted*
        admission decision is reliably observable across all policies.
        """
        self._pending_tasks[job.job_id] = job.numproc
        if self.observer is not None:
            self._record_decision(
                job,
                accepted=True,
                reason=f"started on {len(job.assigned_nodes)} node(s)",
                nodes=list(job.assigned_nodes),
            )

    @property
    def running_jobs(self) -> int:
        """Number of jobs with at least one unfinished task."""
        return len(self._pending_tasks)

    # -- shared admission helpers --------------------------------------------
    def _reject(self, job: Job, reason: str, **details: Any) -> None:
        """Refuse ``job`` with a human-readable ``reason``.

        ``details`` carries structured, JSON-able context for the
        decision record (e.g. suitable/required node counts); it is
        only consulted when an observer is attached.
        """
        assert self.rms is not None
        job.mark_rejected(reason)
        self.rms.notify_rejected(job, reason)
        if self.observer is not None:
            self._record_decision(job, accepted=False, reason=reason, **details)

    def _record_decision(
        self, job: Job, accepted: bool, reason: str = "", **details: Any
    ) -> None:
        """Forward one admission decision to the attached observer."""
        if self.observer is None:
            return
        assert self.sim is not None
        self.observer.on_admission_decision(
            policy_name=self.name,
            job=job,
            accepted=accepted,
            reason=reason,
            now=self.sim.now,
            details=details,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} running={self.running_jobs}>"
