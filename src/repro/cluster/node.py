"""Compute-node models: space-shared and proportional time-shared.

Work accounting
---------------
Job runtimes are defined at a *reference* SPEC rating (the paper §3:
"the runtime estimate of a job has to be translated to its equivalent
value across heterogeneous nodes").  Internally a task carries **work**
in rating-seconds::

    work = runtime_seconds × reference_rating

A node of rating ``r`` executing a task at share (fraction) ``s``
performs ``r × s`` rating-seconds of work per wall-clock second.  For a
homogeneous cluster this is a pass-through; for heterogeneous ratings
it gives the translation the paper requires.

Each task tracks **two** work quantities:

* ``remaining_work`` — the actual work left (ground truth; the task
  finishes when this hits zero), and
* ``remaining_est_work`` — the work left according to the *user
  estimate* (what the admission controls see).

Both are consumed at the same CPU rate; they diverge exactly when the
estimate was wrong.  A task whose estimate is exhausted while actual
work remains is in **overrun** — it keeps a small floor share (see
:mod:`repro.cluster.share`) and is precisely the hazard LibraRisk's
risk metric detects and Libra's Eq. 2 capacity test cannot.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from repro.cluster.job import Job
from repro.cluster.share import (
    DEFAULT_SHARE_PARAMS,
    SHARE_EPSILON,
    WORK_EPSILON,
    ShareParams,
    admission_share,
    effective_rates,
    nominal_share,
)
from repro.sim.events import Event, EventPriority
from repro.sim.kernel import Simulator

#: ``listener(node, task, now, count)``: ``count`` nodes finished ``task`` at
#: ``now`` — 1 on a time-shared node, a whole completion group on space-shared.
TaskListener = Callable[["Node", "NodeTask", float, int], None]

#: Predicted delays below this many seconds are float noise, not risk.
PREDICTED_DELAY_EPSILON = 1e-6

_INF = float("inf")

# Robustness constants of TimeSharedNode.refutes_zero_risk: its
# arithmetic is the projection's regrouped, not bit-identical, so a
# refusal needs a gap four orders above what the float σ-test can
# resolve, and every discrete projection decision taken inside one of
# these bands is "cannot tell".
#: Relative Eq. 4 gap that proves σ_j > 0.
REFUTE_REL_GAP = 1e-4
#: Estimates this close above the ``SHARE_EPSILON`` overrun threshold,
#: and Eq. 1 shares this close above the ``SHARE_EPSILON`` clamp.
_REFUTE_EST_BAND = 1e-6
_REFUTE_SHARE_BAND = 1e-6
#: Remaining deadlines this close to zero (Eq. 4 pole, floor-share
#: flip): Eq. 4 divides a phase end's rounding error by the remaining
#: deadline.
_REFUTE_REM_BAND = 1.0
#: A first-phase share total must clear 1 by this to count as over-commit.
_REFUTE_FIT_BAND = 1e-6
#: Predicted delays in this band may or may not snap to zero.
_REFUTE_SNAP_LO = PREDICTED_DELAY_EPSILON / 10.0
_REFUTE_SNAP_HI = PREDICTED_DELAY_EPSILON * 10.0
#: Above this many entries float summation error (and the share total
#: that stretches every phase) could hide the gap.
_REFUTE_MAX_ENTRIES = 64


class NodeTask:
    """One job's slice of work on a node; the space-shared nodes of a job
    that finish together hold one record, so a task names no node."""

    __slots__ = (
        "job",
        "remaining_work",
        "remaining_est_work",
        "rate",
        "added_at",
        "deadline",
    )

    def __init__(
        self,
        job: Job,
        work: float,
        est_work: float,
        added_at: float,
    ) -> None:
        self.job = job
        self.remaining_work = float(work)
        self.remaining_est_work = float(est_work)
        self.rate = 0.0  # effective node fraction, set by recompute()
        self.added_at = float(added_at)
        #: The job's absolute deadline, snapshotted at placement.  A
        #: job's submit time (and hence deadline) is only ever adjusted
        #: *before* admission, so the copy cannot go stale while the
        #: task is resident — and it turns the admission scan's
        #: per-resident deadline read into a plain slot load.
        self.deadline = job.absolute_deadline

    @property
    def finished(self) -> bool:
        return self.remaining_work <= WORK_EPSILON

    @property
    def overrun(self) -> bool:
        """Estimate exhausted but actual work remains."""
        return self.remaining_est_work <= WORK_EPSILON and not self.finished

    def remaining_est_time(self, rating: float) -> float:
        """Estimated remaining runtime at full speed of a node with ``rating``."""
        return self.remaining_est_work / rating

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NodeTask job={self.job.job_id} "
            f"work={self.remaining_work:.6g} est={self.remaining_est_work:.6g} "
            f"rate={self.rate:.4f}>"
        )


class Node:
    """Base node: identity, SPEC rating, and a task-completion listener."""

    def __init__(
        self,
        node_id: int,
        rating: float,
        sim: Simulator,
        listener: Optional[TaskListener] = None,
    ) -> None:
        if rating <= 0:
            raise ValueError(f"rating must be > 0, got {rating}")
        self.node_id = int(node_id)
        self.rating = float(rating)
        self.sim = sim
        self.listener = listener
        self.tasks: dict[int, NodeTask] = {}  # job_id -> task
        self.busy_time = 0.0  # integrated rating-seconds executed (utilisation)
        #: Failed nodes are offline: they execute nothing and no policy
        #: may place work on them until repaired.
        self.online = True
        self.failures = 0

    # -- common helpers ----------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def idle(self) -> bool:
        return not self.tasks

    def has_job(self, job_id: int) -> bool:
        return job_id in self.tasks

    def _notify(self, task: NodeTask, now: float, count: int = 1) -> None:
        if self.listener is not None:
            self.listener(self, task, now, count)

    def utilisation(self, horizon: float) -> float:
        """Fraction of this node's capacity used over ``[0, horizon]``."""
        if horizon <= 0:
            return 0.0
        return self.busy_time / (self.rating * horizon)

    @property
    def available_for_work(self) -> bool:
        """Online and idle — the placement predicate for space sharing."""
        return self.online and self.idle

    # -- failure/repair (overridden per discipline for bookkeeping) ---------
    def fail(self, now: float) -> list[Job]:
        """Take the node offline; returns the jobs whose task was killed."""
        raise NotImplementedError

    def repair(self, now: float) -> None:
        """Bring a failed node back online, empty."""
        if self.online:
            raise RuntimeError(f"node {self.node_id} is not failed")
        self.online = True


class SpaceSharedNode(Node):
    """A node that runs exactly one task at a time, to completion.

    Used by EDF: the task executes at the node's full rating, so its
    completion instant is known exactly at start time.  The node owns
    no timer: :func:`start_job_tasks` schedules one completion event
    for all of a job's nodes that finish together.
    """

    @property
    def available(self) -> bool:
        return not self.tasks

    def start_task(self, job: Job, work: float, now: float) -> NodeTask:
        """Begin executing ``work`` rating-seconds of ``job`` exclusively."""
        start_job_tasks(job, [self], work, now)
        return self.tasks[job.job_id]

    def fail(self, now: float) -> list[Job]:
        """Kill the resident task (if any) and go offline.

        Work already performed is credited to ``busy_time``
        proportionally to elapsed run time.  The job's completion event
        stays scheduled and skips the killed task when it fires.
        """
        if not self.online:
            raise RuntimeError(f"node {self.node_id} already failed")
        self.online = False
        self.failures += 1
        affected: list[Job] = []
        for task in list(self.tasks.values()):
            started = task.added_at
            self.busy_time += max(0.0, (now - started)) * self.rating
            affected.append(task.job)
        self.tasks.clear()
        return affected

    def remove_task(self, job_id: int, now: float) -> Optional[NodeTask]:
        """Forcibly remove a job's task (sibling of a failed task)."""
        task = self.tasks.pop(job_id, None)
        if task is None:
            return None
        self.busy_time += max(0.0, (now - task.added_at)) * self.rating
        return task


def start_job_tasks(
    job: Job, nodes: Sequence[SpaceSharedNode], work: float, start: float
) -> None:
    """Run ``work`` rating-seconds of ``job`` on each of ``nodes`` from ``start``.

    The single start path of the space-shared discipline: policies call
    it once per dispatched job, :meth:`SpaceSharedNode.start_task` is
    its one-node case, and checkpoint restore calls it with the stored
    ``added_at`` as ``start`` (the work ledger is only zeroed at
    completion, so ``start + work / rating`` is the original instant).

    Nodes are grouped by completion instant ``start + work / rating``
    (one group on equal-rated nodes).  A group is one allocation: one
    :class:`NodeTask` in every member's ``tasks`` and one ``COMPLETION``
    event carrying the record and its members in start order.  Every
    node is checked before any is touched: a refused start changes
    nothing.

    Equivalence with one event per node: those events would share
    ``(time, priority)`` within a group and hold consecutive sequence
    numbers (nothing else is scheduled while a job starts), so the
    kernel would fire them back to back in start order with nothing in
    between.  The group event is that run, fired once.
    """
    job_id = job.job_id
    groups: dict[float, list[SpaceSharedNode]] = {}
    rating = None
    for node in nodes:
        if node.tasks:
            raise RuntimeError(f"node {node.node_id} is space-shared and already busy")
        if not node.online:
            raise RuntimeError(f"node {node.node_id} is offline")
        if node.rating != rating:  # else: the previous node's group
            rating = node.rating
            members = groups.setdefault(start + work / rating, [])
        members.append(node)
    for finish, members in groups.items():
        task = NodeTask(job, work=work, est_work=work, added_at=start)
        task.rate = 1.0
        for node in members:
            node.tasks[job_id] = task
        nodes[0].sim.schedule_at(
            finish,
            _complete_tasks,
            priority=EventPriority.COMPLETION,
            name=f"job{job_id}:done",
            payload=(task, members),
        )


def _complete_tasks(event: Event) -> None:
    """Free, in start order, each member of the group still running the task.

    A member killed meanwhile by ``fail`` / ``remove_task`` is skipped;
    the check is on task identity, so a new job placed on that node
    before this (now stale) event fires is left running.  The listener
    hears once, after every member is free, how many completed; an
    event whose members are all gone still fires, as a no-op: nobody
    holds it to cancel.
    """
    task, members = event.payload
    job_id = task.job.job_id
    done = [node for node in members if node.tasks.get(job_id) is task]
    for node in done:
        node.busy_time += task.remaining_work
        del node.tasks[job_id]
    if done:
        task.remaining_work = task.remaining_est_work = 0.0
        done[0]._notify(task, event.time, len(done))


class TimeSharedNode(Node):
    """Proportional-share node implementing Libra's execution discipline.

    The engine is event-driven: between scheduling events every task's
    rate is constant, so work advances linearly and the next completion
    instant is exact.  :meth:`sync` brings work ledgers up to ``now``;
    :meth:`recompute` re-derives Eq. 1 shares, converts them to
    effective rates, and (re)schedules the node's single pending
    completion event.

    :attr:`generation` counts share-relevant state changes — task
    add/remove, completion, overrun demotion (all via
    :meth:`recompute`), restore, failure and repair.  Admission fast
    paths key cached per-node verdicts on it; :meth:`sync` deliberately
    does *not* bump it, because the one cross-submit cache
    (:meth:`min_resident_deadline`) depends only on task membership,
    never on ledger values.

    Both admission scans sync every occupied online node at every
    submit instant.  Those instants are part of the byte-identical
    ledger history — float subtraction is not associative, so catching
    up later in one step would produce different bits — which is why a
    scan syncs even the nodes it then refuses without reading them.
    """

    def __init__(
        self,
        node_id: int,
        rating: float,
        sim: Simulator,
        listener: Optional[TaskListener] = None,
        share_params: ShareParams = DEFAULT_SHARE_PARAMS,
    ) -> None:
        super().__init__(node_id, rating, sim, listener)
        self.share_params = share_params
        self._last_sync = sim.now
        self._completion_event: Optional[Event] = None
        #: Bumped on every task-set / share mutation; cache key for
        #: admission-side memoization (never reset, monotone).
        self.generation = 0
        self._min_deadline_gen = -1
        self._min_deadline = float("inf")
        # The completion event name is stable; format it once, not per
        # recompute (checkpointing pattern-matches on it).
        self._completion_name = f"node{self.node_id}:completion"

    # -- time advance -------------------------------------------------------
    def sync(self, now: float) -> None:
        """Advance every task's work ledgers from the last sync to ``now``."""
        dt = now - self._last_sync
        if dt < 0:
            raise ValueError(
                f"node {self.node_id}: sync to t={now:.6g} before last sync "
                f"t={self._last_sync:.6g}"
            )
        if dt > 0.0:
            # Hot path (one call per occupied node per admission scan):
            # min/max inlined as comparisons, attribute loads hoisted.
            # `task.rate * rating * dt` must stay left-associated — float
            # multiplication is not associative and the ledger values are
            # part of the byte-identical-export guarantee.
            rating = self.rating
            busy = self.busy_time
            for task in self.tasks.values():
                consumed = task.rate * rating * dt
                if consumed > 0.0:
                    remaining = task.remaining_work
                    busy += consumed if consumed < remaining else remaining
                    remaining -= consumed
                    task.remaining_work = remaining if remaining > 0.0 else 0.0
                    est_remaining = task.remaining_est_work - consumed
                    task.remaining_est_work = (
                        est_remaining if est_remaining > 0.0 else 0.0
                    )
            self.busy_time = busy
        self._last_sync = now

    # -- task management ----------------------------------------------------
    def add_task(self, job: Job, work: float, est_work: float, now: float) -> NodeTask:
        """Place a task of ``job`` on this node and rebalance shares."""
        if job.job_id in self.tasks:
            raise RuntimeError(f"job {job.job_id} already has a task on node {self.node_id}")
        self.sync(now)
        task = NodeTask(job, work=work, est_work=est_work, added_at=now)
        self.tasks[job.job_id] = task
        self.recompute(now)
        return task

    def recompute(self, now: float) -> None:
        """Re-derive shares/rates and reschedule the completion event.

        Must be called with work ledgers already synced to ``now``.
        """
        self.generation += 1
        tasks = self.tasks.values()
        # nominal_share inlined (same clamps, same float sequence): this
        # runs for every resident on every task add/remove/overrun.
        rating = self.rating
        floor = self.share_params.overrun_floor_share
        shares: list[float] = []
        for t in tasks:
            est = t.remaining_est_work / rating
            rem = t.deadline - now
            if est <= SHARE_EPSILON or rem <= 0.0:
                shares.append(floor)
            else:
                s = est / rem
                if s < SHARE_EPSILON:
                    s = SHARE_EPSILON
                elif s > 1.0:
                    s = 1.0
                shares.append(s)
        rates = effective_rates(shares, self.share_params)
        # Rate assignment fused with the next-completion scan
        # (:meth:`_next_completion_delay` semantics, one pass).
        horizon: Optional[float] = None
        for task, rate in zip(tasks, rates):
            task.rate = rate
            if rate <= SHARE_EPSILON:
                continue
            speed = rate * rating
            dt = task.remaining_work / speed
            if not task.overrun:
                est_dt = task.remaining_est_work / speed
                if est_dt < dt:
                    dt = est_dt
            if horizon is None or dt < horizon:
                horizon = dt

        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if horizon is not None:
            self._completion_event = self.sim.schedule(
                horizon,
                self._on_completion_event,
                priority=EventPriority.COMPLETION,
                name=self._completion_name,
            )

    def _next_completion_delay(self) -> Optional[float]:
        """Time to the next state change on this node.

        That is the earliest of (a) a task finishing its *actual* work
        and (b) a running task exhausting its *estimated* work — the
        moment its Eq. 1 share becomes undefined and it must be demoted
        to the overrun floor.  Without (b) an overrunning job would keep
        its stale (higher) share until some unrelated event happened to
        trigger a recompute.
        """
        best: Optional[float] = None
        for task in self.tasks.values():
            if task.rate <= SHARE_EPSILON:
                continue
            speed = task.rate * self.rating
            dt = task.remaining_work / speed
            if not task.overrun:
                dt = min(dt, task.remaining_est_work / speed)
            if best is None or dt < best:
                best = dt
        return best

    def _on_completion_event(self, event: Event) -> None:
        now = self.sim.now
        self._completion_event = None
        self.sync(now)
        finished = [t for t in self.tasks.values() if t.finished]
        for task in finished:
            del self.tasks[task.job.job_id]
        self.recompute(now)
        # Notify after the node state settled so listeners observe the
        # post-completion share allocation.
        for task in finished:
            self._notify(task, now)

    # -- failure/repair -------------------------------------------------------
    def fail(self, now: float) -> list[Job]:
        """Kill every resident task and go offline (ledgers synced first)."""
        if not self.online:
            raise RuntimeError(f"node {self.node_id} already failed")
        self.sync(now)
        self.online = False
        self.failures += 1
        self.generation += 1
        affected = [task.job for task in self.tasks.values()]
        self.tasks.clear()
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        return affected

    def repair(self, now: float) -> None:
        super().repair(now)
        # Restart the clock: nothing ran while offline.
        self._last_sync = now
        self.generation += 1

    def remove_task(self, job_id: int, now: float) -> Optional[NodeTask]:
        """Forcibly remove one task (sibling of a failed task) and rebalance."""
        if job_id not in self.tasks:
            return None
        self.sync(now)
        task = self.tasks.pop(job_id)
        self.recompute(now)
        return task

    def restore_tasks(
        self,
        entries: Sequence[tuple[Job, float, float, float]],
        now: float,
    ) -> None:
        """Re-create checkpointed resident tasks and rebalance shares.

        ``entries`` are ``(job, remaining_work, remaining_est_work,
        added_at)`` tuples with ledgers already advanced to ``now``
        (the snapshot synced them).  One :meth:`recompute` re-derives
        every rate — rates are pure functions of the restored ledgers —
        and schedules the node's completion event.
        """
        if self.tasks:
            raise RuntimeError(f"node {self.node_id} already has resident tasks")
        self._last_sync = now
        for job, work, est_work, added_at in entries:
            self.tasks[job.job_id] = NodeTask(
                job, work=work, est_work=est_work, added_at=added_at
            )
        self.recompute(now)

    # -- admission-control views ---------------------------------------------
    def min_resident_deadline(self) -> float:
        """Earliest absolute deadline among resident tasks (``inf`` if idle).

        Cached per :attr:`generation`: resident deadlines are constants,
        so the minimum changes only when the task set does.  Admission
        fast paths use it as the exact "poisoned node" test — once the
        clock reaches this instant some resident has a non-positive
        remaining deadline, which makes every Eq. 4 deadline-delay value
        (and hence σ_j) infinite regardless of the projection, so the
        node stays unsuitable for LibraRisk until its next mutation.
        The comparison involves no derived floats, so skipping the
        projection on it cannot change any decision.
        """
        if self._min_deadline_gen != self.generation:
            self._min_deadline = min(
                (t.deadline for t in self.tasks.values()),
                default=float("inf"),
            )
            self._min_deadline_gen = self.generation
        return self._min_deadline

    def iter_share_terms(self, now: float) -> Iterable[tuple[NodeTask, float]]:
        """Yield ``(task, unclamped Eq. 1 share)`` for every resident task."""
        for task in self.tasks.values():
            yield task, admission_share(
                task.remaining_est_time(self.rating), task.job.remaining_deadline(now)
            )

    def total_admission_share(
        self,
        now: float,
        extra: Sequence[tuple[float, float]] = (),
    ) -> float:
        """Eq. 2 total share as the *admission control* computes it.

        A resident job whose deadline has expired, or whose estimate is
        exhausted, has no defined Eq. 1 share and is left out of the
        sum: this is Libra's blindness to such jobs (paper narrative).
        ``extra`` holds hypothetical ``(remaining_est_time,
        remaining_deadline)`` pairs, e.g. the job under admission.
        """
        total = 0.0
        for task in self.tasks.values():
            est_time = task.remaining_est_time(self.rating)
            rem_deadline = task.job.remaining_deadline(now)
            if est_time <= WORK_EPSILON / self.rating or rem_deadline <= 0.0:
                continue
            total += admission_share(est_time, rem_deadline)
        for est_time, rem_deadline in extra:
            total += admission_share(est_time, rem_deadline)
        return total

    def predicted_delays(
        self,
        now: float,
        extra: Sequence[tuple[Job, float]] = (),
    ) -> list[tuple[Job, float]]:
        """Predicted Eq. 3 delays of every job on this node (Algorithm 1 l.4).

        The prediction is a deterministic forward projection of this
        node's own execution discipline, with the ``extra`` hypothetical
        jobs (pairs of ``(job, remaining_est_time)``) placed here now:
        shares are recomputed whenever a job's *estimated* work runs
        out, exactly as :meth:`recompute` will do at real completion
        events.  Consequences:

        * a node whose Eq. 1 shares fit (Σ ≤ 1, nobody in overrun)
          predicts zero delay for everyone — fast path, no simulation;
        * an over-committed node staggers its completions, so the
          projected delays are *unequal* and the node cannot masquerade
          as zero-risk (a single-phase projection would predict the
          identical deadline-delay Σ for every job — see
          ``tests/test_scheduling/test_risk.py`` for the algebra);
        * an **overrun** task (estimate already exhausted) has an
          unknowable completion; it contributes the delay it has
          already accrued, ``max(0, now − absolute_deadline)``, while
          its floor share keeps slowing its neighbours for the whole
          projection.

        Returns ``(job, predicted_delay)`` pairs, hypotheticals included.
        """
        entries: list[tuple[Job, float]] = [
            (t.job, t.remaining_est_time(self.rating)) for t in self.tasks.values()
        ]
        entries.extend((job, est_time) for job, est_time in extra)
        if not entries:
            return []

        # Fast path: every job healthy and the Eq. 2 sum fits.
        total = 0.0
        healthy = True
        for job, est_time in entries:
            rem = job.remaining_deadline(now)
            if est_time <= SHARE_EPSILON or rem <= 0.0:
                healthy = False
                break
            share = est_time / rem
            if share > 1.0:
                healthy = False
                break
            total += share
        if healthy and total <= 1.0 + SHARE_EPSILON:
            return [(job, 0.0) for job, _ in entries]

        return self._project_delays(now, entries)

    def _project_delays(
        self,
        now: float,
        entries: list[tuple[Job, float]],
    ) -> list[tuple[Job, float]]:
        """Forward-simulate the node on estimates only (slow path).

        Hot path of LibraRisk admission (one call per over-committed
        node per arriving job): flat parallel lists, no per-phase
        allocations beyond the share vector.
        """
        delays: dict[int, float] = {}

        # Overrun tasks never "finish" within the estimate model: record
        # their accrued delay, but keep them as permanent floor-share
        # occupants of the projection.
        floor = self.share_params.overrun_floor_share
        n_overruns = 0
        pend_jobs: list[Job] = []
        pend_est: list[float] = []
        pend_deadline: list[float] = []
        for job, est_time in entries:
            if est_time <= SHARE_EPSILON:
                delays[job.job_id] = max(0.0, now - job.absolute_deadline)
                n_overruns += 1
            else:
                pend_jobs.append(job)
                pend_est.append(est_time)
                pend_deadline.append(job.absolute_deadline)

        params = self.share_params
        redistribute = params.redistribute_spare
        overrun_share_sum = n_overruns * floor
        t = now
        # One loop iteration per projected completion phase, with
        # nominal_share inlined (same clamps, same float sequence) and
        # the pending lists compacted in place instead of reallocated —
        # this is the single hottest loop of a LibraRisk run.
        while pend_jobs:
            total = overrun_share_sum
            shares = []
            append_share = shares.append
            for est, deadline in zip(pend_est, pend_deadline):
                rem = deadline - t
                if est <= SHARE_EPSILON or rem <= 0.0:
                    s = floor
                else:
                    s = est / rem
                    if s < SHARE_EPSILON:
                        s = SHARE_EPSILON
                    elif s > 1.0:
                        s = 1.0
                append_share(s)
                total += s
            if total > 1.0 or (redistribute and total > SHARE_EPSILON):
                scale = 1.0 / total
            else:
                scale = 1.0

            # Earliest estimated completion among pending jobs.
            best_dt = -1.0
            for est, s in zip(pend_est, shares):
                rate = s * scale
                if rate <= SHARE_EPSILON:
                    continue
                dt = est / rate
                if best_dt < 0.0 or dt < best_dt:
                    best_dt = dt
            if best_dt < 0.0:
                for job in pend_jobs:
                    delays[job.job_id] = float("inf")
                break

            t += best_dt
            write = 0
            for i, s in enumerate(shares):
                remaining = pend_est[i] - s * scale * best_dt
                if remaining <= SHARE_EPSILON:
                    deadline = pend_deadline[i]
                    delay = t - deadline
                    delays[pend_jobs[i].job_id] = (
                        0.0 if delay < PREDICTED_DELAY_EPSILON else delay
                    )
                else:
                    pend_jobs[write] = pend_jobs[i]
                    pend_est[write] = remaining
                    pend_deadline[write] = pend_deadline[i]
                    write += 1
            del pend_jobs[write:], pend_est[write:], pend_deadline[write:]

        return [(job, delays[job.job_id]) for job, _ in entries]

    def refutes_zero_risk(self, now: float, est_new: float, deadline_new: float) -> bool:
        """Prove σ_j > 0 for a hypothetical placement without touching the node.

        Runs the :meth:`_project_delays` phases for the residents plus
        one ``(est_new, deadline_new)`` candidate on the ledgers as
        they stand — the caller has synced the node to ``now`` — and
        writes nothing.  Returns ``True`` as soon as two recorded Eq. 4
        values differ by more than ``REFUTE_REL_GAP`` relative;
        ``False`` means "cannot tell", never "suitable", and the caller
        then runs the exact projection.

        Why ``True`` implies the exact σ_j > 0: the recorded values are
        continuous in the estimates except where the projection takes a
        discrete decision, each of which answers "cannot tell" inside a
        band (the ``_REFUTE_*`` constants) far wider than the rounding
        the regrouped arithmetic introduces.  A 1e-4 relative gap
        therefore survives, and among at most ``_REFUTE_MAX_ENTRIES``
        values it exceeds the float error of the Eq. 6 variance by an
        order of magnitude.  One decision needs no band: ``est −
        rate·(est/rate)`` can round to an ulp above ``SHARE_EPSILON``
        and keep a finished entry pending in the exact projection, but
        no entry finishes before its deadline (rates never exceed
        ``est/rem``), so that residue meets a remaining deadline of at
        most an ulp, is cleared within nanoseconds, and moves the
        recorded delay by as little.

        The arithmetic is the projection's, regrouped (it need not be
        bit-identical): with ``q = est / share`` — the remaining
        deadline of an unclamped entry — a phase lasts ``min(q) ·
        max(total, 1)`` and consumes ``share · min(q)`` of each estimate.
        """
        params = self.share_params
        tasks = self.tasks
        if params.redistribute_spare or len(tasks) >= _REFUTE_MAX_ENTRIES:
            return False
        rem_new = deadline_new - now
        if est_new <= _REFUTE_EST_BAND or rem_new <= _REFUTE_REM_BAND:
            return False
        if self._min_deadline_gen != self.generation:
            self.min_resident_deadline()  # rebuild the cache
        if self._min_deadline - now <= _REFUTE_REM_BAND:
            return False

        rating = self.rating
        floor = params.overrun_floor_share
        # An overrun resident records its accrued delay — 0 while its
        # deadline is ahead, so Eq. 4 is exactly 1 — and holds the floor
        # share through every phase.
        v_lo, v_hi = _INF, 0.0
        overrun_share_sum = 0.0
        s = est_new / rem_new
        if s > 1.0:
            s = 1.0
            q_min = est_new
        elif s < _REFUTE_SHARE_BAND:
            return False
        else:
            q_min = rem_new
        total = s
        pend_est = [est_new]
        pend_deadline = [deadline_new]
        shares = [s]
        for task in tasks.values():
            est = task.remaining_est_work / rating
            if est > _REFUTE_EST_BAND:
                deadline = task.deadline
                rem = deadline - now
                s = est / rem
                if s > 1.0:
                    s = 1.0
                    if est < q_min:
                        q_min = est
                elif s < _REFUTE_SHARE_BAND:
                    return False
                elif rem < q_min:
                    q_min = rem
                total += s
                pend_est.append(est)
                pend_deadline.append(deadline)
                shares.append(s)
            elif est <= SHARE_EPSILON:
                v_lo = v_hi = 1.0
                overrun_share_sum += floor
            else:
                return False
        total += overrun_share_sum
        if total <= 1.0 + _REFUTE_FIT_BAND:
            return False  # may be a healthy fit

        t = now
        while True:
            t += q_min * total if total > 1.0 else q_min
            consumed = q_min
            total = overrun_share_sum
            q_min = _INF
            write = 0
            for est, deadline, s in zip(pend_est, pend_deadline, shares):
                est -= s * consumed
                if est > _REFUTE_EST_BAND:
                    rem = deadline - t
                    if rem > _REFUTE_REM_BAND:
                        s = est / rem
                        if s > 1.0:
                            s = 1.0
                            q = est
                        elif s < _REFUTE_SHARE_BAND:
                            return False
                        else:
                            q = rem
                    elif rem < -_REFUTE_REM_BAND:
                        s = floor
                        q = est / floor
                    else:
                        return False
                    if q < q_min:
                        q_min = q
                    total += s
                    pend_est[write] = est
                    pend_deadline[write] = deadline
                    shares[write] = s
                    write += 1
                    continue
                delay = t - deadline
                if delay < _REFUTE_SNAP_LO:
                    v = 1.0
                elif delay > _REFUTE_SNAP_HI:
                    rem = deadline - now
                    v = (delay + rem) / rem
                else:
                    return False
                if v < v_lo:
                    v_lo = v
                if v > v_hi:
                    v_hi = v
                if v_hi - v_lo > REFUTE_REL_GAP * v_hi:
                    return True
            if not write:
                return False
            del pend_est[write:], pend_deadline[write:], shares[write:]
