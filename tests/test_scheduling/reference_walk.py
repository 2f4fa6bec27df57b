"""The reference node choice: the witness the space-shared parity suite compares against.

The queue-based space-shared policies find a job's nodes with C-level
scans of the cluster's ``occupancy`` list, take a consecutive run by
slice assignment, and free it by identity from one completion event.
The plain machinery those replace lives here, as subclasses that keep
their parent's ``name``: a walk over ``cluster.nodes`` from node 0 that
takes the first ``numproc`` idle online nodes it meets, a start that
groups them by completion instant and writes each member's slot one by
one, and a completion that frees each member still running the task.
It reads the nodes only through their ``tasks`` and ``online`` views
and finds a node's slot by its index in ``cluster.nodes``.

The ``reference_walk`` fixture (``conftest.py``) swaps the witnesses
into the policy registry, so an engine built by name runs them.
"""

from __future__ import annotations

from repro.cluster.job import Job
from repro.cluster.node import NodeTask, SpaceSharedNode
from repro.scheduling.edf import EDFPolicy, QueuedSpaceSharedPolicy
from repro.scheduling.fcfs import FCFSPolicy
from repro.sim.events import Event, EventPriority


class ReferenceWalk(QueuedSpaceSharedPolicy):
    """Dispatch by the per-node walk; start and complete node by node."""

    def _dispatch(self, now: float) -> None:
        assert self.cluster is not None and self.rms is not None
        while self.queue:
            job = self.select_next(now)
            if job is None:
                return
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
            free: list[SpaceSharedNode] = []
            wanted = job.numproc
            for n in self.cluster.nodes:
                if not n.tasks and n.online:
                    free.append(n)
                    wanted -= 1
                    if not wanted:
                        break
            else:
                return
            self.queue.remove(job)
            self._start_nodes(job, free, now)

    def _start_nodes(self, job: Job, nodes: list[SpaceSharedNode], now: float) -> None:
        assert self.cluster is not None and self.rms is not None
        work = self.cluster.work_of(job.runtime)
        job.mark_running(now, [n.node_id for n in nodes])
        self._track(job)
        self.rms.notify_accepted(job)
        groups: dict[float, list[SpaceSharedNode]] = {}
        for node in nodes:
            groups.setdefault(now + work / node.rating, []).append(node)
        occupancy, order = self.cluster.occupancy, self.cluster.nodes
        for finish, members in groups.items():
            task = NodeTask(job, work, work, now)
            task.rate = 1.0
            for node in members:
                occupancy[order.index(node)] = task
            nodes[0].sim.schedule_at(
                finish, self._complete_members, EventPriority.COMPLETION,
                f"job{job.job_id}:done", (task, members),
            )

    def _complete_members(self, event: Event) -> None:
        assert self.cluster is not None
        task, members = event.payload
        job_id = task.job.job_id
        done = [node for node in members if node.tasks.get(job_id) is task]
        occupancy, order = self.cluster.occupancy, self.cluster.nodes
        for node in done:
            node.busy_time += task.remaining_work
            occupancy[order.index(node)] = None
        if done:
            task.remaining_work = task.remaining_est_work = 0.0
            first = done[0]
            if first.listener is not None:
                first.listener(first, task, event.time, len(done))


class ReferenceEDFPolicy(ReferenceWalk, EDFPolicy):
    """EDF on the per-node walk."""


class ReferenceFCFSPolicy(ReferenceWalk, FCFSPolicy):
    """FCFS on the per-node walk."""


#: Registry name -> witness class, installed by the ``reference_walk`` fixture.
WITNESSES = {
    ReferenceEDFPolicy.name: ReferenceEDFPolicy,
    ReferenceFCFSPolicy.name: ReferenceFCFSPolicy,
}
