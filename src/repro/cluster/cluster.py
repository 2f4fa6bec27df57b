"""The cluster: a set of nodes plus the reference rating for work translation."""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence, Union

from repro.cluster.job import Job
from repro.cluster.node import OFFLINE, Node, NodeTask, SpaceSharedNode, TimeSharedNode
from repro.cluster.share import DEFAULT_SHARE_PARAMS, ShareParams
from repro.sim.events import Event, EventPriority
from repro.sim.kernel import Simulator

_COMPLETION = EventPriority.COMPLETION  # a global read: see ``repro.cluster.job.CREATED``


class Cluster:
    """A collection of compute nodes managed as one resource.

    Parameters
    ----------
    nodes:
        The node objects (all space-shared or all time-shared for the
        policies in this library; mixing is allowed but no bundled
        policy uses it).
    reference_rating:
        SPEC rating at which job runtimes are expressed.  For the SDSC
        SP2 experiments this equals the node rating, making work
        translation the identity.
    """

    def __init__(self, nodes: Sequence[Node], reference_rating: float) -> None:
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        if not 0 < reference_rating < math.inf:
            raise ValueError(f"reference_rating must be > 0, got {reference_rating}")
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be unique")
        self.nodes: list[Node] = list(nodes)
        self.reference_rating = float(reference_rating)
        self._by_id = {n.node_id: n for n in nodes}
        #: Node ids in cluster order.
        self.ids = ids
        #: Whole-node occupancy in cluster order, the one record of which
        #: space-shared node runs what: the resident task, ``None`` when
        #: the node is idle and online, or ``OFFLINE`` (also the slot of
        #: every node of another discipline).  A space-shared node's
        #: ``tasks`` and ``online`` read its slot.
        self.occupancy: list = []
        for pos, node in enumerate(self.nodes):
            if isinstance(node, SpaceSharedNode):
                self.occupancy.append(node._occupancy[node._pos])
                node._occupancy, node._pos = self.occupancy, pos
            else:
                self.occupancy.append(OFFLINE)
        ratings = {n.rating for n in self.nodes}
        #: A start on a cluster of one rating is one completion group.
        self._rating = ratings.pop() if len(ratings) == 1 else None
        self._sim = self.nodes[0].sim

    # -- construction -------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        sim: Simulator,
        num_nodes: int,
        rating: float = 168.0,
        discipline: str = "time_shared",
        share_params: ShareParams = DEFAULT_SHARE_PARAMS,
        reference_rating: Optional[float] = None,
    ) -> "Cluster":
        """Build an SDSC-SP2-style homogeneous cluster.

        ``discipline`` is ``"time_shared"`` (Libra/LibraRisk) or
        ``"space_shared"`` (EDF).
        """
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        nodes: list[Node]
        if discipline == "time_shared":
            nodes = [
                TimeSharedNode(i, rating, sim, share_params=share_params)
                for i in range(num_nodes)
            ]
        elif discipline == "space_shared":
            nodes = [SpaceSharedNode(i, rating, sim) for i in range(num_nodes)]
        else:
            raise ValueError(f"unknown discipline {discipline!r}")
        return cls(
            nodes,
            reference_rating=rating if reference_rating is None else reference_rating,
        )

    # -- lookup ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def node(self, node_id: int) -> Node:
        return self._by_id[node_id]

    # -- whole-node jobs ---------------------------------------------------------
    def start_job(
        self, job: Job, nodes: Sequence[SpaceSharedNode], work: float, start: float
    ) -> None:
        """Run ``work`` rating-seconds of ``job`` on each of ``nodes`` from ``start``.

        The checked start: checkpoint restore calls it with the stored
        ``added_at`` as ``start`` (the work ledger is only zeroed at
        completion, so ``start + work / rating`` is the original
        instant).  Every node is checked before any is touched: a
        refused start changes nothing.
        """
        occupancy = self.occupancy
        where: list[int] = []
        for node in nodes:
            if not isinstance(node, SpaceSharedNode) or node._occupancy is not occupancy:
                raise ValueError(f"node {node.node_id} is not a space-shared node of this cluster")
            slot = occupancy[node._pos]
            if slot is OFFLINE:
                raise RuntimeError(f"node {node.node_id} is offline")
            if slot is not None:
                raise RuntimeError(f"node {node.node_id} is space-shared and already busy")
            where.append(node._pos)
        self.occupy(job, where, work, start)

    def occupy(self, job: Job, where: Union[slice, list[int]], work: float, start: float) -> None:
        """Start ``job`` on the idle, online positions ``where``, unchecked.

        ``where`` is a slice for a run of consecutive positions, else
        the positions in start order.  Positions are grouped by
        completion instant ``start + work / rating`` (one group on a
        cluster of one rating).  A group is one allocation: one
        :class:`NodeTask` in each of its slots and one ``COMPLETION``
        event carrying the record and its positions.

        Equivalence with one event per node: those events would share
        ``(time, priority)`` within a group and hold consecutive sequence
        numbers (nothing else is scheduled while a job starts), so the
        kernel would fire them back to back in start order with nothing
        in between.  The group event is that run, fired once.
        """
        occupancy = self.occupancy
        name = f"job{job.job_id}:done"
        rating = self._rating
        if rating is not None:
            task = NodeTask(job, work, work, start)
            task.rate = 1.0
            if type(where) is slice:
                occupancy[where] = [task] * (where.stop - where.start)
            else:
                for pos in where:
                    occupancy[pos] = task
            self._sim.schedule_at(start + work / rating, self._complete, _COMPLETION, name, (task, where))
            return
        groups: dict[float, list[int]] = {}
        nodes = self.nodes
        for pos in range(where.start, where.stop) if type(where) is slice else where:
            groups.setdefault(start + work / nodes[pos].rating, []).append(pos)
        for finish, members in groups.items():
            task = NodeTask(job, work, work, start)
            task.rate = 1.0
            for pos in members:
                occupancy[pos] = task
            self._sim.schedule_at(finish, self._complete, _COMPLETION, name, (task, members))

    def _complete(self, event: Event) -> None:
        """Free, in start order, each position of the group still holding the task.

        A member killed meanwhile by ``fail`` / ``remove_task`` is
        skipped; the check is on task identity, so a new job placed on
        that node before this (now stale) event fires is left running.
        Each freed node's ``busy_time`` is credited the task's work.
        The listener hears once, after every member is free, how many
        completed; an event whose members are all gone still fires, as
        a no-op: nobody holds it to cancel.
        """
        task, where = event.payload
        occupancy = self.occupancy
        if type(where) is slice and occupancy[where].count(task) == where.stop - where.start:
            occupancy[where] = [None] * (where.stop - where.start)
            done = self.nodes[where]
        else:
            nodes = self.nodes
            done = []
            for pos in range(where.start, where.stop) if type(where) is slice else where:
                if occupancy[pos] is task:
                    occupancy[pos] = None
                    done.append(nodes[pos])
            if not done:
                return
        work = task.remaining_work
        for node in done:
            node.busy_time += work
        task.remaining_work = task.remaining_est_work = 0.0
        first = done[0]
        if first.listener is not None:
            first.listener(first, task, event.time, len(done))

    # -- work translation ------------------------------------------------------
    def work_of(self, runtime_seconds: float) -> float:
        """Translate a runtime at the reference rating into work units."""
        return runtime_seconds * self.reference_rating

    def est_time_on(self, node: Node, est_runtime_seconds: float) -> float:
        """Estimated full-speed runtime of a job on a specific node."""
        return est_runtime_seconds * self.reference_rating / node.rating

    # -- aggregate views ---------------------------------------------------------
    @property
    def total_rating(self) -> float:
        return sum(n.rating for n in self.nodes)

    def utilisation(self, horizon: float) -> float:
        """Cluster-wide fraction of capacity used over ``[0, horizon]``."""
        if horizon <= 0:
            return 0.0
        used = sum(n.busy_time for n in self.nodes)
        return used / (self.total_rating * horizon)
