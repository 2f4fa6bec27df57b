"""Node failure/repair injection.

Real clusters lose nodes; the paper's simulation does not model this,
but a production admission control must coexist with it, so the
library provides it as an extension.  Failure semantics:

* a failed node goes **offline**: every resident task is killed and no
  policy may place work on it until repair;
* losing one task kills the whole (SPMD) job — its sibling tasks on
  other nodes are removed and the job transitions to ``FAILED``;
* queued jobs are unaffected (they were not running anywhere);
* repairs bring the node back empty.

:class:`NodeFailureInjector` drives the process: each node fails after
an exponentially distributed up-time (mean ``mtbf``) and is repaired
after an exponentially distributed down-time (mean ``repair_time``),
all drawn from a named deterministic stream.  The injector routes
failures through the bound policy's ``handle_node_failure`` because
cleaning up multi-node jobs needs cluster-wide bookkeeping.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cluster.cluster import Cluster
from repro.sim.events import Event, EventPriority
from repro.sim.kernel import Simulator

if TYPE_CHECKING:
    from repro.sim.rng import RngStreams


class NodeFailureInjector:
    """Schedules random failure/repair cycles for every node."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        policy,
        streams: RngStreams,
        mtbf: float,
        repair_time: float,
        horizon: Optional[float] = None,
    ) -> None:
        if mtbf <= 0 or repair_time <= 0:
            raise ValueError("mtbf and repair_time must be > 0")
        self.sim = sim
        self.cluster = cluster
        self.policy = policy
        self.rng = streams.get("failures")
        self.mtbf = float(mtbf)
        self.repair_time = float(repair_time)
        #: No failures are scheduled past this time (None = no bound);
        #: keeps a drained workload from being kept alive forever.
        self.horizon = horizon
        self.failures_injected = 0
        self.repairs_done = 0

    def start(self) -> int:
        """Arm one failure timer per node; returns how many were armed."""
        armed = 0
        for node in self.cluster:
            if self._schedule_failure(node):
                armed += 1
        return armed

    # -- internals ----------------------------------------------------------
    def _schedule_failure(self, node) -> bool:
        delay = float(self.rng.exponential(self.mtbf))
        when = self.sim.now + delay
        if self.horizon is not None and when > self.horizon:
            return False
        self.sim.schedule_at(
            when,
            lambda ev, n=node: self._fail(n),
            priority=EventPriority.URGENT,
            name=f"fail:node{node.node_id}",
        )
        return True

    def _schedule_repair(self, node) -> None:
        delay = float(self.rng.exponential(self.repair_time))
        self.sim.schedule(
            delay,
            lambda ev, n=node: self._repair(n),
            priority=EventPriority.URGENT,
            name=f"repair:node{node.node_id}",
        )

    def _fail(self, node) -> None:
        if not node.online:  # already down (should not happen)
            return
        self.failures_injected += 1
        self.policy.handle_node_failure(node, self.sim.now)
        self._schedule_repair(node)

    def _repair(self, node) -> None:
        self.repairs_done += 1
        self.policy.handle_node_repair(node, self.sim.now)
        self._schedule_failure(node)
