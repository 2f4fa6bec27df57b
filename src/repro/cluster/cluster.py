"""The cluster: a set of nodes plus the reference rating for work translation."""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

from repro.cluster.node import Node, SpaceSharedNode, TimeSharedNode
from repro.cluster.share import DEFAULT_SHARE_PARAMS, ShareParams
from repro.sim.kernel import Simulator


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
