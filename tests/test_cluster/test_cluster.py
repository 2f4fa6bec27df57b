"""Tests for the Cluster aggregate."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.node import SpaceSharedNode, TimeSharedNode, start_job_tasks
from tests.conftest import make_job


class TestConstruction:
    def test_homogeneous_time_shared(self, sim):
        cluster = Cluster.homogeneous(sim, 4, rating=168.0, discipline="time_shared")
        assert len(cluster) == 4
        assert all(isinstance(n, TimeSharedNode) for n in cluster)
        assert cluster.reference_rating == 168.0

    def test_homogeneous_space_shared(self, sim):
        cluster = Cluster.homogeneous(sim, 3, discipline="space_shared")
        assert all(isinstance(n, SpaceSharedNode) for n in cluster)

    def test_unknown_discipline(self, sim):
        with pytest.raises(ValueError, match="unknown discipline"):
            Cluster.homogeneous(sim, 2, discipline="quantum")

    def test_zero_nodes_rejected(self, sim):
        with pytest.raises(ValueError):
            Cluster.homogeneous(sim, 0)

    def test_empty_node_list_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            Cluster([], reference_rating=1.0)

    def test_duplicate_node_ids_rejected(self, sim):
        nodes = [SpaceSharedNode(0, 1.0, sim), SpaceSharedNode(0, 1.0, sim)]
        with pytest.raises(ValueError, match="unique"):
            Cluster(nodes, reference_rating=1.0)

    def test_explicit_reference_rating(self, sim):
        cluster = Cluster.homogeneous(sim, 2, rating=100.0, reference_rating=50.0)
        assert cluster.reference_rating == 50.0

    def test_node_lookup(self, sim):
        cluster = Cluster.homogeneous(sim, 3)
        assert cluster.node(1).node_id == 1
        with pytest.raises(KeyError):
            cluster.node(99)


class TestWorkTranslation:
    def test_work_of_scales_by_reference_rating(self, sim):
        cluster = Cluster.homogeneous(sim, 1, rating=168.0)
        assert cluster.work_of(10.0) == pytest.approx(1680.0)

    def test_est_time_identity_on_homogeneous(self, sim):
        cluster = Cluster.homogeneous(sim, 1, rating=168.0)
        node = cluster.node(0)
        assert cluster.est_time_on(node, 10.0) == pytest.approx(10.0)

    def test_est_time_on_faster_node(self, sim):
        slow = TimeSharedNode(0, 100.0, sim)
        fast = TimeSharedNode(1, 200.0, sim)
        cluster = Cluster([slow, fast], reference_rating=100.0)
        # A 10 s (at reference) job takes 5 s at full speed on the fast node.
        assert cluster.est_time_on(fast, 10.0) == pytest.approx(5.0)
        assert cluster.est_time_on(slow, 10.0) == pytest.approx(10.0)


class TestAggregates:
    def test_total_rating(self, sim):
        cluster = Cluster.homogeneous(sim, 4, rating=100.0)
        assert cluster.total_rating == 400.0

    def test_utilisation_aggregates_nodes(self, sim):
        cluster = Cluster.homogeneous(sim, 2, rating=1.0, discipline="space_shared")
        start_job_tasks(make_job(), [cluster.node(0)], 50.0, 0.0)
        sim.run()
        # 50 work over 2 nodes * 1 rating * 100 s horizon.
        assert cluster.utilisation(100.0) == pytest.approx(0.25)

    def test_utilisation_zero_horizon(self, sim):
        cluster = Cluster.homogeneous(sim, 2)
        assert cluster.utilisation(0.0) == 0.0
