"""Tests for heterogeneous clusters and runtime translation (§3)."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.rms import ResourceManagementSystem
from repro.scheduling.registry import make_policy
from repro.sim.kernel import Simulator
from tests.conftest import make_job


def run_hetero(policy_name, jobs, ratings, discipline=None):
    sim = Simulator()
    from repro.scheduling.registry import policy_discipline

    cluster = Cluster.heterogeneous(
        sim, ratings, discipline=discipline or policy_discipline(policy_name)
    )
    rms = ResourceManagementSystem(sim, cluster, make_policy(policy_name))
    rms.submit_all(jobs)
    sim.run()
    return rms, sim, cluster


class TestFactory:
    def test_per_node_ratings(self, sim):
        cluster = Cluster.heterogeneous(sim, [100.0, 200.0, 400.0])
        assert [n.rating for n in cluster] == [100.0, 200.0, 400.0]

    def test_reference_defaults_to_minimum(self, sim):
        cluster = Cluster.heterogeneous(sim, [100.0, 200.0])
        assert cluster.reference_rating == 100.0

    def test_explicit_reference(self, sim):
        cluster = Cluster.heterogeneous(sim, [100.0, 200.0], reference_rating=150.0)
        assert cluster.reference_rating == 150.0

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            Cluster.heterogeneous(sim, [])
        with pytest.raises(ValueError):
            Cluster.heterogeneous(sim, [100.0, 0.0])
        with pytest.raises(ValueError):
            Cluster.heterogeneous(sim, [1.0], discipline="warp")


class TestTranslation:
    def test_est_time_shrinks_on_fast_node(self, sim):
        cluster = Cluster.heterogeneous(sim, [100.0, 400.0])
        slow, fast = cluster.node(0), cluster.node(1)
        assert cluster.est_time_on(slow, 100.0) == pytest.approx(100.0)
        assert cluster.est_time_on(fast, 100.0) == pytest.approx(25.0)

    def test_space_shared_job_finishes_faster_on_fast_node(self):
        # Run the identical job on a slow vs a fast space-shared node.
        results = {}
        for rating in (100.0, 200.0):
            sim = Simulator()
            cluster = Cluster.heterogeneous(
                sim, [rating], discipline="space_shared", reference_rating=100.0
            )
            rms = ResourceManagementSystem(sim, cluster, make_policy("edf"))
            rms.submit_all([make_job(runtime=100.0, deadline=1000.0)])
            sim.run()
            results[rating] = rms.completed[0].finish_time
        assert results[100.0] == pytest.approx(100.0)
        assert results[200.0] == pytest.approx(50.0)

    def test_libra_shares_account_for_node_speed(self):
        # On a node twice the reference speed the same job needs half
        # the share, so two such jobs fit where one fits at reference.
        jobs = [
            make_job(runtime=60.0, deadline=100.0, submit=0.0, job_id=1),
            make_job(runtime=60.0, deadline=100.0, submit=1.0, job_id=2),
        ]
        rms, _, _ = run_hetero("libra", jobs, ratings=[200.0])
        # reference = 200 here (single node) -> est share 0.6 each, one
        # rejected; with an explicit slower reference both fit:
        sim = Simulator()
        cluster = Cluster.heterogeneous(sim, [200.0], reference_rating=100.0)
        rms2 = ResourceManagementSystem(sim, cluster, make_policy("libra"))
        rms2.submit_all([
            make_job(runtime=60.0, deadline=100.0, submit=0.0, job_id=1),
            make_job(runtime=60.0, deadline=100.0, submit=1.0, job_id=2),
        ])
        sim.run()
        assert len(rms.rejected) == 1
        assert len(rms2.rejected) == 0
        assert all(j.deadline_met for j in rms2.completed)

    def test_librarisk_prefers_any_zero_risk_node_mix(self):
        jobs = [make_job(runtime=50.0, deadline=100.0, numproc=2)]
        rms, _, _ = run_hetero("librarisk", jobs, ratings=[100.0, 300.0, 100.0])
        assert len(rms.completed) == 1
        assert rms.completed[0].deadline_met


class TestPlacementOrder:
    """Libra ranks candidates by the *post*-acceptance Eq. 2 total (§3.3
    best fit), LibraRisk by the *pre*-acceptance load.  On a homogeneous
    cluster the new job adds the same share everywhere, so the two keys
    agree; here it adds twice as much on the slow node and they split."""

    @pytest.mark.parametrize("policy_name,node", [("libra", 0), ("librarisk", 1)])
    def test_same_job_lands_on_different_nodes(self, policy_name, node):
        sim = Simulator()
        cluster = Cluster.heterogeneous(sim, [1.0, 2.0])
        rms = ResourceManagementSystem(sim, cluster, make_policy(policy_name))
        rms.submit_all([
            make_job(runtime=50.0, deadline=100.0, job_id=1),   # node 0: 0.5
            make_job(runtime=110.0, deadline=100.0, job_id=2),  # node 1: 0.55
            # Share 0.3 on node 0 and 0.15 on node 1: post-acceptance
            # totals 0.8 > 0.7, pre-acceptance loads 0.5 < 0.55.
            make_job(runtime=30.0, deadline=100.0, job_id=3),
        ])
        sim.run(until=0.0)
        placed = {job.job_id: job.assigned_nodes for job in rms.jobs}
        assert placed == {1: [0], 2: [1], 3: [node]}
