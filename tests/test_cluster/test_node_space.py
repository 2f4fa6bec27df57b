"""Tests for the space-shared node (EDF's execution discipline)."""

import pytest

import repro.cluster.node as node_mod
from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeTask, SpaceSharedNode, start_job_tasks
from repro.cluster.rms import ResourceManagementSystem
from repro.scheduling.registry import make_policy
from repro.service import checkpoint
from repro.service.engine import AdmissionEngine, EngineConfig
from repro.sim.kernel import Simulator
from tests.conftest import make_job, run_jobs


def make_node(sim, rating=1.0, listener=None):
    return SpaceSharedNode(0, rating, sim, listener=listener)


class TestExecution:
    def test_task_completes_after_work_over_rating(self, sim):
        done = []
        node = make_node(sim, rating=2.0, listener=lambda n, t, now, k: done.append((now, k)))
        job = make_job(runtime=100.0)
        node.start_task(job, work=100.0, now=0.0)  # 100 work / rating 2 = 50 s
        sim.run()
        assert done == [(50.0, 1)]
        assert node.idle

    def test_node_busy_while_running(self, sim):
        node = make_node(sim)
        node.start_task(make_job(), work=10.0, now=0.0)
        assert not node.available
        assert node.num_tasks == 1

    def test_second_task_rejected_while_busy(self, sim):
        node = make_node(sim)
        node.start_task(make_job(), work=10.0, now=0.0)
        with pytest.raises(RuntimeError, match="already busy"):
            node.start_task(make_job(), work=10.0, now=0.0)

    def test_sequential_tasks_after_completion(self, sim):
        done = []
        node = make_node(sim, listener=lambda n, t, now, k: done.append((t.job.job_id, now)))
        a, b = make_job(job_id=1), make_job(job_id=2)
        node.start_task(a, work=10.0, now=0.0)
        sim.run()
        node.start_task(b, work=5.0, now=sim.now)
        sim.run()
        assert done == [(1, 10.0), (2, 15.0)]

    def test_busy_time_accumulates_work(self, sim):
        node = make_node(sim, rating=4.0)
        node.start_task(make_job(), work=100.0, now=0.0)
        sim.run()
        assert node.busy_time == pytest.approx(100.0)

    def test_utilisation(self, sim):
        node = make_node(sim, rating=2.0)
        node.start_task(make_job(), work=100.0, now=0.0)  # busy 50 s
        sim.run()
        # over a 100 s horizon: 100 work / (2 rating * 100 s) = 0.5
        assert node.utilisation(100.0) == pytest.approx(0.5)

    def test_utilisation_zero_horizon(self, sim):
        node = make_node(sim)
        assert node.utilisation(0.0) == 0.0

    def test_listener_sees_empty_node(self, sim):
        states = []
        node = make_node(sim)
        node.listener = lambda n, t, now, k: states.append(n.idle)
        node.start_task(make_job(), work=1.0, now=0.0)
        sim.run()
        assert states == [True]  # task removed before notification


class TestValidation:
    def test_bad_rating_rejected(self, sim):
        with pytest.raises(ValueError):
            SpaceSharedNode(0, 0.0, sim)

    def test_has_job(self, sim):
        node = make_node(sim)
        job = make_job(job_id=9)
        node.start_task(job, work=10.0, now=0.0)
        assert node.has_job(9)
        assert not node.has_job(10)


def make_nodes(sim, ratings, log=None):
    """Nodes whose listener logs ``(reporting node, now, members completed)``."""
    listener = None
    if log is not None:
        listener = lambda n, t, now, k: log.append((n.node_id, now, k))  # noqa: E731
    return [SpaceSharedNode(i, r, sim, listener=listener) for i, r in enumerate(ratings)]


def run_edf_on(ratings, job, until):
    """Submit ``job`` to EDF over a heterogeneous cluster; run to ``until``."""
    sim = Simulator()
    cluster = Cluster.heterogeneous(
        sim, ratings, discipline="space_shared", reference_rating=1.0
    )
    rms = ResourceManagementSystem(sim, cluster, make_policy("edf"))
    rms.submit(job)
    sim.run(until=until)
    return rms, sim, cluster


def pending_groups(sim):
    """Member node ids of every pending completion group, in firing order."""
    return [[n.node_id for n in e.payload[1]] for e in sim.iter_pending()]


class TestJobStart:
    """`start_job_tasks`: one record, one event and one listener call per
    completion instant of a job."""

    def test_homogeneous_job_schedules_one_event(self, sim):
        log = []
        nodes = make_nodes(sim, (1.0, 1.0, 1.0), log)
        start_job_tasks(make_job(numproc=3, job_id=5), nodes, work=10.0, start=0.0)
        assert [e.name for e in sim.iter_pending()] == ["job5:done"]
        assert pending_groups(sim) == [[0, 1, 2]]
        sim.run()
        assert sim.events_fired == 1
        assert log == [(0, 10.0, 3)]  # one call, for all three members
        assert all(n.idle for n in nodes)

    def test_homogeneous_job_is_one_record(self, sim):
        nodes = make_nodes(sim, (1.0, 1.0, 1.0))
        start_job_tasks(make_job(numproc=3, job_id=5), nodes, work=10.0, start=2.0)
        task = nodes[0].tasks[5]
        assert all(n.tasks == {5: task} for n in nodes)
        assert (task.remaining_work, task.remaining_est_work) == (10.0, 10.0)
        assert (task.rate, task.added_at) == (1.0, 2.0)
        assert not hasattr(task, "node_id")

    def test_mixed_ratings_group_by_completion_instant(self, sim):
        log = []
        nodes = make_nodes(sim, (2.0, 2.0, 1.0, 1.0), log)
        start_job_tasks(make_job(numproc=4), nodes, work=100.0, start=0.0)
        assert sim.pending == 2
        sim.run(until=50.0)
        # The fast pair frees first, together; the slow pair still runs.
        assert log == [(0, 50.0, 2)]
        assert [n.idle for n in nodes] == [True, True, False, False]
        sim.run()
        assert log == [(0, 50.0, 2), (2, 100.0, 2)]
        assert sim.events_fired == 2

    def test_mixed_ratings_give_one_record_per_completion_instant(self, sim):
        nodes = make_nodes(sim, (2.0, 1.0, 2.0, 1.0))
        job = make_job(numproc=4)
        start_job_tasks(job, nodes, work=100.0, start=0.0)
        fast, slow = nodes[0].tasks[job.job_id], nodes[1].tasks[job.job_id]
        assert fast is not slow
        assert nodes[2].tasks[job.job_id] is fast
        assert nodes[3].tasks[job.job_id] is slow
        sim.run(until=50.0)
        # Completing the fast record leaves the slow one's ledger alone.
        assert (fast.remaining_work, slow.remaining_work) == (0.0, 100.0)

    def test_interleaved_ratings_keep_start_order_within_a_group(self, sim):
        log = []
        nodes = make_nodes(sim, (2.0, 1.0, 2.0, 1.0), log)
        start_job_tasks(make_job(numproc=4), nodes, work=100.0, start=0.0)
        assert pending_groups(sim) == [[0, 2], [1, 3]]
        sim.run()
        assert log == [(0, 50.0, 2), (1, 100.0, 2)]

    def test_listener_hears_after_every_member_is_free(self, sim):
        nodes = make_nodes(sim, (1.0, 1.0, 1.0))
        seen = []
        nodes[0].listener = lambda n, t, now, k: seen.append([m.idle for m in nodes])
        start_job_tasks(make_job(numproc=3), nodes, work=10.0, start=0.0)
        sim.run()
        assert seen == [[True, True, True]]

    def test_busy_time_equals_one_start_per_node(self, sim):
        ratings = (2.0, 2.0, 1.0, 1.0)
        grouped = make_nodes(sim, ratings)
        start_job_tasks(make_job(numproc=4), grouped, work=100.0, start=0.0)
        single = make_nodes(sim, ratings)
        job = make_job(numproc=4)
        for node in single:
            node.start_task(job, work=100.0, now=0.0)
        sim.run()
        assert [n.busy_time for n in grouped] == [n.busy_time for n in single]
        assert all(n.busy_time == 100.0 for n in grouped)

    def test_busy_node_is_refused(self, sim):
        nodes = make_nodes(sim, (1.0, 1.0))
        nodes[1].start_task(make_job(), work=5.0, now=0.0)
        with pytest.raises(RuntimeError, match="already busy"):
            start_job_tasks(make_job(numproc=2), nodes, work=5.0, start=0.0)

    @pytest.mark.parametrize("obstacle", ["busy", "offline"])
    def test_refused_start_leaves_nodes_and_heap_untouched(self, sim, obstacle):
        nodes = make_nodes(sim, (1.0, 2.0, 1.0))
        if obstacle == "busy":
            nodes[2].start_task(make_job(job_id=1), work=5.0, now=0.0)
        else:
            nodes[2].fail(0.0)
        before = [(dict(n.tasks), n.busy_time, n.online) for n in nodes]
        heap = [(e.time, e.name) for e in sim.iter_pending()]
        with pytest.raises(RuntimeError, match=f"node 2 .*{obstacle}"):
            start_job_tasks(make_job(numproc=3, job_id=2), nodes, work=5.0, start=0.0)
        assert [(dict(n.tasks), n.busy_time, n.online) for n in nodes] == before
        assert [(e.time, e.name) for e in sim.iter_pending()] == heap
        assert nodes[0].idle and nodes[1].idle

    def test_one_record_per_started_edf_job_on_a_homogeneous_cluster(self, monkeypatch):
        built = []

        class CountingTask(NodeTask):
            __slots__ = ()

            def __init__(self, job, **kwargs):
                built.append(job.job_id)
                super().__init__(job, **kwargs)

        monkeypatch.setattr(node_mod, "NodeTask", CountingTask)
        jobs = [
            make_job(runtime=10.0, numproc=width, deadline=500.0, submit=float(i), job_id=i)
            for i, width in enumerate((4, 1, 3, 8, 2), start=1)
        ]
        rms, _, _ = run_jobs("edf", jobs, num_nodes=8)
        assert len(rms.completed) == 5
        assert sorted(built) == [1, 2, 3, 4, 5]  # numproc sums to 18


class TestKilledMembers:
    def test_failed_member_kills_job_once_and_later_event_is_a_noop(self):
        rms, sim, cluster = run_edf_on((2.0, 2.0, 1.0, 1.0), make_job(
            runtime=100.0, numproc=4, deadline=500.0, job_id=1,
        ), until=10.0)
        assert sim.pending == 2
        rms.policy.handle_node_failure(cluster.node(3), sim.now)
        job = rms.jobs[0]
        assert rms.failed == [job]
        assert all(n.idle for n in cluster)
        busy = [n.busy_time for n in cluster]
        assert busy == [20.0, 20.0, 10.0, 10.0]  # elapsed 10 s x rating
        sim.run()  # both group events fire on an empty job
        assert sim.events_fired == 3  # the arrival + two no-ops
        assert rms.failed == [job] and rms.completed == []
        assert [n.busy_time for n in cluster] == busy

    def test_partly_killed_group_notifies_with_the_resident_count(self, sim):
        log = []
        nodes = make_nodes(sim, (1.0, 1.0, 1.0, 1.0), log)
        start_job_tasks(make_job(numproc=4, job_id=1), nodes, work=10.0, start=0.0)
        sim.run(until=4.0)
        nodes[0].fail(sim.now)  # the first member: another must report
        assert nodes[2].remove_task(1, sim.now) is not None
        sim.run()
        assert log == [(1, 10.0, 2)]
        assert [n.busy_time for n in nodes] == [4.0, 10.0, 4.0, 10.0]
        assert all(n.idle for n in nodes)

    def test_all_killed_group_makes_no_call(self, sim):
        log = []
        nodes = make_nodes(sim, (1.0, 1.0), log)
        start_job_tasks(make_job(numproc=2, job_id=1), nodes, work=10.0, start=0.0)
        task = nodes[0].tasks[1]
        sim.run(until=4.0)
        for node in nodes:
            node.remove_task(1, sim.now)
        sim.run()
        assert sim.events_fired == 1 and log == []
        assert task.remaining_work == 10.0  # nothing completed it
        assert [n.busy_time for n in nodes] == [4.0, 4.0]

    def test_new_job_on_a_freed_node_survives_the_stale_event(self, sim):
        log = []
        nodes = make_nodes(sim, (1.0, 1.0), log)
        old = make_job(numproc=2, job_id=1)
        start_job_tasks(old, nodes, work=10.0, start=0.0)
        sim.run(until=4.0)
        assert nodes[1].remove_task(1, sim.now) is not None
        new = make_job(job_id=2)
        task = nodes[1].start_task(new, work=20.0, now=sim.now)
        sim.run(until=10.0)  # the old job's event: node 0 completes, node 1 is skipped
        assert log == [(0, 10.0, 1)]
        assert nodes[1].tasks == {2: task}
        assert nodes[1].busy_time == 4.0  # only the removed task's elapsed share
        sim.run()
        assert log == [(0, 10.0, 1), (1, 24.0, 1)]
        assert nodes[1].busy_time == 24.0

    def test_same_job_restarted_on_the_node_is_not_completed_early(self, sim):
        log = []
        (node,) = make_nodes(sim, (1.0,), log)
        job = make_job(job_id=1)
        node.start_task(job, work=10.0, now=0.0)
        sim.run(until=4.0)
        node.remove_task(1, sim.now)
        node.start_task(job, work=10.0, now=sim.now)  # same job id, new task
        sim.run(until=10.0)
        assert log == [] and node.has_job(1)
        sim.run()
        assert log == [(0, 14.0, 1)]


class TestCheckpointMidFlight:
    """Shared records snapshot per node and restore as one record per job."""

    def engine(self):
        engine = AdmissionEngine(EngineConfig(policy="edf", num_nodes=8, rating=1.0))
        for job in (
            make_job(runtime=100.0, numproc=4, deadline=1000.0, job_id=1),
            make_job(runtime=60.0, numproc=3, deadline=1000.0, submit=5.0, job_id=2),
            make_job(runtime=30.0, numproc=4, deadline=1000.0, submit=6.0, job_id=3),
        ):
            engine.submit(job)
        return engine

    def test_save_load_is_byte_identical_and_keeps_start_order(self, tmp_path):
        engine = self.engine()
        path = str(tmp_path / "edf.ckpt")
        saved = checkpoint.save(engine, path)
        # Each member node stores the group's record under its own id.
        assert saved["nodes"][3] == {
            "id": 3, "online": True, "failures": 0, "busy_time": 0.0,
            "tasks": [{"job": 1, "remaining_work": 100.0,
                       "remaining_est_work": 100.0, "added_at": 0.0}],
        }
        assert [len(n["tasks"]) for n in saved["nodes"]] == [1, 1, 1, 1, 1, 1, 1, 0]
        resumed = checkpoint.load(path)
        again = checkpoint.snapshot(resumed)
        # Re-deriving the two completion events drew two sequence numbers;
        # nothing else in the document may move.
        assert again["sim"].pop("seq") == saved["sim"].pop("seq") + 2
        del saved["checksum"]
        assert checkpoint.dumps(again) == checkpoint.dumps(saved)

        def pending(e):
            return [(ev.time, ev.name, [n.node_id for n in ev.payload[1]])
                    for ev in e.sim.iter_pending()]

        assert pending(resumed) == pending(engine) == [
            (65.0, "job2:done", [4, 5, 6]), (100.0, "job1:done", [0, 1, 2, 3]),
        ]
        for job_id, members in ((1, (0, 1, 2, 3)), (2, (4, 5, 6))):
            records = {id(resumed.cluster.node(n).tasks[job_id]) for n in members}
            assert len(records) == 1
        engine.drain()
        resumed.drain()
        assert resumed.metrics().as_dict() == engine.metrics().as_dict()
        assert [n.busy_time for n in resumed.cluster] == [
            n.busy_time for n in engine.cluster
        ]
