"""Cache-invalidation semantics of the admission fast path.

The fast path memoizes per-node suitability facts keyed on
:attr:`TimeSharedNode.generation`; every mutation of a node's task set
must bump the generation or a stale verdict could leak into an
admission decision.  These tests pin each invalidation edge, plus the
decision parity that the invalidation rules exist to protect.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cluster.job import Job
from repro.cluster.node import TimeSharedNode
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario_jobs, run_scenario
from repro.scheduling.librarisk import LibraRiskPolicy
from repro.sim.kernel import Simulator


def _node(sim: Simulator, rating: float = 100.0) -> TimeSharedNode:
    return TimeSharedNode(node_id=0, rating=rating, sim=sim)


def _job(job_id: int, runtime: float = 10.0, deadline: float = 100.0,
         submit_time: float = 0.0) -> Job:
    return Job(
        runtime=runtime,
        estimated_runtime=runtime,
        numproc=1,
        deadline=deadline,
        submit_time=submit_time,
        job_id=job_id,
    )


class TestGenerationBumps:
    def test_add_task_bumps_generation(self):
        sim = Simulator()
        node = _node(sim)
        before = node.generation
        node.add_task(_job(1), work=1000.0, est_work=1000.0, now=0.0)
        assert node.generation > before

    def test_remove_task_bumps_generation(self):
        sim = Simulator()
        node = _node(sim)
        node.add_task(_job(1), work=1000.0, est_work=1000.0, now=0.0)
        before = node.generation
        node.remove_task(1, now=1.0)
        assert node.generation > before

    def test_completion_bumps_generation(self):
        sim = Simulator()
        node = _node(sim)
        node.add_task(_job(1, runtime=10.0), work=1000.0, est_work=1000.0, now=0.0)
        before = node.generation
        sim.run()
        assert not node.tasks
        assert node.generation > before

    def test_overrun_demotion_bumps_generation(self):
        # Estimate exhausts before actual work: the overrun recompute
        # (share demotion to the floor) must invalidate cached verdicts
        # even though the task set membership is unchanged.
        sim = Simulator()
        node = _node(sim)
        # share = (500/100)/100 = 0.05 -> estimate exhausts at t=100.
        node.add_task(_job(1, runtime=20.0), work=2000.0, est_work=500.0, now=0.0)
        before = node.generation
        sim.run(until=101.0)
        assert node.tasks[1].overrun
        assert node.generation > before

    def test_fail_and_repair_bump_generation(self):
        sim = Simulator()
        node = _node(sim)
        node.add_task(_job(1), work=1000.0, est_work=1000.0, now=0.0)
        g0 = node.generation
        node.fail(1.0)
        g1 = node.generation
        assert g1 > g0
        node.repair(2.0)
        assert node.generation > g1

    def test_restore_tasks_bumps_generation(self):
        # Checkpoint/WAL recovery rebuilds residents via restore_tasks;
        # a verdict cached against the pre-restore generation must die.
        sim = Simulator()
        node = _node(sim)
        before = node.generation
        job = _job(1)
        job.mark_submitted()
        job.mark_running(0.0, [0])
        node.restore_tasks([(job, 500.0, 500.0, 0.0)], now=0.0)
        assert node.generation > before
        assert node.tasks[1].deadline == job.absolute_deadline


class TestMinResidentDeadline:
    def test_empty_node_is_never_poisoned(self):
        sim = Simulator()
        node = _node(sim)
        assert node.min_resident_deadline() == float("inf")

    def test_tracks_minimum_and_invalidates_on_change(self):
        sim = Simulator()
        node = _node(sim)
        node.add_task(_job(1, deadline=50.0), work=1000.0, est_work=1000.0, now=0.0)
        node.add_task(_job(2, deadline=30.0), work=1000.0, est_work=1000.0, now=0.0)
        assert node.min_resident_deadline() == 30.0
        # Cached: second read hits the generation check only.
        assert node.min_resident_deadline() == 30.0
        node.remove_task(2, now=1.0)
        assert node.min_resident_deadline() == 50.0

    def test_poison_verdict_clears_when_resident_leaves(self):
        # A resident past its deadline poisons the node (sigma = inf for
        # every candidate); removing it must lift the verdict.
        sim = Simulator()
        node = _node(sim)
        node.add_task(_job(1, deadline=5.0), work=10000.0, est_work=10000.0, now=0.0)
        now = 10.0
        assert now >= node.min_resident_deadline()  # poisoned
        node.remove_task(1, now=now)
        assert not (now >= node.min_resident_deadline())

    def test_task_deadline_snapshot_matches_job(self):
        sim = Simulator()
        node = _node(sim)
        job = _job(7, deadline=123.0, submit_time=4.0)
        node.add_task(job, work=100.0, est_work=100.0, now=4.0)
        assert node.tasks[7].deadline == job.absolute_deadline == 127.0


def _run_metrics(policy: str, seed: int, monkeypatch, disable_cache: bool,
                 num_jobs: int = 150) -> str:
    if disable_cache:
        monkeypatch.setenv("REPRO_DISABLE_ADMISSION_CACHE", "1")
    else:
        monkeypatch.delenv("REPRO_DISABLE_ADMISSION_CACHE", raising=False)
    config = ScenarioConfig(num_jobs=num_jobs, num_nodes=24, seed=seed, policy=policy)
    result = run_scenario(config, jobs=build_scenario_jobs(config))
    return json.dumps(dataclasses.asdict(result.metrics), sort_keys=True)


class TestDecisionParityAcrossInvalidation:
    @pytest.mark.parametrize("policy", ["libra", "librarisk"])
    def test_parity_under_node_failures(self, policy, monkeypatch):
        # Failures + repairs churn node state mid-run; the cached run
        # must make byte-identical decisions to the reference scan.
        from repro.experiments.robustness import run_with_failures

        def cell(disable: bool) -> str:
            if disable:
                monkeypatch.setenv("REPRO_DISABLE_ADMISSION_CACHE", "1")
            else:
                monkeypatch.delenv("REPRO_DISABLE_ADMISSION_CACHE", raising=False)
            config = ScenarioConfig(
                num_jobs=150, num_nodes=24, seed=11, policy=policy
            )
            result = run_with_failures(config, mtbf_hours=8.0, repair_hours=1.0)
            return json.dumps(
                dataclasses.asdict(result.metrics)
                | {"failures": result.failures_injected},
                sort_keys=True,
            )

        assert cell(False) == cell(True)

    def test_librarisk_parity_with_restored_state(self, monkeypatch):
        # Checkpoint mid-run, restore into a fresh engine, finish the
        # workload: the restored engine's decisions must not depend on
        # whether the fast path is enabled.
        from repro.service.checkpoint import restore, snapshot
        from repro.service.engine import engine_for_scenario

        def drive(disable: bool) -> str:
            if disable:
                monkeypatch.setenv("REPRO_DISABLE_ADMISSION_CACHE", "1")
            else:
                monkeypatch.delenv("REPRO_DISABLE_ADMISSION_CACHE", raising=False)
            config = ScenarioConfig(
                num_jobs=120, num_nodes=16, seed=3, policy="librarisk"
            )
            jobs = build_scenario_jobs(config)
            engine = engine_for_scenario(config)
            for job in jobs[:60]:
                engine.submit(job)
            snap = snapshot(engine)
            restored = restore(snap)
            outcomes = []
            for job in jobs[60:]:
                decision = restored.submit(job)
                outcomes.append((job.job_id, decision.outcome))
            restored.drain()
            return json.dumps(
                {"outcomes": outcomes, "stats_t": restored.sim.now}, sort_keys=True
            )

        assert drive(False) == drive(True)


class TestCacheStatsCounters:
    def test_librarisk_counters_populate(self):
        config = ScenarioConfig(num_jobs=80, num_nodes=16, seed=5, policy="librarisk")
        from repro.service.engine import engine_for_scenario

        engine = engine_for_scenario(config)
        for job in build_scenario_jobs(config):
            engine.submit(job)
        engine.drain()
        stats = engine.policy.cache_stats
        assert stats["online_scans"] > 0
        assert stats["projections_run"] >= 0
        # The fast path must have classified something without projecting.
        assert (
            stats["fast_fit_hits"] + stats["empty_shortcuts"] + stats["poison_skips"]
            > 0
        )
        served = engine.stats()
        assert served["cache"]["online_scans"] == stats["online_scans"]
        assert "events_tombstoned" in served

    def test_reference_path_records_no_counters(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_ADMISSION_CACHE", "1")
        policy = LibraRiskPolicy()
        assert policy.fast_path is False
        config = ScenarioConfig(num_jobs=40, num_nodes=8, seed=5, policy="librarisk")
        result = run_scenario(config, jobs=build_scenario_jobs(config))
        assert result.metrics.total_submitted == 40


class TestKernelTombstones:
    def test_cancel_is_lazy_and_counted(self):
        sim = Simulator()
        kept = sim.schedule(5.0, lambda ev: None)
        dropped = sim.schedule(1.0, lambda ev: None)
        dropped.cancel()
        assert sim.pending == 2  # tombstone still buried in the heap
        assert sim.tombstones_dropped == 0
        sim.run()
        assert sim.tombstones_dropped == 1
        assert kept.cancelled is False

    def test_drain_cancelled_counts(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda ev: None) for i in range(10)]
        for ev in events[::2]:
            ev.cancel()
        removed = sim.drain_cancelled()
        assert removed == 5
        assert sim.tombstones_dropped == 5
        assert sim.pending == 5
