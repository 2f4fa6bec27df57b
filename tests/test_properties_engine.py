"""Property-based tests on the execution engine and whole simulations.

These go beyond unit invariants: hypothesis generates random small
workloads and checks conservation laws and policy guarantees that must
hold for *any* input.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.job import Job, JobState, UrgencyClass
from tests.conftest import run_jobs

# Small but adversarial job parameters (seconds).
job_strategy = st.builds(
    dict,
    runtime=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    est_factor=st.floats(min_value=0.3, max_value=10.0, allow_nan=False),
    deadline_factor=st.floats(min_value=1.05, max_value=12.0, allow_nan=False),
    numproc=st.integers(min_value=1, max_value=3),
    gap=st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
)


def build_jobs(specs) -> list[Job]:
    jobs = []
    t = 0.0
    for i, spec in enumerate(specs):
        t += spec["gap"]
        jobs.append(Job(
            runtime=spec["runtime"],
            estimated_runtime=spec["runtime"] * spec["est_factor"],
            numproc=spec["numproc"],
            deadline=spec["runtime"] * spec["deadline_factor"],
            submit_time=t,
            urgency=UrgencyClass.LOW,
            job_id=i + 1,
        ))
    return jobs


POLICIES = ("edf", "fcfs", "libra", "librarisk")


class TestSimulationInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(job_strategy, min_size=1, max_size=12),
           st.sampled_from(POLICIES))
    def test_every_job_reaches_a_terminal_state(self, specs, policy):
        jobs = build_jobs(specs)
        rms, sim, _ = run_jobs(policy, jobs, num_nodes=3)
        for job in rms.jobs:
            assert job.state in (JobState.COMPLETED, JobState.REJECTED), job
        assert len(rms.jobs) == len(jobs)
        assert len(rms.completed) + len(rms.rejected) == len(jobs)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(job_strategy, min_size=1, max_size=12),
           st.sampled_from(POLICIES))
    def test_completed_jobs_processed_their_exact_work(self, specs, policy):
        """Work conservation: cluster busy_time equals the sum of the
        completed jobs' work across their tasks."""
        jobs = build_jobs(specs)
        rms, sim, cluster = run_jobs(policy, jobs, num_nodes=3)
        expected = sum(j.runtime * j.numproc for j in rms.completed)
        measured = sum(n.busy_time for n in cluster)
        assert measured == pytest.approx(expected, rel=1e-6, abs=1e-3)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(job_strategy, min_size=1, max_size=12),
           st.sampled_from(POLICIES))
    def test_no_job_finishes_before_its_runtime(self, specs, policy):
        jobs = build_jobs(specs)
        rms, _, _ = run_jobs(policy, jobs, num_nodes=3)
        for job in rms.completed:
            assert job.response_time >= job.runtime - 1e-6

    @settings(max_examples=25, deadline=None)
    @given(st.lists(job_strategy, min_size=1, max_size=12),
           st.sampled_from(POLICIES))
    def test_start_never_precedes_submission(self, specs, policy):
        jobs = build_jobs(specs)
        rms, _, _ = run_jobs(policy, jobs, num_nodes=3)
        for job in rms.completed:
            assert job.start_time >= job.submit_time - 1e-9

    @settings(max_examples=15, deadline=None)
    @given(st.lists(job_strategy, min_size=1, max_size=10),
           st.sampled_from(POLICIES))
    def test_determinism_across_reruns(self, specs, policy):
        def outcome():
            jobs = build_jobs(specs)
            rms, sim, _ = run_jobs(policy, jobs, num_nodes=3)
            return [
                (j.job_id, j.state.value, j.start_time, j.finish_time)
                for j in rms.jobs
            ], sim.now

        assert outcome() == outcome()


class TestPolicyGuarantees:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(job_strategy, min_size=1, max_size=10))
    def test_libra_accurate_estimates_meet_every_deadline(self, specs):
        """With estimate == runtime, every job Libra accepts finishes
        within its deadline — the Eq. 1-2 guarantee."""
        jobs = build_jobs(specs)
        for job in jobs:
            job.estimated_runtime = job.runtime  # force accuracy
        rms, _, _ = run_jobs("libra", jobs, num_nodes=3)
        for job in rms.completed:
            assert job.deadline_met, job

    @settings(max_examples=25, deadline=None)
    @given(st.lists(job_strategy, min_size=1, max_size=10))
    def test_librarisk_no_delay_accurate_estimates_meet_every_deadline(self, specs):
        """Under the strict ``no-delay`` suitability ablation, accurate
        estimates imply every accepted job finishes in time: a node is
        suitable only when the projection predicts zero delay for every
        resident plus the newcomer, and accurate estimates make that
        projection exact."""
        jobs = build_jobs(specs)
        for job in jobs:
            job.estimated_runtime = job.runtime
        rms, _, _ = run_jobs(
            "librarisk", jobs, num_nodes=3, suitability="no-delay"
        )
        for job in rms.completed:
            assert job.deadline_met, job

    @settings(max_examples=25, deadline=None)
    @given(st.lists(job_strategy, min_size=1, max_size=10))
    def test_librarisk_sigma_never_misses_alone(self, specs):
        """The default σ_j = 0 criterion measures the *spread* of the
        predicted deadline-delays, not their size (Algorithm 1,
        literally): a node where every resident plus the newcomer would
        be delayed by the same proportion still counts as zero-risk.
        So even accurate estimates allow a miss — e.g. two identical
        simultaneous jobs packed best-fit onto one node — but never a
        *solitary* one: a missed job always shared a node, while
        running, with another job that missed too."""
        jobs = build_jobs(specs)
        for job in jobs:
            job.estimated_runtime = job.runtime
        rms, _, _ = run_jobs("librarisk", jobs, num_nodes=3)
        missed = [j for j in rms.completed if not j.deadline_met]
        for job in missed:
            partners = [
                other for other in missed
                if other is not job
                and set(other.assigned_nodes) & set(job.assigned_nodes)
                and other.start_time < job.finish_time
                and job.start_time < other.finish_time
            ]
            assert partners, (job, job.assigned_nodes)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(job_strategy, min_size=1, max_size=10))
    def test_edf_never_starts_estimate_infeasible_job(self, specs):
        jobs = build_jobs(specs)
        rms, _, _ = run_jobs("edf", jobs, num_nodes=3)
        for job in rms.completed:
            # At dispatch, start + estimate had to fit the deadline.
            assert job.start_time + job.estimated_runtime \
                <= job.absolute_deadline + 1e-6
