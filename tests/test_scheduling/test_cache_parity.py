"""Property-style exactness check: fast path == reference, byte for byte.

The admission fast path (``repro.scheduling.libra`` / ``librarisk``)
claims to be *exact memoization*: not statistically close, but
bit-identical on every decision, metric and exported record.  These
tests hold it to that claim over randomized workloads — random scale,
seed, estimate mode and policy knobs — by running each scenario twice,
once cached and once with ``REPRO_DISABLE_ADMISSION_CACHE=1`` (which
routes through the pre-optimization reference scan), and comparing the
complete JSON-lines metrics export byte for byte.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.failures import NodeFailureInjector
from repro.cluster.rms import ResourceManagementSystem
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario_jobs, run_scenario
from repro.obs.session import RunSink
from repro.scheduling.registry import make_policy, policy_discipline
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams

POLICIES = ("edf", "libra", "librarisk")

#: Deterministic sampling of scenario space (fixed seed: the *workloads*
#: inside each scenario are random, the test matrix is reproducible).
_RNG = random.Random(20260806)


def _random_configs(policy: str, count: int) -> list[ScenarioConfig]:
    configs = []
    for _ in range(count):
        kwargs = {}
        if policy == "librarisk":
            kwargs["suitability"] = _RNG.choice(["sigma", "no-delay"])
            kwargs["node_order"] = _RNG.choice(["best_fit", "worst_fit", "index"])
        configs.append(
            ScenarioConfig(
                num_jobs=200,
                num_nodes=_RNG.choice([16, 32, 48]),
                seed=_RNG.randrange(1, 10_000),
                policy=policy,
                policy_kwargs=kwargs,
                estimate_mode=_RNG.choice(["accurate", "trace", "inaccuracy"]),
                arrival_delay_factor=_RNG.choice([0.5, 1.0]),
            )
        )
    return configs


def _export_bytes(config: ScenarioConfig, tmp_path, tag: str) -> bytes:
    path = tmp_path / f"{tag}.jsonl"
    with RunSink(path=str(path)):
        run_scenario(config, jobs=build_scenario_jobs(config))
    return path.read_bytes()


@pytest.mark.parametrize("policy", POLICIES)
def test_randomized_workloads_export_identically(policy, tmp_path, monkeypatch):
    for i, config in enumerate(_random_configs(policy, count=3)):
        monkeypatch.delenv("REPRO_DISABLE_ADMISSION_CACHE", raising=False)
        fast = _export_bytes(config, tmp_path, f"{policy}-{i}-fast")
        monkeypatch.setenv("REPRO_DISABLE_ADMISSION_CACHE", "1")
        reference = _export_bytes(config, tmp_path, f"{policy}-{i}-ref")
        assert fast == reference, (
            f"{policy} export diverged for {config.label()} "
            f"(seed={config.seed}, kwargs={config.policy_kwargs})"
        )
        assert len(fast) > 0


def _run_churn(
    config: ScenarioConfig, mtbf_hours: float, repair_hours: float
) -> tuple:
    """One scenario under failure/repair churn; returns an exact digest.

    Overrunning estimates (``inaccuracy`` mode) demote residents to the
    floor share mid-flight, node failures kill whole jobs and poison
    admission state, repairs bring empty nodes back — interleaved with
    ordinary completions.  The digest captures every job's terminal
    state and exact timestamps (``repr`` keeps full float precision),
    so any admission decision that diverges between the cached and the
    reference scan shows up byte-for-byte.
    """
    jobs = build_scenario_jobs(config)
    horizon = max(j.submit_time for j in jobs) + 864_000.0
    sim = Simulator()
    cluster = Cluster.homogeneous(
        sim,
        config.num_nodes,
        rating=config.rating,
        discipline=policy_discipline(config.policy),
        share_params=config.share_params(),
    )
    policy = make_policy(config.policy, **config.policy_kwargs)
    rms = ResourceManagementSystem(sim, cluster, policy)
    rms.submit_all(jobs)
    injector = NodeFailureInjector(
        sim,
        cluster,
        policy,
        RngStreams(seed=config.seed).spawn("failures"),
        mtbf=mtbf_hours * 3600.0,
        repair_time=repair_hours * 3600.0,
        horizon=horizon,
    )
    injector.start()
    sim.run()
    digest = tuple(
        (job.job_id, job.state.value, repr(job.start_time), repr(job.finish_time))
        for job in rms.jobs
    )
    return digest, injector.failures_injected, injector.repairs_done, policy


_CHURN_RNG = random.Random(20260809)


def _churn_configs(policy: str, count: int) -> list[ScenarioConfig]:
    configs = []
    for _ in range(count):
        kwargs = {}
        if policy == "librarisk":
            kwargs["suitability"] = _CHURN_RNG.choice(["sigma", "no-delay"])
        configs.append(
            ScenarioConfig(
                num_jobs=150,
                num_nodes=_CHURN_RNG.choice([16, 24]),
                seed=_CHURN_RNG.randrange(1, 10_000),
                policy=policy,
                policy_kwargs=kwargs,
                estimate_mode="inaccuracy",  # guarantees overrun demotions
                arrival_delay_factor=0.5,
            )
        )
    return configs


@pytest.mark.parametrize("policy", ("libra", "librarisk"))
def test_churn_interleavings_match_reference(policy, monkeypatch):
    # Fail/repair/overrun-demote/complete interleavings must leave the
    # cached scan's decisions byte-identical to the reference scan's —
    # generation bumps from fail() and repair() are what invalidate the
    # aggregates, so this is the invalidation correctness test.
    for config in _churn_configs(policy, count=2):
        monkeypatch.delenv("REPRO_DISABLE_ADMISSION_CACHE", raising=False)
        fast, fails, repairs, _ = _run_churn(config, mtbf_hours=10.0, repair_hours=1.0)
        monkeypatch.setenv("REPRO_DISABLE_ADMISSION_CACHE", "1")
        ref, ref_fails, _, _ = _run_churn(config, mtbf_hours=10.0, repair_hours=1.0)
        assert fails == ref_fails
        assert fails > 0, "churn scenario injected no failures; raise intensity"
        assert repairs > 0, "churn scenario saw no repairs; raise intensity"
        assert fast == ref, (
            f"{policy} diverged under churn for seed={config.seed} "
            f"kwargs={config.policy_kwargs} ({fails} failures)"
        )


def test_churn_certificates_hold_under_verification(monkeypatch):
    # REPRO_VERIFY_CERT re-proves every fired O(1) certificate against
    # the exact projection/walk; an unsound invalidation under churn
    # raises AssertionError inside the run.
    monkeypatch.delenv("REPRO_DISABLE_ADMISSION_CACHE", raising=False)
    monkeypatch.setenv("REPRO_VERIFY_CERT", "1")
    config = ScenarioConfig(
        num_jobs=150, num_nodes=16, seed=4242, policy="librarisk",
        estimate_mode="inaccuracy", arrival_delay_factor=0.5,
    )
    _, fails, _, policy = _run_churn(config, mtbf_hours=10.0, repair_hours=1.0)
    assert fails > 0
    assert policy.cache_stats.get("sigma_cert_hits", 0) > 0


def test_libra_non_default_share_mode_uses_reference_path(monkeypatch):
    # "floor"/"infinite" expired-share modes are research knobs the
    # inlined scan does not replicate; the policy must route them to the
    # reference implementation even with the cache enabled.
    monkeypatch.delenv("REPRO_DISABLE_ADMISSION_CACHE", raising=False)
    for mode in ("floor", "infinite"):
        config = ScenarioConfig(
            num_jobs=120, num_nodes=16, seed=21, policy="libra",
            policy_kwargs={"expired_job_share_mode": mode},
        )
        cached = run_scenario(config, jobs=build_scenario_jobs(config))
        monkeypatch.setenv("REPRO_DISABLE_ADMISSION_CACHE", "1")
        reference = run_scenario(config, jobs=build_scenario_jobs(config))
        monkeypatch.delenv("REPRO_DISABLE_ADMISSION_CACHE")
        assert cached.metrics == reference.metrics
