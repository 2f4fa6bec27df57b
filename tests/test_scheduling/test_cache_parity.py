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
from repro.service.checkpoint import restore, snapshot
from repro.service.engine import engine_for_scenario
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


def _raw_state(cluster: Cluster, now: float) -> list:
    """Every float the node ledgers hold, bit for bit (``repr``).

    Taken right after an admission scan at ``now``, so it also pins what
    both scans promise: every occupied online node is synced to ``now``.
    """
    lagging = [n.node_id for n in cluster if n.online and n.tasks and n._last_sync != now]
    assert not lagging, f"nodes {lagging} were not synced to the scan instant {now!r}"
    return [
        (
            node.node_id,
            node.online,
            repr(node.busy_time),
            repr(node._last_sync) if node.tasks else None,
            [
                (job_id, repr(t.remaining_work), repr(t.remaining_est_work), repr(t.rate))
                for job_id, t in node.tasks.items()
            ],
        )
        for node in cluster
    ]


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
    reference scan shows up byte-for-byte; ``states`` holds the raw node
    ledgers after every submit.
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
    states = []
    scan = policy.on_job_submitted

    def scan_and_record(job, now):
        scan(job, now)
        states.append(_raw_state(cluster, now))

    policy.on_job_submitted = scan_and_record
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
    return digest, injector.failures_injected, injector.repairs_done, policy, states


def _run_checkpointed_churn(config: ScenarioConfig) -> list:
    """Raw node ledgers after every submit of an engine that loses a
    node every 25th job, gets it back 10 jobs later, and is replaced by
    its own checkpoint every 40th."""
    engine = engine_for_scenario(config)
    states = []
    for i, job in enumerate(build_scenario_jobs(config)):
        if i % 25 == 10:
            engine.advance(job.submit_time)
            node = engine.cluster.node(i % config.num_nodes)
            engine.policy.handle_node_failure(node, engine.now)
        elif i % 25 == 20:
            engine.advance(job.submit_time)
            for node in engine.cluster:
                if not node.online:
                    engine.policy.handle_node_repair(node, engine.now)
        elif i % 40 == 39:
            engine = restore(snapshot(engine))
        engine.submit(job)
        states.append(_raw_state(engine.cluster, engine.now))
    return states


_CHURN_RNG = random.Random(20260809)

#: A counter only each policy's fast scan bumps.
FAST_PATH_COUNTER = {"libra": "inline_share_sums", "librarisk": "fast_fit_hits"}


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
    # poison cache, so this is the invalidation correctness test.
    for config in _churn_configs(policy, count=2):
        monkeypatch.delenv("REPRO_DISABLE_ADMISSION_CACHE", raising=False)
        fast, fails, repairs, fast_policy, states = _run_churn(
            config, mtbf_hours=10.0, repair_hours=1.0
        )
        # Parity alone would also hold if the fast path never fired.
        counter = FAST_PATH_COUNTER[policy]
        assert fast_policy.cache_stats.get(counter, 0) > 0, f"{policy}: no {counter}"
        restored = _run_checkpointed_churn(config)
        monkeypatch.setenv("REPRO_DISABLE_ADMISSION_CACHE", "1")
        ref, ref_fails, _, _, ref_states = _run_churn(
            config, mtbf_hours=10.0, repair_hours=1.0
        )
        ref_restored = _run_checkpointed_churn(config)
        assert fails == ref_fails
        assert fails > 0, "churn scenario injected no failures; raise intensity"
        assert repairs > 0, "churn scenario saw no repairs; raise intensity"
        assert fast == ref, (
            f"{policy} diverged under churn for seed={config.seed} "
            f"kwargs={config.policy_kwargs} ({fails} failures)"
        )
        # The two scans sync the same nodes at the same instants, so the
        # ledgers agree bit for bit after every submit, not only on replay.
        steps = zip(states + restored, ref_states + ref_restored)
        for step, (got, want) in enumerate(steps):
            assert got == want, f"{policy} ledgers diverged at step {step}"


def test_churn_certificates_hold_under_verification(monkeypatch):
    # REPRO_VERIFY_CERT re-proves every fired refutation against the
    # exact projection; an unsound one raises AssertionError inside the
    # run.  The audit is a pure read: the ledgers end up bit-identical
    # to an unverified run's.
    monkeypatch.delenv("REPRO_DISABLE_ADMISSION_CACHE", raising=False)
    monkeypatch.setenv("REPRO_VERIFY_CERT", "1")
    config = ScenarioConfig(
        num_jobs=150, num_nodes=16, seed=4242, policy="librarisk",
        estimate_mode="inaccuracy", arrival_delay_factor=0.5,
    )
    _, fails, _, policy, states = _run_churn(config, mtbf_hours=10.0, repair_hours=1.0)
    assert fails > 0
    assert policy.cache_stats.get("sigma_cert_hits", 0) > 0
    monkeypatch.delenv("REPRO_VERIFY_CERT")
    _, _, _, unverified, plain_states = _run_churn(
        config, mtbf_hours=10.0, repair_hours=1.0
    )
    assert not unverified.verify_cert
    assert states == plain_states

