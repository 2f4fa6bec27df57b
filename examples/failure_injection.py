#!/usr/bin/env python3
"""Failure injection: admission control on an unreliable cluster.

The paper's simulation assumes nodes never die.  This example injects
exponential node failure/repair cycles and watches what each admission
control's deadline guarantee is worth when the machine itself breaks
it.

Usage::

    python examples/failure_injection.py [num_jobs]
"""

import sys

from repro.experiments.config import ScenarioConfig
from repro.experiments.record import as_table, build_record
from repro.cluster.cluster import Cluster
from repro.cluster.failures import NodeFailureInjector
from repro.cluster.rms import ResourceManagementSystem
from repro.experiments.runner import build_scenario_jobs
from repro.scheduling.registry import make_policy
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams


def grid_section(base: ScenarioConfig) -> None:
    # The robustness section of the paper record: EDF, Libra and
    # LibraRisk at node MTBF none / 500 h / 100 h / 20 h, and its claim.
    print(as_table(build_record(base, only=["robustness"])))


def timeline_section(base: ScenarioConfig) -> None:
    config = base.replace(policy="librarisk", estimate_mode="trace")
    jobs = build_scenario_jobs(config)
    sim = Simulator()
    cluster = Cluster.homogeneous(sim, config.num_nodes, discipline="time_shared")
    policy = make_policy("librarisk")
    rms = ResourceManagementSystem(sim, cluster, policy)
    rms.submit_all(jobs)
    injector = NodeFailureInjector(
        sim, cluster, policy, RngStreams(seed=7),
        mtbf=50.0 * 3600.0, repair_time=2.0 * 3600.0,
        horizon=max(j.submit_time for j in jobs),
    )
    injector.start()
    sim.run()

    print("\n=== LibraRisk on a failing cluster (MTBF 50h, repair 2h) ===")
    print(f"node failures injected: {injector.failures_injected}, "
          f"repairs: {injector.repairs_done}")
    print(f"jobs killed by failures: {len(rms.failed)} of {len(rms.accepted)} accepted")
    met = sum(1 for job in rms.completed if job.deadline_met)
    print(f"deadlines met: {met} of {len(jobs)} submitted")


def main() -> None:
    num_jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    base = ScenarioConfig(num_jobs=num_jobs, num_nodes=64, seed=42,
                          estimate_mode="trace")
    grid_section(base)
    timeline_section(base)
    print(
        "\nFailures cost every policy roughly its share of killed jobs; the\n"
        "risk-management advantage is orthogonal and survives intact."
    )


if __name__ == "__main__":
    main()
