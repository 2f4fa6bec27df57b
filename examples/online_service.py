#!/usr/bin/env python3
"""Driving the online admission engine in-process.

The batch harness answers "what would LibraRisk have done over this
trace"; the :class:`~repro.service.engine.AdmissionEngine` answers the
production question one job at a time.  This example builds the
paper's synthetic SDSC-SP2-like workload, feeds 50 jobs to an engine
exactly as a stream of RPC clients would, prints each decision as it
is made, and closes with the engine's live stats and final paper
metrics.

Usage::

    python examples/online_service.py [policy]

with ``policy`` one of ``edf``, ``libra``, ``librarisk`` (default).
"""

import sys

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario_jobs
from repro.service.engine import engine_for_scenario

NUM_JOBS = 50


def main() -> int:
    policy = sys.argv[1] if len(sys.argv) > 1 else "librarisk"
    config = ScenarioConfig(
        policy=policy, num_jobs=NUM_JOBS, num_nodes=32, seed=42,
    )
    jobs = build_scenario_jobs(config)
    engine = engine_for_scenario(config)

    print(f"submitting {len(jobs)} jobs to a {len(engine.cluster)}-node "
          f"{engine.policy.name} engine, one at a time\n")
    for job in jobs:
        decision = engine.submit(job)
        mark = {"accepted": "+", "queued": "~", "rejected": "-"}[decision.outcome]
        line = (f" {mark} t={decision.t:>10.1f}s job {decision.job_id:>3d} "
                f"({job.numproc} proc, est {job.estimated_runtime:,.0f}s, "
                f"deadline {job.deadline:,.0f}s) -> {decision.outcome}")
        if decision.reason:
            line += f": {decision.reason}"
        print(line)

    print("\nlive stats before drain:")
    for key, value in sorted(engine.stats().items()):
        print(f"  {key:<18} {value}")

    horizon = engine.drain()
    metrics = engine.metrics()
    print(f"\ndrained at t={horizon:,.0f}s "
          f"({horizon / 86400.0:.1f} simulated days)")
    print(f"deadlines fulfilled: {metrics.pct_deadlines_fulfilled:.1f}% | "
          f"accepted: {metrics.acceptance_pct:.1f}% | "
          f"mean slowdown: {metrics.avg_slowdown:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
