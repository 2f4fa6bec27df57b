#!/usr/bin/env python
"""CI perf smoke: admission fast-path regression + exactness gate.

Two checks, both cheap enough for every pull request:

1. **Throughput floor** — re-measures the tracked ``smoke`` benchmark
   (400 jobs x 64 nodes, see ``BENCH_admission.json``) and fails when
   any policy's engine submit throughput drops more than
   ``--max-regression`` (default 1.5x) below the committed numbers.
   The threshold absorbs runner noise while still catching algorithmic
   regressions (an accidentally disabled cache, a quadratic scan, a
   cert that silently stopped firing).

2. **Exactness spot check** — runs one scenario per policy with the
   fast path on and again with ``REPRO_DISABLE_ADMISSION_CACHE=1`` and
   requires byte-identical metrics.  The fast path is exact memoization
   by design; this is the canary if that ever stops being true (the
   full property-based check lives in
   ``tests/test_scheduling/test_cache_parity.py``).

Exit status 0 = both gates pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PARITY_SNIPPET = r"""
import dataclasses, json, sys
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario, build_scenario_jobs
cfg = ScenarioConfig(
    num_jobs=int(sys.argv[2]), num_nodes=int(sys.argv[3]),
    seed=int(sys.argv[4]), policy=sys.argv[1],
)
res = run_scenario(cfg, jobs=build_scenario_jobs(cfg))
print(json.dumps(dataclasses.asdict(res.metrics), sort_keys=True))
"""


def _run_parity(policy: str, jobs: int, nodes: int, seed: int) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    args = [sys.executable, "-c", PARITY_SNIPPET, policy, str(jobs), str(nodes), str(seed)]
    env.pop("REPRO_DISABLE_ADMISSION_CACHE", None)
    fast = subprocess.run(args, env=env, capture_output=True, text=True)
    env["REPRO_DISABLE_ADMISSION_CACHE"] = "1"
    reference = subprocess.run(args, env=env, capture_output=True, text=True)
    if fast.returncode or reference.returncode:
        sys.stderr.write(fast.stderr + reference.stderr)
        return False
    if fast.stdout != reference.stdout:
        print(f"parity FAILED for {policy}: fast path != reference", file=sys.stderr)
        print(f"  fast:      {fast.stdout.strip()[:200]}", file=sys.stderr)
        print(f"  reference: {reference.stdout.strip()[:200]}", file=sys.stderr)
        return False
    print(f"parity OK for {policy} ({jobs} jobs x {nodes} nodes)")
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=400)
    parser.add_argument("--nodes", type=int, default=64)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--label", default="smoke",
                        help="committed BENCH_admission.json section to gate against")
    parser.add_argument("--max-regression", type=float, default=1.5)
    parser.add_argument("--skip-bench", action="store_true",
                        help="only run the exactness spot check")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

    ok = True
    for policy in ("edf", "libra", "librarisk"):
        ok = _run_parity(policy, args.jobs, args.nodes, args.seed) and ok
    if not ok:
        return 1

    if args.skip_bench:
        return 0

    from repro.experiments.bench import (
        BENCH_FILENAME,
        check_regression,
        load_bench_file,
        run_bench,
    )

    doc = load_bench_file(os.path.join(REPO_ROOT, BENCH_FILENAME))
    fresh = run_bench(jobs=args.jobs, nodes=args.nodes, seed=args.seed, repeats=2)
    for policy, body in sorted(fresh["policies"].items()):
        engine = body["engine"]
        print(
            f"{policy:<10s} engine {engine['jobs_per_sec']:>9.1f} jobs/s "
            f"(p99 {engine['latency_us']['p99']:.0f} us)"
        )
    failures = check_regression(
        doc, args.label, fresh, max_regression=args.max_regression
    )
    if failures:
        for failure in failures:
            print(f"perf regression: {failure}", file=sys.stderr)
        return 1
    print(f"perf smoke passed (within {args.max_regression:g}x of "
          f"committed {args.label!r} numbers)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
