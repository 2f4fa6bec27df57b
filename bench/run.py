#!/usr/bin/env python3
"""The admission-stack benchmark: one workload per invocation.

    python3 bench/run.py --workload engine_risk --seed 42            # end-to-end metrics
    python3 bench/run.py --workload engine_risk --seed 42 --trace 1  # per-layer metrics
    python3 bench/run.py --selfcheck                                 # two sets, compared

Prints every metric by name with its unit and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Exits non-zero when any output check fails.  See
``bench/README.md`` for definitions and the noise protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys

from children import ROOT, SRC, Children

#: A run that has not finished by then is aborted (children reaped).
WORKLOAD_TIMEOUT_S = 170


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the names in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the run measures (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced run (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale (300 jobs x 32 nodes, 2 passes) for tests")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload twice and compare against the bounds")
    return parser.parse_args(argv)


def environment_lines(fsync: str) -> list[str]:
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    lines = [
        f"env: nproc={nproc} python={platform.python_version()} "
        f"wal_fsync={fsync} loadavg_1m={load:.2f}"
    ]
    if load >= nproc:
        lines.append(
            f"env: LOADED MACHINE - 1-min load average {load:.2f} >= nproc {nproc}; "
            f"timings from this run are suspect"
        )
    return lines


def _abort(signum: int, frame: object) -> None:
    """SIGALRM / SIGTERM: unwind through ``Children.close()`` and exit non-zero."""
    raise TimeoutError(f"aborted by {signal.Signals(signum).name} "
                       f"(per-workload limit {WORKLOAD_TIMEOUT_S}s)")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fp:
        manifest = json.load(fp)

    if args.selfcheck:
        from selfcheck import selfcheck
        return selfcheck(manifest, args.seed, args.smoke)

    from streams import SPEC_BY_NAME, scaled
    from workloads import WAL_FSYNC

    if args.workload not in SPEC_BY_NAME:
        print(f"bench: --workload must be one of {sorted(SPEC_BY_NAME)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    spec = scaled(SPEC_BY_NAME[args.workload], seconds, args.smoke)
    print(f"workload {spec.name} seed={args.seed} trace={args.trace}: {spec.why}")
    for line in environment_lines(WAL_FSYNC):
        print(line)

    signal.signal(signal.SIGALRM, _abort)
    signal.signal(signal.SIGTERM, _abort)
    signal.alarm(WORKLOAD_TIMEOUT_S)
    with Children() as children:
        if args.trace:
            from layers import run_traced
            result = run_traced(spec, args.seed, children)
            declared = manifest["per_layer"]
        else:
            from untraced import run_untraced
            result = run_untraced(spec, args.seed, children)
            declared = manifest["end_to_end"]
    signal.alarm(0)

    for note in result.notes:
        print(f"  {note}")
    for entry in declared:
        value, unit = result.metrics[entry["name"]]
        print(f"{entry['name']:40s} {value:>16.6g} {unit}")
    failed_share = result.failed / max(1, result.attempted)
    print(f"{'failed_share':40s} {failed_share:>16.6g} (failed {result.failed} "
          f"of {result.attempted})")
    for k, value in enumerate(result.digests):
        print(f"decision_digest[{k}] {value}")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            entry["name"]: {
                "value": result.metrics[entry["name"]][0],
                "unit": result.metrics[entry["name"]][1],
            }
            for entry in declared
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
