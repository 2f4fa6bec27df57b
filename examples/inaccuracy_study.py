#!/usr/bin/env python3
"""Figure-4-style study: how estimate inaccuracy erodes each policy.

Sweeps the percentage of inaccuracy from 0 % (estimates equal
runtimes) to 100 % (the trace's actual user estimates) and reports,
besides the raw series, the analysis the paper's §5.5 narrates:
per-point gain of LibraRisk over Libra, the trend of each
series, and any crossover points.

Usage::

    python examples/inaccuracy_study.py [num_jobs]
"""

import sys

from repro.experiments.compare import crossover_points, trend
from repro.experiments.config import ScenarioConfig
from repro.experiments.reporting import series_table
from repro.experiments.sweeps import sweep


def main() -> None:
    num_jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 600
    pcts = [0.0, 20.0, 40.0, 60.0, 80.0, 100.0]
    base = ScenarioConfig(
        num_jobs=num_jobs, num_nodes=128, estimate_mode="inaccuracy", seed=42
    )

    result = sweep(base, "inaccuracy_pct", pcts, ["edf", "libra", "librarisk"])
    fulfilled = result.series("pct_deadlines_fulfilled")
    slowdown = result.series("avg_slowdown")

    print("=== % of jobs with deadlines fulfilled ===")
    print(series_table("% inaccuracy", pcts, fulfilled))
    print("\n=== average slowdown (fulfilled jobs) ===")
    print(series_table("% inaccuracy", pcts, slowdown))

    print("\nLibraRisk gain over Libra (deadlines fulfilled):")
    for pct, risk, libra in zip(pcts, fulfilled["librarisk"], fulfilled["libra"]):
        print(f"  at {pct:5.1f}% inaccuracy: {risk - libra:+6.1f} pp")

    print("\nSeries trends as inaccuracy grows:")
    for name, series in fulfilled.items():
        print(f"  {name:10s}: {trend(series, tolerance=1.0)}")

    crossings = crossover_points(pcts, fulfilled["librarisk"], fulfilled["edf"])
    if crossings:
        print(f"\nLibraRisk/EDF crossover near {crossings[0]:.0f}% inaccuracy")
    else:
        winner = "librarisk" if fulfilled["librarisk"][-1] >= fulfilled["edf"][-1] else "edf"
        print(f"\nNo LibraRisk/EDF crossover in range; {winner} dominates")


if __name__ == "__main__":
    main()
