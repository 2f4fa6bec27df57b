#!/usr/bin/env python3
"""Working with SWF trace files end-to-end.

The paper drives its simulation from the SDSC SP2 trace of the
Parallel Workloads Archive.  This example shows the full file
workflow so a real archive trace drops straight in:

1. generate a calibrated synthetic trace and *write it as an SWF file*
   (stands in for downloading SDSC-SP2-1998-4.2-cln.swf);
2. parse the file straight into trace columns, take the
   last-N tail subset and print the §4-style statistics;
3. run a scenario directly from the file via ``trace_path``.

With a real archive file on disk, skip step 1 and pass its path.

Usage::

    python examples/trace_workflow.py [path/to/trace.swf]
"""

import sys
import tempfile
from pathlib import Path

from repro.experiments.config import ScenarioConfig
from repro.experiments.reporting import render_table
from repro.experiments.runner import run_scenario
from repro.sim.rng import RngStreams
from repro.workload.swf import SWFHeader, write_swf_file
from repro.workload.synthetic import SDSCSP2Model, generate_sdsc_like_records
from repro.workload.traces import TraceColumns, describe_records, tail_subset


def make_synthetic_swf(path: Path) -> None:
    trace = generate_sdsc_like_records(SDSCSP2Model(num_jobs=1500), RngStreams(seed=7))
    header = SWFHeader(
        version="2.2",
        computer="IBM SP2 (synthetic look-alike)",
        installation="repro calibrated generator",
        max_nodes=128,
        max_procs=128,
        note="statistics calibrated to the SDSC SP2 subset of Yeo & Buyya 2006",
    )
    count = write_swf_file(path, trace.to_records(), header=header)
    print(f"wrote {count} jobs to {path}")


def main() -> None:
    if len(sys.argv) > 1:
        path = Path(sys.argv[1])
        tmp = None
    else:
        tmp = tempfile.TemporaryDirectory()
        path = Path(tmp.name) / "synthetic-sdsc-sp2.swf"
        make_synthetic_swf(path)

    header, trace = TraceColumns.read_swf(path)
    print(f"\nheader: computer={header.computer!r} max_nodes={header.max_nodes}")

    subset = tail_subset(trace, 1000)
    stats = describe_records(subset)
    print("\n=== last-1000-job subset statistics ===")
    print(render_table(["statistic", "value"], sorted(stats.items()), float_fmt="{:.3f}"))

    config = ScenarioConfig(
        policy="librarisk",
        trace_path=str(path),
        num_jobs=1000,
        num_nodes=header.max_nodes or 128,
        estimate_mode="trace",
    )
    result = run_scenario(config)
    m = result.metrics
    print("\n=== LibraRisk on this trace ===")
    print(f"deadlines fulfilled: {m.pct_deadlines_fulfilled:.2f}%")
    print(f"average slowdown:    {m.avg_slowdown:.2f}")
    print(f"accepted:            {m.acceptance_pct:.2f}%")

    if tmp is not None:
        tmp.cleanup()


if __name__ == "__main__":
    main()
