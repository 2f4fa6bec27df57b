"""How many Python calls building a scenario's jobs makes: a shrink-only ceiling.

A scenario's workload is built from arrays, so the only Python function
it runs once per job is ``Job.__init__``, and an SWF trace file is
parsed straight into those arrays, with no Python call per row.  The test counts ``call``
events into code objects under ``src/repro`` while
:func:`~repro.experiments.runner.build_scenario_jobs` builds
:data:`JOBS` synthetic jobs.  Comprehensions are left out of the count:
Python 3.12 inlines list, dict and set comprehensions into the
enclosing function, and a generator expression reports a ``call`` on
every resume, so counting them would tie the figure to the version.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import repro
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario_jobs
from repro.sim.rng import RngStreams
from repro.workload.swf import write_swf_file
from repro.workload.synthetic import SDSCSP2Model, generate_sdsc_like_records
from repro.workload.traces import TraceColumns

PACKAGE = str(Path(repro.__file__).resolve().parent)
JOBS = 10_000

#: Calls beyond one per job. The ceiling only shrinks: a change that
#: lowers the count lowers this number with it.
CALLS_OVER_JOBS = 41

COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def calls_into_repro(fn) -> Counter:
    """``call`` events into ``src/repro`` code while ``fn()`` runs, by function."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(PACKAGE) \
                and code.co_name not in COMPREHENSIONS:
            calls[f"{Path(code.co_filename).name}:{code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_a_scenario_build_makes_one_call_a_job():
    config = ScenarioConfig(policy="edf", num_nodes=1024, num_jobs=JOBS, seed=42)
    calls = calls_into_repro(lambda: build_scenario_jobs(config))
    over = sum(calls.values()) - JOBS
    busiest = ", ".join(f"{name} x{n}" for name, n in calls.most_common(5))
    assert over <= CALLS_OVER_JOBS, (
        f"building {JOBS} jobs made {over} calls beyond one a job, over the "
        f"ceiling of {CALLS_OVER_JOBS}; busiest: {busiest}"
    )
    assert over == CALLS_OVER_JOBS, (
        f"building {JOBS} jobs now makes {over} calls beyond one a job: lower "
        f"CALLS_OVER_JOBS to {over} so the ceiling keeps what was won"
    )


#: Python calls parsing a :data:`JOBS`-row SWF file into columns, all
#: told. Shrink-only, like :data:`CALLS_OVER_JOBS`.
PARSE_CALLS = 2


def test_parsing_a_trace_file_makes_no_call_a_row(tmp_path):
    trace = generate_sdsc_like_records(SDSCSP2Model(num_jobs=JOBS), RngStreams(seed=42))
    path = tmp_path / "trace.swf"
    write_swf_file(path, trace.to_records())
    parsed: list[TraceColumns] = []
    calls = calls_into_repro(lambda: parsed.append(TraceColumns.read_swf(path)[1]))
    assert parsed == [trace]
    count = sum(calls.values())
    busiest = ", ".join(f"{name} x{n}" for name, n in calls.most_common(5))
    assert count <= PARSE_CALLS, (
        f"parsing {JOBS} rows made {count} calls, over the ceiling of "
        f"{PARSE_CALLS}; busiest: {busiest}"
    )
    assert count == PARSE_CALLS, (
        f"parsing {JOBS} rows now makes {count} calls: lower PARSE_CALLS to "
        f"{count} so the ceiling keeps what was won"
    )
