"""The columnar workload builder against the record pipeline it replaced.

Every :class:`~repro.cluster.job.Job` that
:func:`~repro.experiments.runner.build_scenario_jobs` builds must equal,
field for field and in order, the one the record pipeline of
:mod:`tests.test_workload.reference_pipeline` builds: for synthetic
traces across estimate modes, arrival factors and seeds, and for an SWF
file with unusable rows, out-of-order submits and submit-time ties.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.job import Job
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario_jobs
from repro.sim.rng import RngStreams
from repro.workload.swf import MISSING, SWFRecord, write_swf_file
from repro.workload.synthetic import SDSCSP2Model, generate_sdsc_like_records
from tests.test_workload import reference_pipeline as ref

ESTIMATES = [("accurate", 100.0), ("trace", 100.0), ("inaccuracy", 50.0)]
FACTORS = [0.1, 0.35, 1.0]


def fields_of(jobs: list[Job]) -> list[tuple[str, ...]]:
    """Every slot of every job; ``repr`` keeps int/float and ±0.0 apart."""
    return [tuple(repr(getattr(job, slot)) for slot in Job.__slots__) for job in jobs]


def assert_same_jobs(config: ScenarioConfig) -> None:
    got, want = build_scenario_jobs(config), ref.build_scenario_jobs(config)
    assert len(got) == len(want) > 0
    assert fields_of(got) == fields_of(want)


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("mode,pct", ESTIMATES, ids=[m for m, _ in ESTIMATES])
def test_synthetic_jobs_match_the_record_pipeline(mode, pct, factor, seed):
    assert_same_jobs(ScenarioConfig(
        num_jobs=3000, num_nodes=128, seed=seed, estimate_mode=mode,
        inaccuracy_pct=pct, arrival_delay_factor=factor,
    ))


def test_generated_rows_match_the_record_generator():
    model = SDSCSP2Model(num_jobs=500)
    columns = generate_sdsc_like_records(model, RngStreams(seed=3))
    assert columns.to_records() == ref.generate_sdsc_like_records(model, RngStreams(seed=3))


@pytest.fixture(scope="module")
def messy_trace(tmp_path_factory) -> str:
    """An SWF file the tail subset has to sort, filter and break ties in."""
    records = ref.generate_sdsc_like_records(SDSCSP2Model(num_jobs=900), RngStreams(seed=11))
    rng = np.random.default_rng(5)
    rows = [dict(vars(r)) for r in records]
    for i in rng.permutation(len(rows))[:300]:  # out-of-order file, rounded submits
        rows[i]["submit_time"] = float(round(rows[i]["submit_time"], -4))
    for i in range(0, len(rows), 37):  # a run of ties on one instant
        rows[i]["submit_time"] = 500_000.0
    for i in range(3, len(rows), 29):
        rows[i]["run_time"] = MISSING
    for i in range(5, len(rows), 31):
        rows[i]["allocated_procs"] = MISSING  # falls back to requested
    for i in range(7, len(rows), 41):
        rows[i]["allocated_procs"] = rows[i]["requested_procs"] = MISSING
    for i in range(9, len(rows), 43):
        rows[i]["submit_time"] = float(MISSING)
    for i in range(11, len(rows), 13):
        rows[i]["requested_time"] = float(MISSING)  # trace estimate falls back
    for i in range(13, len(rows), 17):
        rows[i]["user_id"] = MISSING
    order = rng.permutation(len(rows))
    path = tmp_path_factory.mktemp("trace") / "messy.swf"
    write_swf_file(path, [SWFRecord(**rows[i]) for i in order])
    return str(path)


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("mode,pct", ESTIMATES, ids=[m for m, _ in ESTIMATES])
def test_swf_file_jobs_match_the_record_pipeline(messy_trace, mode, pct, factor):
    assert_same_jobs(ScenarioConfig(
        num_jobs=700, num_nodes=128, seed=42, trace_path=messy_trace,
        estimate_mode=mode, inaccuracy_pct=pct, arrival_delay_factor=factor,
    ))
