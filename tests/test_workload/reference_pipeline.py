"""The record pipeline: the witness the columnar workload builder is compared against.

``repro.workload`` builds a scenario's jobs from one array per trace
field (:class:`~repro.workload.traces.TraceColumns`) and claims to be the
same pipeline as the one below, which carries every job as an
:class:`~repro.workload.swf.SWFRecord` from the generator to the
:class:`~repro.cluster.job.Job`: the same jobs, in the same order, with
the same floats, bit for bit.  The functions here are that pipeline
verbatim; only ``SWFRecord.procs`` / ``SWFRecord.usable``, which the
columns replace, are spelled out as the functions ``_procs`` /
``_usable``.

Run the parity suite with::

    PYTHONPATH=src python -m pytest tests/test_workload/test_pipeline_parity.py
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.cluster.job import Job, UrgencyClass
from repro.experiments.config import ScenarioConfig
from repro.sim.rng import RngStreams
from repro.workload.deadlines import DeadlineModel
from repro.workload.estimates import accurate_estimates, interpolate_inaccuracy
from repro.workload.swf import MISSING, STATUS_COMPLETED, SWFRecord, read_swf_file
from repro.workload.synthetic import (
    SDSCSP2Model,
    _draw_interarrivals,
    _draw_procs,
    _draw_runtimes,
)
from repro.workload.traces import WorkloadSpec


def _procs(r: SWFRecord) -> int:
    """Best available processor count: allocated, else requested."""
    if r.allocated_procs != MISSING and r.allocated_procs > 0:
        return r.allocated_procs
    return r.requested_procs


def _usable(r: SWFRecord) -> bool:
    """True if the record can drive a simulation job."""
    return (
        r.submit_time != MISSING
        and r.run_time != MISSING
        and r.run_time > 0
        and _procs(r) != MISSING
        and _procs(r) > 0
    )


def generate_sdsc_like_records(
    model: SDSCSP2Model,
    streams: RngStreams,
) -> list[SWFRecord]:
    arr_rng = streams.get("synthetic.interarrival")
    run_rng = streams.get("synthetic.runtime")
    proc_rng = streams.get("synthetic.procs")
    est_rng = streams.get("synthetic.estimates")
    user_rng = streams.get("synthetic.users")

    interarrivals = _draw_interarrivals(model, arr_rng)
    submit_times = np.cumsum(interarrivals)
    submit_times -= submit_times[0]  # first job arrives at t = 0
    runtimes = _draw_runtimes(model, run_rng)
    procs = _draw_procs(model, proc_rng)
    estimates = model.estimate_model.draw(runtimes, est_rng)
    users = user_rng.integers(1, 200, size=model.num_jobs)

    records = []
    for i in range(model.num_jobs):
        records.append(
            SWFRecord(
                job_number=i + 1,
                submit_time=float(submit_times[i]),
                wait_time=0.0,
                run_time=float(runtimes[i]),
                allocated_procs=int(procs[i]),
                requested_procs=int(procs[i]),
                requested_time=float(estimates[i]),
                status=STATUS_COMPLETED,
                user_id=int(users[i]),
            )
        )
    return records


def usable_records(records: Sequence[SWFRecord]) -> list[SWFRecord]:
    return [r for r in records if _usable(r)]


def tail_subset(records: Sequence[SWFRecord], n: int) -> list[SWFRecord]:
    if n < 1:
        raise ValueError("n must be >= 1")
    usable = sorted(usable_records(records), key=lambda r: (r.submit_time, r.job_number))
    subset = usable[-n:]
    if not subset:
        return []
    base = subset[0].submit_time
    return [
        SWFRecord(
            **{
                **{f: getattr(r, f) for f in r.__dataclass_fields__},
                "submit_time": r.submit_time - base,
            }
        )
        for r in subset
    ]


def scale_arrivals(records: Sequence[SWFRecord], factor: float) -> list[SWFRecord]:
    if not 0 < factor < math.inf:
        raise ValueError(f"arrival delay factor must be > 0, got {factor}")
    ordered = sorted(records, key=lambda r: (r.submit_time, r.job_number))
    if factor == 1.0:
        return ordered
    out: list[SWFRecord] = []
    prev_orig: Optional[float] = None
    prev_new = 0.0
    for r in ordered:
        if prev_orig is None:
            new_time = r.submit_time
        else:
            new_time = prev_new + factor * (r.submit_time - prev_orig)
        prev_orig, prev_new = r.submit_time, new_time
        out.append(
            SWFRecord(
                **{
                    **{f: getattr(r, f) for f in r.__dataclass_fields__},
                    "submit_time": new_time,
                }
            )
        )
    return out


def _trace_estimates(records: Sequence[SWFRecord]) -> np.ndarray:
    return np.asarray(
        [r.requested_time if r.requested_time != MISSING else r.run_time for r in records],
        dtype=float,
    )


def assign_deadlines(
    model: DeadlineModel,
    runtimes: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[UrgencyClass]]:
    runtimes = np.asarray(runtimes, dtype=float)
    n = runtimes.shape[0]
    is_high = rng.random(n) < model.high_urgency_fraction
    means = np.where(is_high, model.low_factor_mean, model.high_factor_mean)
    factors = rng.normal(means, model.cv * means)
    factors = np.maximum(factors, model.min_factor)
    deadlines = factors * runtimes
    classes = [UrgencyClass.HIGH if h else UrgencyClass.LOW for h in is_high]
    return deadlines, classes


def records_to_jobs(
    records: Sequence[SWFRecord],
    estimates: np.ndarray,
    deadlines: np.ndarray,
    classes: Sequence,
) -> list[Job]:
    if not (len(records) == len(estimates) == len(deadlines) == len(classes)):
        raise ValueError("records, estimates, deadlines and classes must align")
    jobs = []
    for r, est, dl, cls in zip(records, estimates, deadlines, classes):
        jobs.append(
            Job(
                runtime=float(r.run_time),
                estimated_runtime=float(est),
                numproc=int(_procs(r)),
                deadline=float(dl),
                submit_time=float(r.submit_time),
                urgency=cls,
                user=str(r.user_id) if r.user_id != MISSING else None,
                job_id=r.job_number,
            )
        )
    return jobs


def build_jobs(
    records: Sequence[SWFRecord],
    spec: WorkloadSpec,
    streams: RngStreams,
) -> list[Job]:
    records = scale_arrivals(usable_records(records), spec.arrival_delay_factor)
    runtimes = np.asarray([r.run_time for r in records], dtype=float)

    if spec.estimate_mode == "accurate":
        estimates = accurate_estimates(runtimes)
    elif spec.estimate_mode == "trace":
        estimates = _trace_estimates(records)
    else:  # "inaccuracy"
        estimates = interpolate_inaccuracy(
            runtimes, _trace_estimates(records), spec.inaccuracy_pct
        )

    deadlines, classes = assign_deadlines(
        spec.deadline_model, runtimes, streams.get("deadlines")
    )
    return records_to_jobs(records, estimates, deadlines, classes)


def load_base_records(config: ScenarioConfig) -> list[SWFRecord]:
    if config.trace_path is not None:
        _, records = read_swf_file(config.trace_path)
        return tail_subset(records, config.num_jobs)
    streams = RngStreams(seed=config.seed)
    return generate_sdsc_like_records(config.synthetic_model(), streams)


def build_scenario_jobs(config: ScenarioConfig) -> list[Job]:
    records = load_base_records(config)
    streams = RngStreams(seed=config.seed)
    return build_jobs(records, config.workload_spec(), streams)
