"""Trace manipulation and the workload-construction pipeline.

``SWF records → (subset, arrival scaling) → estimates → deadlines →
simulator jobs``

Each stage matches one knob of the paper's experimental methodology
(§4): the 3000-job tail subset, the **arrival delay factor** (workload
intensity), the **estimate mode** (accurate / trace / p % inaccuracy)
and the **deadline model** (urgency classes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.cluster.job import Job
from repro.sim.rng import RngStreams
from repro.workload.deadlines import DeadlineModel
from repro.workload.estimates import (
    accurate_estimates,
    interpolate_inaccuracy,
    overestimation_summary,
)
from repro.workload.swf import MISSING, SWFRecord

ESTIMATE_MODES = ("accurate", "trace", "inaccuracy")


@dataclass(frozen=True)
class WorkloadSpec:
    """How to turn a base trace into simulator jobs."""

    #: Scales every inter-arrival time; < 1 compresses the trace and
    #: increases load (paper Fig. 1 sweeps 0.1–1.0).
    arrival_delay_factor: float = 1.0
    #: "accurate" (estimate = runtime), "trace" (the recorded user
    #: estimate), or "inaccuracy" (interpolated by inaccuracy_pct).
    estimate_mode: str = "trace"
    #: Only used when estimate_mode == "inaccuracy".
    inaccuracy_pct: float = 100.0
    #: Deadline assignment parameters.
    deadline_model: DeadlineModel = field(default_factory=DeadlineModel)

    def __post_init__(self) -> None:
        if not 0 < self.arrival_delay_factor < math.inf:
            raise ValueError("arrival_delay_factor must be > 0")
        if self.estimate_mode not in ESTIMATE_MODES:
            raise ValueError(
                f"estimate_mode must be one of {ESTIMATE_MODES}, got {self.estimate_mode!r}"
            )
        if not 0.0 <= self.inaccuracy_pct <= 100.0:
            raise ValueError("inaccuracy_pct must be in [0, 100]")


# -- record-level transforms ----------------------------------------------------
def usable_records(records: Sequence[SWFRecord]) -> list[SWFRecord]:
    """Drop records that cannot drive a simulation (no runtime/procs)."""
    return [r for r in records if r.usable]


def tail_subset(records: Sequence[SWFRecord], n: int) -> list[SWFRecord]:
    """The last ``n`` usable records by submit time, re-based to t = 0.

    This is the paper's "subset of the last 3000 jobs" selection.
    """
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
    """Apply the arrival delay factor: scale inter-arrival times by ``factor``.

    The paper's example: with factor 0.1 a job that followed its
    predecessor by X seconds now follows it by 0.1·X seconds.
    """
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


# -- job construction -----------------------------------------------------------
def _trace_estimates(records: Sequence[SWFRecord]) -> np.ndarray:
    """Recorded user estimates; a missing estimate falls back to the runtime."""
    return np.asarray(
        [r.requested_time if r.requested_time != MISSING else r.run_time for r in records],
        dtype=float,
    )


def records_to_jobs(
    records: Sequence[SWFRecord],
    estimates: np.ndarray,
    deadlines: np.ndarray,
    classes: Sequence,
) -> list[Job]:
    """Zip records with per-job estimates/deadlines into simulator jobs."""
    if not (len(records) == len(estimates) == len(deadlines) == len(classes)):
        raise ValueError("records, estimates, deadlines and classes must align")
    jobs = []
    for r, est, dl, cls in zip(records, estimates, deadlines, classes):
        jobs.append(
            Job(
                runtime=float(r.run_time),
                estimated_runtime=float(est),
                numproc=int(r.procs),
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
    """Full pipeline: records + spec → ready-to-submit jobs.

    The deadline stream is named so that sweeping the estimate mode (or
    the arrival factor) does **not** change which deadlines jobs get —
    panels (a) and (b) of every figure see identical deadlines, exactly
    as in the paper where deadlines derive from real runtimes only.
    """
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

    deadlines, classes = spec.deadline_model.assign(runtimes, streams.get("deadlines"))
    return records_to_jobs(records, estimates, deadlines, classes)


# -- statistics --------------------------------------------------------------------
def describe_records(records: Sequence[SWFRecord]) -> dict[str, float]:
    """Subset statistics in the form the paper reports them (§4)."""
    records = usable_records(records)
    if not records:
        return {"num_jobs": 0}
    submit = np.asarray([r.submit_time for r in records], dtype=float)
    runtimes = np.asarray([r.run_time for r in records], dtype=float)
    procs = np.asarray([r.procs for r in records], dtype=float)
    interarrival = np.diff(np.sort(submit))
    stats: dict[str, float] = {
        "num_jobs": float(len(records)),
        "span_days": float((submit.max() - submit.min()) / 86400.0),
        "mean_interarrival_s": float(interarrival.mean()) if len(interarrival) else 0.0,
        "mean_runtime_s": float(runtimes.mean()),
        "mean_runtime_h": float(runtimes.mean() / 3600.0),
        "mean_procs": float(procs.mean()),
        "max_procs": float(procs.max()),
    }
    stats.update(
        {f"estimate_{k}": v
         for k, v in overestimation_summary(runtimes, _trace_estimates(records)).items()}
    )
    return stats
