"""Trace manipulation and the workload-construction pipeline.

``trace columns → (subset, arrival scaling) → estimates → deadlines →
simulator jobs``

A trace travels the pipeline as one :class:`TraceColumns`, an array per
field the simulator reads.  The synthetic generator returns one; an SWF
file is parsed straight into one (:meth:`TraceColumns.read_swf`).
Every stage is an array operation, and :func:`records_to_jobs` builds
each :class:`~repro.cluster.job.Job` once, at the end.

Each stage matches one knob of the paper's experimental methodology
(§4): the 3000-job tail subset, the **arrival delay factor** (workload
intensity), the **estimate mode** (accurate / trace / p % inaccuracy)
and the **deadline model** (urgency classes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from repro.cluster.job import Job
from repro.sim.rng import RngStreams
from repro.workload.deadlines import DeadlineModel
from repro.workload.estimates import (
    accurate_estimates,
    interpolate_inaccuracy,
    overestimation_summary,
)
from repro.workload.swf import (
    MISSING,
    STATUS_COMPLETED,
    SWFHeader,
    SWFRecord,
    read_swf_columns,
)

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


@dataclass(frozen=True, eq=False)
class TraceColumns:
    """A trace as one array per field the simulator reads; row ``i`` is one job.

    ``procs`` is the best available processor count (allocated, else
    requested); ``-1`` (:data:`~repro.workload.swf.MISSING`) marks a
    missing value, as in SWF.
    """

    job_number: np.ndarray
    submit_time: np.ndarray
    run_time: np.ndarray
    procs: np.ndarray
    requested_time: np.ndarray
    user_id: np.ndarray

    @classmethod
    def from_records(cls, records: Sequence[SWFRecord]) -> TraceColumns:
        """The columns of parsed SWF rows, in file order."""
        def column(name: str, dtype: type) -> np.ndarray:
            return np.array([getattr(r, name) for r in records], dtype=dtype)

        alloc, req = column("allocated_procs", np.int64), column("requested_procs", np.int64)
        return cls(column("job_number", np.int64), column("submit_time", float),
                   column("run_time", float), np.where(alloc > 0, alloc, req),
                   column("requested_time", float), column("user_id", np.int64))

    @classmethod
    def read_swf(cls, path: Union[str, Path]) -> tuple[SWFHeader, TraceColumns]:
        """An SWF file's header and columns, in file order, parsed with no
        per-row record (:func:`~repro.workload.swf.read_swf_columns`)."""
        header, (number, submit, run, procs, requested, user) = read_swf_columns(path)
        return header, cls(np.array(number, np.int64), np.array(submit, float),
                           np.array(run, float), np.array(procs, np.int64),
                           np.array(requested, float), np.array(user, np.int64))

    def to_records(self) -> list[SWFRecord]:
        """SWF rows for writing a trace file; a job is written as completed, with no wait."""
        return [
            SWFRecord(job_number=n, submit_time=s, wait_time=0.0, run_time=r,
                      allocated_procs=p, requested_procs=p, requested_time=e,
                      status=STATUS_COMPLETED, user_id=u)
            for n, s, r, p, e, u in zip(*(c.tolist() for c in self._columns()))
        ]

    def take(self, rows: object) -> TraceColumns:
        """The rows selected by an index array, a boolean mask or a slice."""
        return TraceColumns(*[c[rows] for c in self._columns()])

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    def __len__(self) -> int:
        return len(self.job_number)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceColumns):
            return NotImplemented
        return all(map(np.array_equal, self._columns(), other._columns()))


# -- trace transforms -------------------------------------------------------------
def usable_records(trace: TraceColumns) -> TraceColumns:
    """Drop rows that cannot drive a simulation (no submit time, runtime or procs)."""
    keep = (trace.submit_time != MISSING) & (trace.run_time > 0) & (trace.procs > 0)
    return trace if keep.all() else trace.take(keep)


def _by_submit(trace: TraceColumns) -> TraceColumns:
    """Rows in stable ``(submit_time, job_number)`` order."""
    return trace.take(np.lexsort((trace.job_number, trace.submit_time)))


def tail_subset(trace: TraceColumns, n: int) -> TraceColumns:
    """The last ``n`` usable rows by submit time, re-based to t = 0.

    This is the paper's "subset of the last 3000 jobs" selection.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    subset = _by_submit(usable_records(trace)).take(slice(-n, None))
    if not len(subset):
        return subset
    return replace(subset, submit_time=subset.submit_time - subset.submit_time[0])


def scale_arrivals(trace: TraceColumns, factor: float) -> TraceColumns:
    """Apply the arrival delay factor: scale inter-arrival times by ``factor``.

    The paper's example: with factor 0.1 a job that followed its
    predecessor by X seconds now follows it by 0.1·X seconds.
    """
    if not 0 < factor < math.inf:
        raise ValueError(f"arrival delay factor must be > 0, got {factor}")
    ordered = _by_submit(trace)
    if factor == 1.0 or not len(ordered):
        return ordered
    submit = ordered.submit_time
    steps = np.empty_like(submit)
    steps[0] = submit[0]
    steps[1:] = factor * np.diff(submit)
    # add.accumulate sums left to right: new_i = new_{i-1} + f·(s_i − s_{i-1}),
    # the sequential recurrence bit for bit (a rescaled cumsum rounds differently).
    return replace(ordered, submit_time=np.add.accumulate(steps))


# -- job construction -----------------------------------------------------------
def _trace_estimates(trace: TraceColumns) -> np.ndarray:
    """Recorded user estimates; a missing estimate falls back to the runtime."""
    return np.where(trace.requested_time != MISSING, trace.requested_time, trace.run_time)


def records_to_jobs(
    trace: TraceColumns,
    estimates: np.ndarray,
    deadlines: np.ndarray,
    classes: Sequence,
) -> list[Job]:
    """Zip the columns with per-job estimates/deadlines into simulator jobs.

    Each column becomes a list once, and each distinct user id one ``str``.
    """
    if not (len(trace) == len(estimates) == len(deadlines) == len(classes)):
        raise ValueError("records, estimates, deadlines and classes must align")
    users = trace.user_id.tolist()
    names = {u: (str(u) if u != MISSING else None) for u in set(users)}
    # Positional, in the order of Job's parameters: a keyword call costs ~50 % more.
    return list(map(
        Job, trace.run_time.tolist(), np.asarray(estimates, dtype=float).tolist(),
        trace.procs.tolist(), np.asarray(deadlines, dtype=float).tolist(),
        trace.submit_time.tolist(), classes, map(names.__getitem__, users),
        trace.job_number.tolist(),
    ))


def build_jobs(
    trace: TraceColumns,
    spec: WorkloadSpec,
    streams: RngStreams,
) -> list[Job]:
    """Full pipeline: trace columns + spec → ready-to-submit jobs.

    The deadline stream is named so that sweeping the estimate mode (or
    the arrival factor) does **not** change which deadlines jobs get —
    panels (a) and (b) of every figure see identical deadlines, exactly
    as in the paper where deadlines derive from real runtimes only.
    """
    trace = scale_arrivals(usable_records(trace), spec.arrival_delay_factor)
    runtimes = trace.run_time

    if spec.estimate_mode == "accurate":
        estimates = accurate_estimates(runtimes)
    elif spec.estimate_mode == "trace":
        estimates = _trace_estimates(trace)
    else:  # "inaccuracy"
        estimates = interpolate_inaccuracy(runtimes, _trace_estimates(trace), spec.inaccuracy_pct)

    deadlines, classes = spec.deadline_model.assign(runtimes, streams.get("deadlines"))
    return records_to_jobs(trace, estimates, deadlines, classes)


# -- statistics --------------------------------------------------------------------
def describe_records(trace: TraceColumns) -> dict[str, float]:
    """Subset statistics in the form the paper reports them (§4)."""
    trace = usable_records(trace)
    if not len(trace):
        return {"num_jobs": 0}
    submit, runtimes = trace.submit_time, trace.run_time
    procs = trace.procs.astype(float)
    interarrival = np.diff(np.sort(submit))
    stats: dict[str, float] = {
        "num_jobs": float(len(trace)),
        "span_days": float((submit.max() - submit.min()) / 86400.0),
        "mean_interarrival_s": float(interarrival.mean()) if len(interarrival) else 0.0,
        "mean_runtime_s": float(runtimes.mean()),
        "mean_runtime_h": float(runtimes.mean() / 3600.0),
        "mean_procs": float(procs.mean()),
        "max_procs": float(procs.max()),
    }
    stats.update(
        {f"estimate_{k}": v
         for k, v in overestimation_summary(runtimes, _trace_estimates(trace)).items()}
    )
    return stats
