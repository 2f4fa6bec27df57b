"""Synthetic SDSC-SP2-like workload generator.

The paper's evaluation uses the last 3000 jobs of the SDSC SP2 trace
(v2.2).  When that archive file is not available offline, this module
generates a statistically similar workload.  The calibration targets
are the subset statistics the paper reports (§4):

* 3000 jobs spanning ≈ 2.5 months;
* mean inter-arrival time ≈ 2131 s (35.52 min), bursty;
* mean runtime ≈ 2.7 h, heavy-tailed (lognormal);
* mean ≈ 17 requested processors on a 128-node machine, with strong
  preference for powers of two;
* user runtime estimates that are *highly inaccurate and often
  over-estimated*, with a minority of jobs reaching or exceeding their
  estimate (the "killed at the limit" spike well known from this
  trace — Mu'alem & Feitelson 2001, Tsafrir et al. 2005).

Every draw comes from named :class:`~repro.sim.rng.RngStreams`, so a
generated trace is a pure function of the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.sim.rng import RngStreams
from repro.workload.estimates import ModalOverestimateModel
from repro.workload.traces import TraceColumns


@dataclass(frozen=True)
class SDSCSP2Model:
    """Calibration knobs of the synthetic SDSC SP2 workload."""

    #: Number of jobs to generate (paper subset: 3000).
    num_jobs: int = 3000
    #: Mean inter-arrival time in seconds (paper: 2131 s).
    mean_interarrival: float = 2131.0
    #: Gamma shape for inter-arrivals; < 1 gives the burstiness real
    #: submission streams show (CV > 1).
    interarrival_shape: float = 0.45
    #: Mean runtime in seconds (paper: ≈ 2.7 h).
    mean_runtime: float = 9720.0
    #: Lognormal sigma of runtimes (heavy tail).
    runtime_sigma: float = 1.9
    #: Runtime clamp, seconds.
    min_runtime: float = 30.0
    max_runtime: float = 200_000.0
    #: Machine size (SDSC SP2: 128 nodes).
    max_procs: int = 128
    #: Processor-count choices and weights (powers of two dominate;
    #: normalised internally).  Mean of the default table ≈ 17.
    proc_choices: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)
    proc_weights: tuple[float, ...] = (0.28, 0.12, 0.14, 0.16, 0.13, 0.10, 0.05, 0.02)
    #: Fraction of non-power-of-two stragglers mixed in.
    odd_proc_fraction: float = 0.08
    #: User-estimate behaviour (see ModalOverestimateModel).
    estimate_model: ModalOverestimateModel = field(default_factory=ModalOverestimateModel)

    def __post_init__(self) -> None:
        if self.num_jobs < 1:
            raise ValueError("num_jobs must be >= 1")
        if not (0 < self.mean_interarrival < math.inf and 0 < self.mean_runtime < math.inf):
            raise ValueError("means must be positive")
        if len(self.proc_choices) != len(self.proc_weights):
            raise ValueError("proc_choices and proc_weights must have equal length")
        if any(c < 1 or c > self.max_procs for c in self.proc_choices):
            raise ValueError("proc_choices must lie in [1, max_procs]")
        if not 0.0 <= self.odd_proc_fraction < 1.0:
            raise ValueError("odd_proc_fraction must be in [0, 1)")


def _draw_interarrivals(model: SDSCSP2Model, rng: np.random.Generator) -> np.ndarray:
    shape = model.interarrival_shape
    scale = model.mean_interarrival / shape
    return rng.gamma(shape, scale, size=model.num_jobs)


def _draw_runtimes(model: SDSCSP2Model, rng: np.random.Generator) -> np.ndarray:
    sigma = model.runtime_sigma
    # E[lognormal] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2
    mu = np.log(model.mean_runtime) - sigma * sigma / 2.0
    runtimes = rng.lognormal(mu, sigma, size=model.num_jobs)
    return np.clip(runtimes, model.min_runtime, model.max_runtime)


def _draw_procs(model: SDSCSP2Model, rng: np.random.Generator) -> np.ndarray:
    weights = np.asarray(model.proc_weights, dtype=float)
    weights = weights / weights.sum()
    procs = rng.choice(np.asarray(model.proc_choices), size=model.num_jobs, p=weights)
    if model.odd_proc_fraction > 0.0:
        odd_mask = rng.random(model.num_jobs) < model.odd_proc_fraction
        odd_vals = rng.integers(1, min(33, model.max_procs + 1), size=model.num_jobs)
        procs = np.where(odd_mask, odd_vals, procs)
    return procs.astype(int)


def generate_sdsc_like_records(
    model: SDSCSP2Model,
    streams: RngStreams,
) -> TraceColumns:
    """Generate a synthetic SDSC-SP2-like trace as columns, one row per job.

    Each column is drawn whole: submit times (first job at t = 0), actual
    run times, processor counts, the modal user estimate as the requested
    time, and user ids; jobs are numbered from 1.
    """
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
    return TraceColumns(
        job_number=np.arange(1, model.num_jobs + 1), submit_time=submit_times,
        run_time=runtimes, procs=procs, requested_time=estimates, user_id=users,
    )
