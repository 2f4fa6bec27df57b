"""The deadline-delay metric and the risk of deadline delay (Eq. 4–6).

Paper §3.2: for a job ``i`` with delay ``delay_i`` (Eq. 3) and
remaining deadline ``remaining_deadline_i``::

    deadline_delay_i = (delay_i + remaining_deadline_i) / remaining_deadline_i     (Eq. 4)

with minimum/best value 1 at zero delay; the value grows when the
delay is longer *or* the remaining deadline shorter, which is what
penalises delaying urgent jobs.  Per node ``j``::

    µ_j = mean(deadline_delay_ij)                                                   (Eq. 5)
    σ_j = sqrt(mean(deadline_delay_ij²) − µ_j²)                                     (Eq. 6)

σ_j is the **risk of deadline delay**; σ_j = 0 is the ideal.

σ measures *spread*, not delay — and that is the mechanism
----------------------------------------------------------
The paper is explicit that "a high risk σ_j indicates a high
**uncertainty** of jobs on node j not to experience deadline delays".
σ of identical values is zero, so the literal criterion has two
consequences that together produce LibraRisk's measured advantage:

* a node holding **no other jobs** is always suitable (a single
  deadline-delay value has σ = 0) — so LibraRisk *gambles* on jobs
  whose (usually over-inflated) estimates claim they cannot meet their
  deadline, placing them on empty nodes where the gamble endangers
  nobody else.  Libra's Σ share ≤ 1 test rejects those jobs outright;
  since real runtimes are far below the inflated estimates, the
  gambles usually win, which is where LibraRisk's extra fulfilled jobs
  under inaccurate estimates come from;
* a node whose resident jobs are on time is suitable only if the new
  job leaves every deadline-delay value equal — i.e. nobody (new job
  included) is predicted late — so previously accepted jobs stay
  protected, and a node carrying an already-delayed (overrun or
  expired) job is never suitable.

:attr:`RiskAssessment.zero_risk` therefore implements the literal
σ = 0 test (with ``inf`` values never zero-risk);
:attr:`RiskAssessment.strictly_safe` is the stricter no-predicted-
delay variant, kept as an ablation (``LibraRiskPolicy(
suitability="no-delay")``).

Other degenerate case: ``remaining_deadline <= 0`` makes Eq. 4
undefined; such a job is already in violation, so its
``deadline_delay`` is ``+inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.sim.numerics import exact_zero


def deadline_delay(delay: float, remaining_deadline: float) -> float:
    """Eq. 4 impact of a (predicted) delay on a job's remaining deadline.

    Parameters
    ----------
    delay:
        Non-negative (predicted) delay in seconds; may be ``inf`` for a
        job that can never finish under current allocation.
    remaining_deadline:
        Seconds until the job's absolute deadline; non-positive means
        the deadline already passed.
    """
    if delay < 0:
        raise ValueError(f"delay must be >= 0, got {delay}")
    if remaining_deadline <= 0.0:
        return math.inf
    if math.isinf(delay):
        return math.inf
    return (delay + remaining_deadline) / remaining_deadline


@dataclass(frozen=True)
class RiskAssessment:
    """Result of evaluating a node's (hypothetical) job set."""

    #: Eq. 5 mean of the deadline-delay values (1.0 for an empty node).
    mu: float
    #: Eq. 6 population standard deviation — the risk of deadline delay.
    sigma: float
    #: Largest predicted delay (seconds) over the node's jobs.
    max_delay: float
    #: Number of jobs assessed.
    n_jobs: int

    @property
    def zero_risk(self) -> bool:
        """Literal Algorithm 1 suitability: σ_j = 0 (and finite)."""
        return exact_zero(self.sigma)

    @property
    def strictly_safe(self) -> bool:
        """Stricter ablation: additionally no predicted delay at all."""
        return exact_zero(self.max_delay) and exact_zero(self.sigma)


def assess_delays(pairs: Sequence[tuple[float, float]]) -> RiskAssessment:
    """Assess a node from ``(predicted_delay, remaining_deadline)`` pairs.

    An empty node has µ = 1 (the metric's best value), σ = 0 and is
    trivially zero-risk.
    """
    if not pairs:
        return RiskAssessment(mu=1.0, sigma=0.0, max_delay=0.0, n_jobs=0)
    values = [deadline_delay(delay, rem) for delay, rem in pairs]
    max_delay = max(delay for delay, _ in pairs)
    if any(math.isinf(v) for v in values):
        return RiskAssessment(mu=math.inf, sigma=math.inf, max_delay=max_delay, n_jobs=len(values))
    n = len(values)
    mu = sum(values) / n
    # Population variance via E[X^2] - mu^2 exactly as Eq. 6 writes it;
    # guard the tiny negative residue floating point can produce.
    var = max(0.0, sum(v * v for v in values) / n - mu * mu)
    return RiskAssessment(mu=mu, sigma=math.sqrt(var), max_delay=max_delay, n_jobs=n)
