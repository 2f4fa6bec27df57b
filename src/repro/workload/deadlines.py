"""Deadline assignment: the high/low urgency model of §4.

The trace has no deadlines, so the paper (following Irwin, Grit &
Chase, HPDC 2004) assigns each job a deadline as a factor of its *real*
runtime:

* a fraction of jobs (default 20 %) forms the **high urgency** class
  with a *low* ``deadline/runtime`` factor;
* the rest is **low urgency** with a *high* factor;
* the **deadline high:low ratio** is the ratio of the two class means
  — a larger ratio means low-urgency jobs get looser deadlines;
* factors are normally distributed within each class, and the deadline
  is "always assigned a higher factored value based on the real
  runtime", which we enforce by truncating factors at ``min_factor``.

The arrival order of the two classes is random (the class draw is i.i.d.
per job).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.job import UrgencyClass


@dataclass(frozen=True)
class DeadlineModel:
    """Parameters of the urgency-class deadline assignment."""

    #: Fraction of jobs in the high urgency (tight deadline) class.
    high_urgency_fraction: float = 0.20
    #: Mean ``deadline/runtime`` factor of the *high urgency* class
    #: (the "low deadline_i/runtime_i value" of the paper).
    low_factor_mean: float = 2.0
    #: Deadline high:low ratio — mean factor of the low urgency class
    #: is ``low_factor_mean × ratio``.
    ratio: float = 4.0
    #: Coefficient of variation of the normal factor distributions.
    cv: float = 0.25
    #: Hard lower truncation so deadlines always exceed runtimes.
    min_factor: float = 1.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.high_urgency_fraction <= 1.0:
            raise ValueError("high_urgency_fraction must be in [0, 1]")
        if self.low_factor_mean <= 1.0:
            raise ValueError("low_factor_mean must be > 1")
        if self.ratio < 1.0:
            raise ValueError("ratio must be >= 1")
        if self.cv < 0.0:
            raise ValueError("cv must be >= 0")
        if self.min_factor < 1.0:
            raise ValueError("min_factor must be >= 1")

    @property
    def high_factor_mean(self) -> float:
        """Mean factor of the low urgency class."""
        return self.low_factor_mean * self.ratio

    def assign(
        self,
        runtimes: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, list[UrgencyClass]]:
        """Draw deadlines (seconds, relative to submission) for ``runtimes``.

        Returns ``(deadlines, urgency_classes)`` aligned with the input.
        """
        runtimes = np.asarray(runtimes, dtype=float)
        n = runtimes.shape[0]
        is_high = rng.random(n) < self.high_urgency_fraction
        means = np.where(is_high, self.low_factor_mean, self.high_factor_mean)
        factors = rng.normal(means, self.cv * means)
        factors = np.maximum(factors, self.min_factor)
        deadlines = factors * runtimes
        high, low = UrgencyClass.HIGH, UrgencyClass.LOW
        classes = [high if h else low for h in is_high.tolist()]
        return deadlines, classes
