"""Statistical helpers for replicated experiments.

The paper evaluates on a single trace (one realisation); this library
additionally supports running every scenario under multiple seeds and
summarising with means and confidence intervals, so claims like
"LibraRisk fulfils more deadlines than Libra" can be checked for
robustness rather than read off one lucky draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: Two-sided critical values of Student's t for common confidence
#: levels, indexed by degrees of freedom (1..30; beyond that the
#: normal approximation is used).
_T_95 = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]
_Z_95 = 1.960


@dataclass(frozen=True)
class Summary:
    """Mean with a 95 % confidence half-width over replications."""

    mean: float
    stddev: float
    ci95: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.ci95

    @property
    def high(self) -> float:
        return self.mean + self.ci95

    def __str__(self) -> str:
        return f"{self.mean:.2f} ± {self.ci95:.2f} (n={self.n})"


def summarize(values: Sequence[float]) -> Summary:
    """Mean, sample std-dev, and 95 % CI half-width of ``values``."""
    if not values:
        raise ValueError("cannot summarise an empty sample")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return Summary(mean=mean, stddev=0.0, ci95=0.0, n=1)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    stddev = math.sqrt(var)
    dof = n - 1
    t = _T_95[dof - 1] if dof <= len(_T_95) else _Z_95
    return Summary(mean=mean, stddev=stddev, ci95=t * stddev / math.sqrt(n), n=n)


def paired_difference(a: Sequence[float], b: Sequence[float]) -> Summary:
    """Summary of the paired differences ``a_i − b_i``.

    Replications with the same seed share their workload, so paired
    differences are the right way to compare two policies: the
    workload-to-workload variance cancels.
    """
    if len(a) != len(b):
        raise ValueError(f"paired samples must align: {len(a)} vs {len(b)}")
    return summarize([x - y for x, y in zip(a, b)])
