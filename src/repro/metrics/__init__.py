"""Performance metrics of the paper's evaluation (§5).

The two headline metrics:

* **percentage of jobs with deadlines fulfilled** — jobs completed
  within their specified deadline, out of **all submitted** jobs
  (rejected jobs count against the percentage);
* **average slowdown** — response time over minimum runtime, averaged
  **only over jobs whose deadlines were fulfilled** (the paper's
  emphasis is meeting deadlines, so delayed/rejected jobs are not
  mixed into the slowdown figure).
"""

from repro.metrics.summary import (
    ClassBreakdown,
    ScenarioMetrics,
    compute_metrics,
)

__all__ = [
    "ClassBreakdown",
    "ScenarioMetrics",
    "compute_metrics",
]
