"""Scenario metric computation from an RMS ledger."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.cluster import Cluster
from repro.cluster.job import DELAY_TOLERANCE, JobState, UrgencyClass
from repro.cluster.ledger import JobLedger


@dataclass(frozen=True)
class ClassBreakdown:
    """Headline metrics restricted to one urgency class."""

    submitted: int
    fulfilled: int

    @property
    def pct_fulfilled(self) -> float:
        return 100.0 * self.fulfilled / self.submitted if self.submitted else 0.0


@dataclass(frozen=True)
class ScenarioMetrics:
    """Everything one simulation run reports."""

    total_submitted: int
    accepted: int
    rejected: int
    completed: int
    #: Accepted but unfinished at the simulation horizon.
    unfinished: int
    #: Accepted jobs killed by node failures.
    failed: int
    #: Jobs completed within their deadline.
    deadlines_fulfilled: int
    #: Paper metric (i): fulfilled / submitted, in percent.
    pct_deadlines_fulfilled: float
    #: Paper metric (ii): mean slowdown over fulfilled jobs only.
    avg_slowdown: float
    #: Mean Eq. 3 delay over completed-but-late jobs (0 if none).
    avg_delay_of_late_jobs: float
    #: Completed-late count (accepted, finished, missed deadline).
    completed_late: int
    #: Cluster utilisation over the simulated span (0 when unknown).
    utilisation: float
    high_urgency: ClassBreakdown
    low_urgency: ClassBreakdown

    @property
    def acceptance_pct(self) -> float:
        return 100.0 * self.accepted / self.total_submitted if self.total_submitted else 0.0

    def as_dict(self) -> dict[str, float]:
        """Flat dict for CSV/table rendering."""
        return {
            "total_submitted": self.total_submitted,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "completed": self.completed,
            "unfinished": self.unfinished,
            "failed": self.failed,
            "deadlines_fulfilled": self.deadlines_fulfilled,
            "pct_deadlines_fulfilled": self.pct_deadlines_fulfilled,
            "avg_slowdown": self.avg_slowdown,
            "avg_delay_of_late_jobs": self.avg_delay_of_late_jobs,
            "completed_late": self.completed_late,
            "utilisation": self.utilisation,
            "acceptance_pct": self.acceptance_pct,
            "high_pct_fulfilled": self.high_urgency.pct_fulfilled,
            "low_pct_fulfilled": self.low_urgency.pct_fulfilled,
            # Raw per-class counts: the percentages above are ratios and
            # cannot be recombined across engines, so anything merging
            # metrics from several shards needs the numerators and
            # denominators themselves (see repro.service.sharding.router).
            "high_submitted": self.high_urgency.submitted,
            "high_fulfilled": self.high_urgency.fulfilled,
            "low_submitted": self.low_urgency.submitted,
            "low_fulfilled": self.low_urgency.fulfilled,
        }


def compute_metrics(
    ledger: JobLedger,
    cluster: Optional[Cluster] = None,
    horizon: Optional[float] = None,
) -> ScenarioMetrics:
    """Compute the paper's metrics over every *submitted* job.

    Parameters
    ----------
    ledger:
        An RMS's :class:`~repro.cluster.ledger.JobLedger`: every job that
        arrived, in any state.  Sums run in arrival order.
    cluster, horizon:
        When both are given, cluster utilisation over ``[0, horizon]``
        is included.
    """
    submitted = accepted = rejected = completed = failed = 0
    slowdowns: list[float] = []
    delays: list[float] = []
    members = {UrgencyClass.HIGH: 0, UrgencyClass.LOW: 0}
    fulfilled = {UrgencyClass.HIGH: 0, UrgencyClass.LOW: 0}
    for state, urgency, submit, runtime, deadline, finish in ledger.summary_rows():
        submitted += 1
        members[urgency] += 1
        if state is JobState.REJECTED:
            rejected += 1
            continue
        if state is JobState.SUBMITTED:
            continue
        accepted += 1
        if state is JobState.FAILED:
            failed += 1
        elif state is JobState.COMPLETED:
            completed += 1
            # Job.delay / Job.deadline_met / Job.slowdown, term for term.
            response = finish - submit
            late = response - deadline
            if late <= DELAY_TOLERANCE:
                fulfilled[urgency] += 1
                slowdowns.append(response / runtime)
            else:
                delays.append(late)

    utilisation = 0.0
    if cluster is not None and horizon is not None and horizon > 0:
        utilisation = cluster.utilisation(horizon)

    met = len(slowdowns)
    return ScenarioMetrics(
        total_submitted=submitted,
        accepted=accepted,
        rejected=rejected,
        completed=completed,
        unfinished=accepted - completed - failed,
        failed=failed,
        deadlines_fulfilled=met,
        pct_deadlines_fulfilled=100.0 * met / submitted if submitted else 0.0,
        avg_slowdown=(sum(slowdowns) / met) if slowdowns else 0.0,
        avg_delay_of_late_jobs=(sum(delays) / len(delays)) if delays else 0.0,
        completed_late=len(delays),
        utilisation=utilisation,
        high_urgency=ClassBreakdown(
            members[UrgencyClass.HIGH], fulfilled[UrgencyClass.HIGH]
        ),
        low_urgency=ClassBreakdown(
            members[UrgencyClass.LOW], fulfilled[UrgencyClass.LOW]
        ),
    )
