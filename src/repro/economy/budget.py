"""Budget-constrained Libra admission (the computational-economy Libra).

Admission requires both of the original Libra's tests:

1. the **budget** test — the cluster's quoted price must not exceed
   the job's budget (jobs without an assigned budget are treated as
   unconstrained, so the policy degrades gracefully to plain Libra);
2. the **deadline** test — Libra's Eq. 2 proportional-share capacity
   check, inherited unchanged.

Revenue accounting is left to :mod:`repro.economy.metrics`; the policy
records the quoted price of every accepted job.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.cluster.job import Job
from repro.economy.pricing import LibraPricing
from repro.scheduling.libra import LibraPolicy


class LibraBudgetPolicy(LibraPolicy):
    """Libra with the economy's price-versus-budget admission test."""

    name = "libra-budget"
    discipline = "time_shared"

    def __init__(
        self,
        pricing: Optional[LibraPricing] = None,
        budgets: Optional[Mapping[int, float]] = None,
    ) -> None:
        super().__init__()
        self.pricing = pricing or LibraPricing()
        self.budgets: Mapping[int, float] = budgets or {}
        #: job_id -> price quoted at acceptance (for revenue accounting).
        self.quoted: dict[int, float] = {}

    def set_budgets(self, budgets: Mapping[int, float]) -> None:
        """Install (or replace) the per-job budget table."""
        self.budgets = budgets

    def on_job_submitted(self, job: Job, now: float) -> None:
        price = self.pricing.price_job(job)
        budget = self.budgets.get(job.job_id)
        if budget is not None and price > budget:
            self._reject(job, f"price {price:.0f} exceeds budget {budget:.0f}")
            return
        before = len(self.rms.accepted) if self.rms is not None else 0
        super().on_job_submitted(job, now)
        if self.rms is not None and len(self.rms.accepted) > before:
            self.quoted[job.job_id] = price
