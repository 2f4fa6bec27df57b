"""Proportional processor-share arithmetic (Libra, Eq. 1–2).

These are pure functions over plain numbers so both the node execution
engine (:mod:`repro.cluster.node`) and the admission controls
(:mod:`repro.scheduling`) can use them without import cycles.

Definitions (paper §3.1)
------------------------
Eq. 1  ``share_ij = remaining_runtime_ij / remaining_deadline_i``
Eq. 2  ``total_share_j = Σ_i share_ij``

A node can honour all its deadlines iff ``total_share_j <= 1`` (the
node has at least the total share of processor time available).

Execution-rate policy
---------------------
The paper leaves two degenerate cases unspecified; :class:`ShareParams`
makes the choices explicit and sweepable (see DESIGN.md §3):

* **overrun** — a running job whose *estimated* remaining runtime is
  exhausted while actual work remains, or whose remaining deadline is
  non-positive, has an undefined Eq. 1 share.  Such a job receives
  ``overrun_floor_share`` so it cannot starve.
* **over-commitment** — after estimate errors the sum of nominal
  shares can exceed 1; all rates are then scaled by ``1/Σ`` so the
  node never does more than one node-second of work per second.
* **spare capacity** — by default spare share is left idle (a job
  progresses exactly at its Eq. 1 share, which keeps Eq. 1 invariant
  over time for accurate estimates).  With ``redistribute_spare`` the
  leftover is handed out proportionally, finishing jobs early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

#: Work below this many rating-seconds counts as finished (float slop).
WORK_EPSILON = 1e-6

#: Shares below this are treated as zero.
SHARE_EPSILON = 1e-12


@dataclass(frozen=True)
class ShareParams:
    """Knobs of the proportional-share execution discipline."""

    #: Share given to a job in overrun (estimate exhausted or deadline
    #: expired) so it keeps progressing.  Must be in (0, 1].
    overrun_floor_share: float = 0.05

    #: Give unused node capacity to running jobs proportionally.
    redistribute_spare: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.overrun_floor_share <= 1.0):
            raise ValueError(
                f"overrun_floor_share must be in (0, 1], got {self.overrun_floor_share}"
            )


DEFAULT_SHARE_PARAMS = ShareParams()


def nominal_share(
    remaining_est_time: float,
    remaining_deadline: float,
    params: ShareParams = DEFAULT_SHARE_PARAMS,
) -> float:
    """Eq. 1 share for one job, with the overrun floor applied.

    Parameters
    ----------
    remaining_est_time:
        Estimated remaining runtime *at full node speed*, seconds.
    remaining_deadline:
        Time until the job's absolute deadline, seconds (may be <= 0).

    Returns
    -------
    float
        The share in ``(0, 1]``.  A share greater than 1 would be
        physically meaningless as an execution rate, so the result is
        clamped; use :func:`admission_share` for the *unclamped* Eq. 1
        value that the admission test sums.
    """
    if remaining_est_time <= SHARE_EPSILON or remaining_deadline <= 0.0:
        return params.overrun_floor_share
    return min(1.0, max(remaining_est_time / remaining_deadline, SHARE_EPSILON))


def admission_share(remaining_est_time: float, remaining_deadline: float) -> float:
    """Unclamped Eq. 1 share used in the Eq. 2 admission sum.

    A non-positive remaining deadline means the job can no longer meet
    its SLA at any rate; the share is infinite, which correctly makes
    any node carrying such a job fail the ``total <= 1`` test.
    """
    if remaining_deadline <= 0.0:
        return float("inf")
    return max(0.0, remaining_est_time) / remaining_deadline


def total_share(shares: Sequence[float]) -> float:
    """Eq. 2: the sum of per-job shares on one node."""
    return float(sum(shares))


def effective_rates(
    shares: Sequence[float],
    params: ShareParams = DEFAULT_SHARE_PARAMS,
) -> list[float]:
    """Convert nominal shares into execution rates summing to <= 1.

    * If the node is over-committed (``Σ shares > 1``) every rate is
      scaled by ``1/Σ``.
    * Otherwise each job runs at its nominal share; with
      ``redistribute_spare`` the idle remainder is split
      proportionally to the nominal shares.

    .. note::
       Because every rate returned here is ≤ the job's nominal share
       ``est/rem``, each job's share is **non-decreasing** until the
       next recompute: the estimate drains at most ``share`` per unit
       time while the deadline drains at exactly 1.  The soundness
       argument of ``TimeSharedNode.refutes_zero_risk`` uses the same
       bound (no job finishes before its deadline) — a change that lets
       a rate exceed the nominal share must revisit it
       (``REPRO_VERIFY_CERT=1`` audits every firing).
    """
    total = sum(shares)
    if total <= SHARE_EPSILON:
        return [0.0 for _ in shares]
    if total > 1.0:
        scale = 1.0 / total
        return [s * scale for s in shares]
    if params.redistribute_spare:
        scale = 1.0 / total
        return [s * scale for s in shares]
    return list(shares)
