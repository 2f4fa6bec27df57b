"""LibraRisk: admission by the risk of deadline delay (§3.3, Algorithm 1).

LibraRisk keeps Libra's proportional-share execution (Eq. 1–2) but
changes the two admission decisions:

1. **Suitability** — a node is suitable for the new job iff placing the
   job there leaves the node's *risk of deadline delay* at zero
   (σ_j = 0 over the Eq. 4 deadline-delay values of every resident job
   plus the new one, computed from *predicted* delays).  Unlike
   Libra's Σ share ≤ 1 test, this sees jobs the estimates can no
   longer describe: an overrunning job or one past its deadline
   produces a positive (predicted) delay and disqualifies the node.
2. **Placement** — the job goes only to zero-risk nodes ("LibraRisk
   only selects nodes that have zero risk of deadline delay", §3.3).
   Among those, the default is best fit by each node's *pre*-acceptance
   Eq. 2 load (residents only), not Libra's post-acceptance total: the
   two agree on a homogeneous cluster up to float ties, but a
   heterogeneous one can split them (``docs/ALGORITHMS.md``).  Under
   accurate estimates LibraRisk tracks Libra closely, as the paper's
   panels (a)/(c) show.  (Not *identically*: σ measures
   spread, so a placement that delays every resident by the same
   proportion — e.g. two identical simultaneous jobs sharing a node —
   is still σ = 0 and can be admitted past its deadline, a degenerate
   case Libra's Σ share ≤ 1 test would refuse.  Misses under accurate
   estimates are therefore possible but never solitary — see
   ``test_librarisk_sigma_never_misses_alone``.)  ``node_order`` makes
   the choice sweepable (``"best_fit"``, ``"worst_fit"``, ``"index"``).

Algorithm 1 in pseudo-code form::

    for each node j:                         # lines 1–11
        tentatively place job new on j
        predict delay of every job on j      # line 4
        compute sigma_j                      # line 6
        if sigma_j == 0: j is suitable       # lines 8–10
    if |suitable| >= numproc_new: allocate   # lines 12–15
    else: reject                             # line 17
"""

from __future__ import annotations

from repro.cluster.job import Job
from repro.cluster.node import TimeSharedNode
from repro.cluster.share import SHARE_EPSILON, WORK_EPSILON
from repro.scheduling.libra import LibraPolicy
from repro.scheduling.risk import RiskAssessment, assess_delays

_NODE_ORDERS = ("worst_fit", "best_fit", "index")
_SUITABILITIES = ("sigma", "no-delay")


class LibraRiskPolicy(LibraPolicy):
    """The paper's contribution: risk-managed proportional-share admission.

    ``suitability`` selects the node-suitability test:

    * ``"sigma"`` (default) — the literal Algorithm 1 criterion
      σ_j = 0.  Because σ measures the *spread* of deadline-delay
      values, an otherwise-empty node is always suitable, which lets
      LibraRisk gamble on jobs whose inflated estimates claim
      infeasibility (see :mod:`repro.scheduling.risk`);
    * ``"no-delay"`` — stricter ablation: the node must additionally
      have no predicted delay for any job.

    ``node_order`` orders the zero-risk nodes for placement.  The paper
    only redefines *which* nodes are candidates; the default saturates
    best fit by pre-acceptance load, and ``"worst_fit"`` and
    ``"index"`` are ablations (the ``ablations`` section of
    :mod:`repro.experiments.record`).
    """

    name = "librarisk"

    def __init__(self, node_order: str = "best_fit", suitability: str = "sigma") -> None:
        super().__init__()
        if node_order not in _NODE_ORDERS:
            raise ValueError(f"node_order must be one of {_NODE_ORDERS}, got {node_order!r}")
        if suitability not in _SUITABILITIES:
            raise ValueError(
                f"suitability must be one of {_SUITABILITIES}, got {suitability!r}"
            )
        self.node_order = node_order
        self.suitability = suitability

    # -- Algorithm 1 -----------------------------------------------------------
    def assess_node(self, node: TimeSharedNode, job: Job, now: float) -> RiskAssessment:
        """Risk of deadline delay on ``node`` if ``job`` were placed there."""
        assert self.cluster is not None
        est_time = self.cluster.est_time_on(node, job.estimated_runtime)
        predicted = node.predicted_delays(now, extra=[(job, est_time)])
        pairs = [(delay, j.remaining_deadline(now)) for j, delay in predicted]
        return assess_delays(pairs)

    def on_job_submitted(self, job: Job, now: float) -> None:
        """Algorithm 1 in one fused pass per node, equal decision for
        decision and bit for bit to the plain scan (sync every online
        node, project every occupied one) that
        ``tests/test_scheduling/reference_scans.py`` keeps as the
        witness.  Every occupied node is synced first, at the instants
        the plain scan syncs, so the ledgers carry the same history.

        Exact shortcuts, in test order per node:

        * **poisoned** — a resident past its absolute deadline keeps
          every Eq. 4 value infinite, so σ_j = ∞ until the task set
          changes; the verdict comes from
          :meth:`~repro.cluster.node.TimeSharedNode.min_resident_deadline`
          (cached per node generation) without reading the ledgers;
        * **infeasible job** — a candidate whose own deadline already
          passed has an infinite Eq. 4 value on every occupied node,
          so only empty nodes (σ of one value) can admit it;
        * **refutation** —
          :meth:`~repro.cluster.node.TimeSharedNode.refutes_zero_risk`
          projects the node on its estimates and proves σ_j > 0 by a
          robust gap between two Eq. 4 values, writing nothing;
        * **healthy fit** — all shares defined, each ≤ 1 and Σ ≤ 1 + ε:
          the projection would predict zero delay for everyone, making
          every deadline-delay exactly ``(0 + r) / r = 1.0``, σ = 0 —
          suitable with no projection and no assessment object.  The
          same loop accumulates the resident-only Eq. 2 sum with
          ``total_admission_share``'s skip rule and summation order, so
          best-fit ordering can reuse it instead of re-walking the node;
        * **projection** — whatever is left gets :meth:`assess_node`.
        """
        cluster = self.cluster
        assert cluster is not None and self.rms is not None
        sigma_mode = self.suitability == "sigma"
        verify = self.verify_cert
        zero_risk: list[TimeSharedNode] = []
        loads: dict[int, float] = {}
        online = 0
        n_poisoned = n_fast_fit = n_empty = n_projected = 0
        n_refuted = n_infeasible = 0
        deadline_new = job.absolute_deadline
        rem_new = job.remaining_deadline(now)
        infeasible = rem_new <= 0.0
        # est_time_on(node, est) = (est * reference_rating) / rating —
        # hoist the numerator; the division stays per node.
        est_work_new = job.estimated_runtime * cluster.reference_rating

        for node in cluster.nodes:
            if not node.online:
                continue
            online += 1
            tasks = node.tasks
            if not tasks:
                if sigma_mode:
                    # Empty-node gamble: one deadline-delay value, σ = 0.
                    n_empty += 1
                    zero_risk.append(node)
                    loads[node.node_id] = 0.0
                    continue
            else:
                # Advance the ledgers exactly as the plain scan does —
                # identical sync instants keep the busy-time
                # accumulation bit-identical.
                node.sync(now)
                if node._min_deadline_gen != node.generation:
                    node.min_resident_deadline()  # rebuild the cache
                if now >= node._min_deadline:
                    # The poison verdict needs no ledgers, only the
                    # deadlines — valid until the task set changes.
                    n_poisoned += 1
                    continue
                if infeasible:
                    # The candidate's own Eq. 4 value is infinite on
                    # any occupied node (its remaining deadline is
                    # non-positive), so the projection could only
                    # return unsuitable — in either suitability mode.
                    n_infeasible += 1
                    continue
                if node.refutes_zero_risk(now, est_work_new / node.rating, deadline_new):
                    n_refuted += 1
                    if verify:
                        self._assert_refuted(node, job, now)
                    continue

            rating = node.rating
            est_new = est_work_new / rating
            # Fused predicted_delays fast check over residents-then-new,
            # gathering the resident-only admission sum on the side.
            healthy = True
            total = 0.0
            resident_load = 0.0
            work_threshold = WORK_EPSILON / rating
            for task in tasks.values():
                est = task.remaining_est_work / rating
                rem = task.deadline - now
                if est <= SHARE_EPSILON or rem <= 0.0:
                    healthy = False
                    break
                share = est / rem
                if share > 1.0:
                    healthy = False
                    break
                total += share
                if est > work_threshold:
                    # total_admission_share's zero-mode skip rule; same
                    # values in the same order as its own loop.
                    resident_load += share
            if healthy and est_new > SHARE_EPSILON and rem_new > 0.0:
                share_new = est_new / rem_new
                if share_new <= 1.0:
                    total += share_new
                    if total <= 1.0 + SHARE_EPSILON:
                        if tasks:
                            n_fast_fit += 1
                        else:
                            n_empty += 1
                        zero_risk.append(node)
                        loads[node.node_id] = resident_load
                        continue
            n_projected += 1
            assessment = self.assess_node(node, job, now)
            if assessment.zero_risk if sigma_mode else assessment.strictly_safe:
                zero_risk.append(node)

        self._bump_cache_stats(
            online_scans=online,
            poison_skips=n_poisoned,
            fast_fit_hits=n_fast_fit,
            empty_shortcuts=n_empty,
            projections_run=n_projected,
            infeasible_skips=n_infeasible,
            sigma_cert_hits=n_refuted,
        )

        if len(zero_risk) < job.numproc:
            self._reject_unsuitable(job, zero_risk, online, sigma_mode)
            return

        chosen = self._order(zero_risk, loads, now)[: job.numproc]
        self._allocate(job, chosen, now)

    def _assert_refuted(self, node: TimeSharedNode, job: Job, now: float) -> None:
        """``REPRO_VERIFY_CERT``: prove a fired refutation against the
        exact projection (debug/test only; a pure read)."""
        if self.assess_node(node, job, now).zero_risk:
            raise AssertionError(
                f"σ>0 refutation contradicted by the exact projection on node "
                f"{node.node_id} for job {job.job_id} at t={now:.6g}"
            )

    def _reject_unsuitable(
        self,
        job: Job,
        zero_risk: list[TimeSharedNode],
        online: int,
        sigma_mode: bool,
    ) -> None:
        unsuitable = online - len(zero_risk)
        criterion = "σ_j > 0" if sigma_mode else "predicted delay"
        self._reject(
            job,
            f"only {len(zero_risk)} of {job.numproc} required nodes are "
            f"zero-risk ({criterion} on {unsuitable}/{online} online nodes)",
            suitable=len(zero_risk),
            required=job.numproc,
            online=online,
            suitability=self.suitability,
        )

    def _order(
        self,
        nodes: list[TimeSharedNode],
        loads: dict[int, float],
        now: float,
    ) -> list[TimeSharedNode]:
        """Order zero-risk ``nodes`` for placement by ``node_order``.

        The key is each node's *pre*-acceptance Eq. 2 load
        (``total_admission_share(now)``, residents only), where Libra
        ranks by the post-acceptance total; see ``docs/ALGORITHMS.md``.
        ``loads`` holds the sums the scan already built; only nodes that
        went through the projection are missing and get the walk here.
        """
        if self.node_order == "index":
            return sorted(nodes, key=lambda n: n.node_id)
        reused = 0
        for n in nodes:
            if n.node_id not in loads:
                loads[n.node_id] = n.total_admission_share(now)
            else:
                reused += 1
        self._bump_cache_stats(
            order_loads_reused=reused, order_loads_computed=len(nodes) - reused
        )
        reverse = self.node_order == "best_fit"
        return sorted(
            nodes,
            key=lambda n: (-loads[n.node_id] if reverse else loads[n.node_id], n.node_id),
        )
