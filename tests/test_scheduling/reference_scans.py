"""The reference admission scans: the witnesses the parity suites compare against.

Each time-shared policy in ``repro.scheduling`` has one admission scan,
a fused pass that claims to be *exact memoization* of the plain scan
below it: the same decisions, the same sync instants and the same
floats, bit for bit.  The plain scans live here, verbatim, as
subclasses that keep their parent's ``name``.  The ``reference_scans``
fixture (``conftest.py``) swaps them into the policy registry, so
``run_scenario``, ``run_with_failures``, ``engine_for_scenario`` and
``checkpoint.restore`` build the witness wherever they would build the
production policy, and exports, WAL headers and checkpoints come out
byte-identical when the claim holds.

Run the parity suites with::

    PYTHONPATH=src python -m pytest tests/test_scheduling/test_cache_parity.py \\
        tests/test_scheduling/test_admission_cache.py tests/test_scheduling/test_refutation.py
"""

from __future__ import annotations

from repro.cluster.job import Job
from repro.cluster.node import TimeSharedNode
from repro.scheduling.libra import CAPACITY_EPSILON, LibraPolicy
from repro.scheduling.librarisk import LibraRiskPolicy


class ReferenceLibraPolicy(LibraPolicy):
    """Libra on the plain scan: ``total_admission_share`` on every node."""

    def on_job_submitted(self, job: Job, now: float) -> None:
        assert self.cluster is not None and self.rms is not None
        suitable: list[tuple[float, TimeSharedNode]] = []
        for node in self.cluster:
            assert isinstance(node, TimeSharedNode)
            if not node.online:
                continue
            node.sync(now)  # bring work ledgers to `now` before reading shares
            est_time = self.cluster.est_time_on(node, job.estimated_runtime)
            total = node.total_admission_share(
                now, extra=[(est_time, job.remaining_deadline(now))]
            )
            if total <= 1.0 + CAPACITY_EPSILON:
                suitable.append((total, node))

        online = sum(1 for n in self.cluster if n.online)
        self._finish(job, suitable, online, now)


class ReferenceLibraRiskPolicy(LibraRiskPolicy):
    """LibraRisk on the plain scan: the exact projection on every
    occupied node, and placement loads re-walked per zero-risk node."""

    def on_job_submitted(self, job: Job, now: float) -> None:
        assert self.cluster is not None and self.rms is not None
        zero_risk: list[TimeSharedNode] = []
        online = 0
        sigma_mode = self.suitability == "sigma"
        for node in self.cluster:
            assert isinstance(node, TimeSharedNode)
            if not node.online:
                continue
            online += 1
            node.sync(now)
            if sigma_mode and not node.tasks:
                # Exact shortcut: the new job alone yields a single
                # deadline-delay value, so σ = 0 by definition — the
                # empty-node gamble needs no projection.
                zero_risk.append(node)
                continue
            assessment = self.assess_node(node, job, now)
            suitable = assessment.zero_risk if sigma_mode else assessment.strictly_safe
            if suitable:
                zero_risk.append(node)

        if len(zero_risk) < job.numproc:
            self._reject_unsuitable(job, zero_risk, online, sigma_mode)
            return

        chosen = self._reference_order(zero_risk, now)[: job.numproc]
        self._allocate(job, chosen, now)

    def _reference_order(self, nodes: list[TimeSharedNode], now: float) -> list[TimeSharedNode]:
        if self.node_order == "index":
            return sorted(nodes, key=lambda n: n.node_id)
        loads = {n.node_id: n.total_admission_share(now) for n in nodes}
        reverse = self.node_order == "best_fit"
        return sorted(
            nodes,
            key=lambda n: (-loads[n.node_id] if reverse else loads[n.node_id], n.node_id),
        )


#: Every witness, keyed as the registry keys its production policy.
WITNESSES = {cls.name: cls for cls in (ReferenceLibraPolicy, ReferenceLibraRiskPolicy)}
