"""``TimeSharedNode.refutes_zero_risk``: a one-sided proof of σ_j > 0.

The LibraRisk fast scan syncs a node and then refuses it on the
refuter's word alone — no exact projection — so these properties are
what stands between it and a wrong admission decision:

* **sound** — ``True`` implies the exact projection
  (``predicted_delays`` + ``assess_delays``) gives σ > 0;
* **blind where σ is** — the equal-spread case (identical simultaneous
  jobs, σ = 0 by construction) is never refuted and is still admitted;
* **stable** — a ``True`` stays true of every node within 1e-9
  relative of the one it was computed on;
* **pure** — the call writes nothing;
* **on the path** — the scan that uses it equals ``_submit_reference``
  in the modes where it must always fall through.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.job import Job
from repro.cluster.node import TimeSharedNode
from repro.cluster.rms import ResourceManagementSystem
from repro.cluster.share import ShareParams
from repro.scheduling.librarisk import LibraRiskPolicy
from repro.scheduling.risk import RiskAssessment, assess_delays
from repro.sim.kernel import Simulator
from tests.test_properties_engine import build_jobs, job_strategy

#: Seconds, a minute to a day; the integer grid invites exact ties.
_TIMES = st.one_of(
    st.floats(min_value=60.0, max_value=9e4, allow_nan=False),
    st.integers(min_value=60, max_value=5000).map(float),
)
_UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_KINDS = ("healthy", "healthy", "clamped", "overrun")


@st.composite
def scenarios(draw):
    """A resident set frozen mid-generation plus one candidate.

    Returns a dict of plain numbers so the same scenario can be built
    twice (once with jittered ledgers).
    """
    pool = draw(st.lists(_TIMES, min_size=1, max_size=3))
    rems = st.one_of(st.sampled_from(pool), _TIMES)
    residents = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        rem = draw(rems)
        kind = draw(st.sampled_from(_KINDS))
        if kind == "healthy":
            est = rem * draw(st.floats(min_value=0.01, max_value=0.95))
        elif kind == "clamped":  # estimate exceeds the deadline
            est = rem + draw(_TIMES)
        else:  # estimate exhausted, actual work left
            est = 0.0
        work = est * draw(st.floats(min_value=0.5, max_value=1.5)) + (
            draw(_TIMES) if kind == "overrun" else 0.0
        )
        residents.append((rem, est, work))
    rem_new = draw(rems)
    est_new = draw(st.one_of(_TIMES, _TIMES.map(lambda x: rem_new + x)))
    return {
        "rating": draw(st.sampled_from([1.0, 37.5, 168.0])),
        "t0": draw(st.sampled_from([0.0, 1000.0, 123456.789])),
        "residents": residents,
        "elapsed": draw(_UNIT),  # share of the way to the node's next event
        "syncs": draw(st.lists(_UNIT, max_size=6)),  # earlier scan instants
        "rem_new": rem_new,
        "est_new": est_new,
    }


def _build(spec, jitter=None):
    """Node with restored ledgers synced scan by scan to ``now``, candidate."""
    sim = Simulator()
    rating, t0 = spec["rating"], spec["t0"]
    node = TimeSharedNode(0, rating, sim)
    entries = []
    for i, (rem, est, work) in enumerate(spec["residents"]):
        factor = 1.0 + 1e-9 * jitter[i] if jitter else 1.0
        job = Job(
            runtime=max(work, 1.0), estimated_runtime=max(est, 1.0), numproc=1,
            deadline=rem, submit_time=t0, job_id=i + 1,
        )
        entries.append((job, work * rating * factor, est * rating * factor, t0))
    node.restore_tasks(entries, t0)
    horizon = node._next_completion_delay() or 100.0
    now = t0 + spec["elapsed"] * horizon
    for instant in sorted(t0 + c * (now - t0) for c in spec["syncs"]):
        node.sync(instant)
    node.sync(now)  # the scan's own instant
    candidate = Job(
        runtime=spec["est_new"], estimated_runtime=spec["est_new"], numproc=1,
        deadline=spec["rem_new"], submit_time=now, job_id=99,
    )
    return node, now, candidate, spec["est_new"]


def _exact(node: TimeSharedNode, now: float, candidate: Job, est_new: float) -> RiskAssessment:
    predicted = node.predicted_delays(now, extra=[(candidate, est_new)])
    return assess_delays([(d, j.remaining_deadline(now)) for j, d in predicted])


def _state(node: TimeSharedNode) -> tuple:
    return (
        node._last_sync, node.generation, node.busy_time,
        tuple(
            (t.remaining_work, t.remaining_est_work, t.rate)
            for t in node.tasks.values()
        ),
    )


class TestRefuter:
    def test_fires_on_an_over_committed_node_and_not_on_a_fit(self, sim):
        node = TimeSharedNode(0, 1.0, sim)
        resident = Job(runtime=60.0, estimated_runtime=60.0, numproc=1,
                       deadline=100.0, job_id=1)
        node.add_task(resident, work=60.0, est_work=60.0, now=0.0)
        assert node.refutes_zero_risk(0.0, 50.0, 80.0)  # 0.6 + 0.625 > 1
        assert not node.refutes_zero_risk(0.0, 30.0, 100.0)  # 0.6 + 0.3 fits

    @settings(max_examples=300, deadline=None)
    @given(scenarios())
    def test_true_implies_exact_sigma_positive(self, spec):
        node, now, candidate, est_new = _build(spec)
        if node.refutes_zero_risk(now, est_new, candidate.absolute_deadline):
            assert not _exact(node, now, candidate, est_new).zero_risk

    @settings(max_examples=200, deadline=None)
    @given(scenarios(), st.lists(st.floats(min_value=-1.0, max_value=1.0),
                                 min_size=5, max_size=5))
    def test_true_survives_ledger_jitter(self, spec, jitter):
        node, now, candidate, est_new = _build(spec)
        if node.refutes_zero_risk(now, est_new, candidate.absolute_deadline):
            near, now, candidate, est_new = _build(spec, jitter)
            assert not _exact(near, now, candidate, est_new).zero_risk

    @settings(max_examples=100, deadline=None)
    @given(scenarios())
    def test_call_writes_nothing(self, spec):
        node, now, candidate, est_new = _build(spec)
        before = _state(node)
        node.refutes_zero_risk(now, est_new, candidate.absolute_deadline)
        assert _state(node) == before

    def test_spare_redistribution_is_never_refuted(self, sim):
        node = TimeSharedNode(0, 1.0, sim, share_params=ShareParams(redistribute_spare=True))
        resident = Job(runtime=60.0, estimated_runtime=60.0, numproc=1,
                       deadline=100.0, job_id=1)
        node.add_task(resident, work=60.0, est_work=60.0, now=0.0)
        assert not node.refutes_zero_risk(0.0, 50.0, 80.0)


def _scan(jobs, fast: bool, num_nodes: int, until=None,
          suitability: str = "sigma", redistribute: bool = False):
    """Run ``jobs`` through a LibraRisk cluster on the chosen scan."""
    sim = Simulator()
    cluster = Cluster.homogeneous(
        sim, num_nodes, rating=1.0, discipline="time_shared",
        share_params=ShareParams(redistribute_spare=redistribute),
    )
    policy = LibraRiskPolicy(suitability=suitability)
    policy.fast_path = fast
    rms = ResourceManagementSystem(sim, cluster, policy)
    rms.submit_all(jobs)
    sim.run(until=until)
    return rms, cluster, policy


def _admit_twins(count: int, runtime: float, deadline: float, fast: bool):
    """Submit ``count`` identical jobs at one instant to a 1-node cluster."""
    twins = [
        Job(runtime=runtime, estimated_runtime=runtime, numproc=1,
            deadline=deadline, submit_time=5.0, job_id=i + 1)
        for i in range(count)
    ]
    _, cluster, policy = _scan(twins, fast, num_nodes=1, until=5.0)
    return cluster.node(0), policy


class TestEqualSpread:
    """Identical simultaneous jobs tie every Eq. 4 value: σ = 0 however
    over-committed the node is (the hole PR 8 found)."""

    def test_over_committed_twin_is_still_admitted(self):
        node, policy = _admit_twins(2, runtime=60.0, deadline=100.0, fast=True)
        assert len(node.tasks) == 2
        assert policy.cache_stats["projections_run"] == 1
        assert not node.refutes_zero_risk(5.0, 60.0, 105.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5),
        st.floats(min_value=10.0, max_value=5e4),
        st.floats(min_value=0.5, max_value=3.0),
    )
    def test_never_refuted(self, count, runtime, tightness):
        # Whether the float variance of three or more equal values comes
        # out exactly 0 is the exact projection's business; the refuter
        # must leave every such verdict to it.
        deadline = runtime * tightness
        node, policy = _admit_twins(count, runtime, deadline, fast=True)
        assert policy.cache_stats.get("sigma_cert_hits", 0) == 0
        assert not node.refutes_zero_risk(5.0, runtime, 5.0 + deadline)
        reference, _ = _admit_twins(count, runtime, deadline, fast=False)
        assert list(node.tasks) == list(reference.tasks)


def _decisions(specs, fast: bool, suitability: str, redistribute: bool) -> list[tuple]:
    rms, _, _ = _scan(build_jobs(specs), fast, num_nodes=3,
                      suitability=suitability, redistribute=redistribute)
    return [
        (j.job_id, j.state.value, repr(j.start_time), repr(j.finish_time))
        for j in rms.jobs
    ]


class TestScanParity:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(job_strategy, min_size=1, max_size=14),
        st.sampled_from([("no-delay", False), ("sigma", True), ("no-delay", True)]),
    )
    def test_fall_through_modes_equal_the_reference_scan(self, specs, mode):
        suitability, redistribute = mode
        assert _decisions(specs, True, suitability, redistribute) == _decisions(
            specs, False, suitability, redistribute
        )
