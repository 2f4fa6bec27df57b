"""The online admission-control engine.

:class:`AdmissionEngine` wraps one policy + cluster + kernel behind an
*incremental* interface — :meth:`~AdmissionEngine.submit` one job at a
time, :meth:`~AdmissionEngine.advance` the clock, and
:meth:`~AdmissionEngine.drain` the remaining work — instead of the
closed batch loop of ``ResourceManagementSystem.submit_all``.  Jobs
arrive in submit-time order (the open-arrival model of the paper's §3
RMS front-end) and every ``submit`` returns a :class:`Decision`
immediately.

Determinism contract
--------------------
Each ``submit`` schedules the same arrival event ``submit_all`` would
and then runs the kernel up to the job's submit time.  Because events
are ordered by ``(time, priority, seq)`` and completions outrank
arrivals at the same instant, the interleaved schedule executes the
**identical event sequence** a batch run of the same workload does —
which is what makes engine replays byte-compatible with batch metric
exports (see ``tests/test_service/test_replay.py``).
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Optional, Union, overload

from repro.analysis.sanitizer import decision_span
from repro.cluster.cluster import Cluster
from repro.cluster.job import CREATED, QUEUED, REJECTED, Job, JobState
from repro.cluster.ledger import OUTCOME_CODES, TRACED
from repro.cluster.rms import ResourceManagementSystem
from repro.cluster.share import ShareParams
from repro.metrics.summary import ScenarioMetrics, compute_metrics
from repro.obs.log import get_logger
from repro.obs.tracing import build_trace, mint_trace_id, seed_from_config
from repro.obs.windows import WindowAggregator
from repro.scheduling.registry import make_policy, policy_discipline
from repro.service.clock import VirtualClock
from repro.sim.kernel import Simulator

if TYPE_CHECKING:
    from repro.sim.rng import RngStreams

log = get_logger("service.engine")
_SPAN = decision_span()


class EngineError(RuntimeError):
    """Raised for engine misuse (bad job state, time moving backwards)."""


class OutOfOrderSubmit(EngineError):
    """A job arrived with a submit time before the engine's clock.

    Open arrivals must be monotone: the engine has already simulated up
    to its clock, so an earlier arrival cannot be honoured (admitting it
    retroactively would corrupt the event heap's causality).
    """


class DuplicateJob(EngineError):
    """A job arrived whose id is already known to the engine.

    Job ids are the protocol's handle for queries and checkpoints, so a
    second job under the same id is refused before it can reach the
    policy (where a colliding arrival would corrupt node task tables).
    """


@dataclass(frozen=True)
class EngineConfig:
    """Static configuration of one engine: policy × cluster geometry.

    A deliberately smaller sibling of
    :class:`~repro.experiments.config.ScenarioConfig`: the engine hosts
    no workload model — jobs come from outside — so only the knobs that
    shape the serving state live here.
    """

    policy: str = "librarisk"
    policy_kwargs: dict[str, Any] = field(default_factory=dict)
    num_nodes: int = 128
    rating: float = 168.0
    overrun_floor_share: float = 0.05
    redistribute_spare: bool = False
    start_time: float = 0.0
    shard_id: int = 0
    shard_count: int = 1

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if not 0 < self.rating < math.inf:
            raise ValueError("rating must be > 0")
        if self.shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if not 0 <= self.shard_id < self.shard_count:
            raise ValueError("shard_id must be in [0, shard_count)")

    def share_params(self) -> ShareParams:
        return ShareParams(
            overrun_floor_share=self.overrun_floor_share,
            redistribute_spare=self.redistribute_spare,
        )

    @classmethod
    def from_scenario(cls, scenario: Any) -> "EngineConfig":
        """Project a ``ScenarioConfig`` onto the engine's knobs."""
        return cls(
            policy=scenario.policy,
            policy_kwargs=dict(scenario.policy_kwargs),
            num_nodes=scenario.num_nodes,
            rating=scenario.rating,
            overrun_floor_share=scenario.overrun_floor_share,
            redistribute_spare=scenario.redistribute_spare,
        )

    def as_dict(self) -> dict[str, Any]:
        """JSON-able form (checkpoint header).

        The shard identity is omitted while at the unsharded defaults so
        that configs written before sharding existed hash to the same
        trace seed and still match WAL/checkpoint headers byte-for-byte.
        A shard of a partitioned cluster always carries both fields,
        which is what gives each shard a distinct trace-id seed.
        """
        data = dataclasses.asdict(self)
        if self.shard_count == 1 and self.shard_id == 0:
            del data["shard_id"]
            del data["shard_count"]
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EngineConfig":
        return cls(**data)


@dataclass(slots=True)
class Decision:
    """The engine's immediate answer to one submitted job, and its record.

    ``outcome`` is the job's admission-time disposition:

    * ``"accepted"`` — running (Libra family starts accepted jobs at
      their allocated shares immediately);
    * ``"queued"`` — admitted to a wait queue (EDF defers its real
      admission test to dispatch time, so a queued job may still be
      rejected later; :meth:`AdmissionEngine.query` shows the final
      state);
    * ``"rejected"`` — refused at admission, with the policy's reason.

    The engine keeps none: each is read from the RMS ledger's row when
    asked for.  The fields after ``reason`` take no part in equality,
    ``repr`` or :meth:`as_dict`.  Slotted, not frozen: a frozen
    dataclass pays ``object.__setattr__`` per field.  Nothing hashes a
    decision (``hash()`` raises).
    """

    job_id: int
    outcome: str
    t: float
    policy: str
    reason: str = ""
    seq: int = field(default=0, compare=False, repr=False)  # 0: no trace id
    wal_lsn: int = field(default=0, compare=False, repr=False)  # 0: not logged
    #: The trace id, only where it differs from the one ``seq`` derives.
    pin: Optional[str] = field(default=None, compare=False, repr=False)

    @property
    def accepted(self) -> bool:
        """True unless the job was rejected outright at admission."""
        return self.outcome != "rejected"

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "job": self.job_id,
            "outcome": self.outcome,
            "t": self.t,
            "policy": self.policy,
        }
        if self.reason:
            out["reason"] = self.reason
        return out


class DecisionLog(Sequence[Decision]):
    """Every decision of one engine, in submit order, read lazily from
    its RMS ledger (nothing is copied; a decision is built per read)."""

    def __init__(self, engine: "AdmissionEngine") -> None:
        self._engine = engine

    def __len__(self) -> int:
        return self._engine._decided

    def __iter__(self) -> Iterator[Decision]:
        as_decision = self._engine._as_decision
        for row, job_id, outcome, traced, lsn, t, reason in (
            self._engine.rms.ledger.decisions()
        ):
            yield as_decision(row, job_id, outcome, traced, lsn, t, reason)

    @overload
    def __getitem__(self, index: int) -> Decision: ...

    @overload
    def __getitem__(self, index: slice) -> list[Decision]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[Decision, list[Decision]]:
        return list(self)[index]


class AdmissionEngine:
    """A long-running, incrementally-driven admission-control service.

    Parameters
    ----------
    config:
        Cluster geometry and policy selection.
    clock:
        A :class:`~repro.service.clock.VirtualClock` (default) or
        :class:`~repro.service.clock.WallClock`.  Live engines call
        :meth:`poll` (the server does this per request) so completions
        keep pace with real time.
    obs:
        Optional :class:`~repro.obs.session.ObsSession`; when given it
        is attached to the kernel/RMS/policy exactly as the batch
        runner attaches one, so decision/transition records and the
        metrics registry behave identically.
    streams:
        Optional named RNG streams owned by this engine (live synthetic
        workloads); checkpointed and restored with the rest of the
        state so a resumed engine continues the same random sequences.
    telemetry:
        When false, jobs get no trace id and there is no windowed
        telemetry; decisions and metrics are identical either way.  It is
        the arm ``scripts/obs_smoke.py``'s overhead stage and
        ``bench/run.py``'s ``obs.telemetry_overhead_pct`` use to price
        the instrumentation.  Recovery paths always run with telemetry on
        so recovered trace state matches the uncrashed run.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        clock: Optional[Any] = None,
        obs: Optional[Any] = None,
        streams: Optional[RngStreams] = None,
        telemetry: bool = True,
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        self.clock = clock if clock is not None else VirtualClock(self.config.start_time)
        self.sim = Simulator(start_time=self.config.start_time)
        self.cluster = Cluster.homogeneous(
            self.sim,
            self.config.num_nodes,
            rating=self.config.rating,
            discipline=policy_discipline(self.config.policy),
            share_params=self.config.share_params(),
        )
        self.policy = make_policy(self.config.policy, **self.config.policy_kwargs)
        self.rms = ResourceManagementSystem(self.sim, self.cluster, self.policy)
        self.obs = obs
        self.streams = streams
        #: Decisions recorded in the RMS ledger; the k-th decided row's
        #: submit counter is ``_seq_base + row + 1``.
        self._decided = 0
        self._seq_base = 0
        #: job id -> trace id, only where it differs from the derived one.
        self._pins: dict[int, str] = {}
        #: LSN of the last write-ahead-log record applied to this engine
        #: (0 = no WAL).  Maintained by the service layer; checkpointed so
        #: recovery can skip the already-materialised log prefix.
        self.wal_lsn: int = 0
        self.telemetry = bool(telemetry)
        #: Seed of the deterministic trace-id stream: a pure function of
        #: the config, so differently configured engines never collide
        #: and identically configured runs mint identical ids.
        self.trace_seed: int = seed_from_config(self.config.as_dict())
        #: Logical submit counter, the deterministic stand-in for a
        #: tracer's clock tick.  Only submits that reach the kernel advance
        #: it, so failed ones (which fail again on replay) never skew it.
        self._submit_seq: int = 0
        #: Windowed constant-memory telemetry (None when telemetry off).
        self.window: Optional[WindowAggregator] = (
            WindowAggregator() if telemetry else None
        )
        if obs is not None:
            obs.attach(self.sim, self.rms, self.policy)

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """The engine's simulated clock (seconds)."""
        return self.sim.now

    def poll(self) -> int:
        """Chase a live clock: advance the kernel to ``clock.now()``.

        No-op under a virtual clock.  Returns events fired.
        """
        if not getattr(self.clock, "live", False):
            return 0
        target = self.clock.now()
        if target <= self.sim.now:
            return 0
        return self.advance(target)

    # -- the online API ----------------------------------------------------
    def submit(
        self,
        job: Job,
        clamp_past: bool = False,
        trace: Optional[str] = None,
        wal_lsn: int = 0,
    ) -> Decision:
        """Admit one arriving job; returns the policy's decision.

        The kernel first executes every event up to the job's submit
        time (completions free capacity the admission test must see),
        then the arrival fires and the policy decides.

        ``clamp_past`` moves a stale submit time forward to the current
        clock instead of raising — live servers use it because network
        delay routinely lands requests a few (simulated) seconds late.

        ``trace`` gives the trace id for this submission (recovery
        passes the id the WAL frame carries).  A job's trace id is
        otherwise ``mint_trace_id(trace_seed, submit_seq, job_id)``,
        derived when it is read, so a given id is kept only where it
        differs from that; with telemetry off and no ``trace`` the job
        has none.

        ``wal_lsn`` is the LSN of the write-ahead-log record that carries
        this submit (0: not logged); ``repro trace`` shows it.

        Raises
        ------
        OutOfOrderSubmit
            If ``job.submit_time`` is before the engine clock and
            ``clamp_past`` is false.
        DuplicateJob
            If a job with the same id was already submitted.
        EngineError
            If the job was already submitted to some RMS.
        """
        if job.state is not CREATED:
            raise EngineError(
                f"job {job.job_id} already {job.state.value}; cannot submit"
            )
        ledger = self.rms.ledger
        job_id = job.job_id
        if job_id in ledger.index:
            raise DuplicateJob(
                f"a job with id {job.job_id} was already submitted; "
                f"ids are the service's job handle and must be unique"
            )
        if job.submit_time < self.sim.now:
            if clamp_past:
                job.submit_time = self.sim.now
            else:
                raise OutOfOrderSubmit(
                    f"job {job.job_id} arrives out of order: submit_time "
                    f"{job.submit_time:.6g}s is before the engine clock at "
                    f"{self.sim.now:.6g}s"
                )
        self.rms.submit(job)
        seq = self._submit_seq = self._submit_seq + 1
        # Decision-path span: with REPRO_SANITIZE=1 any wall-clock /
        # entropy read fired by the kernel loop below raises.
        t = job.submit_time
        with _SPAN:
            self.sim.run(t)
        self.clock.advance_to(t)  # the kernel stops at exactly ``t``
        state = job.state
        if state is REJECTED:
            outcome, reason = "rejected", job.reject_reason or ""
        else:
            outcome, reason = "queued" if state is QUEUED else "accepted", ""
        # The ledger derives the trace id from the row; one that differs
        # (a client's, or a counter that skipped) is kept as a pin.
        row = ledger.index[job_id]
        seq_of_row = self._seq_base + row + 1
        code, pin = OUTCOME_CODES[outcome] | TRACED, None
        if trace is not None:
            if seq_of_row < 1 or trace != mint_trace_id(
                self.trace_seed, seq_of_row, job_id
            ):
                pin = self._pins[job_id] = trace
        elif not self.telemetry:
            code, seq_of_row = code & ~TRACED, 0
        elif seq != seq_of_row:
            pin = self._pins[job_id] = mint_trace_id(self.trace_seed, seq, job_id)
        ledger.outcomes[row] = code
        if wal_lsn:
            ledger.log(row, wal_lsn)
        self._decided += 1
        policy = self.policy.name
        if self.window is not None:
            self.window.note_decision(t, policy, outcome, reason)
        return Decision(job_id, outcome, t, policy, reason, seq_of_row, wal_lsn, pin)

    def advance(self, to_time: float) -> int:
        """Run the kernel up to ``to_time``; returns events fired.

        The clock is left at exactly ``to_time`` even when the last
        event fired earlier, matching ``Simulator.run(until=...)``.
        """
        if to_time < self.sim.now:
            raise EngineError(
                f"cannot advance to t={to_time:.6g}: clock is at {self.sim.now:.6g}"
            )
        before = self.sim.events_fired
        with _SPAN:
            self.sim.run(until=to_time)
        self.clock.advance_to(self.sim.now)
        return self.sim.events_fired - before

    def drain(self) -> float:
        """Run every remaining event (open jobs finish); returns the horizon."""
        with _SPAN:
            self.sim.run()
        self.clock.advance_to(self.sim.now)
        return self.sim.now

    # -- interrogation ------------------------------------------------------
    @property
    def decisions(self) -> DecisionLog:
        """Every decision, in submit order (a lazy view of the ledger)."""
        return DecisionLog(self)

    def query(self, job_id: int) -> Optional[Job]:
        """The submitted job with ``job_id``, or ``None``.

        A finished job comes back as a fresh :class:`Job` read from its
        ledger row, equal in every field to the one that finished.
        """
        row = self.rms.ledger.index.get(job_id)
        return None if row is None else self.rms.ledger.job(row)

    def trace_id(self, job_id: int) -> Optional[str]:
        """The trace id of ``job_id``'s submission, or ``None`` if untraced."""
        decision = self.decision_for(job_id)
        if decision is None or decision.pin is not None or not decision.seq:
            return None if decision is None else decision.pin
        return mint_trace_id(self.trace_seed, decision.seq, job_id)

    def peek_trace_id(self, job_id: int) -> str:
        """The trace id the *next* successful submit of ``job_id`` gets.

        The service layer calls this before appending the submit frame
        to the WAL so the logged record carries the same id the engine
        derives — which is what makes recovered traces byte-identical
        to the uncrashed run.
        """
        return mint_trace_id(self.trace_seed, self._submit_seq + 1, job_id)

    def trace(self, job_id: int) -> dict[str, Any]:
        """The reconstructed lifecycle span tree for ``job_id``.

        Raises ``KeyError`` when the engine never decided the job.
        """
        return build_trace(self, job_id)

    def set_window(self, window: float, buckets: Optional[int] = None) -> None:
        """Resize the telemetry window, replaying recorded decisions.

        Replay keeps a resized window consistent with a restored
        engine: the decision log carries ``(t, policy, outcome,
        reason)`` in submit order, exactly the note stream the live
        window saw.
        """
        kwargs: dict[str, Any] = {}
        if buckets is not None:
            kwargs["buckets"] = buckets
        aggregator = WindowAggregator(window, **kwargs)
        aggregator.replay(self.decisions)
        self.window = aggregator

    def decision_for(self, job_id: int) -> Optional[Decision]:
        """The admission-time decision recorded for ``job_id``, if any.

        This is what makes client retries idempotent: resubmitting a
        job id the engine already decided returns the *original*
        decision rather than re-running (and possibly re-deciding) the
        admission test.
        """
        ledger = self.rms.ledger
        row = ledger.index.get(job_id)
        if row is None:
            return None
        decided = ledger.decision(row)
        return None if decided is None else self._as_decision(row, job_id, *decided)

    def _as_decision(
        self, row: int, job_id: int, outcome: str, traced: bool, wal_lsn: int,
        t: float, reason: str,
    ) -> Decision:
        """The decision the ledger recorded for ``row``, as ``submit`` returned it."""
        seq = self._seq_base + row + 1 if traced else 0
        return Decision(
            job_id, outcome, t, self.policy.name, reason, seq, wal_lsn,
            self._pins.get(job_id),
        )

    def metrics(self) -> ScenarioMetrics:
        """Paper metrics over everything submitted so far."""
        return compute_metrics(self.rms.ledger, self.cluster, self.sim.now)

    def stats(self) -> dict[str, Any]:
        """Live counters for the service ``stats`` endpoint (JSON-able)."""
        rms = self.rms
        counts = rms.ledger.state_counts()
        out: dict[str, Any] = {
            "t": self.sim.now,
            "policy": self.policy.name,
            "nodes": len(self.cluster),
            "submitted": rms.ledger.rows,
            "accepted": rms.ledger.accepted_count,
            "rejected": counts[JobState.REJECTED.code],
            "completed": counts[JobState.COMPLETED.code],
            "failed": counts[JobState.FAILED.code],
            "running": self.policy.running_jobs,
            "queued": len(getattr(self.policy, "queue", ())),
            "events_fired": self.sim.events_fired,
            "pending_events": self.sim.pending,
            "events_tombstoned": self.sim.tombstones_dropped,
        }
        if self.policy.cache_stats:
            # Admission fast-path effectiveness (see docs/PERFORMANCE.md);
            # monotone counters, safe to diff between polls.
            out["cache"] = dict(sorted(self.policy.cache_stats.items()))
        ratio = rms.acceptance_ratio
        if ratio is not None:
            out["acceptance_ratio"] = ratio
        if self.window is not None:
            out["window"] = self.window.snapshot(self.sim.now)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AdmissionEngine policy={self.policy.name} t={self.sim.now:.6g} "
            f"submitted={self.rms.ledger.rows} running={self.policy.running_jobs}>"
        )


def engine_for_scenario(
    scenario: Any,
    obs: Optional[Any] = None,
    clock: Optional[Any] = None,
    telemetry: bool = True,
) -> AdmissionEngine:
    """An engine whose cluster/policy mirror a batch ``ScenarioConfig``."""
    return AdmissionEngine(
        EngineConfig.from_scenario(scenario), clock=clock, obs=obs,
        telemetry=telemetry,
    )


__all__ = [
    "AdmissionEngine",
    "Decision",
    "DecisionLog",
    "EngineConfig",
    "EngineError",
    "OutOfOrderSubmit",
    "engine_for_scenario",
]
