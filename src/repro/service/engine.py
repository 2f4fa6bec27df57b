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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.analysis.sanitizer import decision_span
from repro.cluster.cluster import Cluster
from repro.cluster.job import Job, JobState
from repro.cluster.rms import ResourceManagementSystem
from repro.cluster.share import ShareParams
from repro.metrics.summary import ScenarioMetrics, compute_metrics
from repro.obs.log import get_logger
from repro.obs.tracing import build_trace, mint_trace_id, seed_from_config
from repro.obs.windows import WindowAggregator
from repro.scheduling.registry import make_policy, policy_discipline
from repro.service.clock import VirtualClock, WallClock
from repro.sim.kernel import Simulator

if TYPE_CHECKING:
    from repro.sim.rng import RngStreams

log = get_logger("service.engine")


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
        if self.rating <= 0:
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
    """The engine's immediate answer to one submitted job.

    ``outcome`` is the job's admission-time disposition:

    * ``"accepted"`` — running (Libra family starts accepted jobs at
      their allocated shares immediately);
    * ``"queued"`` — admitted to a wait queue (EDF defers its real
      admission test to dispatch time, so a queued job may still be
      rejected later; :meth:`AdmissionEngine.query` shows the final
      state);
    * ``"rejected"`` — refused at admission, with the policy's reason.

    A slotted record, not a frozen one: ``submit`` builds one per job
    and a frozen dataclass pays ``object.__setattr__`` per field.
    Nothing mutates a decision once ``submit`` returns it, and nothing
    hashes one (equality compares fields; ``hash()`` raises).
    """

    job_id: int
    outcome: str
    t: float
    policy: str
    reason: str = ""

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
        When false, skips trace-id minting and windowed telemetry
        entirely; decisions and metrics are identical either way.  It is
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
        self.decisions: list[Decision] = []
        self._decision_index: dict[int, Decision] = {}
        #: Every submitted job by id: the duplicate check and ``query``.
        self._jobs_by_id: dict[int, Job] = {}
        #: LSN of the last write-ahead-log record applied to this engine
        #: (0 = no WAL).  Maintained by the service layer; checkpointed so
        #: recovery can skip the already-materialised log prefix.
        self.wal_lsn: int = 0
        self.telemetry = bool(telemetry)
        #: Seed of the deterministic trace-id stream: a pure function of
        #: the config, so differently configured engines never collide
        #: and identically configured runs mint identical ids.
        self.trace_seed: int = seed_from_config(self.config.as_dict())
        #: Logical submit counter — the deterministic stand-in for the
        #: wall-clock tick of conventional tracers.  Advances only on
        #: submits that reach the kernel, so failed submits (which fail
        #: identically on replay/recovery) never skew the stream.
        self._submit_seq: int = 0
        #: job id -> minted trace id, for every traced submission.
        self.trace_ids: dict[int, str] = {}
        #: job id -> WAL LSN of its submit frame (service layer fills
        #: this in; recovery refills it from the log itself).
        self.wal_lsns: dict[int, int] = {}
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
    ) -> Decision:
        """Admit one arriving job; returns the policy's decision.

        The kernel first executes every event up to the job's submit
        time (completions free capacity the admission test must see),
        then the arrival fires and the policy decides.

        ``clamp_past`` moves a stale submit time forward to the current
        clock instead of raising — live servers use it because network
        delay routinely lands requests a few (simulated) seconds late.

        ``trace`` pins the trace id for this submission (the service
        layer passes the id it already logged to the WAL, so recovery
        reuses the original id instead of minting a new one).  When
        omitted, the engine mints ``mint_trace_id(trace_seed,
        submit_seq, job_id)`` — deterministic, so a replayed workload
        regenerates identical ids.

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
        if job.state is not JobState.CREATED:
            raise EngineError(
                f"job {job.job_id} already {job.state.value}; cannot submit"
            )
        if job.job_id in self._jobs_by_id:
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
        self._jobs_by_id[job.job_id] = job
        self._submit_seq += 1
        trace_id: Optional[str] = trace
        if trace_id is None and self.telemetry:
            trace_id = mint_trace_id(self.trace_seed, self._submit_seq, job.job_id)
        if trace_id is not None:
            self.trace_ids[job.job_id] = trace_id
        # Decision-path span: with REPRO_SANITIZE=1 any wall-clock /
        # entropy read fired by the kernel loop below raises.
        with decision_span():
            self.sim.run(until=job.submit_time)
        self.clock.advance_to(self.sim.now)
        decision = self._decision_of(job)
        self.decisions.append(decision)
        self._decision_index[decision.job_id] = decision
        if self.window is not None:
            self.window.note_decision(
                decision.t, decision.policy, decision.outcome, decision.reason
            )
        return decision

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
        with decision_span():
            self.sim.run(until=to_time)
        self.clock.advance_to(self.sim.now)
        return self.sim.events_fired - before

    def drain(self) -> float:
        """Run every remaining event (open jobs finish); returns the horizon."""
        with decision_span():
            self.sim.run()
        self.clock.advance_to(self.sim.now)
        return self.sim.now

    # -- interrogation ------------------------------------------------------
    def query(self, job_id: int) -> Optional[Job]:
        """The submitted job with ``job_id``, or ``None``."""
        return self._jobs_by_id.get(job_id)

    def peek_trace_id(self, job_id: int) -> str:
        """The trace id the *next* successful submit of ``job_id`` gets.

        The service layer calls this before appending the submit frame
        to the WAL so the logged record carries the same id the engine
        is about to mint — which is what makes recovered traces
        byte-identical to the uncrashed run.
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
        return self._decision_index.get(job_id)

    def metrics(self) -> ScenarioMetrics:
        """Paper metrics over everything submitted so far."""
        return compute_metrics(self.rms.jobs, self.cluster, self.sim.now)

    def stats(self) -> dict[str, Any]:
        """Live counters for the service ``stats`` endpoint (JSON-able)."""
        rms = self.rms
        out: dict[str, Any] = {
            "t": self.sim.now,
            "policy": self.policy.name,
            "nodes": len(self.cluster),
            "submitted": len(rms.jobs),
            "accepted": len(rms.accepted),
            "rejected": len(rms.rejected),
            "completed": len(rms.completed),
            "failed": len(rms.failed),
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

    # -- internals ----------------------------------------------------------
    def _decision_of(self, job: Job) -> Decision:
        if job.state is JobState.REJECTED:
            outcome, reason = "rejected", job.reject_reason or ""
        elif job.state is JobState.QUEUED:
            outcome, reason = "queued", ""
        else:
            outcome, reason = "accepted", ""
        return Decision(
            job_id=job.job_id,
            outcome=outcome,
            t=job.submit_time,
            policy=self.policy.name,
            reason=reason,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AdmissionEngine policy={self.policy.name} t={self.sim.now:.6g} "
            f"submitted={len(self.rms.jobs)} running={self.policy.running_jobs}>"
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
    "EngineConfig",
    "EngineError",
    "OutOfOrderSubmit",
    "VirtualClock",
    "WallClock",
    "engine_for_scenario",
]
