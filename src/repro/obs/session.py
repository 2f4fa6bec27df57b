"""One observed simulation run: wiring, recording, aggregation.

:class:`ObsSession` is the concrete implementation of every hook
protocol in :mod:`repro.obs.hooks`.  :meth:`ObsSession.attach` installs
it on a ``(sim, rms, policy)`` triple; from then on it

* appends a structured **record** (a plain JSON-able dict) for every
  admission decision, job lifecycle transition and runner phase span;
* aggregates **metrics** into its :class:`~repro.obs.metrics.MetricsRegistry`
  (decision counters, transition counters, slowdown/delay histograms);
* optionally drives a :class:`~repro.obs.profiling.Profiler` when
  constructed with ``profile=True``.

Records never contain wall-clock data unless profiling is on (the
single trailing ``profile`` record), so the JSON-lines export of a run
is byte-identical across repetitions with the same seed and scenario.

For multi-run commands (figures, sweeps) a :class:`RunSink` can be
installed as a context manager; :func:`repro.experiments.runner.run_scenario`
then creates a session per run automatically and streams each run's
records to the sink's JSON-lines file::

    with RunSink(path="figure1.jsonl") as sink:
        build_record(cfg, only=["1"])   # every scenario inside is observed
    print(sink.runs, "runs captured")
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import Profiler

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.job import Job
    from repro.cluster.rms import ResourceManagementSystem
    from repro.experiments.config import ScenarioConfig
    from repro.scheduling.base import SchedulingPolicy
    from repro.sim.events import Event
    from repro.sim.kernel import Simulator

#: Version stamp written into every run's meta record.
SCHEMA_VERSION = 1

#: Fixed bucket bounds for the paper-metric histograms (deterministic).
SLOWDOWN_BUCKETS = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0)
DELAY_BUCKETS = (1.0, 10.0, 60.0, 600.0, 3600.0, 21600.0, 86400.0)

log = get_logger("obs.session")


class ObsSession:
    """Observer for one simulation run.

    Parameters
    ----------
    scenario:
        Optional :class:`~repro.experiments.config.ScenarioConfig`; when
        given, a ``meta`` record describing the run opens the record
        stream.
    profile:
        Collect wall-clock profiling data (and append a ``profile``
        record at finalize time).  Off by default because profile
        output is inherently non-deterministic.
    registry:
        Share an existing :class:`MetricsRegistry` (e.g. to aggregate
        several runs); a fresh one is created when omitted.
    """

    def __init__(
        self,
        scenario: Optional["ScenarioConfig"] = None,
        profile: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.profiler: Optional[Profiler] = Profiler() if profile else None
        self.records: list[dict] = []
        self.scenario = scenario
        self.finalized = False
        self._sim: Optional["Simulator"] = None
        self._policy: Optional["SchedulingPolicy"] = None
        self._events_counter = self.registry.counter(
            "sim_events_total", "Kernel events fired"
        )
        if scenario is not None:
            self.records.append(
                {
                    "type": "meta",
                    "schema": SCHEMA_VERSION,
                    "scenario": scenario.label(),
                    "policy": scenario.policy,
                    "seed": scenario.seed,
                    "num_jobs": scenario.num_jobs,
                    "num_nodes": scenario.num_nodes,
                    "estimate_mode": scenario.estimate_mode,
                }
            )

    # -- wiring -------------------------------------------------------------
    def attach(
        self,
        sim: "Simulator",
        rms: Optional["ResourceManagementSystem"] = None,
        policy: Optional["SchedulingPolicy"] = None,
    ) -> "ObsSession":
        """Install this session's hooks; returns ``self`` for chaining.

        An existing kernel ``on_event`` callback is preserved by
        chaining (ours runs first).
        """
        self._sim = sim
        previous = sim.on_event
        if previous is None:
            sim.on_event = self._on_sim_event
        else:
            def chained(event: "Event") -> None:
                self._on_sim_event(event)
                previous(event)

            sim.on_event = chained
        if rms is not None:
            rms.observer = self
        if policy is not None:
            policy.observer = self
            self._policy = policy
            if self.profiler is not None:
                self.profiler.wrap_admission(policy)
        return self

    # -- kernel hook --------------------------------------------------------
    def _on_sim_event(self, event: "Event") -> None:
        self._events_counter.inc()
        if self.profiler is not None and self._sim is not None:
            self.profiler.sample_heap_depth(self._sim.pending)

    # -- PolicyObserver -----------------------------------------------------
    def on_admission_decision(
        self,
        policy_name: str,
        job: "Job",
        accepted: bool,
        reason: str,
        now: float,
        details: dict[str, Any],
    ) -> None:
        outcome = "accepted" if accepted else "rejected"
        self.registry.counter(
            "admission_decisions_total",
            "Admission decisions by policy and outcome",
            policy=policy_name,
            outcome=outcome,
        ).inc()
        record: dict[str, Any] = {
            "type": "decision",
            "t": now,
            "job": job.job_id,
            "policy": policy_name,
            "outcome": outcome,
        }
        if reason:
            record["reason"] = reason
        if details:
            record["details"] = details
        self.records.append(record)
        if log.isEnabledFor(10):  # DEBUG
            log.debug(
                "decision t=%.6g job=%d policy=%s %s%s",
                now, job.job_id, policy_name, outcome,
                f" ({reason})" if reason else "",
            )

    # -- LifecycleObserver --------------------------------------------------
    def on_job_transition(self, job: "Job", transition: str, now: float) -> None:
        self.registry.counter(
            "jobs_total", "Job lifecycle transitions", transition=transition
        ).inc()
        running = self.registry.gauge("jobs_running", "Jobs currently running")
        if transition == "accepted":
            running.inc()
            self.registry.gauge(
                "jobs_running_peak", "Peak concurrently running jobs"
            ).max(running.value)
        elif transition in ("completed", "failed"):
            running.dec()
        if transition == "completed":
            slowdown = job.slowdown
            if slowdown is not None:
                self.registry.histogram(
                    "job_slowdown", "Response time over runtime",
                    buckets=SLOWDOWN_BUCKETS,
                ).observe(slowdown)
            delay = job.delay
            if delay:
                self.registry.histogram(
                    "job_delay_seconds", "Eq. 3 delay of late jobs",
                    buckets=DELAY_BUCKETS,
                ).observe(delay)
        self.records.append(
            {"type": "transition", "t": now, "job": job.job_id, "to": transition}
        )

    # -- phase spans ----------------------------------------------------------
    class _Span:
        def __init__(self, session: "ObsSession", name: str) -> None:
            self._session = session
            self._name = name
            self._t0 = 0.0
            self._events0 = 0
            self._profile_phase = None

        def __enter__(self) -> "ObsSession._Span":
            sim = self._session._sim
            self._t0 = sim.now if sim is not None else 0.0
            self._events0 = sim.events_fired if sim is not None else 0
            if self._session.profiler is not None:
                self._profile_phase = self._session.profiler.phase(self._name)
                self._profile_phase.__enter__()
            return self

        def __exit__(self, *exc) -> None:
            if self._profile_phase is not None:
                self._profile_phase.__exit__(*exc)
            sim = self._session._sim
            t1 = sim.now if sim is not None else 0.0
            events1 = sim.events_fired if sim is not None else 0
            if self._name == "run" and self._session.profiler is not None:
                self._session.profiler.note_run_bounds(self._events0, events1)
            self._session.records.append(
                {
                    "type": "span",
                    "name": self._name,
                    "t0": self._t0,
                    "t1": t1,
                    "events": events1 - self._events0,
                }
            )

    def span(self, name: str) -> "ObsSession._Span":
        """Record a named phase of the run (sim-time bounds + event count)."""
        return ObsSession._Span(self, name)

    # -- finalize -------------------------------------------------------------
    def finalize(
        self,
        metrics: Optional[Any] = None,
        sim: Optional["Simulator"] = None,
    ) -> list[dict]:
        """Close the record stream: final metrics, registry dump, profile.

        Idempotent; returns the full record list.
        """
        if self.finalized:
            return self.records
        self.finalized = True
        sim = sim if sim is not None else self._sim
        if sim is not None:
            self.registry.gauge(
                "sim_horizon_seconds", "Simulated clock at the end of the run"
            ).set(sim.now)
        if metrics is not None:
            as_dict = getattr(metrics, "as_dict", None)
            payload = as_dict() if callable(as_dict) else dict(metrics)
            self.records.append({"type": "metrics", "values": payload})
        self.records.append({"type": "registry", "metrics": self.registry.collect()})
        if self.profiler is not None:
            # Fast-path effectiveness counters ride in the profile record
            # (explicitly outside the byte-identity guarantee, like the
            # wall clocks they explain).
            if self._policy is not None and self._policy.cache_stats:
                self.profiler.note_cache_stats(self._policy.cache_stats)
            if sim is not None and sim.tombstones_dropped:
                self.profiler.note_cache_stats(
                    {"events_tombstoned": sim.tombstones_dropped}
                )
            self.records.append({"type": "profile", **self.profiler.as_dict()})
        log.info(
            "run finalized: %d records, %d metrics%s",
            len(self.records), len(self.registry),
            " (profiled)" if self.profiler is not None else "",
        )
        return self.records

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ObsSession records={len(self.records)} metrics={len(self.registry)} "
            f"profile={self.profiler is not None} finalized={self.finalized}>"
        )


# -- multi-run capture --------------------------------------------------------

_ACTIVE_SINK: Optional["RunSink"] = None


def active_sink() -> Optional["RunSink"]:
    """The :class:`RunSink` currently installed via ``with``, if any."""
    return _ACTIVE_SINK


class RunSink:
    """Captures every :func:`run_scenario` executed inside its ``with``.

    Installs itself as the process-wide active sink;
    ``run_scenario`` creates an :class:`ObsSession` per run and hands
    the finalized records back here.  When ``path`` is set the records
    stream straight to that JSON-lines file (runs are concatenated —
    each starts with its ``meta`` record).

    Only in-process runs are captured: sweeps with ``processes > 1``
    execute scenarios in worker processes the sink cannot see.
    """

    def __init__(self, path: Optional[str] = None, profile: bool = False) -> None:
        self.path = path
        self.profile = profile
        self.runs = 0
        self.records: list[dict] = []
        self.sessions: list[ObsSession] = []
        self._fp = None
        self._previous: Optional["RunSink"] = None

    def __enter__(self) -> "RunSink":
        global _ACTIVE_SINK
        if self.path is not None:
            self._fp = open(self.path, "w", encoding="utf-8", newline="\n")
        self._previous = _ACTIVE_SINK
        _ACTIVE_SINK = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_SINK
        _ACTIVE_SINK = self._previous
        self._previous = None
        if self._fp is not None:
            self._fp.close()
            self._fp = None

    def new_session(self, scenario: Optional["ScenarioConfig"]) -> ObsSession:
        return ObsSession(scenario=scenario, profile=self.profile)

    def take(self, session: ObsSession) -> None:
        """Absorb a finalized session's records."""
        records = session.finalize()
        self.runs += 1
        self.sessions.append(session)
        self.records.extend(records)
        if self._fp is not None:
            from repro.obs.exporters import write_jsonl_records

            write_jsonl_records(self._fp, records)
            self._fp.flush()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RunSink runs={self.runs} path={self.path!r}>"
