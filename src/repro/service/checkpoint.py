"""Deterministic snapshot/restore of a live :class:`AdmissionEngine`.

A checkpoint is one JSON object capturing everything the engine needs
to resume mid-trace: the kernel clock (and its sequence counters), all
jobs ever submitted with their lifecycle state, per-node work ledgers,
the policy's queue and completion tracking, the engine's decision log,
and any named RNG streams.  Pending kernel events are **not** stored —
they are closures — but at any quiescent point the only live events are
completion timers, which are pure functions of the stored ledgers
and are re-derived on restore (space-shared completions, one event per
running job and completion instant, from ``added_at + remaining_work /
rating``; time-shared ones by a single ``recompute``).

Two determinism guarantees:

* :func:`dumps` is canonical (sorted keys, compact separators, stable
  list orders), so snapshotting the same engine state twice yields
  byte-identical text;
* a restored engine fed the remainder of a trace reports **identical
  final metrics** to the uninterrupted run — the checkpoint round-trip
  test in ``tests/test_service/test_checkpoint.py`` asserts this for
  EDF, Libra and LibraRisk.  (Sequence numbers of re-derived completion
  timers may differ from the uninterrupted run, so simultaneous
  completions can *process* in a different order; every such order
  yields the same job outcomes, which is what the metrics check pins.)
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from typing import Any, Optional

from repro.cluster.job import Job, JobState, UrgencyClass, reserve_job_ids
from repro.cluster.node import SpaceSharedNode, TimeSharedNode, start_job_tasks
from repro.service.engine import AdmissionEngine, Decision, EngineConfig
from repro.sim.rng import RngStreams

#: Identifies a checkpoint document (sanity check before any parsing).
CHECKPOINT_FORMAT = "repro-admission-engine"

#: Bumped whenever the snapshot schema changes incompatibly.
CHECKPOINT_VERSION = 1

#: Pending events a quiescent engine may legally hold: completion
#: timers only (``node<id>:completion`` per time-shared node,
#: ``job<id>:done`` per running space-shared job and completion instant).
_RESTORABLE_EVENT = re.compile(r"^(node\d+:completion|job\d+:done)$")


class CheckpointError(ValueError):
    """Raised for unsnapshottable state or malformed checkpoint data."""


# -- snapshot -----------------------------------------------------------------

def snapshot(engine: AdmissionEngine) -> dict[str, Any]:
    """Capture the engine's full restorable state as a JSON-able dict."""
    now = engine.sim.now
    for event in engine.sim.iter_pending():
        if not _RESTORABLE_EVENT.match(event.name or ""):
            raise CheckpointError(
                f"cannot checkpoint: pending event {event.name or '<anonymous>'!r} "
                f"at t={event.time:.6g} is not a reconstructible completion timer"
            )

    jobs = [_job_state(job) for job in engine.rms.jobs]
    nodes = []
    for node in engine.cluster:
        if isinstance(node, TimeSharedNode) and node.online:
            node.sync(now)  # bring ledgers to `now` so the snapshot is exact
        nodes.append(
            {
                "id": node.node_id,
                "online": node.online,
                "failures": node.failures,
                "busy_time": node.busy_time,
                "tasks": [
                    {
                        "job": task.job.job_id,
                        "remaining_work": task.remaining_work,
                        "remaining_est_work": task.remaining_est_work,
                        "added_at": task.added_at,
                    }
                    for _, task in sorted(node.tasks.items())
                ],
            }
        )

    policy_state: dict[str, Any] = {
        "pending_tasks": {
            str(job_id): count
            for job_id, count in sorted(engine.policy._pending_tasks.items())
        },
    }
    queue = getattr(engine.policy, "queue", None)
    if queue is not None:
        policy_state["queue"] = [job.job_id for job in queue]

    snap: dict[str, Any] = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": engine.config.as_dict(),
        "sim": engine.sim.clock_state(),
        "jobs": jobs,
        "rms": {
            "accepted": [j.job_id for j in engine.rms.accepted],
            "rejected": [j.job_id for j in engine.rms.rejected],
            "completed": [j.job_id for j in engine.rms.completed],
            "failed": [j.job_id for j in engine.rms.failed],
        },
        "policy": policy_state,
        "nodes": nodes,
        "decisions": [d.as_dict() for d in engine.decisions],
    }
    if engine.wal_lsn:
        snap["wal_lsn"] = engine.wal_lsn
    if engine._submit_seq or engine.trace_ids:
        # Optional block (version stays 1): trace-id stream position and
        # the minted ids, so a restored engine keeps minting the same
        # deterministic sequence and `repro trace` answers for
        # pre-checkpoint jobs byte-identically.
        trace_state: dict[str, Any] = {"seq": engine._submit_seq}
        if engine.trace_ids:
            trace_state["ids"] = {
                str(job_id): engine.trace_ids[job_id]
                for job_id in sorted(engine.trace_ids)
            }
        if engine.wal_lsns:
            trace_state["wal_lsns"] = {
                str(job_id): engine.wal_lsns[job_id]
                for job_id in sorted(engine.wal_lsns)
            }
        snap["trace"] = trace_state
    if engine.streams is not None:
        snap["rng"] = {
            "seed": engine.streams.seed,
            "streams": {
                name: engine.streams.get(name).bit_generator.state
                for name in engine.streams.stream_names()
            },
        }
    return snap


def _job_state(job: Job) -> dict[str, Any]:
    out: dict[str, Any] = {
        "id": job.job_id,
        "submit_time": job.submit_time,
        "runtime": job.runtime,
        "estimated_runtime": job.estimated_runtime,
        "numproc": job.numproc,
        "deadline": job.deadline,
        "urgency": job.urgency.value,
        "state": job.state.value,
    }
    if job.user is not None:
        out["user"] = job.user
    if job.start_time is not None:
        out["start_time"] = job.start_time
    if job.finish_time is not None:
        out["finish_time"] = job.finish_time
    if job.assigned_nodes:
        out["assigned_nodes"] = list(job.assigned_nodes)
    if job.reject_reason:
        out["reject_reason"] = job.reject_reason
    return out


# -- restore ------------------------------------------------------------------

def restore(  # repro-lint: safe=CONC001  builds a private engine; not shared until returned
    snap: dict[str, Any],
    clock: Optional[Any] = None,
    obs: Optional[Any] = None,
) -> AdmissionEngine:
    """Rebuild a live engine from a :func:`snapshot` dict."""
    if snap.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"not an engine checkpoint (format={snap.get('format')!r})"
        )
    if snap.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {snap.get('version')!r} "
            f"(this build reads v{CHECKPOINT_VERSION})"
        )

    streams = None
    if "rng" in snap:
        rng = snap["rng"]
        streams = RngStreams(seed=int(rng["seed"]))
        for name in sorted(rng.get("streams", {})):
            streams.get(name).bit_generator.state = rng["streams"][name]

    engine = AdmissionEngine(
        EngineConfig.from_dict(snap["config"]), clock=clock, obs=obs, streams=streams,
    )
    sim_state = snap["sim"]
    now = float(sim_state["now"])
    engine.sim.restore_clock(
        now=now, seq=sim_state["seq"], events_fired=sim_state["events_fired"]
    )
    engine.clock.advance_to(now)

    by_id: dict[int, Job] = {}
    for data in snap["jobs"]:
        job = _rebuild_job(data)
        by_id[job.job_id] = job
        engine.rms.jobs.append(job)
    engine._jobs_by_id.update(by_id)
    # Auto-assigned ids must never collide with restored explicit ids:
    # a post-restore submit without an id would otherwise be refused as
    # a duplicate (or silently answered with the old job's decision).
    reserve_job_ids(max(by_id, default=0))
    for list_name in ("accepted", "rejected", "completed", "failed"):
        target = getattr(engine.rms, list_name)
        for job_id in snap["rms"][list_name]:
            target.append(_lookup(by_id, job_id))

    policy_state = snap["policy"]
    engine.policy._pending_tasks = {
        int(job_id): int(count)
        for job_id, count in policy_state["pending_tasks"].items()
    }
    if "queue" in policy_state:
        queue = getattr(engine.policy, "queue", None)
        if queue is None:
            raise CheckpointError(
                f"checkpoint carries a queue but policy "
                f"{engine.policy.name!r} has none"
            )
        queue.extend(_lookup(by_id, job_id) for job_id in policy_state["queue"])

    # Nodes in id order so re-derived completion timers get stable seqs.
    # Space-shared tasks are regrouped per job and started together, as
    # at dispatch: (job, work, added_at) -> the job's nodes in id order.
    space_jobs: dict[tuple[int, float, float], list[SpaceSharedNode]] = {}
    for data in sorted(snap["nodes"], key=lambda d: d["id"]):
        node = engine.cluster.node(int(data["id"]))
        node.busy_time = float(data["busy_time"])
        node.failures = int(data["failures"])
        node.online = bool(data["online"])
        entries = [
            (
                _lookup(by_id, t["job"]),
                float(t["remaining_work"]),
                float(t["remaining_est_work"]),
                float(t["added_at"]),
            )
            for t in data["tasks"]
        ]
        if not entries:
            if isinstance(node, TimeSharedNode):
                node._last_sync = now
            continue
        if isinstance(node, TimeSharedNode):
            node.restore_tasks(entries, now)
        elif isinstance(node, SpaceSharedNode):
            (job, work, _est, added_at), = entries  # space-shared: one task
            space_jobs.setdefault((job.job_id, work, added_at), []).append(node)
        else:  # pragma: no cover - no other disciplines exist
            raise CheckpointError(f"cannot restore node type {type(node).__name__}")
    # Earliest-started first, as the uninterrupted run numbered these
    # jobs' completion events (same-instant starts: lowest node id first).
    for (job_id, work, added_at), members in sorted(
        space_jobs.items(), key=lambda item: item[0][2]
    ):
        start_job_tasks(by_id[job_id], members, work, added_at)

    engine.decisions = [
        Decision(
            job_id=d["job"],
            outcome=d["outcome"],
            t=d["t"],
            policy=d["policy"],
            reason=d.get("reason", ""),
        )
        for d in snap["decisions"]
    ]
    engine._decision_index = {d.job_id: d for d in engine.decisions}
    engine.wal_lsn = int(snap.get("wal_lsn", 0))
    trace_state = snap.get("trace", {})
    engine._submit_seq = int(trace_state.get("seq", 0))
    engine.trace_ids = {
        int(job_id): str(trace_id)
        for job_id, trace_id in trace_state.get("ids", {}).items()
    }
    engine.wal_lsns = {
        int(job_id): int(lsn)
        for job_id, lsn in trace_state.get("wal_lsns", {}).items()
    }
    # The windowed telemetry is a pure function of the decision log;
    # replaying it here makes the restored window byte-identical to the
    # uncrashed engine's.
    if engine.window is not None:
        engine.window.replay(engine.decisions)
    return engine


def _rebuild_job(data: dict[str, Any]) -> Job:
    job = Job(
        runtime=data["runtime"],
        estimated_runtime=data["estimated_runtime"],
        numproc=data["numproc"],
        deadline=data["deadline"],
        submit_time=data["submit_time"],
        urgency=UrgencyClass(data["urgency"]),
        user=data.get("user"),
        job_id=data["id"],
    )
    try:
        job.state = JobState(data["state"])
    except ValueError as exc:
        raise CheckpointError(f"job {data['id']}: unknown state {data['state']!r}") from exc
    job.start_time = data.get("start_time")
    job.finish_time = data.get("finish_time")
    job.assigned_nodes = list(data.get("assigned_nodes", ()))
    job.reject_reason = data.get("reject_reason")
    return job


def _lookup(by_id: dict[int, Job], job_id: int) -> Job:
    try:
        return by_id[int(job_id)]
    except KeyError:
        raise CheckpointError(f"checkpoint references unknown job {job_id}") from None


# -- serialization ------------------------------------------------------------

def dumps(snap: dict[str, Any]) -> str:
    """Canonical text form: equal states produce byte-identical output."""
    return json.dumps(
        snap, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
        allow_nan=False,
    )


def _content_checksum(snap: dict[str, Any]) -> str:
    """SHA-256 of the canonical text of ``snap`` (sans ``checksum`` key)."""
    return hashlib.sha256(dumps(snap).encode("utf-8")).hexdigest()


def save(engine: AdmissionEngine, path: str) -> dict[str, Any]:
    """Snapshot ``engine`` to ``path`` atomically; returns the written dict.

    The document is written to a temporary file in the same directory,
    fsynced, and renamed over ``path`` with ``os.replace`` — a crash
    mid-save leaves either the old checkpoint or the new one, never a
    torn hybrid.  A ``checksum`` field (SHA-256 of the canonical
    snapshot text) lets :func:`load` detect any later corruption.
    """
    snap = snapshot(engine)
    doc = dict(snap)
    doc["checksum"] = {"algo": "sha256", "hex": _content_checksum(snap)}
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fp:
            fp.write(dumps(doc))
            fp.write("\n")
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    try:
        # Make the rename itself durable where the platform allows it.
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    return doc


def load(
    path: str,
    clock: Optional[Any] = None,
    obs: Optional[Any] = None,
) -> AdmissionEngine:
    """Restore an engine from a file written by :func:`save`.

    Validates the embedded content checksum (when present — legacy
    checkpoints without one are still accepted) and raises
    :class:`CheckpointError` naming the file on any corruption.
    """
    with open(path, "r", encoding="utf-8") as fp:
        try:
            snap = json.load(fp)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"{path}: invalid checkpoint JSON ({exc}); the file is "
                f"corrupt or truncated — restore from an older checkpoint"
            ) from exc
    if not isinstance(snap, dict):
        raise CheckpointError(f"{path}: checkpoint must be a JSON object")
    checksum = snap.pop("checksum", None)
    if checksum is not None:
        if not isinstance(checksum, dict) or checksum.get("algo") != "sha256":
            raise CheckpointError(
                f"{path}: unsupported checkpoint checksum {checksum!r}"
            )
        actual = _content_checksum(snap)
        if actual != checksum.get("hex"):
            raise CheckpointError(
                f"{path}: checkpoint content checksum mismatch (stored "
                f"{checksum.get('hex')}, computed {actual}); the file is "
                f"corrupt — restore from an older checkpoint"
            )
    return restore(snap, clock=clock, obs=obs)


__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "dumps",
    "load",
    "restore",
    "save",
    "snapshot",
]
