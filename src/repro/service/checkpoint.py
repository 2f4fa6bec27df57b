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
from repro.cluster.ledger import OUTCOME_CODES, OUTCOMES, TRACED
from repro.cluster.node import SpaceSharedNode, TimeSharedNode
from repro.obs.tracing import mint_trace_id
from repro.service.engine import AdmissionEngine, EngineConfig

#: Identifies a checkpoint document (sanity check before any parsing).
CHECKPOINT_FORMAT = "repro-admission-engine"

#: Bumped whenever the snapshot schema changes incompatibly.
CHECKPOINT_VERSION = 1

#: Pending events a quiescent engine may legally hold: completion
#: timers only (``node<id>:completion`` per time-shared node,
#: ``job<id>:done`` per running space-shared job and completion instant).
_RESTORABLE_EVENT = re.compile(r"^(node\d+:completion|job\d+:done)$")

#: Every top-level field :func:`snapshot` may write (``checksum`` is
#: added by :func:`save` and removed by :func:`read`).
_FIELDS = frozenset({
    "format", "version", "config", "sim", "jobs", "rms", "policy", "nodes",
    "decisions", "wal_lsn", "trace", "rng",
})


#: The ``rms`` lists of finished jobs, by state (their key is the value).
_FINISHED = (JobState.REJECTED, JobState.COMPLETED, JobState.FAILED)


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

    # One pass over the ledger's rows: each job, and its decision, trace id (a
    # pin, else derived) and LSN; a decision shares its job's time and reason.
    ledger = engine.rms.ledger
    jobs: list[dict[str, Any]] = []
    decisions: list[dict[str, Any]] = []
    ids: dict[str, str] = {}
    wal_lsns: dict[str, int] = {}
    for row, values, code, wal_lsn in ledger.records():
        jobs.append(_job_state(values))
        if not code:
            continue
        job_id, outcome = values[0], OUTCOMES[code & ~TRACED]
        decision: dict[str, Any] = {
            "job": job_id, "outcome": outcome, "t": values[1], "policy": engine.policy.name}
        if outcome == "rejected" and values[-1]:
            decision["reason"] = values[-1]
        decisions.append(decision)
        pin = engine._pins.get(job_id)
        if pin is None and code & TRACED:
            pin = mint_trace_id(engine.trace_seed, engine._seq_base + row + 1, job_id)
        if pin is not None:
            ids[str(job_id)] = pin
        if wal_lsn:
            wal_lsns[str(job_id)] = wal_lsn
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
            "accepted": [ledger.job_id(row) for row in ledger.accepted_rows()],
            **{
                state.value: [ledger.job_id(row) for row in ledger.finished_rows(state)]
                for state in _FINISHED
            },
        },
        "policy": policy_state,
        "nodes": nodes,
        "decisions": decisions,
    }
    if engine.wal_lsn:
        snap["wal_lsn"] = engine.wal_lsn
    if engine._submit_seq or ids:
        # Optional block (version stays 1): trace-id stream position and
        # the ids (derived, as the engine reads them), so a restored
        # engine keeps minting the same deterministic sequence and
        # `repro trace` answers for pre-checkpoint jobs byte-identically.
        trace_state: dict[str, Any] = {"seq": engine._submit_seq}
        if ids:
            trace_state["ids"] = ids
        if wal_lsns:
            trace_state["wal_lsns"] = wal_lsns
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


def _job_state(values: tuple) -> dict[str, Any]:
    """A job's checkpoint entry from its fields in ``Job.__slots__`` order."""
    (job_id, submit, runtime, estimate, numproc, deadline, urgency, user, state,
     start, finish, nodes, reason) = values
    out: dict[str, Any] = {
        "id": job_id, "submit_time": submit, "runtime": runtime,
        "estimated_runtime": estimate, "numproc": numproc, "deadline": deadline,
        "urgency": urgency.value, "state": state.value,
    }
    if user is not None:
        out["user"] = user
    if start is not None:
        out["start_time"] = start
    if finish is not None:
        out["finish_time"] = finish
    if nodes:
        out["assigned_nodes"] = list(nodes)
    if reason:
        out["reject_reason"] = reason
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
        from repro.sim.rng import RngStreams

        rng = snap["rng"]
        streams = RngStreams(seed=int(rng["seed"]))
        for name in sorted(rng.get("streams", {})):
            streams.get(name).bit_generator.state = rng["streams"][name]

    try:
        engine = AdmissionEngine(
            EngineConfig.from_dict(snap["config"]), clock=clock, obs=obs, streams=streams,
        )
    except (TypeError, ValueError) as exc:
        # An unknown policy or key, or a geometry this build refuses.
        raise CheckpointError(f"checkpoint config cannot build an engine: {exc}") from exc
    sim_state = snap["sim"]
    now = float(sim_state["now"])
    engine.sim.restore_clock(
        now=now, seq=sim_state["seq"], events_fired=sim_state["events_fired"]
    )
    engine.clock.advance_to(now)

    # Every job arrives in its order, the accepted ones are accepted in
    # theirs, and then each finished one is retired in its list's order:
    # the ledger keeps all four orders, and drops the finished objects.
    ledger = engine.rms.ledger
    by_id: dict[int, Job] = {}
    for data in snap["jobs"]:
        job = _rebuild_job(data)
        by_id[job.job_id] = job
        ledger.arrive(job)
    # Auto-assigned ids must never collide with restored explicit ids:
    # a post-restore submit without an id would otherwise be refused as
    # a duplicate (or silently answered with the old job's decision).
    reserve_job_ids(max(by_id, default=0))
    for job_id in snap["rms"]["accepted"]:
        ledger.accept(_lookup(by_id, job_id))
    retired: set[int] = set()
    for state in _FINISHED:
        for job_id in snap["rms"][state.value]:
            job = _lookup(by_id, job_id)
            if job.state is not state or job.job_id in retired:
                raise CheckpointError(
                    f"checkpoint lists job {job_id} as {state.value} but it is "
                    f"{job.state.value} or listed twice"
                )
            retired.add(job.job_id)
            ledger.retire(job)

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
        engine.cluster.start_job(by_id[job_id], members, work, added_at)

    engine.wal_lsn = int(snap.get("wal_lsn", 0))
    trace_state = snap.get("trace", {})
    engine._submit_seq = int(trace_state.get("seq", 0))
    ids = trace_state.get("ids", {})
    lsns = trace_state.get("wal_lsns", {})
    # Decisions are stored in submit order and each advanced the submit
    # counter by one, so the stored counter dates them all; an id that
    # does not derive from its date is kept as a pin.  Time, policy and
    # reason are the job's own and are read back from it.
    decisions = snap["decisions"]
    engine._seq_base = engine._submit_seq - len(decisions)
    for d in decisions:
        job_id = _lookup(by_id, d["job"]).job_id
        row = ledger.index.get(job_id)
        outcome = d["outcome"]
        if row is None or outcome not in OUTCOME_CODES:
            raise CheckpointError(f"job {job_id}: unknown decision {outcome!r}")
        trace_id = ids.get(str(job_id))
        seq = engine._seq_base + row + 1
        if trace_id is not None and (
            seq < 1 or trace_id != mint_trace_id(engine.trace_seed, seq, job_id)
        ):
            engine._pins[job_id] = str(trace_id)
        ledger.outcomes[row] = OUTCOME_CODES[outcome] | (0 if trace_id is None else TRACED)
        if lsns.get(str(job_id)):
            ledger.log(row, int(lsns[str(job_id)]))
        engine._decided += 1
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
    nodes = data.get("assigned_nodes")
    if nodes:
        job.assigned_nodes = list(nodes)
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


def read(path: str) -> tuple[dict[str, Any], Optional[str]]:
    """The snapshot a file written by :func:`save` holds, verified.

    Returns the snapshot (``checksum`` entry removed) and its verified
    SHA-256 hex, or ``None`` for a legacy checkpoint without a checksum.
    Raises :class:`CheckpointError` naming the file when the bytes are
    not UTF-8 JSON of an object, the checksum is unsupported or does
    not match, or a top-level field is unknown (a damaged ``checksum``
    key would otherwise read as a legacy file and skip verification).
    ``OSError`` from reading the file propagates.
    """
    with open(path, "rb") as fp:
        raw = fp.read()
    try:
        snap = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
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
    unknown = sorted(set(snap) - _FIELDS)
    if unknown:
        raise CheckpointError(
            f"{path}: unknown checkpoint field(s) {', '.join(map(repr, unknown))}; "
            f"the file is corrupt or from a newer build"
        )
    return snap, None if checksum is None else checksum["hex"]


def load(
    path: str,
    clock: Optional[Any] = None,
    obs: Optional[Any] = None,
) -> AdmissionEngine:
    """Restore an engine from a file written by :func:`save`, verified
    by :func:`read`."""
    snap, _ = read(path)
    return restore(snap, clock=clock, obs=obs)


__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "dumps",
    "load",
    "read",
    "restore",
    "save",
    "snapshot",
]
