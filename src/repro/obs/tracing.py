"""Deterministic end-to-end tracing for the admission service.

Distributed tracers mint ids from wall clocks and host randomness; both
are banned here (DET001) because a trace must be *evidence*: the same
workload replayed — or recovered from the write-ahead log after a crash
— must reconstruct byte-identical traces, or a diff between a live run
and its replay would drown in id churn.

Ids are therefore minted from three deterministic inputs only:

* a **stream seed** derived from the engine config (so two differently
  configured services never collide),
* the engine's **logical submit counter** (the DES analogue of a
  monotone clock tick),
* the **job id**.

The span tree itself is *reconstructed* from engine state rather than
collected from instrumented call sites: every lifecycle instant a span
needs (submit, decision, start, finish) is already recorded in
simulated time by the kernel/RMS, so the trace reader is a pure
function of the engine and adds zero overhead to the hot admission
path.  Per-stage latency attribution comes from the injected clock —
``admission`` measures decision latency, ``queue.wait`` the backlog
delay, ``execute`` the service time — all in simulated seconds.
"""

from __future__ import annotations

import functools
import hashlib
import json
import zlib
from typing import TYPE_CHECKING, Any, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.job import Job
    from repro.service.engine import AdmissionEngine, Decision

#: Hex digits in a trace id (blake2b digest_size=8).
TRACE_ID_WIDTH = 16

#: Hex digits in a span id (blake2b digest_size=4).
SPAN_ID_WIDTH = 8


def canonical_json(payload: Any) -> str:
    """The repo-wide canonical encoding (same contract as WAL frames)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
        allow_nan=False,
    )


def seed_from_config(config: Mapping[str, Any]) -> int:
    """Derive the trace-id stream seed from an engine config mapping.

    crc32 over the canonical JSON of the config: cheap, stable across
    processes, and changes whenever any admission-relevant knob does.
    """
    return zlib.crc32(canonical_json(dict(config)).encode("utf-8")) & 0xFFFFFFFF


@functools.lru_cache(maxsize=64)
def _seed_prefix(seed: int) -> hashlib.blake2b:
    """blake2b state that has absorbed ``f"{seed}:"`` (copied per mint)."""
    return hashlib.blake2b(f"{seed}:".encode("utf-8"), digest_size=8)


def mint_trace_id(seed: int, seq: int, job_id: int) -> str:
    """Mint the 16-hex-digit trace id for one submission.

    The digest is blake2b-64 of ``f"{seed}:{seq}:{job_id}"``; the
    ``seed`` prefix is hashed once per seed and copied, which yields the
    same digest as hashing the whole string.  ``seq`` is the engine's
    logical submit counter (1 for the first successfully logged
    submit), the deterministic stand-in for the wall-clock component of
    conventional tracers.
    """
    digest = _seed_prefix(seed).copy()
    digest.update(f"{seq}:{job_id}".encode("utf-8"))
    return digest.hexdigest()


def mint_span_id(trace_id: str, name: str) -> str:
    """Mint the 8-hex-digit span id for one named stage of a trace."""
    digest = hashlib.blake2b(
        f"{trace_id}/{name}".encode("utf-8"), digest_size=4
    )
    return digest.hexdigest()


def _span(trace_id: str, name: str, start: float,
          end: Optional[float] = None,
          attrs: Optional[dict[str, Any]] = None) -> dict[str, Any]:
    span: dict[str, Any] = {
        "span_id": mint_span_id(trace_id, name),
        "name": name,
        "start": float(start),
    }
    if end is not None:
        span["end"] = float(end)
        span["duration"] = float(end) - float(start)
    if attrs:
        span["attrs"] = dict(sorted(attrs.items()))
    return span


def build_trace(engine: "AdmissionEngine", job_id: int) -> dict[str, Any]:
    """Reconstruct the full lifecycle span tree for ``job_id``.

    Pure reader over engine state; raises ``KeyError`` when the engine
    has never decided the job (unknown id, or the arrival event has not
    fired yet).
    """
    decision: "Decision" = engine._decision_index[job_id]
    job = _find_job(engine, job_id)
    trace_id = engine.trace_ids.get(job_id)
    if trace_id is None:
        # Pre-tracing WAL segments and direct rms submissions have no
        # minted id; fall back to a seq-0 mint so the trace is still
        # deterministic and renderable.
        trace_id = mint_trace_id(engine.trace_seed, 0, job_id)

    spans: list[dict[str, Any]] = []
    submit_t = job.submit_time if job is not None else decision.t
    end_t = decision.t
    if job is not None and job.finish_time is not None:
        end_t = job.finish_time

    spans.append(_span(trace_id, "submit", submit_t, submit_t))
    wal_lsn = engine.wal_lsns.get(job_id)
    if wal_lsn is not None:
        spans.append(
            _span(trace_id, "wal.append", submit_t, submit_t,
                  {"lsn": wal_lsn})
        )
    admission_attrs: dict[str, Any] = {"outcome": decision.outcome}
    if decision.reason:
        admission_attrs["reason"] = decision.reason
    spans.append(
        _span(trace_id, "admission", submit_t, decision.t, admission_attrs)
    )
    if job is not None and job.start_time is not None:
        spans.append(_span(trace_id, "queue.wait", submit_t, job.start_time))
        exec_end = job.finish_time
        exec_attrs: dict[str, Any] = {"nodes": list(job.assigned_nodes)}
        spans.append(
            _span(trace_id, "execute", job.start_time, exec_end, exec_attrs)
        )
    if job is not None and job.finish_time is not None:
        completion_attrs: dict[str, Any] = {"state": job.state.value}
        if job.deadline_met is not None:
            completion_attrs["deadline_met"] = job.deadline_met
        if job.delay is not None:
            completion_attrs["delay"] = job.delay
        spans.append(
            _span(trace_id, "completion", end_t, end_t, completion_attrs)
        )

    root = _span(
        trace_id, "job", submit_t, end_t,
        {
            "job_id": job_id,
            "policy": decision.policy,
            "outcome": decision.outcome,
        },
    )
    return {
        "trace_id": trace_id,
        "job_id": job_id,
        "policy": decision.policy,
        "root": root,
        "spans": spans,
    }


def _find_job(engine: "AdmissionEngine", job_id: int) -> Optional["Job"]:
    for job in engine.rms.jobs:
        if job.job_id == job_id:
            return job
    return None


def render_trace(trace: Mapping[str, Any], json_out: bool = False) -> str:
    """Render a trace dict as canonical JSON or an ASCII span tree."""
    if json_out:
        return canonical_json(dict(trace))
    root = trace["root"]
    lines = [
        f"trace {trace['trace_id']} job={trace['job_id']} "
        f"policy={trace['policy']}",
        _render_span(root, prefix=""),
    ]
    spans = list(trace["spans"])
    for i, span in enumerate(spans):
        last = i == len(spans) - 1
        branch = "`-- " if last else "|-- "
        lines.append(branch + _render_span(span, prefix="  "))
    return "\n".join(lines)


def _render_span(span: Mapping[str, Any], prefix: str) -> str:
    name = span["name"]
    start = span["start"]
    if "end" in span:
        stamp = f"[{start:.6g}s .. {span['end']:.6g}s] ({span['duration']:.6g}s)"
    else:
        stamp = f"[{start:.6g}s ..]"
    parts = [f"{name} {span['span_id']} {stamp}"]
    attrs = span.get("attrs")
    if attrs:
        rendered = " ".join(f"{k}={canonical_json(v)}" for k, v in attrs.items())
        parts.append(rendered)
    return " ".join(parts)


__all__ = [
    "SPAN_ID_WIDTH",
    "TRACE_ID_WIDTH",
    "build_trace",
    "canonical_json",
    "mint_span_id",
    "mint_trace_id",
    "render_trace",
    "seed_from_config",
]
