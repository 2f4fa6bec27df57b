"""Replay and interrogate a JSON-lines metrics log (``repro inspect``).

A metrics log is self-contained: it opens with a ``meta`` record per
run and closes with the run's final ``metrics``/``registry`` (and
optional ``profile``) records, with every admission decision and
lifecycle transition in between.  This module re-reads such a log and
answers the questions the live run could have: what happened, why were
jobs rejected, what did the counters end at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.obs.exporters import (
    jsonl_line,
    prometheus_from_dump,
    read_jsonl,
    run_report,
)
from repro.obs.windows import DEFAULT_WINDOW, WindowAggregator

INSPECT_MODES = ("report", "prom", "decisions", "transitions", "cache", "windows")


@dataclass
class LogSummary:
    """Aggregate view of one metrics log (possibly many runs)."""

    runs: int = 0
    records: int = 0
    decisions: int = 0
    accepted: int = 0
    rejected: int = 0
    transitions: int = 0
    has_profile: bool = False
    #: ``reason -> count`` over every rejection in the log.
    reject_reasons: dict[str, int] = field(default_factory=dict)


def summarize(records: Sequence[dict]) -> LogSummary:
    """Single-pass aggregation of a record stream."""
    summary = LogSummary(records=len(records))
    for record in records:
        kind = record.get("type")
        if kind == "meta":
            summary.runs += 1
        elif kind == "decision":
            summary.decisions += 1
            if record.get("outcome") == "accepted":
                summary.accepted += 1
            else:
                summary.rejected += 1
                reason = record.get("reason", "<unspecified>")
                summary.reject_reasons[reason] = (
                    summary.reject_reasons.get(reason, 0) + 1
                )
        elif kind == "transition":
            summary.transitions += 1
        elif kind == "profile":
            summary.has_profile = True
    if summary.runs == 0 and summary.records:
        summary.runs = 1  # headerless fragment still describes one run
    return summary


def render_inspection(
    records: Sequence[dict],
    mode: str = "report",
    policy: Optional[str] = None,
    json_output: bool = False,
    window: float = DEFAULT_WINDOW,
) -> str:
    """Render a loaded record stream in one of :data:`INSPECT_MODES`.

    ``policy`` filters ``decisions``/``transitions`` output to the
    decisions taken by one policy.  ``json_output`` switches those two
    modes from aligned human-readable rows to canonical JSON lines
    (one record per line, sorted keys) for machine consumption —
    ``repro inspect log --mode decisions --json | jq``.  ``window``
    sizes the trailing window of the ``windows`` mode (simulated
    seconds).
    """
    if mode == "report":
        return run_report(records)
    if mode == "prom":
        dumps = [r for r in records if r.get("type") == "registry"]
        if not dumps:
            return "no registry record in log\n"
        # The last registry dump is the final state of the (last) run.
        return prometheus_from_dump(dumps[-1]["metrics"])
    if mode == "decisions":
        rows = [r for r in records if r.get("type") == "decision"]
        if policy is not None:
            rows = [r for r in rows if r.get("policy") == policy]
        if json_output:
            return "\n".join(jsonl_line(r) for r in rows)
        return "\n".join(_decision_line(r) for r in rows)
    if mode == "transitions":
        rows = [r for r in records if r.get("type") == "transition"]
        if json_output:
            return "\n".join(jsonl_line(r) for r in rows)
        return "\n".join(
            f"t={r['t']:<12.6g} job={r['job']:<6d} -> {r['to']}" for r in rows
        )
    if mode == "cache":
        return _render_cache(records, json_output=json_output)
    if mode == "windows":
        return _render_windows(
            records, policy=policy, json_output=json_output, window=window
        )
    raise ValueError(f"unknown inspect mode {mode!r}; choose from {INSPECT_MODES}")


def _render_windows(
    records: Sequence[dict],
    policy: Optional[str] = None,
    json_output: bool = False,
    window: float = DEFAULT_WINDOW,
) -> str:
    """Windowed loss-ratio/rejection-reason view over the log's decisions.

    A pure function of the decision records: the aggregator is rebuilt
    from the log, so this renders the exact windowed state a live
    service with the same window size would have reported at the last
    decision instant — without the run having been instrumented.
    """
    aggregator = WindowAggregator(window)
    last_t = 0.0
    seen = False
    for record in records:
        if record.get("type") != "decision":
            continue
        name = record.get("policy", "?")
        if policy is not None and name != policy:
            continue
        t = float(record["t"])
        outcome = "accepted" if record.get("outcome") == "accepted" else "rejected"
        aggregator.note_decision(t, name, outcome, record.get("reason", ""))
        last_t = max(last_t, t)
        seen = True
    if not seen:
        return "" if json_output else "no decision records in log"
    snap = aggregator.snapshot(last_t)
    if json_output:
        return jsonl_line(snap)
    lines = [f"window: trailing {snap['window_s']:g}s at t={snap['t']:g}s"]
    for name, pol in sorted(snap["policies"].items()):
        lines.append(
            f"{name}: submitted={pol['submitted']:.0f} "
            f"rejected={pol['rejected']:.0f} loss_ratio={pol['loss_ratio']:.4f}"
        )
        for reason, count in sorted(
            pol["reject_reasons"].items(), key=lambda kv: (-kv[1], kv[0])
        ):
            lines.append(f"  {count:>8.0f}  {reason}")
    return "\n".join(lines)


def _render_cache(records: Sequence[dict], json_output: bool = False) -> str:
    """Admission fast-path counters from the log's ``profile`` records.

    Cache statistics ride in the profile record (they explain wall
    clocks, so they are kept out of the deterministic export), which
    means the log must come from a ``--profile`` run to contain any.
    """
    profiles = [r for r in records if r.get("type") == "profile"]
    blocks = [p.get("cache", {}) for p in profiles]
    if json_output:
        return "\n".join(jsonl_line(b) for b in blocks)
    if not profiles:
        return (
            "no profile record in log — admission cache counters are only\n"
            "recorded by profiled runs; re-run with --profile to capture them"
        )
    lines: list[str] = []
    for i, block in enumerate(blocks):
        prefix = f"run {i + 1}: " if len(blocks) > 1 else ""
        if not block:
            lines.append(f"{prefix}no cache counters (the policy records none)")
            continue
        for key in sorted(block):
            lines.append(f"{prefix}{key:<24s} {block[key]}")
    return "\n".join(lines)


def _decision_line(record: dict) -> str:
    base = (
        f"t={record['t']:<12.6g} job={record['job']:<6d} "
        f"{record.get('policy', '?'):<12s} {record['outcome']:<8s}"
    )
    reason = record.get("reason")
    if reason:
        base += f" {reason}"
    details = record.get("details")
    if details:
        base += f"  {jsonl_line(details)}"
    return base


def inspect_log(
    path: str,
    mode: str = "report",
    policy: Optional[str] = None,
    json_output: bool = False,
    window: float = DEFAULT_WINDOW,
) -> str:
    """Load ``path`` and render it (the ``repro inspect`` entry point)."""
    records = read_jsonl(path)
    if not records:
        return "" if json_output else f"{path}: empty log"
    return render_inspection(
        records, mode=mode, policy=policy, json_output=json_output, window=window
    )
