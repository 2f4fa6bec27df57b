"""FLOW004 — the WAL protocol state machine, checked interprocedurally.

The durability contract (PR 3/6) is a small protocol:

* **append-before-apply** — a serving path must write the admission
  payload to the WAL *before* mutating the engine, or a crash between
  the two loses an acknowledged decision;
* **recover-before-serve** — a process that opens a WAL and serves
  must replay it first, or it serves state that contradicts the log it
  is about to append to;
* **compact-under-lock** — segment compaction rewrites the live WAL
  and may only run while the engine lock is held.

:data:`OPS` *declares* which call-graph functions realize each
protocol op; the checker then verifies the orderings over the call
graph rather than one function at a time.  ``AdmissionEngine.poll`` is
an exempt op: it chases the live wall clock by design (replay
reproduces its effects from logged timestamps), so closures are not
computed through it.  ``# repro-lint: safe=FLOW004`` on a ``def``
exempts that function (e.g. offline tooling operating on a cold WAL).
"""

from __future__ import annotations

from repro.analysis.flow.callgraph import CallGraph, FunctionInfo
from repro.analysis.lint.findings import Finding

RULE_ID = "FLOW004"

#: The call-graph functions that realize each WAL protocol operation.
OPS: dict[str, str] = {
    "repro.service.wal.WriteAheadLog.append": "append",
    "repro.service.engine.AdmissionEngine.submit": "apply",
    "repro.service.engine.AdmissionEngine.advance": "apply",
    "repro.service.engine.AdmissionEngine.drain": "apply",
    "repro.service.wal.recover": "recover",
    "repro.service.checkpoint.restore": "recover",
    "repro.service.server.ServiceServer.start": "serve",
    "repro.service.server.ServiceServer.serve_forever": "serve",
    "repro.service.wal.WriteAheadLog.compact": "compact",
    "repro.service.wal.WriteAheadLog.open": "open_wal",
}

#: Ops whose closure is intentionally opaque to the checker.
EXEMPT_OPS = ("repro.service.engine.AdmissionEngine.poll",)


def _is_exempt(info: FunctionInfo) -> bool:
    return RULE_ID in info.safe_rules or RULE_ID in info.boundary_rules


def _transitive_ops(graph: CallGraph) -> dict[str, frozenset[str]]:
    """Protocol ops each function reaches (op names, not qualnames).

    The closure does not descend through exempt op functions, through
    op functions themselves (their body is the op's *implementation*),
    or through ``safe=FLOW004``-marked functions.
    """
    ops: dict[str, set[str]] = {q: set() for q in graph.functions}
    for qualname in sorted(graph.functions):
        for callee in graph.callees(qualname):
            op = OPS.get(callee)
            if op is not None:
                ops[qualname].add(op)
    changed = True
    while changed:
        changed = False
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            if _is_exempt(info):
                continue
            bucket = ops[qualname]
            before = len(bucket)
            for callee in graph.callees(qualname):
                if callee in EXEMPT_OPS or OPS.get(callee) is not None:
                    continue
                callee_info = graph.functions.get(callee)
                if callee_info is not None and _is_exempt(callee_info):
                    continue
                bucket |= ops.get(callee, set())
            if len(bucket) != before:
                changed = True
    return {q: frozenset(s) for q, s in ops.items()}


def _site_ops(
    graph: CallGraph,
    trans: dict[str, frozenset[str]],
    callees: tuple[str, ...],
) -> frozenset[str]:
    """Ops one call site reaches (the callee's op plus its closure)."""
    reached: set[str] = set()
    for callee in callees:
        op = OPS.get(callee)
        if op is not None:
            reached.add(op)
            continue
        if callee in EXEMPT_OPS:
            continue
        info = graph.functions.get(callee)
        if info is not None and _is_exempt(info):
            continue
        reached |= trans.get(callee, frozenset())
    return frozenset(reached)


def check_wal_protocol(graph: CallGraph) -> list[Finding]:
    """FLOW004: verify the three protocol orderings over the call graph."""
    findings: list[Finding] = []
    trans = _transitive_ops(graph)
    for info in graph.sorted_functions():
        if info.qualname in OPS or info.qualname in EXEMPT_OPS:
            continue
        if _is_exempt(info):
            continue
        reached = trans.get(info.qualname, frozenset())
        if not reached:
            continue
        # First line at which each op becomes reachable from this body.
        first_line: dict[str, int] = {}
        per_site: list[tuple[int, frozenset[str]]] = []
        for call in info.calls:
            site_ops = _site_ops(graph, trans, call.callees)
            if site_ops:
                per_site.append((call.line, site_ops))
            for op in site_ops:
                if op not in first_line or call.line < first_line[op]:
                    first_line[op] = call.line

        # (1) append-before-apply: a function that both appends and
        # applies must not reach an apply strictly before any append.
        # Replay paths (closures containing `recover`) re-apply durable
        # records by design and are skipped.
        if (
            "append" in first_line
            and "apply" in first_line
            and "recover" not in reached
            and first_line["apply"] < first_line["append"]
        ):
            findings.append(Finding(
                path=info.path,
                line=first_line["apply"],
                col=0,
                rule=RULE_ID,
                message=(
                    f"{info.qualname} reaches engine apply (line "
                    f"{first_line['apply']}) before WAL append (line "
                    f"{first_line['append']}): a crash between them loses "
                    "an acknowledged decision; append the payload first"
                ),
            ))

        # (2) recover-before-serve: opening a WAL and serving without a
        # prior recover serves state that contradicts the log.
        if "serve" in first_line and "open_wal" in first_line:
            recover_line = first_line.get("recover")
            if recover_line is None or recover_line > first_line["serve"]:
                findings.append(Finding(
                    path=info.path,
                    line=first_line["serve"],
                    col=0,
                    rule=RULE_ID,
                    message=(
                        f"{info.qualname} opens a WAL and serves (line "
                        f"{first_line['serve']}) without recovering first; "
                        "replay the log before taking traffic"
                    ),
                ))

    # (3) compact-under-lock: every site reaching `compact` must hold a
    # lock or sit in a locked-marked/safe function.
    for info in graph.sorted_functions():
        if _is_exempt(info) or info.locked_marker:
            continue
        for call in info.calls:
            if not any(OPS.get(c) == "compact" for c in call.callees):
                continue
            if call.locks_held:
                continue
            findings.append(Finding(
                path=info.path,
                line=call.line,
                col=call.col,
                rule=RULE_ID,
                message=(
                    f"{info.qualname} compacts the WAL with no lock held; "
                    "compaction rewrites live segments and must run under "
                    "the engine lock (or mark the function "
                    "'# repro-lint: safe=FLOW004' for cold offline WALs)"
                ),
            ))
    return findings


__all__ = ["EXEMPT_OPS", "OPS", "RULE_ID", "check_wal_protocol"]
