"""FLOW001 — nondeterminism sources in or reachable from deterministic code.

A *decision-path root* (policy admission, engine submit/advance/drain,
WAL append, checkpoint/trace serialization) must never reach a
nondeterminism source — wall clock, ambient entropy, env read,
unordered iteration, thread timing — through any chain of calls:
whatever those sources return would flow into decisions, WAL payloads
or exports that the repo promises are byte-identical across runs.
Every function of :data:`DETERMINISTIC_PACKAGES` (module-level code
included) is a root too, for the wall-clock and entropy kinds: those
packages must be pure functions of (config, seed) whoever calls them.

The check walks *backward* from every source site over the reverse
call graph looking for the nearest reachable root; the finding is
anchored at the source call and carries the full root→…→source chain
so the reader can audit every hop.  ``# repro-lint: boundary=FLOW001``
on a ``def`` (or its decorator) declares the function a sanctioned
boundary: sources inside it are allowed and taint does not propagate
through its call edge — the pragma's trailing prose should say why the
reads cannot reach decision bytes (e.g. the live ``WallClock``, whose
readings replay reproduces from logged timestamps).
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Optional

from repro.analysis.flow.callgraph import CallGraph, FunctionInfo, in_packages
from repro.analysis.lint.findings import Finding

RULE_ID = "FLOW001"

#: Packages whose output must be a pure function of (config, seed).
DETERMINISTIC_PACKAGES = (
    "repro.sim",
    "repro.scheduling",
    "repro.metrics",
)

#: The one module allowed to construct randomness: it turns entropy
#: into named, seeded streams.
ENTROPY_SOURCE_MODULES = ("repro.sim.rng",)

#: Source kinds for which every deterministic-package function is a root.
_PACKAGE_ROOT_KINDS = frozenset({"wall-clock", "entropy"})

#: Decision-path roots: functions whose transitive closure must be
#: deterministic.  ``fnmatch`` patterns over function qualnames.
SINK_PATTERNS: tuple[tuple[str, str], ...] = (
    ("policy admission", "repro.scheduling.*.on_job_submitted"),
    ("RMS submit", "repro.cluster.rms.ResourceManagementSystem.submit"),
    ("engine submit", "repro.service.engine.AdmissionEngine.submit"),
    ("engine advance", "repro.service.engine.AdmissionEngine.advance"),
    ("engine drain", "repro.service.engine.AdmissionEngine.drain"),
    ("WAL append", "repro.service.wal.WriteAheadLog.append"),
    ("checkpoint snapshot", "repro.service.checkpoint.snapshot"),
    ("checkpoint save", "repro.service.checkpoint.save"),
    ("trace serialization", "repro.obs.tracing.build_trace"),
)

def _root_label(info: FunctionInfo, kind: str) -> Optional[str]:
    for label, pattern in SINK_PATTERNS:
        if fnmatchcase(info.qualname, pattern):
            return label
    if kind in _PACKAGE_ROOT_KINDS and in_packages(info.module, DETERMINISTIC_PACKAGES):
        return "deterministic package"
    return None


def _is_boundary(info: FunctionInfo) -> bool:
    return RULE_ID in info.boundary_rules


def _nearest_root(
    graph: CallGraph, start: str, kind: str
) -> Optional[tuple[str, list[str]]]:
    """Shortest caller chain from ``start`` up to a root for ``kind``.

    Returns ``(root_label, [root, ..., start])`` or ``None``.  BFS over
    sorted reverse edges with lexicographic parent assignment, so the
    reported chain is deterministic; boundary-marked functions stop the
    walk (their call edges are declared clean).
    """
    label = _root_label(graph.functions[start], kind)
    if label is not None:
        return label, [start]
    parents: dict[str, str] = {}
    frontier = [start]
    seen = {start}
    while frontier:
        next_frontier: list[str] = []
        hits: list[str] = []
        for node in frontier:
            for caller in graph.callers(node):
                if caller in seen:
                    continue
                info = graph.functions[caller]
                if _is_boundary(info):
                    continue
                seen.add(caller)
                parents[caller] = node
                if _root_label(info, kind) is not None:
                    hits.append(caller)
                else:
                    next_frontier.append(caller)
        if hits:
            root = sorted(hits)[0]
            chain = [root]
            while chain[-1] != start:
                chain.append(parents[chain[-1]])
            return _root_label(graph.functions[root], kind) or "", chain
        frontier = sorted(next_frontier)
    return None


def check_taint(graph: CallGraph) -> list[Finding]:
    """Every nondeterminism source a root for its kind reaches."""
    findings: list[Finding] = []
    for info in graph.sorted_functions():
        if not info.sources or _is_boundary(info):
            continue
        if info.module in ENTROPY_SOURCE_MODULES:
            continue
        reached: dict[str, Optional[tuple[str, list[str]]]] = {}
        for source in info.sources:
            if source.kind not in reached:
                reached[source.kind] = _nearest_root(graph, info.qualname, source.kind)
            hit = reached[source.kind]
            if hit is None:
                continue
            label, chain = hit
            rendered = " -> ".join(chain)
            findings.append(Finding(
                path=info.path,
                line=source.line,
                col=source.col,
                rule=RULE_ID,
                message=(
                    f"{source.kind} source {source.detail} is reachable "
                    f"from decision-path root '{label}' via {rendered}; "
                    "decision bytes must not depend on it "
                    "(fix the chain or declare a justified "
                    "'# repro-lint: boundary=FLOW001')"
                ),
            ))
    return findings


__all__ = [
    "DETERMINISTIC_PACKAGES",
    "ENTROPY_SOURCE_MODULES",
    "RULE_ID",
    "SINK_PATTERNS",
    "check_taint",
]
