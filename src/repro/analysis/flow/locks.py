"""FLOW002 and CONC001 — the interprocedural lock-order and lock-coverage rules.

**FLOW002** assembles a lock-*order* digraph: an edge ``A -> B`` means
some execution path acquires ``B`` while holding ``A`` — either
lexically (nested ``with``) or through a call chain (a call site made
under ``A`` whose callee transitively acquires ``B``).  A cycle in
that graph is a potential deadlock between threads taking the locks in
opposite orders; every edge of the reported cycle carries a concrete
``function:line`` witness.

**CONC001** is "a shared attribute is mutated only under its lock".
It reads the shared-state writes the call graph records (engine/WAL
attributes in the service layer, ``self`` state of the metric modules),
each with a lexical ``locked`` flag.  An unlocked write is fine only in
a function marked ``# repro-lint: locked`` or ``safe=CONC001``, or in
the single-threaded engine module.  An engine/WAL write is also fine in
a function *entered under a lock* on every resolved path: each caller
holds a lock at the call or is itself entered under one.  A metric
object's own state is not: a caller's lock is not the object's lock.
The ``locked`` marker is trusted there and verified here: every
resolved call into a ``locked`` function must be entered under a lock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.flow.callgraph import CallGraph, FunctionInfo
from repro.analysis.lint.findings import Finding

ORDER_RULE_ID = "FLOW002"
LOCK_RULE_ID = "CONC001"

#: Service modules that *implement* the engine/WAL themselves; their
#: self-mutations are single-threaded by contract (callers lock).
CONC001_EXEMPT_MODULES = ("repro.service.engine",)


@dataclass(frozen=True)
class _Edge:
    first: str
    second: str
    #: Witness: where the second acquisition happens while the first is
    #: held, e.g. ``repro.service.server.AdmissionService._dispatch:412``.
    witness: str


def _transitive_acquires(graph: CallGraph) -> dict[str, frozenset[str]]:
    """Lock ids each function may acquire, directly or via callees.

    Iterated to a fixpoint (the graph has recursion); local
    function-scoped locks (``<local>`` ids) never escape a function and
    are excluded — they cannot participate in cross-thread ordering.
    """
    acquired: dict[str, set[str]] = {}
    for info in graph.sorted_functions():
        acquired[info.qualname] = {
            site.lock for site in info.acquires if ".<local>." not in site.lock
        }
    changed = True
    while changed:
        changed = False
        for qualname in sorted(acquired):
            bucket = acquired[qualname]
            before = len(bucket)
            for callee in graph.callees(qualname):
                bucket |= acquired.get(callee, set())
            if len(bucket) != before:
                changed = True
    return {q: frozenset(locks) for q, locks in acquired.items()}


def _order_edges(graph: CallGraph) -> list[_Edge]:
    trans = _transitive_acquires(graph)
    edges: dict[tuple[str, str], str] = {}

    def note(first: str, second: str, witness: str) -> None:
        if first == second:
            # Re-acquiring the same *normalized* identity usually means a
            # different instance of the same class (e.g. two shard
            # parking locks); the self-deadlock case is better caught at
            # runtime, so self-edges are not order edges.
            return
        key = (first, second)
        if key not in edges or witness < edges[key]:
            edges[key] = witness

    for info in graph.sorted_functions():
        for site in info.acquires:
            if ".<local>." in site.lock:
                continue
            for held in site.held:
                if ".<local>." in held:
                    continue
                note(held, site.lock, f"{info.qualname}:{site.line}")
        for call in info.calls:
            if not call.locks_held:
                continue
            reachable: set[str] = set()
            for callee in call.callees:
                reachable |= trans.get(callee, frozenset())
            for held in call.locks_held:
                if ".<local>." in held:
                    continue
                for target in sorted(reachable):
                    if target not in call.locks_held:
                        note(held, target, f"{info.qualname}:{call.line}")
    return [
        _Edge(first=k[0], second=k[1], witness=w)
        for k, w in sorted(edges.items())
    ]


def _cycles(edges: list[_Edge]) -> list[list[_Edge]]:
    """Every elementary lock-order cycle, smallest-first.

    Locks graphs here are tiny (a handful of identities), so a simple
    DFS from each node over sorted adjacency is plenty — and fully
    deterministic.
    """
    adjacency: dict[str, list[_Edge]] = {}
    for edge in edges:
        adjacency.setdefault(edge.first, []).append(edge)
    found: list[list[_Edge]] = []
    seen_keys: set[tuple[str, ...]] = set()
    for start in sorted(adjacency):
        stack: list[tuple[str, list[_Edge]]] = [(start, [])]
        while stack:
            node, path = stack.pop()
            for edge in reversed(adjacency.get(node, [])):
                if edge.second == start:
                    cycle = [*path, edge]
                    # Canonical form: rotate so the smallest lock leads;
                    # dedupe rotations discovered from other start nodes.
                    names = [e.first for e in cycle]
                    pivot = names.index(min(names))
                    canon = tuple(names[pivot:] + names[:pivot])
                    if canon not in seen_keys:
                        seen_keys.add(canon)
                        found.append(cycle[pivot:] + cycle[:pivot])
                elif all(e.first != edge.second for e in path) and (
                    edge.second != node
                ) and len(path) < 8:
                    if edge.second > start:
                        # Only explore nodes after `start` — each cycle
                        # is found exactly once, from its smallest node.
                        stack.append((edge.second, [*path, edge]))
    found.sort(key=lambda cycle: [e.first for e in cycle])
    return found


def check_lock_order(graph: CallGraph) -> list[Finding]:
    """FLOW002: cycles in the interprocedural lock-order graph."""
    findings: list[Finding] = []
    for cycle in _cycles(_order_edges(graph)):
        ring = " -> ".join([*(e.first for e in cycle), cycle[0].first])
        evidence = "; ".join(
            f"{e.first} -> {e.second} at {e.witness}" for e in cycle
        )
        anchor = cycle[0].witness
        anchor_fn = anchor.rsplit(":", 1)[0]
        findings.append(Finding(
            path=graph.functions[anchor_fn].path,
            line=int(anchor.rsplit(":", 1)[1]),
            col=0,
            rule=ORDER_RULE_ID,
            message=(
                f"lock-order cycle {ring} (potential deadlock): {evidence}; "
                "acquire these locks in one global order"
            ),
        ))
    return findings


def _marked(info: FunctionInfo) -> bool:
    """``locked``/``safe=CONC001``-marked, or single-threaded by contract."""
    return (
        info.locked_marker or LOCK_RULE_ID in info.safe_rules
        or info.module in CONC001_EXEMPT_MODULES
    )


def _entered_under_lock(graph: CallGraph, qualname: str) -> bool:
    """True when every resolved path into ``qualname`` holds a lock.

    Walks up the callers through unlocked call sites; a function with
    no caller is an unlocked entry.  At least one entry must hold a
    lock (a locked call site or a marked function): a cycle nothing
    resolved enters is reached some other way, with no lock proven.
    """
    seen = {qualname}
    stack = [qualname]
    locked_entry = False
    while stack:
        info = graph.functions[stack.pop()]
        if _marked(info):
            locked_entry = True
            continue
        callers = graph.callers(info.qualname)
        if not callers:
            return False
        for caller in callers:
            for call in graph.functions[caller].calls:
                if info.qualname not in call.callees:
                    continue
                if call.locks_held:
                    locked_entry = True
                elif caller not in seen:
                    seen.add(caller)
                    stack.append(caller)
    return locked_entry


def check_lock_discipline(graph: CallGraph) -> list[Finding]:
    """CONC001: shared state is written, and ``locked`` scopes entered, under a lock."""
    findings: list[Finding] = []
    for info in graph.sorted_functions():
        unlocked = [site for site in info.mutations if not site.locked]
        if unlocked and not _marked(info):
            entered = _entered_under_lock(graph, info.qualname)
            findings.extend(Finding(
                path=info.path,
                line=site.line,
                col=site.col,
                rule=LOCK_RULE_ID,
                message=(
                    f"mutation of {site.target} in {info.qualname} outside "
                    "a lock-held scope; wrap it in `with <lock>:` or mark "
                    "the function `# repro-lint: locked`/`safe=CONC001` "
                    "with a justification"
                ),
            ) for site in unlocked if site.self_state or not entered)
        if info.locked_marker and info.module not in CONC001_EXEMPT_MODULES:
            findings.extend(_unlocked_calls_into(graph, info))
    return findings


def _unlocked_calls_into(graph: CallGraph, target: FunctionInfo) -> list[Finding]:
    """Call sites into a ``locked``-marked ``target`` that hold no lock."""
    findings: list[Finding] = []
    mutated = sorted({m.target for m in target.mutations})
    evidence = f" (it mutates {', '.join(mutated)})" if mutated else ""
    for caller_name in graph.callers(target.qualname):
        caller = graph.functions[caller_name]
        for call in caller.calls:
            if target.qualname not in call.callees or call.locks_held:
                continue
            if _entered_under_lock(graph, caller_name):
                continue
            findings.append(Finding(
                path=caller.path,
                line=call.line,
                col=call.col,
                rule=LOCK_RULE_ID,
                message=(
                    f"call into locked-marked {target.qualname} from "
                    f"{caller_name} with no lock held on any entry "
                    f"path{evidence}; take the owning lock or mark "
                    "the caller '# repro-lint: locked'"
                ),
            ))
    return findings


__all__ = [
    "CONC001_EXEMPT_MODULES",
    "LOCK_RULE_ID",
    "ORDER_RULE_ID",
    "check_lock_discipline",
    "check_lock_order",
]
