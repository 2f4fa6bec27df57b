"""The one rule catalog of ``repro lint``.

Each rule checks one invariant that determinism or locking rests on,
and keeps its place because some mutant in
``tests/test_analysis/mutants.py`` is flagged by it alone (see
docs/STATIC_ANALYSIS.md for the catalog with rationale):

* **DET002** — no iteration over unordered collections in deterministic
  code.
* **DET003** — no ``==``/``!=`` between float expressions in
  scheduling/sim code.
* **CONC001** — shared engine/WAL/metric state mutated only under its
  lock, and every call into a ``locked`` function made under one.
* **API001** — public protocol/policy-base functions must be fully
  type-annotated.
* **FLOW001** — no wall clock or entropy in deterministic packages, and
  no nondeterminism source reachable from a decision-path root.
* **FLOW002** — no cycle in the interprocedural lock-order graph.
* **FLOW004** — the WAL protocol orderings hold.

Per-file rules read one module's tree at a time; whole-program rules
read the call graph built over the same parse.  Rules are heuristic by
design: they pattern-match the idioms this codebase uses rather than
solving aliasing in general.  False positives are handled with
``# repro-lint:`` pragmas (:mod:`repro.analysis.lint.suppressions`),
each of which should carry a justification.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable, Iterator, Optional

from repro.analysis.flow.callgraph import (
    SERVICE_PACKAGE,
    CallGraph,
    ModuleInfo,
    in_packages,
    scope_walk,
    unordered_reason,
)
from repro.analysis.flow.locks import check_lock_discipline, check_lock_order
from repro.analysis.flow.taint import DETERMINISTIC_PACKAGES, check_taint
from repro.analysis.flow.walproto import check_wal_protocol
from repro.analysis.lint.findings import Finding

#: Packages where float ``==``/``!=`` is a determinism hazard.
FLOAT_EQ_PACKAGES = ("repro.sim", "repro.scheduling")

#: Modules (or whole packages) whose public functions must be fully
#: annotated (API001); matched by prefix like the package scopes above.
#: Each must also sit in pyproject's strict mypy override list.
FULLY_ANNOTATED_MODULES = (
    "repro.service.protocol",
    "repro.service.sharding",
    "repro.scheduling.base",
)

#: Identifier vocabulary DET003 treats as float-valued.  A curated,
#: domain-specific list beats type inference here: these are the names
#: simulated seconds, shares and σ statistics travel under.
FLOAT_VOCABULARY = frozenset({
    "absolute_deadline", "busy_time", "deadline", "delay", "elapsed",
    "estimated_runtime", "finish_time", "horizon", "inf", "load",
    "max_delay", "mu", "now", "rate", "rating", "remaining",
    "remaining_deadline", "remaining_est_work", "remaining_work",
    "runtime", "share", "sigma", "slack", "start_time", "submit_time",
    "t", "time", "work",
})


class Rule:
    """One identifier, one invariant, one check over the parsed program."""

    id: str = "RULE000"
    title: str = ""
    rationale: str = ""

    def check(self, graph: CallGraph) -> Iterable[Finding]:
        raise NotImplementedError


class FileRule(Rule):
    """A rule that reads one module at a time, in its ``packages`` only."""

    packages: tuple[str, ...] = ()

    def check(self, graph: CallGraph) -> Iterator[Finding]:
        for module in graph.files:
            if in_packages(module.name, self.packages):
                yield from self.check_module(module)

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
        )


class GraphRule(Rule):
    """A whole-program rule: one check over the call graph."""

    def __init__(
        self,
        id: str,
        title: str,
        rationale: str,
        check: Callable[[CallGraph], list[Finding]],
    ) -> None:
        self.id, self.title, self.rationale = id, title, rationale
        self._check = check

    def check(self, graph: CallGraph) -> list[Finding]:
        return self._check(graph)


# -- DET002: iteration over unordered collections -----------------------------

class UnorderedIterationRule(FileRule):
    id = "DET002"
    title = "no iteration over unordered collections in deterministic code"
    rationale = (
        "set iteration order depends on insertion history and (for str "
        "keys) the per-process hash seed, so a loop over a set can emit "
        "events or decisions in a run-dependent order. Iterate "
        "sorted(...) instead. dict.keys() is insertion-ordered but "
        "flagged too: iterate the dict itself, or sorted(d) when the "
        "insertion order is itself run-dependent."
    )
    packages = DETERMINISTIC_PACKAGES + (SERVICE_PACKAGE,)

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        yield from self._check_scope(module, module.tree, parent_setish=[])

    def _check_scope(
        self,
        module: ModuleInfo,
        scope: ast.AST,
        parent_setish: list[dict[str, bool]],
    ) -> Iterator[Finding]:
        """Check one scope (module or function) and recurse into nested ones.

        ``parent_setish`` is the chain of enclosing scopes' binding maps:
        name -> True when *every* binding of that name in the scope is a
        set-valued expression (a rebind through ``sorted(...)`` or any
        other non-set value clears it, so the common fix pattern is not
        re-flagged).
        """
        nodes = list(scope_walk(scope))
        scopes = [*parent_setish, self._collect_setish(scope, nodes)]
        for node in nodes:
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(module, node, scopes)
            for it in iters:
                reason = unordered_reason(it, scopes)
                if reason is not None:
                    yield self.finding(
                        module, it,
                        f"iteration over {reason}; wrap the iterable in "
                        f"sorted(...) to pin a deterministic order",
                    )

    def _collect_setish(
        self, scope: ast.AST, nodes: list[ast.AST]
    ) -> dict[str, bool]:
        """Names of this scope whose every binding iterates unordered."""
        setish: dict[str, bool] = {}

        def bind(name: str, is_set: bool) -> None:
            setish[name] = is_set and setish.get(name, True)

        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                bind(arg.arg, False)  # param values are opaque
        for node in nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bind(target.id, unordered_reason(node.value) is not None)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and node.value is not None:
                    bind(node.target.id, unordered_reason(node.value) is not None)
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name):
                    # `s |= {...}` keeps a set a set; any other augment
                    # poisons (we no longer know the shape).
                    bind(node.target.id, isinstance(node.op, (
                        ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor
                    )))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for target in ast.walk(node.target):
                    if isinstance(target, ast.Name):
                        bind(target.id, False)
            elif isinstance(node, ast.withitem):
                if node.optional_vars is not None:
                    for target in ast.walk(node.optional_vars):
                        if isinstance(target, ast.Name):
                            bind(target.id, False)
        return setish


# -- DET003: float equality ----------------------------------------------------

class FloatEqualityRule(FileRule):
    id = "DET003"
    title = "no ==/!= between float expressions in scheduling/sim code"
    rationale = (
        "float equality silently encodes an exactness assumption; when "
        "it is wrong the schedule diverges between runs or platforms. "
        "Use the repro.sim.numerics helpers — exact_eq/exact_zero for "
        "deliberate bitwise comparisons, approx_eq for tolerances, "
        "math.isinf/math.isfinite for sentinel checks — or integers for "
        "exact time."
    )
    packages = FLOAT_EQ_PACKAGES

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            hint = next(
                (h for h in map(self._float_hint, operands) if h is not None),
                None,
            )
            if hint is not None:
                yield self.finding(
                    module, node,
                    f"float equality comparison ({hint}); use the "
                    f"repro.sim.numerics helpers (exact_eq/exact_zero/"
                    f"approx_eq) or math.isinf/isfinite instead",
                )

    def _float_hint(self, node: ast.expr) -> Optional[str]:
        """A short description when ``node`` looks float-valued."""
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return f"literal {node.value!r}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "float":
                return "float(...) call"
            return None
        if isinstance(node, ast.UnaryOp):
            return self._float_hint(node.operand)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return "true-division result"
            left = self._float_hint(node.left)
            if left is not None:
                return left
            return self._float_hint(node.right)
        name: Optional[str] = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None:
            bare = name.lower().lstrip("_")
            if bare in FLOAT_VOCABULARY:
                return f"operand {name!r}"
        return None


# -- API001: full annotations on public API -----------------------------------

class PublicAnnotationRule(FileRule):
    id = "API001"
    title = "public protocol/policy-base functions fully type-annotated"
    rationale = (
        "repro.service.protocol, repro.service.sharding and "
        "repro.scheduling.base are the contracts everything else plugs "
        "into; complete annotations keep mypy strict mode meaningful "
        "there and make wire-schema drift a type error instead of a "
        "runtime surprise."
    )
    packages = FULLY_ANNOTATED_MODULES

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        yield from self._check_body(module, module.tree.body, in_class=False)

    def _check_body(
        self, module: ModuleInfo, body: list[ast.stmt], in_class: bool
    ) -> Iterator[Finding]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                if not node.name.startswith("_"):
                    yield from self._check_body(module, node.body, in_class=True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue
                yield from self._check_signature(module, node, in_class)

    def _check_signature(
        self,
        module: ModuleInfo,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        in_class: bool,
    ) -> Iterator[Finding]:
        args = func.args
        positional = [*args.posonlyargs, *args.args]
        if in_class and positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        missing = [
            a.arg
            for a in [*positional, *args.kwonlyargs, args.vararg, args.kwarg]
            if a is not None and a.annotation is None
        ]
        if missing:
            yield self.finding(
                module, func,
                f"public function {func.name!r} has unannotated "
                f"parameter(s): {', '.join(missing)}",
            )
        if func.returns is None:
            yield self.finding(
                module, func,
                f"public function {func.name!r} has no return annotation",
            )


#: Every rule, in catalog order.
ALL_RULES: tuple[Rule, ...] = (
    UnorderedIterationRule(),
    FloatEqualityRule(),
    GraphRule(
        "CONC001",
        "shared state mutated only under its lock (whole program)",
        "HTTP handler threads share one AdmissionEngine and one "
        "WriteAheadLog behind AdmissionService._engine_lock, and the "
        "windowed metrics of repro.obs.metrics/windows behind their own "
        "_lock; a write to that state with no lock held is a data race. "
        "A write must sit in a `with ...lock:` block, or in a function "
        "every resolved caller enters under a lock. `# repro-lint: "
        "locked` trusts the caller, and every call into such a function "
        "must hold a lock in turn. `# repro-lint: safe=CONC001` marks "
        "pre-publication construction; __init__ of a metric object is "
        "exempt the same way.",
        check_lock_discipline,
    ),
    PublicAnnotationRule(),
    GraphRule(
        "FLOW001",
        "no nondeterminism source in or reachable from deterministic code",
        "repro.sim/scheduling/metrics must be pure functions of (config, "
        "seed), so no function there may read a wall clock or ambient "
        "entropy: simulated time comes from the kernel clock, randomness "
        "from the named repro.sim.rng streams. Decision-path roots "
        "(policy admission, engine submit/advance/drain, WAL append, "
        "checkpoint and trace serialization) must not reach any "
        "nondeterminism source — wall clock, entropy, env read, "
        "unordered iteration, thread timing — through any call chain. "
        "`# repro-lint: boundary=FLOW001` declares a justified boundary.",
        check_taint,
    ),
    GraphRule(
        "FLOW002",
        "no cycle in the interprocedural lock-order graph",
        "two threads taking the same locks in opposite orders can "
        "deadlock; every edge of a reported cycle carries a "
        "function:line witness.",
        check_lock_order,
    ),
    GraphRule(
        "FLOW004",
        "the WAL protocol orderings hold",
        "append-before-apply, recover-before-serve and "
        "compact-under-lock are checked over the call graph; a crash "
        "between an apply and its append loses an acknowledged decision. "
        "`# repro-lint: safe=FLOW004` exempts offline tooling on a cold "
        "WAL.",
        check_wal_protocol,
    ),
)

#: id -> rule instance.
RULES_BY_ID: dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}


__all__ = [
    "ALL_RULES",
    "FLOAT_EQ_PACKAGES",
    "FLOAT_VOCABULARY",
    "FULLY_ANNOTATED_MODULES",
    "FileRule",
    "FloatEqualityRule",
    "GraphRule",
    "PublicAnnotationRule",
    "RULES_BY_ID",
    "Rule",
    "UnorderedIterationRule",
]
