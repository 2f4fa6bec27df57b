"""The determinism & concurrency rule catalog of ``repro lint``.

Each rule is an AST check scoped to the packages where its invariant
actually holds (see :data:`ALL_RULES` and docs/STATIC_ANALYSIS.md for
the full catalog with rationale):

* **DET001** — no wall clock / ambient entropy in deterministic code.
* **DET002** — no iteration over unordered collections in deterministic
  code.
* **DET003** — no ``==``/``!=`` between float expressions in
  scheduling/sim code.
* **CONC001** — engine/WAL attributes only mutated under the lock in
  the service layer.
* **CONC003** — windowed-metric ring buffers only mutated under the
  metric lock.
* **API001** — public protocol/policy-base functions must be fully
  type-annotated.

Rules are heuristic by design: they pattern-match the idioms this
codebase uses rather than solving aliasing in general.  False
positives are handled with ``# repro-lint:`` pragmas
(:mod:`repro.analysis.lint.suppressions`), each of which should carry
a justification.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.analysis.lint.findings import Finding
from repro.analysis.lint.suppressions import Suppressions, marker_for_def

#: Packages whose output must be a pure function of (config, seed).
DETERMINISTIC_PACKAGES = (
    "repro.sim",
    "repro.scheduling",
    "repro.metrics",
)

#: Modules allowed to construct randomness: the one place entropy is
#: turned into named, seeded streams.
ENTROPY_SOURCE_MODULES = ("repro.sim.rng",)

#: Packages where float ``==``/``!=`` is a determinism hazard.
FLOAT_EQ_PACKAGES = ("repro.sim", "repro.scheduling")

#: The threaded service layer (CONC rules).
SERVICE_PACKAGE = "repro.service"

#: Service modules that *implement* the engine/WAL themselves; their
#: self-mutations are single-threaded by contract (callers lock).
CONC001_EXEMPT_MODULES = ("repro.service.engine",)

#: Modules (or whole packages) whose public functions must be fully
#: annotated (API001); matched by prefix like the package scopes above.
FULLY_ANNOTATED_MODULES = (
    "repro.service.protocol",
    "repro.service.sharding",
    "repro.scheduling.base",
)

#: Shared-metric modules whose instance state is mutated from HTTP
#: handler threads and the engine thread at once (CONC003).
CONC003_MODULES = ("repro.obs.metrics", "repro.obs.windows")

#: Attribute names that read as "this is a lock" in a ``with`` item.
_LOCKISH = ("lock", "mutex")

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


@dataclass
class FileContext:
    """Everything a rule needs to know about one parsed file."""

    #: Path as the engine will report it in findings.
    path: str
    #: Dotted module name (``""`` when the file is outside the package).
    module: str
    tree: ast.Module
    suppressions: Suppressions


class Rule:
    """Base class: one identifier, one invariant, one AST check."""

    id: str = "RULE000"
    title: str = ""
    rationale: str = ""

    def applies(self, module: str) -> bool:
        raise NotImplementedError

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
        )


def _in_packages(module: str, packages: Sequence[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


def _attr_chain(node: ast.AST) -> Optional[list[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; ``None`` for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


# -- DET001: wall clock / ambient entropy -------------------------------------

#: Modules whose import into deterministic code is itself the smell.
_ENTROPY_MODULES = frozenset({"time", "random", "secrets"})

#: ``time.<attr>`` calls that read the wall clock.
_WALL_CLOCK_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "localtime",
    "gmtime",
})

#: ``datetime``-family constructors of "now".
_DATETIME_NOW_ATTRS = frozenset({"now", "utcnow", "today"})


class WallClockRule(Rule):
    id = "DET001"
    title = "no wall clock or ambient entropy in deterministic code"
    rationale = (
        "repro.sim/scheduling/metrics must be pure functions of "
        "(config, seed): replay==batch and cached==uncached parity both "
        "rest on it. Simulated time comes from the kernel clock; "
        "randomness comes from the named repro.sim.rng streams."
    )

    def applies(self, module: str) -> bool:
        return (
            _in_packages(module, DETERMINISTIC_PACKAGES)
            and module not in ENTROPY_SOURCE_MODULES
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _ENTROPY_MODULES:
                        yield self.finding(
                            ctx, node,
                            f"import of {alias.name!r} in deterministic code; "
                            f"use the injected simulation clock or "
                            f"repro.sim.rng streams",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in _ENTROPY_MODULES:
                    yield self.finding(
                        ctx, node,
                        f"import from {node.module!r} in deterministic code; "
                        f"use the injected simulation clock or "
                        f"repro.sim.rng streams",
                    )
                elif root == "os":
                    for alias in node.names:
                        if alias.name == "urandom":
                            yield self.finding(
                                ctx, node,
                                "import of os.urandom in deterministic code; "
                                "use repro.sim.rng streams",
                            )
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        chain = _attr_chain(node.func)
        if not chain:
            return
        root, leaf = chain[0], chain[-1]
        if root == "time" and leaf in _WALL_CLOCK_ATTRS:
            yield self.finding(
                ctx, node,
                f"wall-clock call {'.'.join(chain)}(); deterministic code "
                f"must take simulated time as an argument",
            )
        elif leaf in _DATETIME_NOW_ATTRS and "datetime" in chain[:-1]:
            yield self.finding(
                ctx, node,
                f"wall-clock call {'.'.join(chain)}(); deterministic code "
                f"must take simulated time as an argument",
            )
        elif leaf == "urandom" and root == "os":
            yield self.finding(
                ctx, node,
                "os.urandom() is ambient entropy; use repro.sim.rng streams",
            )
        elif root == "random" and len(chain) > 1:
            yield self.finding(
                ctx, node,
                f"bare {'.'.join(chain)}() draws from the global, unseeded "
                f"stream; use repro.sim.rng streams",
            )
        elif root in ("np", "numpy") and len(chain) > 2 and chain[1] == "random":
            yield self.finding(
                ctx, node,
                f"{'.'.join(chain)}() bypasses the named stream discipline; "
                f"use repro.sim.rng streams",
            )


# -- DET002: iteration over unordered collections -----------------------------

class UnorderedIterationRule(Rule):
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

    def applies(self, module: str) -> bool:
        return _in_packages(
            module, DETERMINISTIC_PACKAGES + (SERVICE_PACKAGE,)
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._check_scope(ctx, ctx.tree, parent_setish=[])

    def _check_scope(
        self,
        ctx: FileContext,
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
        setish = self._collect_setish(scope)
        scopes = [*parent_setish, setish]
        for node in self._scope_walk(scope):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                reason = self._unordered_reason(it, scopes)
                if reason is not None:
                    yield self.finding(
                        ctx, it,
                        f"iteration over {reason}; wrap the iterable in "
                        f"sorted(...) to pin a deterministic order",
                    )
        for node in self._scope_walk(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(ctx, node, scopes)

    @staticmethod
    def _scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
        """``ast.walk`` bounded at nested function scopes."""
        stack: list[ast.AST] = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop(0)
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))

    def _collect_setish(self, scope: ast.AST) -> dict[str, bool]:
        """Names of this scope whose every binding is set-valued."""
        setish: dict[str, bool] = {}

        def bind(name: str, is_set: bool) -> None:
            setish[name] = is_set and setish.get(name, True)

        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                bind(arg.arg, False)  # param values are opaque
        for node in self._scope_walk(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bind(target.id, self._is_set_expr(node.value))
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and node.value is not None:
                    bind(node.target.id, self._is_set_expr(node.value))
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

    def _is_set_expr(self, node: ast.expr) -> bool:
        """True for expressions that statically evaluate to a set."""
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _unordered_reason(
        self,
        node: ast.expr,
        scopes: Optional[list[dict[str, bool]]] = None,
    ) -> Optional[str]:
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.Name) and scopes:
            # Innermost binding wins, mirroring Python scoping.
            for scope_map in reversed(scopes):
                if node.id in scope_map:
                    if scope_map[node.id]:
                        return (
                            f"'{node.id}', a name bound to a "
                            f"set/frozenset value"
                        )
                    return None
            return None
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                if node.func.id in ("set", "frozenset"):
                    return f"{node.func.id}(...)"
                return None  # sorted(...), list(...), etc. are fine
            if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
                return ".keys() (iterate the mapping itself, or sorted(...))"
            return None
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            left = self._unordered_reason(node.left)
            right = self._unordered_reason(node.right)
            if left is not None or right is not None:
                return "set algebra"
        return None


# -- DET003: float equality ----------------------------------------------------

class FloatEqualityRule(Rule):
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

    def applies(self, module: str) -> bool:
        return (
            _in_packages(module, FLOAT_EQ_PACKAGES)
            and module != "repro.sim.numerics"
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
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
                    ctx, node,
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


# -- CONC001: engine/WAL mutation must hold the lock ---------------------------

@dataclass
class _Scope:
    """One enclosing function/with context while walking CONC001."""

    locked: bool = False
    safe_rules: set[str] = field(default_factory=set)


class LockedMutationRule(Rule):
    id = "CONC001"
    title = "engine/WAL attributes only mutated under the lock"
    rationale = (
        "HTTP handler threads share one AdmissionEngine and one "
        "WriteAheadLog behind AdmissionService._engine_lock; an attribute "
        "write outside a `with ...lock:` block (or a function marked "
        "`# repro-lint: locked` whose caller holds it, or `# repro-lint: "
        "safe=CONC001` for pre-publication construction) is a data race."
    )

    def applies(self, module: str) -> bool:
        return (
            _in_packages(module, (SERVICE_PACKAGE,))
            and module not in CONC001_EXEMPT_MODULES
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._walk(ctx, ctx.tree, locked=False, safe=False)

    def _walk(
        self, ctx: FileContext, node: ast.AST, locked: bool, safe: bool
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            child_locked, child_safe = locked, safe
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested def does not inherit the enclosing lock: it
                # may escape (thread target, callback) and run later.
                child_locked = False
                child_safe = False
                marker = marker_for_def(ctx.suppressions, child)
                if marker is not None:
                    child_locked = marker.locked
                    child_safe = self.id in marker.safe
            elif isinstance(child, ast.With):
                if any(self._is_lockish(item.context_expr) for item in child.items):
                    child_locked = True
            elif isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                if not (child_locked or child_safe):
                    yield from self._check_assignment(ctx, child)
            yield from self._walk(ctx, child, child_locked, child_safe)

    def _check_assignment(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in self._flatten(targets):
            chain = _attr_chain(target)
            if chain is None or len(chain) < 2:
                continue
            # An intermediate `engine`/`wal` segment means the target is
            # an attribute *of* the shared object (self.engine.x, wal.y);
            # rebinding the reference itself (self.engine = ...) is
            # construction, not shared-state mutation.
            if any(seg in ("engine", "wal") for seg in chain[:-1]):
                yield self.finding(
                    ctx, node,
                    f"mutation of {'.'.join(chain)} outside a lock-held "
                    f"scope; wrap in `with self._engine_lock:` or mark the "
                    f"function `# repro-lint: locked`/`safe=CONC001` with "
                    f"a justification",
                )

    def _flatten(self, targets: list[ast.expr]) -> Iterator[ast.expr]:
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                yield from self._flatten(list(target.elts))
            else:
                yield target

    def _is_lockish(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Call):
            # `lock.acquire()` style context managers, `self._lock.__enter__()`
            return self._is_lockish(expr.func)
        name: Optional[str] = None
        if isinstance(expr, ast.Name):
            name = expr.id
        elif isinstance(expr, ast.Attribute):
            name = expr.attr
        if name is None:
            return False
        lowered = name.lower()
        return any(word in lowered for word in _LOCKISH)


# -- CONC003: metric ring buffers only mutated under the metric lock -----------

#: Container methods that mutate their receiver in place.
_MUTATING_METHODS = frozenset({
    "append", "appendleft", "popleft", "pop", "clear", "extend",
    "extendleft", "update", "setdefault", "insert", "remove", "rotate",
})


class MetricLockRule(Rule):
    id = "CONC003"
    title = "windowed-metric ring buffers only mutated under the metric lock"
    rationale = (
        "The sliding-window counters and ring-buffer histograms in "
        "repro.obs are written by the engine thread on every decision "
        "and read by HTTP scrape/stats threads; a bucket write or deque "
        "append outside `with self._lock:` tears the window (lost "
        "counts, quantiles over a half-rotated ring). __init__ is "
        "exempt: construction happens before the object is published."
    )

    def applies(self, module: str) -> bool:
        return module in CONC003_MODULES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._walk(ctx, ctx.tree, locked=False, safe=False)

    def _walk(
        self, ctx: FileContext, node: ast.AST, locked: bool, safe: bool
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            child_locked, child_safe = locked, safe
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Same non-inheritance as CONC001: a nested def may
                # escape the lock-held scope and run on another thread.
                child_locked = False
                child_safe = child.name == "__init__"
                marker = marker_for_def(ctx.suppressions, child)
                if marker is not None:
                    child_locked = marker.locked
                    child_safe = child_safe or self.id in marker.safe
            elif isinstance(child, ast.With):
                if any(self._is_lockish(item.context_expr) for item in child.items):
                    child_locked = True
            elif isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                if not (child_locked or child_safe):
                    yield from self._check_assignment(ctx, child)
            elif isinstance(child, ast.Call):
                if not (child_locked or child_safe):
                    yield from self._check_call(ctx, child)
            yield from self._walk(ctx, child, child_locked, child_safe)

    def _check_assignment(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            chain = self._receiver_chain(target)
            if chain is None or len(chain) < 2 or chain[0] != "self":
                continue
            yield self.finding(
                ctx, node,
                f"mutation of {'.'.join(chain)} outside the metric lock; "
                f"wrap in `with self._lock:` or mark the function "
                f"`# repro-lint: locked`/`safe=CONC003` with a "
                f"justification",
            )

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in _MUTATING_METHODS:
            return
        chain = self._receiver_chain(node.func.value)
        if chain is None or not chain or chain[0] != "self":
            return
        yield self.finding(
            ctx, node,
            f"in-place mutation {'.'.join(chain)}.{node.func.attr}(...) "
            f"outside the metric lock; wrap in `with self._lock:` or "
            f"mark the function `# repro-lint: locked`/`safe=CONC003` "
            f"with a justification",
        )

    def _receiver_chain(self, node: ast.expr) -> Optional[list[str]]:
        """Like :func:`_attr_chain` but sees through subscripts.

        ``self._buckets[i] += n`` mutates the ring through a Subscript
        target; the receiver that needs the lock is ``self._buckets``.
        """
        while isinstance(node, ast.Subscript):
            node = node.value
        return _attr_chain(node)

    def _is_lockish(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Call):
            return self._is_lockish(expr.func)
        name: Optional[str] = None
        if isinstance(expr, ast.Name):
            name = expr.id
        elif isinstance(expr, ast.Attribute):
            name = expr.attr
        if name is None:
            return False
        lowered = name.lower()
        return any(word in lowered for word in _LOCKISH)


# -- API001: full annotations on public API -----------------------------------

class PublicAnnotationRule(Rule):
    id = "API001"
    title = "public protocol/policy-base functions fully type-annotated"
    rationale = (
        "repro.service.protocol, repro.service.sharding and "
        "repro.scheduling.base are the contracts everything else plugs "
        "into; complete annotations keep mypy strict mode meaningful "
        "there and make wire-schema drift a type error instead of a "
        "runtime surprise."
    )

    def applies(self, module: str) -> bool:
        return _in_packages(module, FULLY_ANNOTATED_MODULES)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._check_body(ctx, ctx.tree.body, in_class=False)

    def _check_body(
        self, ctx: FileContext, body: list[ast.stmt], in_class: bool
    ) -> Iterator[Finding]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                if not node.name.startswith("_"):
                    yield from self._check_body(ctx, node.body, in_class=True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue
                yield from self._check_signature(ctx, node, in_class)

    def _check_signature(
        self, ctx: FileContext, func: ast.FunctionDef, in_class: bool
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
                ctx, func,
                f"public function {func.name!r} has unannotated "
                f"parameter(s): {', '.join(missing)}",
            )
        if func.returns is None:
            yield self.finding(
                ctx, func,
                f"public function {func.name!r} has no return annotation",
            )


#: Every rule, in catalog order.
ALL_RULES: tuple[Rule, ...] = (
    WallClockRule(),
    UnorderedIterationRule(),
    FloatEqualityRule(),
    LockedMutationRule(),
    MetricLockRule(),
    PublicAnnotationRule(),
)

#: id -> rule instance.
RULES_BY_ID: dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}


__all__ = [
    "ALL_RULES",
    "CONC001_EXEMPT_MODULES",
    "CONC003_MODULES",
    "DETERMINISTIC_PACKAGES",
    "ENTROPY_SOURCE_MODULES",
    "FLOAT_EQ_PACKAGES",
    "FLOAT_VOCABULARY",
    "FULLY_ANNOTATED_MODULES",
    "FileContext",
    "FloatEqualityRule",
    "LockedMutationRule",
    "MetricLockRule",
    "PublicAnnotationRule",
    "RULES_BY_ID",
    "Rule",
    "SERVICE_PACKAGE",
    "UnorderedIterationRule",
    "WallClockRule",
]
