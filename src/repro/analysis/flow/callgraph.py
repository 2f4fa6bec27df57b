"""The one walk of ``repro lint``: every file parsed once into a call graph.

:func:`build_callgraph` expands the paths, then reads, parses and
pragma-scans each file exactly once into a :class:`ModuleInfo`.  The
per-file rules read those trees (``CallGraph.files``); the
whole-program rules read the graph built over them.

The graph is intentionally *lightweight*: it resolves the call idioms
this codebase actually uses (module functions, imported names, ``self``
methods, annotated parameters/attributes, local constructor calls) and
falls back to by-name candidate matching only for receivers it cannot
type — capped and filtered so generic container methods never alias
into domain calls.  Everything is walked and emitted in sorted order,
so two builds of the same tree are identical object-for-object; the
rules layered on top inherit byte-identical output from that.

Module-level (and class-body) code is walked as one pseudo-function,
``<module>``, so a wall-clock read at import time is a source like any
other.  This module also holds the one classifier of nondeterminism
sources and of shared-state writes that the rules consult.
"""

from __future__ import annotations

import ast
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Union

from repro.analysis.lint.findings import LintError
from repro.analysis.lint.suppressions import (
    Suppressions,
    marker_for_def,
    parse_suppressions,
)

FunctionDefNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Attribute names that read as "this is a lock" in a ``with`` item.
_LOCKISH = ("lock", "mutex")

#: The threaded service layer: engine/WAL attributes written here are
#: shared between handler threads (the CONC001 lock rule).
SERVICE_PACKAGE = "repro.service"

#: Windowed-metric modules: every ``self`` attribute is shared between
#: the engine thread and HTTP scrape threads (the CONC001 lock rule).
METRIC_MODULES = ("repro.obs.metrics", "repro.obs.windows")

#: Container methods that mutate their receiver in place.
_MUTATING_METHODS = frozenset({
    "append", "appendleft", "popleft", "pop", "clear", "extend",
    "extendleft", "update", "setdefault", "insert", "remove", "rotate",
})

#: Method names too generic for by-name fallback resolution: a call to
#: ``x.append(...)`` on an untyped receiver must never alias into
#: ``WriteAheadLog.append``.
_GENERIC_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "close", "copy", "count",
    "decode", "discard", "encode", "extend", "extendleft", "flush",
    "format", "get", "index", "insert", "items", "join", "keys", "open",
    "pop", "popleft", "put", "read", "readline", "remove", "rotate",
    "send", "set", "setdefault", "sort", "split", "start", "strip",
    "update", "values", "wait", "write",
})

#: By-name fallback gives up beyond this many candidates — an attribute
#: shared by more classes than this is a generic verb, not a call edge.
_FALLBACK_CAP = 8

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
#: Nodes with nothing a rule looks for below them: walks skip them.
_LEAVES = (
    ast.Name, ast.Constant, ast.expr_context, ast.operator, ast.cmpop,
    ast.unaryop, ast.boolop, ast.alias,
)
#: Nodes that hold statements; expressions never do.
_BLOCKS = (ast.stmt, ast.excepthandler, ast.match_case)


def in_packages(module: str, packages: Sequence[str]) -> bool:
    """True when ``module`` is one of ``packages`` or inside one."""
    return any(module == p or module.startswith(p + ".") for p in packages)


def iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    """Expand ``paths`` into a sorted stream of ``.py`` file paths."""
    seen: set[str] = set()
    collected: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in ("__pycache__", ".git") and not d.endswith(".egg-info")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        collected.append(os.path.join(dirpath, name))
        else:
            collected.append(path)
    for path in sorted(collected):
        norm = os.path.normpath(path)
        if norm not in seen:
            seen.add(norm)
            yield norm


def module_for_path(path: str) -> str:
    """Dotted module name for ``path``, anchored at the ``repro`` package.

    ``src/repro/sim/kernel.py`` -> ``repro.sim.kernel``; files outside a
    ``repro`` package root map to ``""`` (no rule applies to them unless
    a ``module=`` pragma says otherwise).
    """
    parts = os.path.normpath(path).split(os.sep)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    try:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return ""
    return ".".join(parts[anchor:])


def scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` below ``scope`` that does not enter nested function scopes.

    Nested ``def``/``lambda`` nodes are yielded, their bodies are not;
    names, constants and operators are skipped.
    """
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, _LEAVES):
            continue
        yield node
        if not isinstance(node, _SCOPE_NODES):
            stack.extend(ast.iter_child_nodes(node))


def _statements(node: ast.AST, into_defs: bool = True) -> Iterator[ast.AST]:
    """The statements below ``node``, in ``ast.walk`` (breadth-first) order.

    Expressions never hold statements, so they are not entered; with
    ``into_defs=False`` nested ``def`` bodies are not entered either.
    """
    queue = deque(ast.iter_child_nodes(node))
    while queue:
        child = queue.popleft()
        if isinstance(child, _BLOCKS):
            yield child
            if into_defs or not isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                queue.extend(ast.iter_child_nodes(child))


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


def _is_lockish_name(name: str) -> bool:
    lowered = name.lower()
    return any(word in lowered for word in _LOCKISH)


def unordered_reason(
    node: ast.expr, scopes: Sequence[dict[str, bool]] = ()
) -> Optional[str]:
    """Why iterating ``node`` has a run-dependent order, or ``None``.

    ``scopes`` is the chain of enclosing name -> "every binding is a
    set" maps, innermost last, that DET002 tracks; the call graph
    passes none and sees only the syntactic forms.
    """
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Name):
        for scope in reversed(scopes):  # innermost binding wins
            if node.id in scope:
                if scope[node.id]:
                    return f"'{node.id}', a name bound to a set/frozenset value"
                return None
        return None
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return f"{node.func.id}(...)"
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
            return ".keys() (iterate the mapping itself, or sorted(...))"
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        if unordered_reason(node.left) or unordered_reason(node.right):
            return "set algebra"
    return None


@dataclass(frozen=True)
class SourceSite:
    """One direct nondeterminism source inside a function body."""

    line: int
    col: int
    #: Source family: ``wall-clock``, ``entropy``, ``env-read``,
    #: ``unordered-iteration`` or ``thread-timing``.
    kind: str
    #: Rendered expression, e.g. ``time.monotonic()``.
    detail: str


@dataclass(frozen=True)
class LockSite:
    """One lexical lock acquisition (``with <lockish>:``)."""

    line: int
    col: int
    #: Normalized lock identity, e.g.
    #: ``repro.service.server.AdmissionService._engine_lock``.
    lock: str
    #: Locks already held lexically when this one is acquired (lock-order
    #: edges: each held lock precedes this one).
    held: tuple[str, ...] = ()


@dataclass(frozen=True)
class CallSite:
    """One call expression with its resolution and lock context."""

    line: int
    col: int
    #: Resolved callee qualnames (empty when unresolvable).
    callees: tuple[str, ...]
    #: Normalized ids of locks held lexically at this site.
    locks_held: tuple[str, ...]


@dataclass(frozen=True)
class MutationSite:
    """One write to shared state (see ``_FunctionWalker._is_shared``)."""

    line: int
    col: int
    #: Rendered target, e.g. ``self.engine.wal_lsn`` or
    #: ``self._values.append(...)``.
    target: str
    #: True when a lock is held lexically at the write.
    locked: bool
    #: True for a metric object's own state, which only its own lock
    #: guards: a caller holding some other lock does not cover it.
    self_state: bool = False


@dataclass
class FunctionInfo:
    """One function/method of the analyzed program."""

    qualname: str
    module: str
    cls: Optional[str]
    name: str
    path: str
    lineno: int
    calls: list[CallSite] = field(default_factory=list)
    acquires: list[LockSite] = field(default_factory=list)
    sources: list[SourceSite] = field(default_factory=list)
    mutations: list[MutationSite] = field(default_factory=list)
    #: The ``locked`` pragma marker: the body relies on the caller's lock.
    locked_marker: bool = False
    #: Rules named by the ``safe=`` pragma marker.
    safe_rules: frozenset[str] = frozenset()
    #: Rules named by the ``boundary=`` pragma marker.
    boundary_rules: frozenset[str] = frozenset()


@dataclass
class ClassInfo:
    """One class definition: methods, bases and inferred attr types."""

    name: str
    qualname: str
    module: str
    #: Raw (dotted) base-class spellings, in definition order.
    bases: list[str] = field(default_factory=list)
    #: method name -> function qualname.
    methods: dict[str, str] = field(default_factory=dict)
    #: attribute name -> dotted class spelling inferred from
    #: ``__init__``/class-level annotations.
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module and its import environment."""

    name: str
    path: str
    tree: ast.Module
    suppressions: Suppressions
    #: ``import x.y as z`` -> {"z": "x.y"} (and {"x": "x"} for plain).
    imports: dict[str, str] = field(default_factory=dict)
    #: ``from m import a as b`` -> {"b": ("m", "a")}.
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level function name -> qualname.
    functions: dict[str, str] = field(default_factory=dict)
    #: names bound by module-level assignments (`_lock = Lock()`).
    global_names: set[str] = field(default_factory=set)


class CallGraph:
    """The whole-program index the flow rules run over."""

    def __init__(self) -> None:
        #: Every parsed file, in path order (two files may share a name).
        self.files: list[ModuleInfo] = []
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.errors: list[LintError] = []
        #: Paths visited, whether or not they could be read and parsed.
        self.files_checked: int = 0
        #: method/function simple name -> sorted list of qualnames.
        self._by_name: dict[str, list[str]] = {}
        #: qualname -> sorted tuple of resolved callee qualnames.
        self._edges: dict[str, tuple[str, ...]] = {}
        #: qualname -> sorted tuple of caller qualnames.
        self._redges: dict[str, tuple[str, ...]] = {}

    # -- queries -----------------------------------------------------------
    def callees(self, qualname: str) -> tuple[str, ...]:
        return self._edges.get(qualname, ())

    def callers(self, qualname: str) -> tuple[str, ...]:
        return self._redges.get(qualname, ())

    def sorted_functions(self) -> list[FunctionInfo]:
        return [self.functions[q] for q in sorted(self.functions)]

    def edge_count(self) -> int:
        return sum(len(v) for v in self._edges.values())

    def shape(self) -> dict[str, int]:
        """Graph shape counters: stable across runs, safe to serialize."""
        return {
            "modules": len(self.modules),
            "functions": len(self.functions),
            "call_edges": self.edge_count(),
            "lock_sites": sum(len(f.acquires) for f in self.functions.values()),
        }

    def class_for(self, dotted: str, module: ModuleInfo) -> Optional[ClassInfo]:
        """Resolve a dotted class spelling inside ``module``."""
        parts = dotted.split(".")
        head, rest = parts[0], parts[1:]
        if not rest:
            if head in module.classes:
                return module.classes[head]
            target = module.from_imports.get(head)
            if target is not None:
                mod = self.modules.get(target[0])
                if mod is not None:
                    return mod.classes.get(target[1])
            return None
        # module-qualified: resolve the module prefix, then the class.
        prefix = module.imports.get(head)
        if prefix is None and head in ("repro",):
            prefix = head
        if prefix is not None:
            mod_name = ".".join([prefix, *rest[:-1]])
            mod = self.modules.get(mod_name)
            if mod is not None:
                return mod.classes.get(rest[-1])
        return None

    def method_of(self, cls: ClassInfo, name: str) -> Optional[str]:
        """Look ``name`` up in ``cls`` and (recursively) its bases."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            module = self.modules.get(current.module)
            if module is None:
                continue
            for base in current.bases:
                resolved = self.class_for(base, module)
                if resolved is not None:
                    stack.append(resolved)
        return None


def _annotation_class(node: Optional[ast.expr]) -> Optional[str]:
    """The dotted class spelling named by an annotation, if any.

    Sees through ``Optional[T]``, ``T | None``, string annotations and
    quoted forward references; gives up on generics with several type
    arguments (a container, not a receiver type).
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip().strip("'\"")
        try:
            parsed = ast.parse(text, mode="eval")
        except SyntaxError:
            return None
        return _annotation_class(parsed.body)
    if isinstance(node, ast.Name):
        return None if node.id in ("None", "Any") else node.id
    if isinstance(node, ast.Attribute):
        chain = _attr_chain(node)
        return ".".join(chain) if chain else None
    if isinstance(node, ast.Subscript):
        head = node.value
        head_name = head.attr if isinstance(head, ast.Attribute) else (
            head.id if isinstance(head, ast.Name) else None
        )
        if head_name == "Optional":
            return _annotation_class(node.slice)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_class(node.left)
        right = _annotation_class(node.right)
        if left is not None and right is None:
            return left
        if right is not None and left is None:
            return right
        return None
    return None


# -- nondeterminism source detection ------------------------------------------

_WALL_CLOCK_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "localtime",
    "gmtime",
})
_DATETIME_NOW_ATTRS = frozenset({"now", "utcnow", "today"})
_THREAD_TIMING_RECEIVERS = ("thread", "worker", "proc")


class _FunctionWalker:
    """Single pass over one function body collecting all flow facts."""

    def __init__(
        self,
        graph: "_Builder",
        module: ModuleInfo,
        cls: Optional[ClassInfo],
        info: FunctionInfo,
        node: Union[FunctionDefNode, ast.Module],
    ) -> None:
        self.graph = graph
        self.module = module
        self.cls = cls
        self.info = info
        self.node = node
        self.at_module = isinstance(node, ast.Module)
        self.in_service = in_packages(module.name, (SERVICE_PACKAGE,))
        self.in_metrics = module.name in METRIC_MODULES
        #: Local name -> dotted class spelling (annotated params,
        #: constructor assignments).
        self.env: dict[str, str] = {}
        if not isinstance(node, ast.Module):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                cls_name = _annotation_class(arg.annotation)
                if cls_name is not None:
                    self.env[arg.arg] = cls_name

    # -- main walk ---------------------------------------------------------
    def walk(self) -> None:
        self._walk_body(self.node, locks=())

    def _walk_body(self, node: ast.AST, locks: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, *_LEAVES)):
                continue  # nested defs are their own graph nodes
            if isinstance(child, ast.ClassDef) and not self.at_module:
                continue  # nested classes handled at registration time
            child_locks = locks
            if isinstance(child, ast.With):
                for item in child.items:
                    lock = self._lock_id(item.context_expr)
                    if lock is not None:
                        self.info.acquires.append(LockSite(
                            line=item.context_expr.lineno,
                            col=item.context_expr.col_offset,
                            lock=lock,
                            held=child_locks,
                        ))
                        child_locks = (*child_locks, lock)
            elif isinstance(child, ast.Assign):
                self._note_assignment(child, locks)
            elif isinstance(child, ast.AnnAssign):
                self._note_ann_assignment(child, locks)
            elif isinstance(child, ast.AugAssign):
                self._note_mutation_target(child.target, child, locks)
            elif isinstance(child, ast.Call):
                self._note_call(child, locks)
            elif isinstance(child, (ast.For, ast.AsyncFor)):
                self._note_iteration(child.iter)
            elif isinstance(child, (ast.ListComp, ast.SetComp, ast.DictComp,
                                    ast.GeneratorExp)):
                for gen in child.generators:
                    self._note_iteration(gen.iter)
            self._walk_body(child, child_locks)

    # -- locks -------------------------------------------------------------
    def _lock_id(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Call):
            return self._lock_id(expr.func)
        rendered: list[str] = []
        node: ast.expr = expr
        while True:
            if isinstance(node, ast.Subscript):
                rendered.append("[]")
                node = node.value
            elif isinstance(node, ast.Attribute):
                rendered.append(node.attr)
                node = node.value
            elif isinstance(node, ast.Name):
                rendered.append(node.id)
                break
            else:
                return None
        rendered.reverse()
        leaf = next((p for p in reversed(rendered) if p != "[]"), "")
        if not _is_lockish_name(leaf):
            return None
        if rendered[0] == "self":
            owner = self.cls.qualname if self.cls is not None else self.info.qualname
            return owner + "." + ".".join(rendered[1:])
        if len(rendered) == 1:
            if rendered[0] in self.module.global_names:
                # A module-level lock object: shared across every
                # function in the module, so scope it to the module.
                return self.module.name + "." + rendered[0]
            # A bare local lock: scoped to this function (aliasing a
            # shared lock through a local is invisible to the builder).
            return self.info.qualname + ".<local>." + rendered[0]
        return self.module.name + "." + ".".join(rendered)

    # -- assignments / mutations -------------------------------------------
    def _note_assignment(self, node: ast.Assign, locks: tuple[str, ...]) -> None:
        value_cls = self._value_class(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name) and value_cls is not None:
                self.env[target.id] = value_cls
            self._note_mutation_target(target, node, locks)
        # The value expression is visited by the generic recursion; any
        # call inside it is noted there.

    def _note_ann_assignment(self, node: ast.AnnAssign, locks: tuple[str, ...]) -> None:
        if isinstance(node.target, ast.Name):
            cls_name = _annotation_class(node.annotation)
            if cls_name is not None:
                self.env[node.target.id] = cls_name
        self._note_mutation_target(node.target, node, locks)

    def _note_mutation_target(
        self, target: ast.expr, node: ast.AST, locks: tuple[str, ...]
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._note_mutation_target(elt, node, locks)
            return
        while isinstance(target, ast.Subscript):
            target = target.value
        chain = _attr_chain(target)
        if chain is not None and self._is_shared(chain, method=False):
            self._mutation(node, ".".join(chain), locks)

    def _is_shared(self, chain: list[str], method: bool) -> bool:
        """Does writing through ``chain`` touch state other threads share?

        In the service layer: an attribute reached *through* an
        ``engine``/``wal`` reference (rebinding the reference itself is
        construction).  In the metric modules: any ``self`` attribute,
        or an in-place ``method`` call on one, outside ``__init__``,
        which runs before the object is published.
        """
        if self.in_metrics:
            return (
                chain[0] == "self" and (method or len(chain) > 1)
                and self.info.name != "__init__"
            )
        return (
            self.in_service and not method and len(chain) > 1
            and any(seg in ("engine", "wal") for seg in chain[:-1])
        )

    def _mutation(self, node: ast.AST, target: str, locks: tuple[str, ...]) -> None:
        self.info.mutations.append(MutationSite(
            line=getattr(node, "lineno", self.info.lineno),
            col=getattr(node, "col_offset", 0),
            target=target,
            locked=bool(locks),
            self_state=self.in_metrics,
        ))

    def _value_class(self, value: ast.expr) -> Optional[str]:
        if isinstance(value, ast.Call):
            chain = _attr_chain(value.func)
            if chain is not None:
                dotted = ".".join(chain)
                if self.graph.graph.class_for(dotted, self.module) is not None:
                    return dotted
            return None
        if isinstance(value, ast.Name):
            return self.env.get(value.id)
        if isinstance(value, ast.Attribute):
            chain = _attr_chain(value)
            if chain is not None and chain[0] == "self" and len(chain) == 2:
                if self.cls is not None:
                    return self.cls.attr_types.get(chain[1])
        return None

    # -- calls -------------------------------------------------------------
    def _note_call(self, node: ast.Call, locks: tuple[str, ...]) -> None:
        chain = _attr_chain(node.func)
        self._note_source_call(node, chain)
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            receiver = func.value
            while isinstance(receiver, ast.Subscript):
                receiver = receiver.value
            recv = _attr_chain(receiver)
            if recv is not None and self._is_shared(recv, method=True):
                self._mutation(node, f"{'.'.join(recv)}.{func.attr}(...)", locks)
        callees = self.graph.resolve_call(self, node)
        if callees or chain:
            self.info.calls.append(CallSite(
                line=node.lineno,
                col=node.col_offset,
                callees=tuple(sorted(set(callees))),
                locks_held=locks,
            ))

    # -- nondeterminism sources --------------------------------------------
    def _note_source_call(
        self, node: ast.Call, chain: Optional[list[str]]
    ) -> None:
        if chain is None:
            return
        origin = self.module.from_imports.get(chain[0])
        if origin is not None and len(chain) == 1:
            # `from time import monotonic`: the bare name is `time.monotonic`.
            chain = [*origin[0].split("."), origin[1]]
        dotted, leaf = ".".join(chain), chain[-1]
        effective_root = self.module.imports.get(chain[0], chain[0])
        if effective_root == "time" and len(chain) > 1 and leaf in _WALL_CLOCK_ATTRS:
            self._source(node, "wall-clock", dotted + "()")
        elif effective_root == "time" and leaf == "sleep":
            self._source(node, "thread-timing", dotted + "()")
        elif leaf in _DATETIME_NOW_ATTRS and "datetime" in chain[:-1]:
            self._source(node, "wall-clock", dotted + "()")
        elif effective_root == "os" and leaf == "urandom":
            self._source(node, "entropy", dotted + "()")
        elif effective_root == "os" and leaf == "getenv":
            self._source(node, "env-read", dotted + "()")
        elif effective_root == "os" and len(chain) > 2 and chain[1] == "environ":
            self._source(node, "env-read", dotted + "()")
        elif effective_root in ("random", "secrets") and len(chain) > 1:
            self._source(node, "entropy", dotted + "()")
        elif (
            effective_root in ("np", "numpy")
            and len(chain) > 2
            and chain[1] == "random"
        ):
            self._source(node, "entropy", dotted + "()")
        elif leaf == "wait" and len(chain) > 1:
            self._source(node, "thread-timing", dotted + "()")
        elif leaf == "join" and len(chain) > 1 and any(
            hint in seg.lower()
            for seg in chain[:-1]
            for hint in _THREAD_TIMING_RECEIVERS
        ):
            self._source(node, "thread-timing", dotted + "()")

    def _note_iteration(self, it: ast.expr) -> None:
        reason = unordered_reason(it)
        if reason is not None:
            self._source(it, "unordered-iteration", f"iteration over {reason}")

    def _source(self, node: ast.AST, kind: str, detail: str) -> None:
        self.info.sources.append(SourceSite(
            line=getattr(node, "lineno", self.info.lineno),
            col=getattr(node, "col_offset", 0),
            kind=kind,
            detail=detail,
        ))


class _Builder:
    """Drives the two passes that populate a :class:`CallGraph`."""

    def __init__(self) -> None:
        self.graph = CallGraph()
        #: (module, cls, info, ast node) for the resolution pass.
        self._pending: list[tuple[
            ModuleInfo, Optional[ClassInfo], FunctionInfo,
            Union[FunctionDefNode, ast.Module],
        ]] = []

    # -- pass 1: registration ----------------------------------------------
    def add_file(self, path: str) -> None:
        """Read, parse and pragma-scan ``path`` once; register its defs."""
        self.graph.files_checked += 1
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=path)
        except OSError as exc:
            self.graph.errors.append(LintError(path, f"cannot read: {exc}"))
            return
        except SyntaxError as exc:
            self.graph.errors.append(LintError(
                path, f"syntax error on line {exc.lineno}: {exc.msg}"
            ))
            return
        suppressions = parse_suppressions(source)
        module_name = suppressions.module_override or module_for_path(path)
        module = ModuleInfo(
            name=module_name, path=path, tree=tree, suppressions=suppressions
        )
        self.graph.files.append(module)
        if not module_name:
            return
        self.graph.modules[module_name] = module
        self._collect_imports(module)
        top = FunctionInfo(
            qualname=f"{module_name}.<module>", module=module_name, cls=None,
            name="<module>", path=path, lineno=1,
        )
        self.graph.functions[top.qualname] = top
        self._pending.append((module, None, top, tree))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(module, None, node, prefix=module_name)
            elif isinstance(node, ast.ClassDef):
                self._register_class(module, node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        module.global_names.add(target.id)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    module.global_names.add(node.target.id)

    def _collect_imports(self, module: ModuleInfo) -> None:
        for node in _statements(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    module.imports[name] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname is None and "." in alias.name:
                        # `import a.b.c` binds `a`, but the full dotted
                        # path is usable through it; remember the root.
                        module.imports[alias.name.split(".")[0]] = (
                            alias.name.split(".")[0]
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    module.from_imports[bound] = (node.module, alias.name)

    def _register_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{module.name}.{node.name}"
        info = ClassInfo(name=node.name, qualname=qualname, module=module.name)
        for base in node.bases:
            chain = _attr_chain(base)
            if chain is not None:
                info.bases.append(".".join(chain))
        module.classes[node.name] = info
        self.graph.classes[qualname] = info
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[child.name] = f"{qualname}.{child.name}"
                self._register_function(module, info, child, prefix=qualname)
            elif isinstance(child, ast.AnnAssign) and isinstance(
                child.target, ast.Name
            ):
                cls_name = _annotation_class(child.annotation)
                if cls_name is not None:
                    info.attr_types[child.target.id] = cls_name
        self._infer_attr_types(module, info, node)

    def _infer_attr_types(
        self, module: ModuleInfo, info: ClassInfo, node: ast.ClassDef
    ) -> None:
        """``self.X = <annotated param | Class(...)>`` in any method."""
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params: dict[str, str] = {}
            for arg in [*method.args.posonlyargs, *method.args.args,
                        *method.args.kwonlyargs]:
                cls_name = _annotation_class(arg.annotation)
                if cls_name is not None:
                    params[arg.arg] = cls_name
            for stmt in _statements(method):
                targets: list[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(stmt, ast.Assign):
                    targets, value = list(stmt.targets), stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    targets = [stmt.target]
                    value = stmt.value
                for target in targets:
                    chain = _attr_chain(target)
                    if chain is None or len(chain) != 2 or chain[0] != "self":
                        continue
                    attr = chain[1]
                    inferred: Optional[str] = None
                    if isinstance(stmt, ast.AnnAssign):
                        inferred = _annotation_class(stmt.annotation)
                    if inferred is None and isinstance(value, ast.Name):
                        inferred = params.get(value.id)
                    if inferred is None and isinstance(value, ast.Call):
                        call_chain = _attr_chain(value.func)
                        if call_chain is not None:
                            dotted = ".".join(call_chain)
                            if self._names_a_class(module, dotted):
                                inferred = dotted
                    if inferred is not None and attr not in info.attr_types:
                        info.attr_types[attr] = inferred

    def _names_a_class(self, module: ModuleInfo, dotted: str) -> bool:
        parts = dotted.split(".")
        if len(parts) == 1:
            if parts[0] in module.classes:
                return True
            origin = module.from_imports.get(parts[0])
            # Pass 1 may not have seen the target module yet; accept any
            # CapWord from-import as a class and re-validate at
            # resolution time.
            return origin is not None and parts[0][:1].isupper()
        return parts[-1][:1].isupper()

    def _register_function(
        self,
        module: ModuleInfo,
        cls: Optional[ClassInfo],
        node: FunctionDefNode,
        prefix: str,
    ) -> None:
        qualname = f"{prefix}.{node.name}"
        marker = marker_for_def(module.suppressions, node)
        info = FunctionInfo(
            qualname=qualname,
            module=module.name,
            cls=cls.qualname if cls is not None else None,
            name=node.name,
            path=module.path,
            lineno=node.lineno,
            locked_marker=marker.locked if marker is not None else False,
            safe_rules=frozenset(marker.safe) if marker is not None else frozenset(),
            boundary_rules=(
                frozenset(marker.boundary) if marker is not None else frozenset()
            ),
        )
        self.graph.functions[qualname] = info
        if cls is None:
            module.functions[node.name] = qualname
        self._pending.append((module, cls, info, node))
        # Nested defs become their own nodes under `<locals>`.
        for child in _statements(node, into_defs=False):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(
                    module, cls, child, prefix=f"{qualname}.<locals>"
                )

    # -- pass 2: body walks + resolution -----------------------------------
    def finish(self) -> CallGraph:
        by_name: dict[str, set[str]] = {}
        for qualname, info in self.graph.functions.items():
            by_name.setdefault(info.name, set()).add(qualname)
        self.graph._by_name = {
            name: sorted(quals) for name, quals in sorted(by_name.items())
        }
        for module, cls, info, node in self._pending:
            _FunctionWalker(self, module, cls, info, node).walk()
        edges: dict[str, set[str]] = {}
        redges: dict[str, set[str]] = {}
        for qualname in sorted(self.graph.functions):
            info = self.graph.functions[qualname]
            targets: set[str] = set()
            for call in info.calls:
                for callee in call.callees:
                    if callee in self.graph.functions:
                        targets.add(callee)
                        redges.setdefault(callee, set()).add(qualname)
            edges[qualname] = targets
        self.graph._edges = {
            q: tuple(sorted(t)) for q, t in sorted(edges.items())
        }
        self.graph._redges = {
            q: tuple(sorted(t)) for q, t in sorted(redges.items())
        }
        return self.graph

    # -- call resolution ----------------------------------------------------
    def resolve_call(self, walker: _FunctionWalker, node: ast.Call) -> list[str]:
        func = node.func
        module = walker.module
        graph = self.graph
        if isinstance(func, ast.Name):
            return self._resolve_bare_name(walker, func.id)
        chain = _attr_chain(func)
        if chain is None:
            # `super().method()` and other call-result receivers.
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
                and walker.cls is not None
            ):
                for base in walker.cls.bases:
                    resolved_cls = graph.class_for(base, module)
                    if resolved_cls is not None:
                        method = graph.method_of(resolved_cls, func.attr)
                        if method is not None:
                            return [method]
                return []
            return []
        # Module-alias prefixed: `checkpoint_mod.save`, `wal_mod.WriteAheadLog.open`.
        alias_target = module.imports.get(chain[0])
        if alias_target is not None and alias_target in graph.modules:
            return self._resolve_in_module(
                graph.modules[alias_target], chain[1:]
            )
        if alias_target is None and chain[0] in graph.modules:
            return self._resolve_in_module(graph.modules[chain[0]], chain[1:])
        # Dotted absolute path: `repro.x.y.f(...)` (rare but cheap).
        if chain[0] == "repro" and len(chain) > 2:
            for split in range(len(chain) - 1, 1, -1):
                mod_name = ".".join(chain[:split])
                if mod_name in graph.modules:
                    return self._resolve_in_module(
                        graph.modules[mod_name], chain[split:]
                    )
        # `self.method()` / `self.attr.method()` / `cls.method()`.
        if chain[0] in ("self", "cls") and walker.cls is not None:
            if len(chain) == 2:
                method = graph.method_of(walker.cls, chain[1])
                return [method] if method is not None else (
                    self._fallback(chain[1])
                )
            if len(chain) == 3:
                attr_cls_name = walker.cls.attr_types.get(chain[1])
                resolved = self._resolve_on_class(
                    module, attr_cls_name, chain[2]
                )
                if resolved:
                    return resolved
                return self._fallback(chain[2])
            return self._fallback(chain[-1])
        # Typed local receiver: `engine.submit()` with `engine: AdmissionEngine`.
        receiver_cls_name = walker.env.get(chain[0])
        if receiver_cls_name is not None and len(chain) == 2:
            resolved = self._resolve_on_class(module, receiver_cls_name, chain[1])
            if resolved:
                return resolved
        # From-imported submodule used as a receiver: `from repro.pkg
        # import lib` then `lib.other()`.
        origin = module.from_imports.get(chain[0])
        if origin is not None:
            submodule = graph.modules.get(origin[0] + "." + origin[1])
            if submodule is not None:
                return self._resolve_in_module(submodule, chain[1:])
        # From-imported class used as a receiver: `WriteAheadLog.open(...)`.
        if origin is not None:
            target_module = graph.modules.get(origin[0])
            if target_module is not None:
                return self._resolve_in_module(
                    target_module, [origin[1], *chain[1:]]
                )
        if chain[0] in module.classes and len(chain) >= 2:
            return self._resolve_in_module(module, chain)
        return self._fallback(chain[-1])

    def _resolve_bare_name(self, walker: _FunctionWalker, name: str) -> list[str]:
        module = walker.module
        graph = self.graph
        # A nested def defined in this very function.
        nested = f"{walker.info.qualname}.<locals>.{name}"
        if nested in graph.functions:
            return [nested]
        if name in module.functions:
            return [module.functions[name]]
        if name in module.classes:
            init = graph.method_of(module.classes[name], "__init__")
            return [init] if init is not None else []
        origin = module.from_imports.get(name)
        if origin is not None:
            target_module = graph.modules.get(origin[0])
            if target_module is not None:
                return self._resolve_in_module(target_module, [origin[1]])
        return []

    def _resolve_in_module(
        self, module: ModuleInfo, chain: Sequence[str]
    ) -> list[str]:
        graph = self.graph
        if not chain:
            return []
        head = chain[0]
        if len(chain) == 1:
            if head in module.functions:
                return [module.functions[head]]
            if head in module.classes:
                init = graph.method_of(module.classes[head], "__init__")
                return [init] if init is not None else []
            origin = module.from_imports.get(head)
            if origin is not None:
                target = graph.modules.get(origin[0])
                if target is not None and target is not module:
                    return self._resolve_in_module(target, [origin[1]])
            return []
        if head in module.classes:
            cls = module.classes[head]
            if len(chain) == 2:
                method = graph.method_of(cls, chain[1])
                return [method] if method is not None else []
            return []
        # A submodule path under a package alias (`sharding.partition.plan`).
        sub = f"{module.name}.{head}"
        if sub in graph.modules:
            return self._resolve_in_module(graph.modules[sub], chain[1:])
        return []

    def _resolve_on_class(
        self, module: ModuleInfo, cls_name: Optional[str], method: str
    ) -> list[str]:
        if cls_name is None:
            return []
        cls = self.graph.class_for(cls_name, module)
        if cls is None:
            return []
        resolved = self.graph.method_of(cls, method)
        return [resolved] if resolved is not None else []

    def _fallback(self, name: str) -> list[str]:
        """By-name candidates for an untypable receiver, capped/filtered."""
        if name in _GENERIC_METHODS:
            return []
        candidates = [
            q for q in self.graph._by_name.get(name, ())
            if self.graph.functions[q].cls is not None
        ]
        if not candidates or len(candidates) > _FALLBACK_CAP:
            return []
        return candidates


def build_callgraph(paths: Sequence[str]) -> CallGraph:
    """Parse every Python file under ``paths`` once into one :class:`CallGraph`."""
    builder = _Builder()
    for path in iter_python_files(paths):
        builder.add_file(path)
    return builder.finish()


__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "LockSite",
    "ModuleInfo",
    "MutationSite",
    "SourceSite",
    "build_callgraph",
    "in_packages",
    "iter_python_files",
    "module_for_path",
    "scope_walk",
    "unordered_reason",
]
