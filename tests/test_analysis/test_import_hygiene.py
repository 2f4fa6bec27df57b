"""Fast import-hygiene guards, independent of the `repro lint` engine.

`repro.sim` and `repro.scheduling` must never import the `time` or
`random` modules: wall clocks and the global random stream are exactly
the ambient state that breaks replay==batch parity. This walks the
module ASTs directly so the guard holds even if the linter's scoping
rules are ever loosened.

Every module under `src/repro` must be reachable by imports from an
entry point (the CLI, `scripts/*.py`, `bench/*.py`); tests and examples are not entry points, so a module only
they use is dead code (`PENDING_DELETION` names the few still waiting
to go). The examples must still import: every name they
take from `repro` has to resolve. No `REPRO_*` environment flag beyond
the shrink-only `ENV_FLAGS` may appear in `src/repro`.

A cold start imports only what its command runs: `import repro.cli`
loads no more than `CLI_MODULES` `repro.*` modules (a shrink-only
count), and building the parser plus the imports of `repro serve`
load none of `SERVE_UNUSED`.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

FORBIDDEN = {"time", "random"}

#: The sanctioned entropy source is allowed to construct numpy
#: generators; even it has no business with the stdlib modules above.
PACKAGES = ("repro/sim", "repro/scheduling")

ENTRY_MODULES = ("repro.cli", "repro.__main__")

#: Unreached modules still awaiting deletion (ROADMAP item 8). The list
#: only shrinks: an entry here that something reaches, or that is gone,
#: fails the test too.
PENDING_DELETION: frozenset = frozenset()

#: The `REPRO_*` environment flags the program may read. The set only
#: shrinks: a behaviour worth having is the default, not a flag.
ENV_FLAGS = frozenset({"REPRO_SANITIZE", "REPRO_VERIFY_CERT"})

#: How many `repro.*` modules `import repro.cli` loads. The number only
#: shrinks: a command imports what it runs in its own body, so the
#: parser that every invocation builds pays for none of it.
CLI_MODULES = 20

#: Modules that `repro serve` never runs, so a cold start (and every
#: shard respawn) must not import them. A name also covers its submodules.
SERVE_UNUSED = (
    "numpy",
    "importlib.metadata",
    "repro.analysis.flow",
    "repro.experiments",
    "repro.workload",
    "repro.obs.console",
    "repro.service.client",
    "repro.service.loadgen",
    "repro.service.sharding.router",
    "repro.service.sharding.supervisor",
)


def _module_files():
    for pkg in PACKAGES:
        yield from sorted((SRC / pkg).rglob("*.py"))


@pytest.mark.parametrize("path", _module_files(), ids=lambda p: str(p.relative_to(SRC)))
def test_no_wall_clock_or_global_random_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            offenders.extend(
                alias.name for alias in node.names
                if alias.name.split(".")[0] in FORBIDDEN
            )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] in FORBIDDEN:
                offenders.append(node.module)
    assert not offenders, (
        f"{path} imports {offenders}: deterministic code must take the "
        f"simulated clock as an argument and draw randomness from "
        f"repro.sim.rng streams"
    )


class _ImportGraph:
    """Module-level import edges of `src/repro`, resolved statically.

    Imports anywhere in a module count, including inside functions. A
    package `__init__` is reached when any of its modules is, but its
    own re-exports are not edges: `from pkg import name` follows the
    re-export of ``name`` to the module that defines it.
    """

    def __init__(self) -> None:
        self.files: Dict[str, Path] = {}
        self.packages: Set[str] = set()
        for path in sorted((SRC / "repro").rglob("*.py")):
            parts = path.relative_to(SRC).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
                self.packages.add(".".join(parts))
            self.files[".".join(parts)] = path
        self._trees: Dict[Path, ast.Module] = {}

    def tree(self, path: Path) -> ast.Module:
        if path not in self._trees:
            self._trees[path] = ast.parse(path.read_text(), filename=str(path))
        return self._trees[path]

    @staticmethod
    def _base(node: ast.ImportFrom, package: str) -> str:
        if not node.level:
            return node.module or ""
        parent = package.rsplit(".", node.level - 1)[0]
        return f"{parent}.{node.module}" if node.module else parent

    def _package_of(self, module: str) -> str:
        return module if module in self.packages else module.rpartition(".")[0]

    def _with_parents(self, module: str) -> Iterator[str]:
        parts = module.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix in self.files:
                yield prefix

    def _name_source(self, package: str, name: str, seen: Set[str]) -> Optional[str]:
        """The module a package `__init__` re-exports ``name`` from."""
        if package in seen:
            return None
        seen.add(package)
        for node in self.tree(self.files[package]).body:
            if not isinstance(node, ast.ImportFrom):
                continue
            base = self._base(node, package)
            for alias in node.names:
                if (alias.asname or alias.name) != name:
                    continue
                return self._resolve_from(base, alias.name, seen)
        return None

    def _resolve_from(self, base: str, name: str, seen: Set[str]) -> str:
        """The module ``from base import name`` takes ``name`` from."""
        if f"{base}.{name}" in self.files:
            return f"{base}.{name}"
        if base in self.packages:
            return self._name_source(base, name, seen) or base
        return base

    def imports(self, tree: ast.Module, package: str) -> Iterator[str]:
        """Every `repro` module that ``tree``'s imports reach directly."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = self._base(node, package)
                targets = [base] + [
                    self._resolve_from(base, alias.name, set()) for alias in node.names
                ]
            else:
                continue
            for target in targets:
                while target and target not in self.files:
                    target = target.rpartition(".")[0]
                if target:
                    yield from self._with_parents(target)

    def reachable(self, roots: List[Path]) -> Set[str]:
        seen: Set[str] = set()
        stack: List[str] = []
        for module in ENTRY_MODULES:
            stack.extend(self._with_parents(module))
        for path in roots:
            stack.extend(self.imports(self.tree(path), ""))
        while stack:
            module = stack.pop()
            if module in seen:
                continue
            seen.add(module)
            if module in self.packages:
                continue
            stack.extend(self.imports(self.tree(self.files[module]), self._package_of(module)))
        return seen


@pytest.fixture(scope="module")
def graph():
    return _ImportGraph()


def test_every_src_module_is_reachable_from_an_entry_point(graph):
    roots = sorted(REPO.glob("scripts/*.py")) + sorted(REPO.glob("bench/*.py"))
    assert roots, "no scripts/ or bench/ entry points found"
    unreached = set(graph.files) - graph.reachable(roots)
    assert not sorted(unreached - PENDING_DELETION), (
        f"modules no entry point imports: {sorted(unreached - PENDING_DELETION)}. "
        f"Delete them with their tests, or import them from the CLI, a script or bench/"
    )
    assert not sorted(PENDING_DELETION - unreached), (
        f"PENDING_DELETION names modules that are reached or gone: "
        f"{sorted(PENDING_DELETION - unreached)}; take them off the list"
    )


def test_no_new_repro_environment_flags():
    # Flags are read through named constants (`os.environ.get(ENV_FLAG)`),
    # so scan the text, not the call sites: every mention must be a
    # sanctioned flag, in code and docstrings alike.
    found = {
        name: path.relative_to(SRC)
        for path in sorted((SRC / "repro").rglob("*.py"))
        for name in re.findall(r"REPRO_[A-Z_]+", path.read_text())
    }
    extra = {name: str(path) for name, path in found.items() if name not in ENV_FLAGS}
    assert not extra, f"environment flags outside {sorted(ENV_FLAGS)}: {extra}"
    assert ENV_FLAGS <= set(found), (
        f"ENV_FLAGS names flags that are gone: {sorted(ENV_FLAGS - set(found))}; "
        f"take them off the list"
    )


def _example_imports() -> Iterator[tuple]:
    """(example, module, name) per `repro` import; name is None for `import m`."""
    for path in sorted(REPO.glob("examples/*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        yield path.name, alias.name, None
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def _top_level_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


@pytest.mark.parametrize("example,module,name", list(_example_imports()))
def test_example_imports_resolve(graph, example, module, name):
    assert module in graph.files, f"{example}: no module {module}"
    if name is None or f"{module}.{name}" in graph.files:
        return
    assert name in _top_level_names(graph.tree(graph.files[module])), (
        f"{example}: `from {module} import {name}` does not resolve"
    )


def _serve_imports() -> str:
    """The import statements at the top level of ``cli._cmd_serve``."""
    tree = ast.parse((SRC / "repro" / "cli.py").read_text())
    func = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_cmd_serve"
    )
    imports = [node for node in func.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports, "_cmd_serve imports nothing; the guard below would test nothing"
    return "\n".join(ast.unparse(node) for node in imports)


_COLD_START = """
import sys
import repro.cli
print(sum(1 for m in list(sys.modules) if m == "repro" or m.startswith("repro.")))
repro.cli.build_parser()
exec(sys.argv[1])
print("\\n".join(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def cold_start():
    """(repro modules after `import repro.cli`, every module on the serve path)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _COLD_START, _serve_imports()],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout.splitlines()
    return int(out[0]), set(out[1:])


def test_serve_cold_start_imports_nothing_it_does_not_run(cold_start):
    _, loaded = cold_start
    unused = sorted(
        module for module in loaded
        if any(module == name or module.startswith(name + ".") for name in SERVE_UNUSED)
    )
    assert not unused, (
        f"`repro serve` imports {unused} before its first request; import "
        f"them in the command or branch that runs them"
    )


def test_cli_import_loads_no_more_modules_than_the_ceiling(cold_start):
    count, _ = cold_start
    assert count <= CLI_MODULES, (
        f"`import repro.cli` loads {count} repro modules, over the ceiling "
        f"of {CLI_MODULES}; import the new module where it is used"
    )
    assert count == CLI_MODULES, (
        f"`import repro.cli` now loads {count} repro modules: lower "
        f"CLI_MODULES to {count} so the ceiling keeps what was won"
    )
