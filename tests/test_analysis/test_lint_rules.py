"""Positive and negative single-file fixtures for the `repro lint` rules.

Each fixture is a small source file written to tmp_path carrying a
``# repro-lint: module=...`` pragma so the engine scopes it like real
package code. Every rule gets at least one fixture that must fire and
one that must stay silent.  The DET001 and CONC003 fixtures are kept
as inputs to the rules that report them now: FLOW001 (every function
of a deterministic package is a root) and the whole-program CONC001.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint.engine import run_lint
from repro.analysis.lint.rules import FULLY_ANNOTATED_MODULES

REPO = Path(__file__).resolve().parents[2]


def _lint(tmp_path: Path, module: str, body: str, name: str = "fixture.py"):
    source = f"# repro-lint: module={module}\n" + textwrap.dedent(body)
    path = tmp_path / name
    path.write_text(source)
    result = run_lint([str(path)])
    assert result.errors == [], result.errors
    return result.findings


def _rules(findings):
    return sorted({f.rule for f in findings})


# -- DET001, now FLOW001 with every deterministic function a root -------------

def test_det001_flags_time_time(tmp_path):
    findings = _lint(tmp_path, "repro.sim.fake", """
        import time

        def now():
            return time.time()
    """)
    assert _rules(findings) == ["FLOW001"]
    assert len(findings) == 1  # the call; an unused import reads nothing
    assert "'deterministic package' via repro.sim.fake.now" in findings[0].message


def test_det001_flags_module_level_clock_read(tmp_path):
    findings = _lint(tmp_path, "repro.metrics.fake", """
        import time

        LOADED_AT = time.time()
    """)
    assert _rules(findings) == ["FLOW001"]
    assert "repro.metrics.fake.<module>" in findings[0].message


def test_det001_flags_datetime_now_and_bare_random(tmp_path):
    findings = _lint(tmp_path, "repro.scheduling.fake", """
        import datetime
        import random
        from random import shuffle

        def stamp(xs):
            return datetime.datetime.now(), random.random(), shuffle(xs)
    """)
    rules = [f.rule for f in findings]
    assert set(rules) == {"FLOW001"}
    messages = " ".join(f.message for f in findings)
    assert "datetime.datetime.now" in messages
    assert "random.random" in messages
    assert "random.shuffle" in messages


def test_det001_flags_os_urandom_and_np_random(tmp_path):
    findings = _lint(tmp_path, "repro.metrics.fake", """
        import os
        import numpy as np

        def entropy():
            return os.urandom(8), np.random.default_rng()
    """)
    messages = " ".join(f.message for f in findings)
    assert "os.urandom" in messages
    assert "np.random.default_rng" in messages


def test_det001_silent_outside_deterministic_packages(tmp_path):
    findings = _lint(tmp_path, "repro.service.fake", """
        import time

        def now():
            return time.time()
    """)
    assert "FLOW001" not in _rules(findings)


def test_det001_whitelists_the_rng_module(tmp_path):
    # repro.sim.rng is the sanctioned entropy source.
    findings = _lint(tmp_path, "repro.sim.rng", """
        import numpy as np

        def make(seed):
            return np.random.default_rng(seed)
    """)
    assert "FLOW001" not in _rules(findings)


def test_det001_allows_injected_clock_idiom(tmp_path):
    findings = _lint(tmp_path, "repro.sim.fake", """
        def advance(sim, dt: float) -> float:
            return sim.now + dt
    """)
    assert findings == []


# -- DET002 -------------------------------------------------------------------

def test_det002_flags_set_iteration(tmp_path):
    findings = _lint(tmp_path, "repro.sim.fake", """
        def emit(pending: set) -> list:
            out = []
            for job in pending:  # ordered input, fine
                out.append(job)
            for job in set(out):
                out.append(job)
            return out
    """)
    assert _rules(findings) == ["DET002"]
    assert len(findings) == 1  # only the set(...) loop


def test_det002_flags_dict_keys_and_set_literal_comprehension(tmp_path):
    findings = _lint(tmp_path, "repro.scheduling.fake", """
        def emit(d: dict) -> list:
            a = [k for k in d.keys()]
            b = [x for x in {1, 2, 3}]
            c = [x for x in {k for k in d}]
            return a + b + c
    """)
    assert [f.rule for f in findings] == ["DET002", "DET002", "DET002"]


def test_det002_flags_set_algebra(tmp_path):
    findings = _lint(tmp_path, "repro.sim.fake", """
        def emit(a: set, b: set) -> list:
            return [x for x in set(a) | set(b)]
    """)
    assert _rules(findings) == ["DET002"]


def test_det002_sorted_wrapping_is_clean(tmp_path):
    findings = _lint(tmp_path, "repro.sim.fake", """
        def emit(pending: set, d: dict) -> list:
            out = [x for x in sorted(pending)]
            for k in sorted(d.keys()):
                out.append(k)
            return out
    """)
    assert findings == []


# -- DET003 -------------------------------------------------------------------

def test_det003_flags_float_name_equality(tmp_path):
    findings = _lint(tmp_path, "repro.scheduling.fake", """
        def same(sigma: float) -> bool:
            return sigma == 0.0
    """)
    assert _rules(findings) == ["DET003"]


def test_det003_flags_float_literal_and_division(tmp_path):
    findings = _lint(tmp_path, "repro.sim.fake", """
        def check(a: int, b: int, x) -> bool:
            return x == 0.5 or (a / b) != x
    """)
    assert [f.rule for f in findings] == ["DET003", "DET003"]


def test_det003_attribute_operand(tmp_path):
    findings = _lint(tmp_path, "repro.scheduling.fake", """
        def due(job, t) -> bool:
            return job.deadline == t
    """)
    assert _rules(findings) == ["DET003"]


def test_det003_ignores_integer_and_string_comparisons(tmp_path):
    findings = _lint(tmp_path, "repro.sim.fake", """
        def check(n: int, s: str) -> bool:
            return n == 3 and s == "done" and n != 0
    """)
    assert findings == []


def test_det003_not_applied_outside_sim_scheduling(tmp_path):
    findings = _lint(tmp_path, "repro.metrics.fake", """
        def same(sigma: float) -> bool:
            return sigma == 0.0
    """)
    assert "DET003" not in _rules(findings)


def test_det003_numerics_module_is_exempt(tmp_path):
    # The exemption is the file's own visible, justified pragma.
    findings = _lint(tmp_path, "repro.sim.numerics", """
        # repro-lint: disable-file=DET003  exact comparison lives here
        def exact_zero(x: float) -> bool:
            return x == 0.0
    """)
    assert findings == []


# -- CONC001 ------------------------------------------------------------------

def test_conc001_flags_unlocked_engine_mutation(tmp_path):
    findings = _lint(tmp_path, "repro.service.fake", """
        class Service:
            def apply(self, lsn: int) -> None:
                self.engine.wal_lsn = lsn
    """)
    assert _rules(findings) == ["CONC001"]


def test_conc001_with_lock_is_clean(tmp_path):
    findings = _lint(tmp_path, "repro.service.fake", """
        class Service:
            def apply(self, lsn: int) -> None:
                with self._engine_lock:
                    self.engine.wal_lsn = lsn
    """)
    assert findings == []


def test_conc001_locked_marker_exempts_function(tmp_path):
    findings = _lint(tmp_path, "repro.service.fake", """
        class Service:
            def apply(self, lsn: int) -> None:  # repro-lint: locked  caller holds it
                self.engine.wal_lsn = lsn
    """)
    assert findings == []


def test_conc001_safe_marker_exempts_function(tmp_path):
    findings = _lint(tmp_path, "repro.service.fake", """
        def restore(engine, snap) -> None:  # repro-lint: safe=CONC001  pre-publication
            engine.wal_lsn = snap["lsn"]
    """)
    assert findings == []


def test_conc001_rebinding_the_reference_is_construction(tmp_path):
    findings = _lint(tmp_path, "repro.service.fake", """
        class Service:
            def __init__(self, engine) -> None:
                self.engine = engine
    """)
    assert findings == []


def test_conc001_nested_def_does_not_inherit_lock(tmp_path):
    # A closure created under the lock may run later, unlocked.
    findings = _lint(tmp_path, "repro.service.fake", """
        class Service:
            def apply(self, lsn: int):
                with self._engine_lock:
                    def later() -> None:
                        self.engine.wal_lsn = lsn
                    return later
    """)
    assert _rules(findings) == ["CONC001"]


def test_conc001_not_applied_to_engine_module_itself(tmp_path):
    findings = _lint(tmp_path, "repro.service.engine", """
        class AdmissionEngine:
            def bump(self, wal, lsn: int) -> None:
                wal.next_lsn = lsn
    """)
    assert findings == []


# -- API001 -------------------------------------------------------------------

def test_api001_flags_missing_annotations(tmp_path):
    findings = _lint(tmp_path, "repro.service.protocol", """
        def parse(data):
            return data

        class Codec:
            def encode(self, value: int):
                return value
    """)
    messages = " ".join(f.message for f in findings)
    assert _rules(findings) == ["API001"]
    assert "'parse'" in messages and "'encode'" in messages


def test_api001_fully_annotated_is_clean(tmp_path):
    findings = _lint(tmp_path, "repro.scheduling.base", """
        class SchedulingPolicy:
            def admit(self, job: object) -> bool:
                return True

        def helper(x: int, *args: int, **kw: int) -> int:
            return x
    """)
    assert findings == []


def test_api001_private_functions_are_exempt(tmp_path):
    findings = _lint(tmp_path, "repro.service.protocol", """
        def _internal(data):
            return data
    """)
    assert findings == []


def test_api001_only_applies_to_contract_modules(tmp_path):
    findings = _lint(tmp_path, "repro.service.fake", """
        def parse(data):
            return data
    """)
    assert "API001" not in _rules(findings)


def test_api001_modules_are_in_mypy_strict_overrides():
    # mypy does not run in every environment the suite does, so API001
    # is the local gate for these contracts; its scope must stay inside
    # pyproject's strict override list or the two gates drift apart.
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((REPO / "pyproject.toml").read_text())
    strict = [
        pattern
        for override in config["tool"]["mypy"]["overrides"]
        if override.get("disallow_untyped_defs")
        and override.get("disallow_incomplete_defs")
        for pattern in (
            [override["module"]] if isinstance(override["module"], str)
            else override["module"]
        )
    ]

    def covered(prefix: str) -> bool:
        return any(
            pattern == prefix
            or (pattern.endswith(".*")
                and (prefix == pattern[:-2] or prefix.startswith(pattern[:-1])))
            for pattern in strict
        )

    assert FULLY_ANNOTATED_MODULES
    assert [m for m in FULLY_ANNOTATED_MODULES if not covered(m)] == []


# -- CONC003, now the metric-module half of CONC001 ---------------------------

def test_conc003_flags_unlocked_ring_mutation(tmp_path):
    findings = _lint(tmp_path, "repro.obs.windows", """
        class Counter:
            def note(self, t):
                self._counts[0] += 1.0
                self.cursor = t
    """)
    assert _rules(findings) == ["CONC001"]
    assert len(findings) == 2
    # The subscript write is attributed to the ring, not ignored.
    assert "self._counts" in findings[0].message


def test_conc003_flags_unlocked_container_method(tmp_path):
    findings = _lint(tmp_path, "repro.obs.metrics", """
        class Histogram:
            def observe(self, value):
                self._values.append(value)
    """)
    assert _rules(findings) == ["CONC001"]
    assert "append" in findings[0].message


def test_conc003_silent_under_the_lock(tmp_path):
    findings = _lint(tmp_path, "repro.obs.windows", """
        class Counter:
            def note(self, t):
                with self._lock:
                    self._counts[0] += 1.0
                    self._values.append(t)
    """)
    assert findings == []


def test_conc003_init_is_exempt(tmp_path):
    findings = _lint(tmp_path, "repro.obs.windows", """
        import threading

        class Counter:
            def __init__(self):
                self._counts = [0.0]
                self._lock = threading.Lock()
    """)
    assert findings == []


def test_conc003_locked_pragma_honoured(tmp_path):
    findings = _lint(tmp_path, "repro.obs.windows", """
        class Counter:
            def _advance(self, t):  # repro-lint: locked  callers hold self._lock
                self.cursor = t
    """)
    assert findings == []


def test_conc003_ignores_locals_and_other_modules(tmp_path):
    # Local variables are thread-private; other repro.obs modules
    # (exporters, console) are out of scope for this rule.
    findings = _lint(tmp_path, "repro.obs.windows", """
        class Counter:
            def snapshot(self):
                out = []
                out.append(1)
                return out
    """)
    assert findings == []
    findings = _lint(tmp_path, "repro.obs.console", """
        class View:
            def poll(self):
                self.last = 1
    """)
    assert findings == []


def test_conc003_nested_def_does_not_inherit_lock(tmp_path):
    findings = _lint(tmp_path, "repro.obs.windows", """
        class Counter:
            def start(self):
                with self._lock:
                    def worker():
                        self.cursor = 1.0
                    return worker
    """)
    assert _rules(findings) == ["CONC001"]


# -- DET002: name-binding tracking --------------------------------------------

def test_det002_flags_iteration_over_name_bound_to_set(tmp_path):
    findings = _lint(tmp_path, "repro.sim.fake", """
        def emit(xs: list) -> list:
            s = set(xs)
            out = []
            for x in s:
                out.append(x)
            return out
    """)
    assert _rules(findings) == ["DET002"]
    assert "name bound to a set/frozenset value" in findings[0].message


def test_det002_flags_module_level_frozenset_constant(tmp_path):
    findings = _lint(tmp_path, "repro.scheduling.fake", """
        NAMES = frozenset({"edf", "libra"})

        def emit() -> list:
            return [n for n in NAMES]
    """)
    assert _rules(findings) == ["DET002"]


def test_det002_rebinding_through_sorted_clears_the_taint(tmp_path):
    findings = _lint(tmp_path, "repro.sim.fake", """
        def emit(xs: list) -> list:
            s = set(xs)
            s = sorted(s)
            return [x for x in s]
    """)
    assert findings == []


def test_det002_sorted_wrap_of_bound_name_is_clean(tmp_path):
    findings = _lint(tmp_path, "repro.sim.fake", """
        def emit(xs: list) -> list:
            s = set(xs)
            return [x for x in sorted(s)]
    """)
    assert findings == []


def test_det002_parameter_shadowing_resets_the_binding(tmp_path):
    # The module-level set binding must not leak into a function whose
    # parameter shadows the name: parameters have unknown order-ness.
    findings = _lint(tmp_path, "repro.sim.fake", """
        s = frozenset({1, 2})

        def emit(s: list) -> list:
            return [x for x in s]
    """)
    assert findings == []


def test_det002_augmented_set_algebra_keeps_the_binding(tmp_path):
    findings = _lint(tmp_path, "repro.sim.fake", """
        def emit(xs: list, ys: list) -> list:
            s = set(xs)
            s |= set(ys)
            return [x for x in s]
    """)
    assert _rules(findings) == ["DET002"]


# -- scope markers on decorated defs and multi-line with ----------------------

def test_conc001_locked_marker_on_decorator_line(tmp_path):
    findings = _lint(tmp_path, "repro.service.fake", """
        def traced(fn):
            return fn

        class Service:
            @traced  # repro-lint: locked  dispatch holds the engine lock
            def apply(self, lsn: int) -> None:
                self.engine.wal_lsn = lsn
    """)
    assert findings == []


def test_conc001_marker_on_def_line_under_decorator(tmp_path):
    findings = _lint(tmp_path, "repro.service.fake", """
        def traced(fn):
            return fn

        class Service:
            @traced
            def apply(self, lsn: int) -> None:  # repro-lint: locked  caller holds it
                self.engine.wal_lsn = lsn
    """)
    assert findings == []


def test_conc003_safe_marker_on_decorator_line(tmp_path):
    findings = _lint(tmp_path, "repro.obs.windows", """
        def traced(fn):
            return fn

        class Counter:
            @traced  # repro-lint: safe=CONC001  single-threaded rebuild
            def rebuild(self):
                self._counts[0] = 0.0
    """)
    assert findings == []


def test_conc001_decorated_function_without_marker_still_fires(tmp_path):
    findings = _lint(tmp_path, "repro.service.fake", """
        def traced(fn):
            return fn

        class Service:
            @traced
            def apply(self, lsn: int) -> None:
                self.engine.wal_lsn = lsn
    """)
    assert _rules(findings) == ["CONC001"]


def test_conc001_multiline_parenthesized_with_is_recognized(tmp_path):
    findings = _lint(tmp_path, "repro.service.fake", """
        class Service:
            def apply(self, lsn: int) -> None:
                with (
                    self._engine_lock,
                    self._wal_lock,
                ):
                    self.engine.wal_lsn = lsn
    """)
    assert findings == []


def test_conc003_multiline_with_covers_trailing_statements(tmp_path):
    findings = _lint(tmp_path, "repro.obs.windows", """
        class Counter:
            def note(self, t):
                with (
                    self._lock
                ):
                    self._counts[0] += 1.0
                    self._values.append(t)
    """)
    assert findings == []
