"""Whole-program rules (FLOW001, FLOW002, CONC001, FLOW004): fire + stay-silent.

Each fixture directory is a tiny multi-file program written to
tmp_path; ``# repro-lint: module=...`` pragmas give the files the
package-qualified names the sink/op tables key on.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.flow.callgraph import build_callgraph
from repro.analysis.flow.locks import check_lock_discipline, check_lock_order
from repro.analysis.flow.taint import check_taint
from repro.analysis.flow.walproto import check_wal_protocol
from repro.analysis.lint.engine import run_lint


def _write(tmp_path: Path, name: str, module: str, body: str) -> str:
    path = tmp_path / name
    path.write_text(f"# repro-lint: module={module}\n" + textwrap.dedent(body))
    return str(path)


def _graph(tmp_path: Path, files: dict[str, tuple[str, str]]):
    paths = [_write(tmp_path, name, mod, body)
             for name, (mod, body) in sorted(files.items())]
    graph = build_callgraph(paths)
    assert not graph.errors, graph.errors
    return graph


# -- FLOW001: interprocedural nondeterminism taint ----------------------------

# Outside the deterministic packages, so only the decision-path root
# (engine submit) reaches the clock, through two calls.
ENGINE_WITH_DEEP_CLOCK = ("repro.service.engine", """
    import time


    class Helper:
        def deep(self) -> float:
            return time.time()


    class AdmissionEngine:
        def __init__(self) -> None:
            self.helper = Helper()

        def mid(self) -> float:
            return self.helper.deep()

        def submit(self, job):
            return self.mid()
""")


def test_flow001_reports_full_source_to_sink_chain(tmp_path):
    graph = _graph(tmp_path, {"pol.py": ENGINE_WITH_DEEP_CLOCK})
    findings = check_taint(graph)
    assert [f.rule for f in findings] == ["FLOW001"]
    message = findings[0].message
    assert "wall-clock source time.time()" in message
    assert "'engine submit'" in message
    assert (
        "repro.service.engine.AdmissionEngine.submit -> "
        "repro.service.engine.AdmissionEngine.mid -> "
        "repro.service.engine.Helper.deep"
    ) in message


def test_flow001_deterministic_package_function_is_its_own_root(tmp_path):
    module, body = ENGINE_WITH_DEEP_CLOCK
    graph = _graph(tmp_path, {"pol.py": ("repro.metrics.fake", body)})
    findings = check_taint(graph)
    assert [f.rule for f in findings] == ["FLOW001"]
    assert (
        "root 'deterministic package' via repro.metrics.fake.Helper.deep;"
        in findings[0].message
    )


def test_flow001_boundary_on_source_function_sanctions_it(tmp_path):
    module, body = ENGINE_WITH_DEEP_CLOCK
    body = body.replace(
        "def deep(self) -> float:",
        "def deep(self) -> float:"
        "  # repro-lint: boundary=FLOW001  replay reproduces this",
    )
    graph = _graph(tmp_path, {"pol.py": (module, body)})
    assert check_taint(graph) == []


def test_flow001_boundary_mid_chain_stops_propagation(tmp_path):
    module, body = ENGINE_WITH_DEEP_CLOCK
    body = body.replace(
        "def mid(self) -> float:",
        "def mid(self) -> float:"
        "  # repro-lint: boundary=FLOW001  logged upstream",
    )
    graph = _graph(tmp_path, {"pol.py": (module, body)})
    assert check_taint(graph) == []


def test_flow001_silent_when_no_decision_root_reaches_source(tmp_path):
    graph = _graph(tmp_path, {"util.py": ("repro.util.fake", """
        import time

        def stamp() -> float:
            return time.time()
    """)})
    assert check_taint(graph) == []


def test_flow001_seeded_rng_module_is_exempt(tmp_path):
    graph = _graph(tmp_path, {
        "rng.py": ("repro.sim.rng", """
            import random

            def draw() -> float:
                return random.random()
        """),
        "pol.py": ("repro.scheduling.fakepol2", """
            from repro.sim.rng import draw


            class FakePolicy:
                def on_job_submitted(self, job, now):
                    return draw()
        """),
    })
    assert check_taint(graph) == []


# -- FLOW002: lock-order cycles -----------------------------------------------

LOCK_CYCLE = ("repro.service.fakelocks", """
    import threading


    class Pair:
        def __init__(self) -> None:
            self._a_lock = threading.Lock()
            self._b_lock = threading.Lock()

        def path_one(self) -> None:
            with self._a_lock:
                with self._b_lock:
                    pass

        def path_two(self) -> None:
            with self._b_lock:
                self.grab_a()

        def grab_a(self) -> None:
            with self._a_lock:
                pass
""")


def test_flow002_reports_cycle_with_both_witnesses(tmp_path):
    graph = _graph(tmp_path, {"locks.py": LOCK_CYCLE})
    findings = check_lock_order(graph)
    assert [f.rule for f in findings] == ["FLOW002"]
    message = findings[0].message
    assert "lock-order cycle" in message
    assert "_a_lock" in message and "_b_lock" in message
    assert "path_one" in message and "path_two" in message


def test_flow002_silent_on_consistent_global_order(tmp_path):
    module, body = LOCK_CYCLE
    body = body.replace("self.grab_a()", "pass").replace(
        "with self._b_lock:\n                pass",
        "with self._b_lock:\n                pass",
    )
    graph = _graph(tmp_path, {"locks.py": (module, body)})
    assert check_lock_order(graph) == []


def test_flow002_sees_interprocedural_acquisition(tmp_path):
    # The cycle's second edge exists only through grab_a(): drop the
    # call and the order graph is acyclic even with both lexical sites.
    graph = _graph(tmp_path, {"locks.py": LOCK_CYCLE})
    assert check_lock_order(graph)
    module, body = LOCK_CYCLE
    subdir = tmp_path / "acyclic"
    subdir.mkdir()
    graph2 = _graph(
        subdir,
        {"locks.py": (module, body.replace("self.grab_a()", "pass"))},
    )
    assert check_lock_order(graph2) == []


# -- CONC001 (was FLOW003): unlocked calls into locked scopes -----------------

LOCKED_SCOPE = ("repro.service.fakecov", """
    import threading


    class Keeper:
        def __init__(self) -> None:
            self._engine_lock = threading.Lock()

        def mutate(self) -> None:  # repro-lint: locked  caller holds lock
            pass

        def good(self) -> None:
            with self._engine_lock:
                self.mutate()

        def bad(self) -> None:
            self.mutate()
""")


def test_flow003_flags_unlocked_call_into_locked_scope(tmp_path):
    graph = _graph(tmp_path, {"cov.py": LOCKED_SCOPE})
    findings = check_lock_discipline(graph)
    assert [f.rule for f in findings] == ["CONC001"]
    assert "Keeper.bad" in findings[0].message
    assert "Keeper.mutate" in findings[0].message


def test_flow003_accepts_lexical_lock_and_locked_caller(tmp_path):
    module, body = LOCKED_SCOPE
    body = body.replace(
        "def bad(self) -> None:",
        "def bad(self) -> None:  # repro-lint: locked  entered via good",
    )
    graph = _graph(tmp_path, {"cov.py": (module, body)})
    assert check_lock_discipline(graph) == []


# -- CONC001: shared-state writes, checked over every entry path --------------

SHARED_WRITE = ("repro.service.fakeconc", """
    import threading


    class Service:
        def __init__(self, engine) -> None:
            self.engine = engine
            self._engine_lock = threading.Lock()

        def _bump(self, lsn: int) -> None:
            self.engine.wal_lsn = lsn

        def handle(self, lsn: int) -> None:
            with self._engine_lock:
                self._bump(lsn)
""")


def test_conc001_accepts_a_write_every_caller_enters_under_the_lock(tmp_path):
    graph = _graph(tmp_path, {"conc.py": SHARED_WRITE})
    assert check_lock_discipline(graph) == []


def test_conc001_flags_a_write_one_caller_enters_unlocked(tmp_path):
    module, body = SHARED_WRITE
    body += textwrap.dedent("""
        def replay(self, lsn: int) -> None:
            self._bump(lsn)
    """).replace("\n", "\n        ")
    graph = _graph(tmp_path, {"conc.py": (module, body)})
    findings = check_lock_discipline(graph)
    assert [(f.rule, f.line) for f in findings] == [("CONC001", 12)]
    assert "self.engine.wal_lsn" in findings[0].message
    assert "Service._bump" in findings[0].message


# -- FLOW004: WAL protocol ----------------------------------------------------

WAL_FIXTURE = {
    "wal.py": ("repro.service.wal", """
        class WriteAheadLog:
            @classmethod
            def open(cls, path):
                return cls()

            def append(self, t, req, clamp=False):
                return 1

            def compact(self):
                return None


        def recover(path, engine):
            return None
    """),
    "engine.py": ("repro.service.engine", """
        class AdmissionEngine:
            def submit(self, job):
                return None
    """),
    "server.py": ("repro.service.server", """
        class ServiceServer:
            def serve_forever(self):
                return None
    """),
    "driver.py": ("repro.service.driver", """
        from repro.service.engine import AdmissionEngine
        from repro.service.server import ServiceServer
        from repro.service.wal import WriteAheadLog, recover


        def apply_first(engine: AdmissionEngine, wal: WriteAheadLog, job, req):
            engine.submit(job)
            wal.append(0.0, req)


        def serve_unrecovered(server: ServiceServer, path):
            wal = WriteAheadLog.open(path)
            server.serve_forever()


        def serve_recovered(server: ServiceServer, path, engine):
            wal = WriteAheadLog.open(path)
            recover(path, engine)
            server.serve_forever()


        def compact_unlocked(wal: WriteAheadLog):
            wal.compact()
    """),
}


def test_flow004_fires_all_three_checks_and_spares_recovered(tmp_path):
    graph = _graph(tmp_path, WAL_FIXTURE)
    findings = check_wal_protocol(graph)
    assert [f.rule for f in findings] == ["FLOW004"] * 3
    messages = " | ".join(f.message for f in findings)
    assert "apply_first reaches engine apply" in messages
    assert "serve_unrecovered opens a WAL and serves" in messages
    assert "compact_unlocked compacts the WAL with no lock held" in messages
    assert "serve_recovered" not in messages


def test_flow004_append_before_apply_is_clean(tmp_path):
    files = dict(WAL_FIXTURE)
    module, body = files["driver.py"]
    # Swap the two lines so the append precedes the apply.
    body = (
        body.replace("engine.submit(job)", "__SWAP__")
        .replace("wal.append(0.0, req)", "engine.submit(job)")
        .replace("__SWAP__", "wal.append(0.0, req)")
    )
    files["driver.py"] = (module, body)
    graph = _graph(tmp_path, files)
    messages = " ".join(f.message for f in check_wal_protocol(graph))
    assert "apply_first" not in messages


def test_flow004_safe_pragma_exempts_cold_compaction(tmp_path):
    files = dict(WAL_FIXTURE)
    module, body = files["driver.py"]
    body = body.replace(
        "def compact_unlocked(wal: WriteAheadLog):",
        "def compact_unlocked(wal: WriteAheadLog):"
        "  # repro-lint: safe=FLOW004  offline archive tool",
    )
    files["driver.py"] = (module, body)
    graph = _graph(tmp_path, files)
    messages = " ".join(f.message for f in check_wal_protocol(graph))
    assert "compact_unlocked" not in messages


def test_flow004_compact_under_lock_is_clean(tmp_path):
    files = dict(WAL_FIXTURE)
    module, body = files["driver.py"]
    body = body.replace(
        "def compact_unlocked(wal: WriteAheadLog):",
        "import threading\n\n"
        "        _wal_lock = threading.Lock()\n\n\n"
        "        def compact_unlocked(wal: WriteAheadLog):",
    ).replace(
        "wal.compact()",
        "with _wal_lock:\n                wal.compact()",
    )
    files["driver.py"] = (module, body)
    graph = _graph(tmp_path, files)
    messages = " ".join(f.message for f in check_wal_protocol(graph))
    assert "compact" not in messages


# -- run_lint: suppression + ordering -----------------------------------------

def test_run_flow_honors_line_disable_pragma(tmp_path):
    module, body = ENGINE_WITH_DEEP_CLOCK
    body = body.replace(
        "return time.time()",
        "return time.time()  # repro-lint: disable=FLOW001  test seam",
    )
    path = _write(tmp_path, "pol.py", module, body)
    result = run_lint([path])
    assert result.findings == []
    assert result.errors == []


def test_run_flow_merges_and_sorts_all_rules(tmp_path):
    paths = [
        _write(tmp_path, "pol.py", *ENGINE_WITH_DEEP_CLOCK),
        _write(tmp_path, "locks.py", *LOCK_CYCLE),
        _write(tmp_path, "cov.py", *LOCKED_SCOPE),
    ]
    result = run_lint(paths)
    rules = [f.rule for f in result.findings]
    assert sorted(rules) == ["CONC001", "FLOW001", "FLOW002"]
    assert result.findings == sorted(result.findings)
    assert result.counts_by_rule() == {
        "CONC001": 1, "FLOW001": 1, "FLOW002": 1,
    }
    assert result.graph["modules"] == 3
