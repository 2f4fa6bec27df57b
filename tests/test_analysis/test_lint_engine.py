"""Engine behavior: suppressions, pragma errors, module resolution."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.flow.callgraph import module_for_path
from repro.analysis.lint.engine import run_lint
from repro.analysis.lint.findings import Finding
from repro.analysis.lint.suppressions import parse_suppressions


def _write(tmp_path, body: str, name: str = "fixture.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return path


def _lint_one(path: str):
    """(findings, the one file error or None) for a single file."""
    result = run_lint([path])
    assert len(result.errors) <= 1, result.errors
    return result.findings, (result.errors[0] if result.errors else None)


# -- module resolution --------------------------------------------------------

@pytest.mark.parametrize("path,module", [
    ("src/repro/sim/kernel.py", "repro.sim.kernel"),
    ("src/repro/scheduling/__init__.py", "repro.scheduling"),
    ("repro/service/wal.py", "repro.service.wal"),
    ("src/repro/__init__.py", "repro"),
    ("somewhere/else.py", ""),
])
def test_module_for_path(path, module):
    assert module_for_path(path) == module


def test_module_pragma_overrides_path(tmp_path):
    path = _write(tmp_path, """
        # repro-lint: module=repro.sim.fake
        import time
        T0 = time.time()
    """)
    findings, error = _lint_one(str(path))
    assert error is None
    assert [f.rule for f in findings] == ["FLOW001"]


def test_files_outside_repro_are_unscoped(tmp_path):
    path = _write(tmp_path, """
        import time
        T0 = time.time()
        x = 1.0 == 2.0
    """)
    findings, error = _lint_one(str(path))
    assert error is None
    assert findings == []


# -- suppression pragmas ------------------------------------------------------

def test_line_suppression_silences_one_line_only(tmp_path):
    path = _write(tmp_path, """
        # repro-lint: module=repro.sim.fake
        def f(t: float, u: float) -> bool:
            a = t == 1.0  # repro-lint: disable=DET003  deliberate
            b = u == 2.0
            return a or b
    """)
    findings, _ = _lint_one(str(path))
    assert len(findings) == 1
    assert "u" in findings[0].message or "2.0" in findings[0].message


def test_disable_all_on_line(tmp_path):
    path = _write(tmp_path, """
        # repro-lint: module=repro.sim.fake
        def f(t: float) -> bool:
            return t == 1.0  # repro-lint: disable=all
    """)
    findings, _ = _lint_one(str(path))
    assert findings == []


def test_file_level_suppression(tmp_path):
    path = _write(tmp_path, """
        # repro-lint: module=repro.sim.fake
        # repro-lint: disable-file=DET003
        def f(t: float) -> bool:
            return t == 1.0
    """)
    findings, _ = _lint_one(str(path))
    assert findings == []


def test_suppression_is_rule_specific(tmp_path):
    path = _write(tmp_path, """
        # repro-lint: module=repro.sim.fake
        # repro-lint: disable-file=DET002
        def f(t: float) -> bool:
            return t == 1.0
    """)
    findings, _ = _lint_one(str(path))
    assert [f.rule for f in findings] == ["DET003"]


def test_pragma_parser_reads_multiple_rules():
    sup = parse_suppressions(
        "x = 1  # repro-lint: disable=FLOW001,DET003 justification here\n"
    )
    assert sup.is_line_suppressed(1, "FLOW001")
    assert sup.is_line_suppressed(1, "DET003")
    assert not sup.is_line_suppressed(1, "CONC001")
    assert not sup.is_line_suppressed(2, "FLOW001")


def test_unknown_directive_is_a_file_error(tmp_path):
    sup = parse_suppressions("# repro-lint: frobnicate=yes\n")
    assert sup.line_disables == {}
    assert sup.module_override is None
    path = _write(tmp_path, """
        # repro-lint: module=repro.sim.fake
        x = 1  # repro-lint: frobnicate=yes
    """)
    result = run_lint([str(path)])
    assert [e.message for e in result.errors] == [
        "line 3: unknown repro-lint directive 'frobnicate=yes'"
    ]


@pytest.mark.parametrize("pragma,message", [
    ("x = 1  # repro-lint: disable=DET001  retired id",
     "line 3: disable= names unknown rule 'DET001'"),
    ("# repro-lint: disable-file=CONC003",
     "line 3: disable-file= names unknown rule 'CONC003'"),
    ("def f():  # repro-lint: safe=FLOW003\n    pass",
     "line 3: safe= names unknown rule 'FLOW003'"),
    ("def f():  # repro-lint: boundary=all\n    pass",
     "line 3: boundary= names unknown rule 'all'"),
])
def test_pragma_naming_an_unknown_rule_fails_the_run(tmp_path, pragma, message):
    path = tmp_path / "fixture.py"
    path.write_text(f"# repro-lint: module=repro.sim.fake\n\n{pragma}\n")
    result = run_lint([str(path)])
    assert result.findings == []
    assert [e.message for e in result.errors] == [message]


def test_disable_all_is_a_known_rule_list(tmp_path):
    path = _write(tmp_path, """
        # repro-lint: module=repro.sim.fake
        # repro-lint: disable-file=all
        def f(t: float) -> bool:
            return t == 1.0
    """)
    assert run_lint([str(path)]).errors == []


# -- engine errors ------------------------------------------------------------

def test_syntax_error_becomes_lint_error(tmp_path):
    path = _write(tmp_path, "def broken(:\n")
    result = run_lint([str(path)])
    assert result.findings == []
    assert len(result.errors) == 1
    assert "syntax error" in result.errors[0].message


def test_run_lint_walks_directories_deterministically(tmp_path):
    for name in ("b.py", "a.py"):
        _write(tmp_path, """
            # repro-lint: module=repro.sim.fake
            def f(t: float) -> bool:
                return t == 1.0
        """, name=name)
    result = run_lint([str(tmp_path)])
    assert result.files_checked == 2
    assert [f.path for f in result.findings] == [
        str(tmp_path / "a.py"), str(tmp_path / "b.py"),
    ]


# -- findings record ----------------------------------------------------------

def test_finding_render_and_dict():
    f = Finding(path="src/a.py", line=3, col=0, rule="FLOW001", message="no clocks")
    assert f.render() == "src/a.py:3:0: FLOW001 no clocks"
    assert f.as_dict() == {
        "path": "src/a.py", "line": 3, "col": 0,
        "rule": "FLOW001", "message": "no clocks",
    }
