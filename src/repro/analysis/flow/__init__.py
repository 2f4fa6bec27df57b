"""The whole-program half of ``repro lint``.

:mod:`~repro.analysis.flow.callgraph` is the one walk: it parses each
file once into a deterministic call graph of ``src/repro``.  The other
modules check the invariants that cross function boundaries over it —
:mod:`~repro.analysis.flow.taint` (FLOW001),
:mod:`~repro.analysis.flow.locks` (CONC001, FLOW002) and
:mod:`~repro.analysis.flow.walproto` (FLOW004); the rule catalog in
:mod:`repro.analysis.lint.rules` lists them beside the per-file rules.

Static findings are cross-validated at runtime by
:mod:`repro.analysis.sanitizer` (``REPRO_SANITIZE=1``), which patches
the banned sources to raise inside active decision-path spans.
"""
