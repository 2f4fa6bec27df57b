"""``repro lint``: the one static determinism & concurrency analyzer.

Submodules:

* :mod:`~repro.analysis.lint.rules` — the one rule catalog, per-file
  and whole-program rules alike;
* :mod:`~repro.analysis.lint.engine` — one walk, every rule, one result;
* :mod:`~repro.analysis.lint.suppressions` — ``# repro-lint:`` pragmas;
* :mod:`~repro.analysis.lint.findings` — findings and file errors;
* :mod:`~repro.analysis.lint.cli` — the command-line front end.

The call graph and the whole-program checks live in
:mod:`repro.analysis.flow`.
"""
