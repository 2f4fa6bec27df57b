"""``repro lint``: AST-based determinism & concurrency linter.

Submodules:

* :mod:`~repro.analysis.lint.rules` — the rule catalog (DET001-003,
  CONC001, CONC003, API001);
* :mod:`~repro.analysis.lint.engine` — file walking and rule dispatch;
* :mod:`~repro.analysis.lint.suppressions` — ``# repro-lint:`` pragmas;
* :mod:`~repro.analysis.lint.baseline` — grandfathering / ratchet;
* :mod:`~repro.analysis.lint.cli` — the command-line front end.
"""

from __future__ import annotations

from repro.analysis.lint.engine import LintError, LintResult, run_lint
from repro.analysis.lint.findings import Finding
from repro.analysis.lint.rules import ALL_RULES, RULES_BY_ID, Rule

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintError",
    "LintResult",
    "RULES_BY_ID",
    "Rule",
    "run_lint",
]
