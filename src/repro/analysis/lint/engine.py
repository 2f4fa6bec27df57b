"""The ``repro lint`` engine: one walk, every rule, one result.

:func:`run_lint` turns a list of paths into a :class:`LintResult`:

1. :func:`~repro.analysis.flow.callgraph.build_callgraph` expands the
   paths (sorted, so output order is itself deterministic), and reads,
   parses and pragma-scans each file exactly once, deriving its dotted
   module name from the path or a ``# repro-lint: module=`` override;
2. every rule of the catalog runs over that one parse — per-file rules
   over each module's tree, whole-program rules over the call graph;
3. findings suppressed by pragmas are dropped, and a pragma naming an
   unknown directive or rule becomes a file error.

Unreadable and unparseable files become file errors rather than
crashes: a broken file in the tree should fail the lint run, not the
linter.  The result holds no timing or environment data, so two runs
over the same tree serialize byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.flow.callgraph import ModuleInfo, build_callgraph
from repro.analysis.lint.findings import Finding, LintError
from repro.analysis.lint.rules import ALL_RULES, RULES_BY_ID


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    errors: list[LintError] = field(default_factory=list)
    #: Paths visited, whether or not they could be read and parsed.
    files_checked: int = 0
    #: Call-graph shape counters (see ``CallGraph.shape``).
    graph: dict[str, int] = field(default_factory=dict)

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


def _pragma_errors(module: ModuleInfo) -> list[LintError]:
    """A pragma that would silently do nothing is an error."""
    sup = module.suppressions
    messages = list(sup.errors)
    for line, directive, rule in sup.rule_refs:
        if rule in RULES_BY_ID or (rule == "all" and directive.startswith("disable")):
            continue
        messages.append(f"line {line}: {directive}= names unknown rule {rule!r}")
    return [LintError(module.path, message) for message in messages]


def run_lint(paths: Sequence[str]) -> LintResult:
    """Run every rule over one parse of the Python files under ``paths``."""
    graph = build_callgraph(paths)
    errors = list(graph.errors)
    for module in graph.files:
        errors.extend(_pragma_errors(module))
    suppressions = {module.path: module.suppressions for module in graph.files}
    findings = [
        finding
        for rule in ALL_RULES
        for finding in rule.check(graph)
        if not suppressions[finding.path].is_suppressed(finding.line, finding.rule)
    ]
    return LintResult(
        findings=sorted(findings),
        errors=sorted(errors),
        files_checked=graph.files_checked,
        graph=graph.shape(),
    )


__all__ = ["LintResult", "run_lint"]
