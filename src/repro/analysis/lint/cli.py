"""Command-line front end of ``repro lint``, the one static analyzer.

:func:`add_arguments` is the single source of truth for the flags of
the ``repro lint`` subcommand::

    repro lint src/

Exit codes: ``0`` clean, ``1`` findings or files it could not check,
``2`` usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Optional, TextIO

if TYPE_CHECKING:
    from repro.analysis.lint.engine import LintResult
    from repro.obs.metrics import MetricsRegistry

#: Epilog of the ``repro lint`` subparser.
EPILOG = (
    "Suppress a finding with `# repro-lint: disable=RULE` plus a "
    "justification; see docs/STATIC_ANALYSIS.md for the rule catalog."
)

#: The help texts point at ``--list-rules`` rather than listing the rule
#: ids, so building the parser does not import the analyzer.
DESCRIPTION = (
    "Static determinism & concurrency analyzer for the repro codebase: "
    "per-file and whole-program rules (`--list-rules` prints them) over "
    "one parse of each file."
)


def add_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the lint flags to ``parser`` (standalone or subcommand)."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print per-rule finding counts and the call-graph shape "
             "(routed through the repro.obs metrics registry)",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="with --stats: also write the counts as a JSON-lines "
             "metrics log readable by `repro inspect`",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _list_rules(out: TextIO) -> None:
    from repro.analysis.lint.rules import ALL_RULES

    for rule in ALL_RULES:
        out.write(f"{rule.id}: {rule.title}\n")
        for line in rule.rationale.split(". "):
            line = line.strip().rstrip(".")
            if line:
                out.write(f"    {line}.\n")


def build_stats_registry(result: LintResult) -> MetricsRegistry:
    """Per-rule finding counts and graph shape as a :class:`MetricsRegistry`.

    Every rule gets a counter (zero included — a clean run is a data
    point too), so dashboards see a stable metric set across runs.
    """
    from repro.analysis.lint.rules import ALL_RULES
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    counts = result.counts_by_rule()
    for rule in ALL_RULES:
        registry.counter(
            "lint_findings_total", "Lint findings by rule", rule=rule.id,
        ).inc(counts.get(rule.id, 0))
    for key, value in sorted(result.graph.items()):
        registry.gauge(
            f"lint_graph_{key}", f"Call-graph {key.replace('_', ' ')}",
        ).set(value)
    registry.gauge(
        "lint_files_checked", "Files examined by the last lint run",
    ).set(result.files_checked)
    registry.counter(
        "lint_errors_total", "Files the linter could not check",
    ).inc(len(result.errors))
    return registry


def _render_text(out: TextIO, result: LintResult) -> None:
    for finding in result.findings:
        out.write(finding.render() + "\n")
    for error in result.errors:
        out.write(error.render() + "\n")
    summary = f"{len(result.findings)} finding(s) in {result.files_checked} file(s)"
    if result.errors:
        summary += f", {len(result.errors)} file error(s)"
    out.write(summary + "\n")


def _render_json(out: TextIO, result: LintResult) -> None:
    payload = {
        "files_checked": result.files_checked,
        "findings": [f.as_dict() for f in result.findings],
        "errors": [{"path": e.path, "message": e.message} for e in result.errors],
        "counts_by_rule": result.counts_by_rule(),
        "graph": result.graph,
    }
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")


def run(
    args: argparse.Namespace,
    parser: argparse.ArgumentParser,
    out: Optional[TextIO] = None,
) -> int:
    """Execute a parsed lint invocation (shared with ``repro lint``)."""
    from repro.analysis.lint.engine import run_lint
    from repro.obs.exporters import write_jsonl

    out = out if out is not None else sys.stdout

    if args.list_rules:
        _list_rules(out)
        return 0
    if args.metrics_out is not None and not args.stats:
        parser.error("--metrics-out requires --stats")

    result = run_lint(args.paths)
    if args.format == "json":
        _render_json(out, result)
    else:
        _render_text(out, result)

    if args.stats:
        registry = build_stats_registry(result)
        for metric in registry.collect():
            labels = ",".join(f"{k}={v}" for k, v in metric["labels"].items())
            label_part = f"{{{labels}}}" if labels else ""
            value = metric.get("value", metric.get("count"))
            out.write(f"stat {metric['name']}{label_part} {value}\n")
        if args.metrics_out is not None:
            write_jsonl(args.metrics_out, [
                {"type": "meta", "scenario": "lint", "paths": list(args.paths)},
                {"type": "registry", "metrics": registry.collect()},
            ])
            out.write(f"stats written to {args.metrics_out}\n")

    return 1 if (result.findings or result.errors) else 0
