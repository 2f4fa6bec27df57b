"""Command-line front end for the determinism/concurrency linter.

Reachable three ways, all the same code path (:func:`add_arguments` is
the single source of truth for the flags, shared with the ``repro
lint`` subcommand)::

    repro lint src/
    python -m repro.analysis src/
    python -m repro.analysis.lint.cli src/

Exit codes: ``0`` clean (or every finding baselined), ``1`` new
findings or unlintable files, ``2`` usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Optional, Sequence, TextIO

from repro.analysis.lint.baseline import (
    BaselineKey,
    load_baseline,
    partition,
    write_baseline,
)
from repro.analysis.lint.engine import LintResult, run_lint
from repro.analysis.lint.findings import Finding
from repro.analysis.lint.rules import ALL_RULES
from repro.obs.exporters import write_jsonl
from repro.obs.metrics import MetricsRegistry

#: Epilog shared by the standalone parser and the ``repro lint`` subparser.
EPILOG = (
    "Suppress a finding with `# repro-lint: disable=RULE` plus a "
    "justification; see docs/STATIC_ANALYSIS.md for the rule catalog."
)

DESCRIPTION = (
    "AST-based determinism & concurrency linter for the repro codebase "
    "(rules DET001-003, CONC001, CONC003, API001)."
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
        "--baseline", metavar="FILE", default=None,
        help="baseline JSON of grandfathered findings; only findings "
             "absent from it fail the run",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to --baseline and exit 0 "
             "(adopting a rule on legacy code)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print per-rule finding counts (routed through the "
             "repro.obs metrics registry)",
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
    parser.add_argument(
        "--flow", action="store_true",
        help="also run the whole-program flow analysis (FLOW001-004: "
             "interprocedural taint, lock-order cycles, locked-scope "
             "coverage, WAL protocol) and merge its findings",
    )
    return parser


def build_parser(prog: str = "repro lint") -> argparse.ArgumentParser:
    return add_arguments(argparse.ArgumentParser(
        prog=prog, description=DESCRIPTION, epilog=EPILOG,
    ))


def _list_rules(out: TextIO) -> None:
    for rule in ALL_RULES:
        out.write(f"{rule.id}: {rule.title}\n")
        for line in rule.rationale.split(". "):
            line = line.strip().rstrip(".")
            if line:
                out.write(f"    {line}.\n")
    from repro.analysis.flow.engine import FLOW_RULES
    for flow_rule in FLOW_RULES:
        out.write(f"{flow_rule.rule_id}: {flow_rule.name} (--flow)\n")
        out.write(f"    {flow_rule.description}.\n")


def build_stats_registry(result: LintResult) -> MetricsRegistry:
    """Per-rule finding counts as a :class:`MetricsRegistry`.

    Every rule gets a counter (zero included — a clean run is a data
    point too), so dashboards see a stable metric set across runs.
    """
    registry = MetricsRegistry()
    counts = result.counts_by_rule()
    rule_ids = [rule.id for rule in ALL_RULES]
    # A merged --flow run carries FLOW001-004 counts in the same result.
    from repro.analysis.flow.engine import FLOW_RULES
    rule_ids.extend(rule.rule_id for rule in FLOW_RULES)
    for rule_id in rule_ids:
        registry.counter(
            "lint_findings_total", "Lint findings by rule", rule=rule_id,
        ).inc(counts.get(rule_id, 0))
    registry.gauge(
        "lint_files_checked", "Files examined by the last lint run",
    ).set(result.files_checked)
    registry.counter(
        "lint_errors_total", "Files the linter could not parse",
    ).inc(len(result.errors))
    return registry


def _stats_records(registry: MetricsRegistry, paths: Sequence[str]) -> list[dict]:
    """A minimal metrics-log record stream for ``repro inspect``."""
    return [
        {"type": "meta", "scenario": "lint", "paths": list(paths)},
        {"type": "registry", "metrics": registry.collect()},
    ]


def _render_text(
    out: TextIO,
    result: LintResult,
    new: list[Finding],
    grandfathered: list[Finding],
) -> None:
    for finding in new:
        out.write(finding.render() + "\n")
    for error in result.errors:
        out.write(error.render() + "\n")
    summary = f"{len(new)} finding(s) in {result.files_checked} file(s)"
    if grandfathered:
        summary += f" ({len(grandfathered)} baselined)"
    if result.errors:
        summary += f", {len(result.errors)} file error(s)"
    out.write(summary + "\n")


def _render_json(
    out: TextIO,
    result: LintResult,
    new: list[Finding],
    grandfathered: list[Finding],
) -> None:
    payload = {
        "files_checked": result.files_checked,
        "findings": [f.as_dict() for f in new],
        "baselined": [f.as_dict() for f in grandfathered],
        "errors": [{"path": e.path, "message": e.message} for e in result.errors],
        "counts_by_rule": result.counts_by_rule(),
    }
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")


def run(
    args: argparse.Namespace,
    parser: argparse.ArgumentParser,
    out: Optional[TextIO] = None,
) -> int:
    """Execute a parsed lint invocation (shared with ``repro lint``)."""
    out = out if out is not None else sys.stdout

    if args.list_rules:
        _list_rules(out)
        return 0
    if args.write_baseline and args.baseline is None:
        parser.error("--write-baseline requires --baseline FILE")
    if args.metrics_out is not None and not args.stats:
        parser.error("--metrics-out requires --stats")

    result = run_lint(args.paths)
    if getattr(args, "flow", False):
        # Merge the whole-program pass: flow findings ride through the
        # same baseline partition and stats pipeline as per-function
        # findings (both streams are sorted, so the merge is too).
        from repro.analysis.flow.engine import run_flow
        flow_result = run_flow(args.paths)
        result.findings = sorted([*result.findings, *flow_result.findings])
        result.errors.extend(flow_result.errors)

    if args.write_baseline:
        write_baseline(args.baseline, result.findings)
        out.write(f"wrote {len(result.findings)} finding(s) to {args.baseline}\n")
        return 0

    baseline: Counter[BaselineKey] = Counter()
    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            parser.error(f"cannot load baseline: {exc}")
    new, grandfathered = partition(result.findings, baseline)

    if args.format == "json":
        _render_json(out, result, new, grandfathered)
    else:
        _render_text(out, result, new, grandfathered)

    if args.stats:
        registry = build_stats_registry(result)
        for metric in registry.collect():
            labels = ",".join(f"{k}={v}" for k, v in metric["labels"].items())
            label_part = f"{{{labels}}}" if labels else ""
            value = metric.get("value", metric.get("count"))
            out.write(f"stat {metric['name']}{label_part} {value}\n")
        if args.metrics_out is not None:
            write_jsonl(args.metrics_out, _stats_records(registry, args.paths))
            out.write(f"stats written to {args.metrics_out}\n")

    return 1 if (new or result.errors) else 0


def main(argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None) -> int:
    parser = build_parser()
    return run(parser.parse_args(argv), parser, out=out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
