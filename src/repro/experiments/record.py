"""The paper record: one canonical result of the paper's §5 sweeps.

:func:`build_record` runs the sweeps behind Figures 1–4 and returns a
plain, JSON-safe dict:

* ``base`` — the base :class:`ScenarioConfig`, field by field;
* ``stats`` — the workload statistics the paper reports in §4;
* ``figures`` — per figure id, its ``title``, its four ``panels``
  (``label``, ``title``, ``x_label``, ``metric``, ``x_values`` and one
  ``series`` per policy) and the verdict of every §5 claim about it
  (``claims``, see :mod:`repro.experiments.validation`).

Every view of the results is a pure function of that dict (see
:data:`FORMATS`): the series tables, CSV, ASCII charts, EXPERIMENTS.md
and the JSON itself.  The renderers read only what JSON round-trips,
so a record loaded back from ``repro figures --format json`` renders
exactly as the fresh one did.

Panels (a)/(b) hold % deadlines fulfilled and (c)/(d) the average
slowdown of fulfilled jobs, each for the figure's two variants:
accurate versus trace estimates for Figures 1–3, 20 % versus 80 %
high-urgency jobs for Figure 4.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence

from repro.experiments.asciichart import panel_chart
from repro.experiments.config import ScenarioConfig
from repro.experiments.reporting import render_table, series_table, to_csv
from repro.experiments.runner import load_base_records
from repro.experiments.sweeps import ConfigTransform, sweep
from repro.experiments.validation import PAPER_POLICIES, validate_figure
from repro.workload.traces import describe_records

Record = dict[str, Any]

_ESTIMATES = (
    ("accurate estimates", {"estimate_mode": "accurate"}),
    ("trace estimates", {"estimate_mode": "trace"}),
)


class Axis(NamedTuple):
    """One figure's sweep: the axis it varies and its two variants."""

    title: str
    #: A ScenarioConfig field, or just a name when ``transform`` applies x.
    parameter: str
    x_label: str
    x_values: tuple[float, ...]
    #: (panel-title suffix, config overrides) for panels (a)/(c) and (b)/(d).
    variants: tuple[tuple[str, dict[str, Any]], ...] = _ESTIMATES
    transform: Optional[ConfigTransform] = None


def _urgency_pct(config: ScenarioConfig, pct: float) -> ScenarioConfig:
    return config.replace(high_urgency_fraction=pct / 100.0)


_PCTS = (0.0, 20.0, 40.0, 60.0, 80.0, 100.0)

#: The paper's four figures, by id.
FIGURES: dict[str, Axis] = {
    "1": Axis("Impact of varying workload", "arrival_delay_factor",
              "arrival delay factor", tuple(i / 10 for i in range(1, 11))),
    "2": Axis("Impact of varying deadline high:low ratio", "deadline_ratio",
              "deadline high:low ratio", tuple(float(i) for i in range(1, 11))),
    "3": Axis("Impact of varying high urgency jobs", "high_urgency_pct",
              "% of high urgency jobs", _PCTS, transform=_urgency_pct),
    "4": Axis("Impact of varying inaccurate runtime estimates", "inaccuracy_pct",
              "% of inaccuracy", _PCTS, variants=tuple(
                  (f"{pct:g}% high urgency",
                   {"estimate_mode": "inaccuracy", "high_urgency_fraction": pct / 100.0})
                  for pct in (20.0, 80.0))),
}

_METRICS = (("% deadlines fulfilled", "pct_deadlines_fulfilled"),
            ("average slowdown", "avg_slowdown"))


def build_record(
    base: ScenarioConfig,
    only: Sequence[str] = tuple(FIGURES),
    progress: Optional[Callable[[str], None]] = None,
    processes: int = 1,
) -> Record:
    """Run the sweeps of the figures in ``only`` and check their claims."""
    figures: dict[str, Record] = {}
    for fid in sorted(set(only)):
        axis = FIGURES[fid]
        runs = [
            sweep(base.replace(**overrides), axis.parameter, axis.x_values, PAPER_POLICIES,
                  transform=axis.transform, progress=progress, processes=processes)
            for _, overrides in axis.variants
        ]
        panels = [
            {"label": "abcd"[2 * m + v], "title": f"{name} — {axis.variants[v][0]}",
             "x_label": axis.x_label, "metric": metric, "x_values": list(axis.x_values),
             "series": {p: [float(y) for y in ys] for p, ys in runs[v].series(metric).items()}}
            for m, (name, metric) in enumerate(_METRICS)
            for v in range(2)
        ]
        figure: Record = {"title": axis.title, "panels": panels}
        figure["claims"] = validate_figure(fid, figure)
        figures[fid] = figure
    stats = describe_records(load_base_records(base))
    return {
        "base": dataclasses.asdict(base),
        "stats": {k: float(v) for k, v in stats.items()},
        "figures": figures,
    }


def claims_hold(record: Mapping[str, Any]) -> bool:
    """True iff every claim in the record holds."""
    return all(c["passed"] for fig in record["figures"].values() for c in fig["claims"])


# -- renderers ------------------------------------------------------------------
def dumps(record: Mapping[str, Any]) -> str:
    """The canonical JSON text: sorted keys, ``repr`` floats."""
    return json.dumps(record, sort_keys=True, indent=1) + "\n"


def stats_table(stats: Mapping[str, float]) -> str:
    return render_table(["statistic", "value"], sorted(stats.items()), float_fmt="{:.3f}")


def _figures(record: Mapping[str, Any]) -> list[tuple[str, Mapping[str, Any]]]:
    return sorted(record["figures"].items())


def _panel_table(panel: Mapping[str, Any]) -> str:
    return (f"({panel['label']}) {panel['title']}\n"
            + series_table(panel["x_label"], panel["x_values"], panel["series"]))


def _verdicts(fig: Mapping[str, Any]) -> list[str]:
    lines = [
        f"[{'PASS' if c['passed'] else 'FAIL'}] {c['id']} ({c['source']}): "
        f"{c['description']}\n       measured: {c['detail']}"
        for c in fig["claims"]
    ]
    held = sum(c["passed"] for c in fig["claims"])
    return lines + [f"--- {held}/{len(fig['claims'])} paper claims hold ---"]


def _figure_text(record: Mapping[str, Any], draw: Callable[[Mapping[str, Any]], str]) -> str:
    out: list[str] = []
    for fid, fig in _figures(record):
        out += [f"=== Figure {fid}: {fig['title']} ===",
                "\n\n".join(draw(p) for p in fig["panels"]), "", *_verdicts(fig), ""]
    return "\n".join(out)


def as_table(record: Mapping[str, Any]) -> str:
    return (f"=== Workload statistics (paper §4) ===\n{stats_table(record['stats'])}\n\n"
            + _figure_text(record, _panel_table))


def as_chart(record: Mapping[str, Any]) -> str:
    return _figure_text(record, panel_chart)


def as_csv(record: Mapping[str, Any]) -> str:
    out: list[str] = []
    for fid, fig in _figures(record):
        out.append(f"# figure {fid}: {fig['title']}")
        for p in fig["panels"]:
            out += [f"# panel ({p['label']}) {p['title']}",
                    to_csv(p["x_label"], p["x_values"], p["series"])]
        out += ["# " + line for v in _verdicts(fig) for line in v.split("\n")] + [""]
    return "\n".join(out)


_PAPER_SAYS = {
    "1": "EDF fulfils the most jobs under the heaviest workload (arrival "
         "delay factor < 0.3) but loses that advantage as load drops; "
         "Libra and LibraRisk improve monotonically with lighter load.",
    "2": "Longer low-urgency deadlines let every policy fulfil more jobs; "
         "LibraRisk's improvement over Libra is larger when the "
         "high:low ratio is small, and its slowdown advantage grows "
         "with the ratio.",
    "3": "As the share of high-urgency jobs grows, EDF and Libra fulfil "
         "ever fewer jobs while LibraRisk holds or improves — its margin "
         "over Libra roughly doubles from 20% to 80% high-urgency jobs.",
    "4": "Deadline fulfilment degrades as estimates get less accurate; "
         "LibraRisk degrades the least and keeps its advantage at both "
         "20% and 80% high-urgency mixes, with the bigger margin at 80%.",
}

_PREAMBLE = (
    "Every figure of Yeo & Buyya (ICPP 2006) regenerated by this "
    "repository, with each of the paper's §5 claims checked "
    "mechanically against the measured series "
    "(`repro.experiments.validation`).  Absolute values are not "
    "expected to match the paper — the workload is a calibrated "
    "synthetic stand-in for the SDSC SP2 trace (see DESIGN.md §2) "
    "— but the *shape* (who wins, by roughly what factor, where "
    "crossovers fall) is what the claims encode and what is "
    "verified below."
)


def as_markdown(record: Mapping[str, Any]) -> str:
    """EXPERIMENTS.md: claims, evidence and series per figure."""
    base, stats = record["base"], record["stats"]
    out = [
        "# EXPERIMENTS — paper versus measured", "", _PREAMBLE, "",
        f"**Scenario scale:** {base['num_jobs']} jobs on {base['num_nodes']} nodes "
        f"(SPEC rating {base['rating']:g}), seed {base['seed']}; "
        f"{base['high_urgency_fraction']:.0%} high-urgency jobs and "
        f"deadline high:low ratio {base['deadline_ratio']:g} unless the "
        "figure sweeps them.",
        "",
        "## Workload statistics (paper §4)",
        "",
        "Paper subset: 3000 jobs ≈ 2.5 months, mean inter-arrival "
        "2131 s, mean runtime ≈ 2.7 h, mean 17 processors, estimates "
        "highly inaccurate and mostly over-estimated.  Measured:",
        "",
        "| statistic | value |",
        "|---|---|",
        *(f"| {key} | {stats[key]:.3f} |" for key in sorted(stats)),
        "",
    ]
    for fid, fig in _figures(record):
        claims = fig["claims"]
        out += [
            f"## Figure {fid}: {fig['title']}", "",
            f"**Paper says (§5):** {_PAPER_SAYS[fid]}", "",
            "| Claim | Paper source | Holds? | Measured evidence |",
            "|---|---|---|---|",
            *(f"| {c['description']} | {c['source']} | {'✅' if c['passed'] else '❌'} "
              f"| {c['detail']} |" for c in claims),
            "",
            f"**{sum(c['passed'] for c in claims)}/{len(claims)} claims hold.**",
            "",
            "Measured series (the rows the paper plots):",
            "",
        ]
        for p in fig["panels"]:
            out += [f"### Panel ({p['label']}) — {p['title']}", "",
                    "```", _panel_table(p), "```", ""]
        out.append("")
    return "\n".join(out)


#: ``repro figures --format`` → renderer of a record.
FORMATS: dict[str, Callable[[Mapping[str, Any]], str]] = {
    "table": as_table,
    "csv": as_csv,
    "chart": as_chart,
    "json": dumps,
    "markdown": as_markdown,
}
