"""The paper record: one canonical result of everything ``repro`` reports.

:func:`build_record` runs the sweeps behind Figures 1–4 and the studies
beyond them, and returns a plain, JSON-safe dict:

* ``base`` — the base :class:`ScenarioConfig`, field by field;
* ``stats`` — the workload statistics the paper reports in §4;
* ``figures`` — per figure id, its ``title``, its four ``panels``
  (``label``, ``title``, ``x_label``, ``metric``, ``x_values`` and one
  ``series`` per policy) and the verdict of every §5 claim about it
  (``claims``, see :mod:`repro.experiments.validation`);
* ``sections`` — per study of :data:`SECTIONS` (ablations, replication,
  sensitivity, robustness), its ``title``, ``columns``, ``rows`` and
  ``claims``.

Every view of the results is a pure function of that dict (see
:data:`FORMATS`): the series and section tables, CSV, ASCII charts,
EXPERIMENTS.md and the JSON itself.  The renderers read only what JSON
round-trips, so a record loaded back from ``repro figures --format
json`` renders exactly as the fresh one did.

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
from repro.experiments.parallel import run_scenarios
from repro.experiments.reporting import render_table, rows_csv, series_table, to_csv
from repro.experiments.robustness import run_with_failures
from repro.experiments.runner import load_base_records
from repro.experiments.stats import paired_difference, summarize
from repro.experiments.sweeps import ConfigTransform, sweep
from repro.experiments.validation import PAPER_POLICIES, Claim, claim, validate_figure
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


# -- sections: studies beyond the figures ---------------------------------------
#: A cell's label: the row key its section's summary reads it by.
Label = tuple[Any, ...]
Cells = dict[Label, ScenarioConfig]
#: One cell's outcome: ``ScenarioMetrics.as_dict()``, plus what its runner adds.
Results = Mapping[Label, Mapping[str, float]]
Rows = list[list[Any]]


def _run_configs(cells: Cells, processes: int) -> dict[Label, dict[str, float]]:
    runs = run_scenarios(list(cells.values()), processes=processes)
    return {label: run.metrics.as_dict() for label, run in zip(cells, runs)}


class Section(NamedTuple):
    """One study: labelled scenario cells and what their results say."""

    title: str
    #: What the study varies and why, for EXPERIMENTS.md.
    about: str
    columns: tuple[str, ...]
    cells: Callable[[ScenarioConfig], Cells]
    #: The cells' results -> the section's (rows, claims).
    summarise: Callable[[Results], tuple[Rows, list[Claim]]]
    #: Runs the cells; the default shares the sweeps' process pool.
    run: Callable[[Cells, int], Mapping[Label, Mapping[str, float]]] = _run_configs


def _trace(base: ScenarioConfig, policy: str) -> ScenarioConfig:
    return base.replace(policy=policy, estimate_mode="trace")


ABLATION_FLOORS = (0.01, 0.05, 0.10, 0.25)


def _ablation_cells(base: ScenarioConfig) -> Cells:
    risk = _trace(base, "librarisk")
    cells: Cells = {
        ("suitability", "sigma (paper)"): risk.replace(policy_kwargs={"suitability": "sigma"}),
        ("suitability", "no-delay (strict)"):
            risk.replace(policy_kwargs={"suitability": "no-delay"}),
        ("suitability", "libra (reference)"): _trace(base, "libra").replace(policy_kwargs={}),
    }
    for order in ("worst_fit", "best_fit", "index"):
        cells["node_order", order] = risk.replace(policy_kwargs={"node_order": order})
    for policy in ("libra", "librarisk"):
        for floor in ABLATION_FLOORS:
            cells["overrun_floor", f"{policy} floor={floor:g}"] = _trace(base, policy).replace(
                overrun_floor_share=floor)
    for policy in ("libra", "librarisk"):
        for flag in (False, True):
            cells["redistribute_spare", f"{policy} spare={'on' if flag else 'off'}"] = (
                _trace(base, policy).replace(redistribute_spare=flag))
    return cells


def _ablation_summary(results: Results) -> tuple[Rows, list[Claim]]:
    rows = [[ablation, variant, m["pct_deadlines_fulfilled"], m["avg_slowdown"],
             m["acceptance_pct"], m["completed_late"]]
            for (ablation, variant), m in results.items()]
    sigma, strict, libra = (results["suitability", v]["pct_deadlines_fulfilled"]
                            for v in ("sigma (paper)", "no-delay (strict)", "libra (reference)"))
    return rows, [claim(
        "ablations.sigma-beats-no-delay", "Alg. 1",
        "LibraRisk's σ suitability rule fulfils more deadlines than strict no-delay "
        "suitability (trace estimates)",
        sigma > strict,
        f"sigma {sigma:.2f}% vs no-delay {strict:.2f}% (libra {libra:.2f}%)",
    )]


REPLICATE_SEEDS = (1, 2, 3, 4, 5)


def _replicate_cells(base: ScenarioConfig) -> Cells:
    return {(policy, seed): _trace(base, policy).replace(seed=seed)
            for policy in PAPER_POLICIES for seed in REPLICATE_SEEDS}


def _replicate_summary(results: Results) -> tuple[Rows, list[Claim]]:
    fulfilled = {policy: [results[policy, seed]["pct_deadlines_fulfilled"]
                          for seed in REPLICATE_SEEDS] for policy in PAPER_POLICIES}
    rows = []
    for policy, values in fulfilled.items():
        s = summarize(values)
        rows.append([policy, s.mean, s.ci95, s.n])
    gain = paired_difference(fulfilled["librarisk"], fulfilled["libra"])
    rows.append(["librarisk − libra (paired)", gain.mean, gain.ci95, gain.n])
    return rows, [claim(
        "replicate.librarisk-gain-ci-above-zero", "§5.1",
        "trace estimates: LibraRisk's paired gain over Libra across matched seeds "
        "has a 95% CI above 0",
        gain.low > 0,
        f"paired librarisk − libra: {gain}",
    )]


#: (config field, low value, high value) nudges around the base config.
SENSITIVITY_KNOBS: tuple[tuple[str, Any, Any], ...] = (
    ("deadline_cv", 0.1, 0.5),
    ("deadline_low_factor_mean", 1.5, 3.0),
    ("overrun_floor_share", 0.01, 0.25),
    ("high_urgency_fraction", 0.1, 0.4),
    ("deadline_ratio", 2.0, 8.0),
    ("num_nodes", 96, 160),
)
SENSITIVITY_POLICIES = ("libra", "librarisk")


def _sensitivity_cells(base: ScenarioConfig) -> Cells:
    cells: Cells = {}
    for policy in SENSITIVITY_POLICIES:
        config = base.replace(policy=policy)
        cells[policy, "base", None] = config
        for knob, low, high in SENSITIVITY_KNOBS:
            cells[policy, knob, low] = config.replace(**{knob: low})
            cells[policy, knob, high] = config.replace(**{knob: high})
    return cells


def _sensitivity_summary(results: Results) -> tuple[Rows, list[Claim]]:
    def fulfilled(policy: str, knob: str, value: Any) -> float:
        return results[policy, knob, value]["pct_deadlines_fulfilled"]

    rows = []
    for policy in SENSITIVITY_POLICIES:
        at_base = fulfilled(policy, "base", None)
        knobs = []
        for knob, low, high in SENSITIVITY_KNOBS:
            at = (fulfilled(policy, knob, low), at_base, fulfilled(policy, knob, high))
            knobs.append([policy, knob, low, high, *at, max(at) - min(at)])
        rows += sorted(knobs, key=lambda row: -row[-1])  # largest swing first
    nudges = [(knob, value) for knob, *values in SENSITIVITY_KNOBS for value in values]
    knob, value = min(nudges, key=lambda kv: fulfilled("librarisk", *kv)
                      - fulfilled("libra", *kv))
    risk, libra = fulfilled("librarisk", knob, value), fulfilled("libra", knob, value)
    return rows, [claim(
        "sensitivity.librarisk-beats-libra-every-knob", "§5.1",
        "LibraRisk fulfils more deadlines than Libra at every knob's low and high value",
        all(fulfilled("librarisk", *kv) > fulfilled("libra", *kv) for kv in nudges),
        f"smallest gap at {knob}={value:g}: {risk:.2f}% vs {libra:.2f}%",
    )]


#: Node MTBF in hours; None injects no failures.
ROBUSTNESS_MTBFS: tuple[Optional[float], ...] = (None, 500.0, 100.0, 20.0)


def _robustness_cells(base: ScenarioConfig) -> Cells:
    return {(policy, mtbf): _trace(base, policy)
            for policy in PAPER_POLICIES for mtbf in ROBUSTNESS_MTBFS}


def _run_with_failures(cells: Cells, processes: int) -> dict[Label, dict[str, float]]:
    return {label: run_with_failures(config, label[1]) for label, config in cells.items()}


def _mtbf(hours: Optional[float]) -> str:
    return "none" if hours is None else f"{hours:g}h"


def _robustness_summary(results: Results) -> tuple[Rows, list[Claim]]:
    rows = [[policy, _mtbf(mtbf), m["node_failures"], m["pct_deadlines_fulfilled"],
             m["failed"], m["acceptance_pct"]]
            for (policy, mtbf), m in results.items()]
    pairs = {mtbf: (results["librarisk", mtbf]["pct_deadlines_fulfilled"],
                    results["libra", mtbf]["pct_deadlines_fulfilled"])
             for mtbf in ROBUSTNESS_MTBFS}
    return rows, [claim(
        "robustness.librarisk-beats-libra-every-mtbf", "beyond paper",
        "LibraRisk fulfils more deadlines than Libra at every node MTBF",
        all(risk > libra for risk, libra in pairs.values()),
        ", ".join(f"{_mtbf(mtbf)}: {risk:.2f}% vs {libra:.2f}%"
                  for mtbf, (risk, libra) in pairs.items()),
    )]


#: The studies beyond the figures, by ``repro figures --only`` name.
SECTIONS: dict[str, Section] = {
    "ablations": Section(
        "Ablations: design choices the paper leaves open",
        "Each ablation varies one choice DESIGN.md §3 lists as open, under trace "
        "estimates: LibraRisk's suitability rule (the paper's σ test against strict "
        "no-delay, with Libra's share test as reference), its placement order among "
        "zero-risk nodes, the execution floor share of overrunning jobs, and whether "
        "idle capacity is handed to running jobs.",
        ("ablation", "variant", "fulfilled %", "avg slowdown", "accepted %",
         "completed late"),
        _ablation_cells, _ablation_summary),
    "replicate": Section(
        "Replication: matched seeds with 95% confidence intervals",
        f"Every paper policy under trace estimates at seeds "
        f"{', '.join(map(str, REPLICATE_SEEDS))}; each seed gives every policy the "
        "same workload, so the LibraRisk − Libra difference is paired per seed.",
        ("policy", "mean fulfilled %", "± 95% CI", "seeds"),
        _replicate_cells, _replicate_summary),
    "sensitivity": Section(
        "Sensitivity: one knob at a time, low and high",
        "Each knob the paper leaves at a default is nudged low and high around the "
        "base scenario, one at a time, for Libra and LibraRisk; swing is the range of "
        "% deadlines fulfilled across low, base and high.",
        ("policy", "knob", "low", "high", "fulfilled % @low", "@base", "@high", "swing"),
        _sensitivity_cells, _sensitivity_summary),
    "robustness": Section(
        "Robustness: deadline fulfilment under node failures",
        "Nodes fail with exponential inter-failure times of the given mean (MTBF) and "
        "return after 2 h; a job on a failed node is killed.  Trace estimates.",
        ("policy", "MTBF", "node failures", "fulfilled %", "jobs killed", "accepted %"),
        _robustness_cells, _robustness_summary, run=_run_with_failures),
}

#: Everything ``--only`` can name; ``stats`` alone runs no simulation.
ONLY: tuple[str, ...] = (*FIGURES, "stats", *SECTIONS)


def _build_section(name: str, base: ScenarioConfig,
                   progress: Optional[Callable[[str], None]], processes: int) -> Record:
    section = SECTIONS[name]
    cells = section.cells(base)
    if progress is not None:
        for label in cells:
            progress(f"{name} {' '.join(map(str, label))}")
    rows, claims = section.summarise(section.run(cells, processes))
    return {"title": section.title, "columns": list(section.columns), "rows": rows,
            "claims": claims}


def build_record(
    base: ScenarioConfig,
    only: Sequence[str] = ONLY,
    progress: Optional[Callable[[str], None]] = None,
    processes: int = 1,
) -> Record:
    """Run the figures and sections in ``only`` and check their claims."""
    unknown = sorted(set(only) - set(ONLY))
    if unknown:
        raise ValueError(f"unknown figure or section {unknown}; choose from {ONLY}")
    figures: dict[str, Record] = {}
    for fid in sorted(set(only) & set(FIGURES)):
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
    sections = {name: _build_section(name, base, progress, processes)
                for name in SECTIONS if name in only}
    stats = describe_records(load_base_records(base))
    return {
        "base": dataclasses.asdict(base),
        "stats": {k: float(v) for k, v in stats.items()},
        "figures": figures,
        "sections": sections,
    }


def _items(record: Mapping[str, Any], key: str) -> list[tuple[str, Mapping[str, Any]]]:
    return sorted(record[key].items())


def claims_hold(record: Mapping[str, Any]) -> bool:
    """True iff every claim in the record holds."""
    return all(c["passed"] for key in ("figures", "sections")
               for _, item in _items(record, key) for c in item["claims"])


# -- renderers ------------------------------------------------------------------
def dumps(record: Mapping[str, Any]) -> str:
    """The canonical JSON text: sorted keys, ``repr`` floats."""
    return json.dumps(record, sort_keys=True, indent=1) + "\n"


def stats_table(stats: Mapping[str, float]) -> str:
    return render_table(["statistic", "value"], sorted(stats.items()), float_fmt="{:.3f}")


def _workload(base: Mapping[str, Any]) -> str:
    return base["trace_path"] or f"synthetic SDSC-SP2-like (seed={base['seed']})"


def _panel_table(panel: Mapping[str, Any]) -> str:
    return (f"({panel['label']}) {panel['title']}\n"
            + series_table(panel["x_label"], panel["x_values"], panel["series"]))


def _section_table(section: Mapping[str, Any]) -> str:
    return render_table(section["columns"], section["rows"])


def _verdicts(item: Mapping[str, Any], noun: str = "paper claims") -> list[str]:
    lines = [
        f"[{'PASS' if c['passed'] else 'FAIL'}] {c['id']} ({c['source']}): "
        f"{c['description']}\n       measured: {c['detail']}"
        for c in item["claims"]
    ]
    held = sum(c["passed"] for c in item["claims"])
    return lines + [f"--- {held}/{len(item['claims'])} {noun} hold ---"]


def _record_text(record: Mapping[str, Any], draw: Callable[[Mapping[str, Any]], str]) -> str:
    out: list[str] = []
    for fid, fig in _items(record, "figures"):
        out += [f"=== Figure {fid}: {fig['title']} ===",
                "\n\n".join(draw(p) for p in fig["panels"]), "", *_verdicts(fig), ""]
    for _, sec in _items(record, "sections"):
        out += [f"=== {sec['title']} ===", _section_table(sec), "",
                *_verdicts(sec, "claims"), ""]
    return "\n".join(out)


def as_table(record: Mapping[str, Any]) -> str:
    return (f"=== Workload statistics (paper §4) ===\nworkload: {_workload(record['base'])}\n"
            f"{stats_table(record['stats'])}\n\n" + _record_text(record, _panel_table))


def as_chart(record: Mapping[str, Any]) -> str:
    return _record_text(record, panel_chart)


def as_csv(record: Mapping[str, Any]) -> str:
    out = ["# workload statistics (paper §4)",
           rows_csv(["statistic", "value"], sorted(record["stats"].items()))]
    for fid, fig in _items(record, "figures"):
        out.append(f"# figure {fid}: {fig['title']}")
        for p in fig["panels"]:
            out += [f"# panel ({p['label']}) {p['title']}",
                    to_csv(p["x_label"], p["x_values"], p["series"])]
        out += ["# " + line for v in _verdicts(fig) for line in v.split("\n")] + [""]
    for name, sec in _items(record, "sections"):
        out += [f"# section {name}: {sec['title']}", rows_csv(sec["columns"], sec["rows"])]
        out += ["# " + line for v in _verdicts(sec, "claims") for line in v.split("\n")] + [""]
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


def _claims_markdown(claims: Sequence[Mapping[str, Any]], source: str) -> list[str]:
    return [
        f"| Claim | {source} | Holds? | Measured evidence |",
        "|---|---|---|---|",
        *(f"| {c['description']} | {c['source']} | {'✅' if c['passed'] else '❌'} "
          f"| {c['detail']} |" for c in claims),
        "",
        f"**{sum(c['passed'] for c in claims)}/{len(claims)} claims hold.**",
        "",
    ]


def as_markdown(record: Mapping[str, Any]) -> str:
    """EXPERIMENTS.md: claims, evidence and series per figure, then each section."""
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
    for fid, fig in _items(record, "figures"):
        out += [
            f"## Figure {fid}: {fig['title']}", "",
            f"**Paper says (§5):** {_PAPER_SAYS[fid]}", "",
            *_claims_markdown(fig["claims"], "Paper source"),
            "Measured series (the rows the paper plots):",
            "",
        ]
        for p in fig["panels"]:
            out += [f"### Panel ({p['label']}) — {p['title']}", "",
                    "```", _panel_table(p), "```", ""]
        out.append("")
    for name, sec in _items(record, "sections"):
        out += [f"## {sec['title']}", "", f"**Beyond the paper:** {SECTIONS[name].about}", "",
                *_claims_markdown(sec["claims"], "Source"),
                "```", _section_table(sec), "```", "", ""]
    return "\n".join(out)


#: ``repro figures --format`` → renderer of a record.
FORMATS: dict[str, Callable[[Mapping[str, Any]], str]] = {
    "table": as_table,
    "csv": as_csv,
    "chart": as_chart,
    "json": dumps,
    "markdown": as_markdown,
}
