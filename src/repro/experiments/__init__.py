"""Experiment harness: scenarios, sweeps, and the paper's figures.

* :mod:`repro.experiments.config` — :class:`ScenarioConfig`, the single
  source of truth for every simulation parameter;
* :mod:`repro.experiments.runner` — :func:`run_scenario`, one
  deterministic simulation → :class:`ScenarioResult`;
* :mod:`repro.experiments.sweeps` — generic one-parameter sweeps over
  multiple policies;
* :mod:`repro.experiments.figures` — regenerators for Figures 1–4 of
  the paper (each returns the four-panel series and renders ASCII);
* :mod:`repro.experiments.ablations` — design-choice ablations beyond
  the paper (suitability rule, node ordering, overrun floor, spare
  redistribution);
* :mod:`repro.experiments.reporting` — ASCII tables and CSV export.
"""

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import ScenarioResult, run_scenario
from repro.experiments.sweeps import SweepResult, sweep
from repro.experiments.figures import (
    FigureResult,
    Panel,
    figure1,
    figure2,
    figure3,
    figure4,
    all_figures,
)
from repro.experiments.reporting import metrics_table, render_table, series_table, to_csv
from repro.experiments.ablations import AblationResult, all_ablations
from repro.experiments.replication import ReplicatedResult, replicate, replicate_policies
from repro.experiments.sensitivity import advantage_sensitivity, sensitivity
from repro.experiments.validation import ValidationReport, validate_all, validate_figure
from repro.experiments.report import experiments_markdown
from repro.experiments.robustness import robustness_grid, run_with_failures
from repro.experiments.serialize import load_figure, load_figures, save_figure, save_figures

__all__ = [
    "AblationResult",
    "FigureResult",
    "ReplicatedResult",
    "ValidationReport",
    "advantage_sensitivity",
    "all_ablations",
    "experiments_markdown",
    "metrics_table",
    "replicate",
    "replicate_policies",
    "sensitivity",
    "load_figure",
    "load_figures",
    "robustness_grid",
    "run_with_failures",
    "save_figure",
    "save_figures",
    "validate_all",
    "validate_figure",
    "Panel",
    "ScenarioConfig",
    "ScenarioResult",
    "SweepResult",
    "all_figures",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "render_table",
    "run_scenario",
    "series_table",
    "sweep",
    "to_csv",
]
