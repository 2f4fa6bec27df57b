"""Experiment harness: scenarios, sweeps, and the paper's figures.

* ``config`` — :class:`ScenarioConfig`, every simulation parameter;
* ``runner`` — :func:`run_scenario`, one deterministic simulation;
* ``sweeps`` / ``parallel`` — one-parameter sweeps over several policies;
* ``record`` — the paper record (Figures 1–4, the verdict of every §5
  claim from ``validation``, the §4 workload statistics, and the
  ablation, replication, sensitivity and robustness sections) and the
  renderers behind ``repro figures`` and EXPERIMENTS.md;
* ``robustness`` — the node-failure runner behind the robustness section;
* ``reporting``, ``compare``, ``stats``, ``asciichart`` — tables, series
  comparisons, confidence intervals and terminal charts.

Only the config and the runner load with the package.
"""

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import ScenarioResult, run_scenario

__all__ = ["ScenarioConfig", "ScenarioResult", "run_scenario"]
