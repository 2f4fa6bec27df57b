"""One-factor-at-a-time sensitivity analysis around the base scenario.

The paper sweeps four axes; everything else (deadline CV, the overrun
floor, the urgency-class mean factor, cluster size, ...) is held at a
default the OCR lost.  This module quantifies how much each such
choice matters: every knob is nudged low/high around the base config
and the change in the headline metric is recorded per policy — a
tornado-style robustness check on the reproduction's conclusions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.experiments.config import ScenarioConfig
from repro.experiments.reporting import render_table
from repro.experiments.runner import run_scenario

#: (config field, low value, high value) nudges around the defaults.
DEFAULT_KNOBS: tuple[tuple[str, Any, Any], ...] = (
    ("deadline_cv", 0.1, 0.5),
    ("deadline_low_factor_mean", 1.5, 3.0),
    ("overrun_floor_share", 0.01, 0.25),
    ("high_urgency_fraction", 0.1, 0.4),
    ("deadline_ratio", 2.0, 8.0),
    ("num_nodes", 96, 160),
)


@dataclass(frozen=True)
class KnobSensitivity:
    """Effect of one knob on one policy's headline metric."""

    knob: str
    low_value: Any
    high_value: Any
    base_metric: float
    low_metric: float
    high_metric: float

    @property
    def swing(self) -> float:
        """Total range of the metric across the knob's nudges."""
        return max(self.base_metric, self.low_metric, self.high_metric) - min(
            self.base_metric, self.low_metric, self.high_metric
        )


@dataclass(frozen=True)
class SensitivityResult:
    """All knobs for one policy, sorted by swing (largest first)."""

    policy: str
    metric: str
    knobs: tuple[KnobSensitivity, ...]

    def render(self) -> str:
        rows = [
            [k.knob, k.low_value, k.high_value,
             k.low_metric, k.base_metric, k.high_metric, k.swing]
            for k in self.knobs
        ]
        return (
            f"--- Sensitivity of {self.policy} ({self.metric}) ---\n"
            + render_table(
                ["knob", "low", "high", "metric@low", "metric@base",
                 "metric@high", "swing"],
                rows,
            )
        )

    def most_sensitive(self) -> str:
        return self.knobs[0].knob


def sensitivity(
    base: Optional[ScenarioConfig] = None,
    policy: str = "librarisk",
    metric: str = "pct_deadlines_fulfilled",
    knobs: Sequence[tuple[str, Any, Any]] = DEFAULT_KNOBS,
) -> SensitivityResult:
    """One-factor-at-a-time sensitivity of ``metric`` for ``policy``."""
    base = (base or ScenarioConfig()).replace(policy=policy)
    base_metric = run_scenario(base).metrics.as_dict()[metric]
    results = []
    for knob, low, high in knobs:
        low_metric = run_scenario(base.replace(**{knob: low})).metrics.as_dict()[metric]
        high_metric = run_scenario(base.replace(**{knob: high})).metrics.as_dict()[metric]
        results.append(KnobSensitivity(
            knob=knob, low_value=low, high_value=high,
            base_metric=base_metric, low_metric=low_metric, high_metric=high_metric,
        ))
    results.sort(key=lambda k: -k.swing)
    return SensitivityResult(policy=policy, metric=metric, knobs=tuple(results))

