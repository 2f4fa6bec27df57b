"""Generic one-parameter sweeps over multiple policies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import ScenarioResult, run_scenario

#: How a sweep point modifies the base config: either a config field
#: name (simple case) or a callable ``(config, x) -> config``.
ConfigTransform = Callable[[ScenarioConfig, Any], ScenarioConfig]


@dataclass
class SweepResult:
    """Results of sweeping one parameter for several policies."""

    parameter: str
    x_values: list[Any]
    #: policy name -> list of ScenarioResult aligned with x_values.
    results: dict[str, list[ScenarioResult]] = field(default_factory=dict)

    def series(self, metric: str) -> dict[str, list[float]]:
        """Extract ``metric`` (a ScenarioMetrics dict key) per policy."""
        out: dict[str, list[float]] = {}
        for policy, runs in self.results.items():
            out[policy] = [run.metrics.as_dict()[metric] for run in runs]
        return out


def sweep(
    base: ScenarioConfig,
    parameter: str,
    x_values: Sequence[Any],
    policies: Sequence[str | tuple[str, dict]],
    transform: Optional[ConfigTransform] = None,
    progress: Optional[Callable[[str], None]] = None,
    processes: int = 1,
) -> SweepResult:
    """Sweep ``parameter`` over ``x_values`` for each policy.

    By default ``parameter`` names a :class:`ScenarioConfig` field;
    pass ``transform`` for anything more elaborate.  With
    ``processes > 1`` every (policy, x) cell runs concurrently on a
    process pool (cells are independent pure functions of their
    config); progress messages are then emitted before the batch.
    """
    if transform is None:
        def transform(cfg: ScenarioConfig, x: Any) -> ScenarioConfig:  # noqa: F811
            return cfg.replace(**{parameter: x})

    result = SweepResult(parameter=parameter, x_values=list(x_values))
    cells: list[tuple[str, ScenarioConfig]] = []
    for entry in policies:
        if isinstance(entry, str):
            name, kwargs = entry, {}
        else:
            name, kwargs = entry
        key = name if isinstance(entry, str) else f"{name}:{_kw_label(kwargs)}"
        for x in x_values:
            config = transform(base.replace(policy=name, policy_kwargs=dict(kwargs)), x)
            if progress is not None:
                progress(f"{key} {parameter}={x}")
            cells.append((key, config))

    if processes > 1:
        from repro.experiments.parallel import run_scenarios

        runs = run_scenarios([cfg for _, cfg in cells], processes=processes)
    else:
        runs = [run_scenario(cfg) for _, cfg in cells]

    for (key, _), run in zip(cells, runs):
        result.results.setdefault(key, []).append(run)
    return result


def _kw_label(kwargs: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(kwargs.items())) or "default"
