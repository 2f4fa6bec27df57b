"""Multi-seed replication of scenarios.

``replicate`` runs one scenario config under several seeds;
``replicate_policies`` does so for several policies with **matched
seeds** (every policy sees the identical workload per seed), enabling
paired statistical comparison via :mod:`repro.experiments.stats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.stats import Summary, paired_difference, summarize
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import ScenarioResult, run_scenario


@dataclass(frozen=True)
class ReplicatedResult:
    """All replications of one scenario (same config, varying seed)."""

    config: ScenarioConfig
    seeds: tuple[int, ...]
    results: tuple[ScenarioResult, ...]

    def metric(self, name: str) -> list[float]:
        return [r.metrics.as_dict()[name] for r in self.results]

    def summary(self, name: str) -> Summary:
        return summarize(self.metric(name))


def replicate(
    config: ScenarioConfig,
    seeds: Sequence[int],
) -> ReplicatedResult:
    """Run ``config`` once per seed."""
    if not seeds:
        raise ValueError("need at least one seed")
    results = tuple(run_scenario(config.replace(seed=int(s))) for s in seeds)
    return ReplicatedResult(config=config, seeds=tuple(int(s) for s in seeds), results=results)


def replicate_policies(
    base: ScenarioConfig,
    policies: Sequence[str],
    seeds: Sequence[int],
) -> dict[str, ReplicatedResult]:
    """Replicate several policies over matched seeds."""
    return {
        name: replicate(base.replace(policy=name), seeds)
        for name in policies
    }


def compare_replicated(
    a: ReplicatedResult,
    b: ReplicatedResult,
    metric: str = "pct_deadlines_fulfilled",
) -> Summary:
    """Paired per-seed difference ``a − b`` for ``metric``.

    Raises if the two replications do not share their seed list (the
    pairing would be meaningless).
    """
    if a.seeds != b.seeds:
        raise ValueError(f"seed lists differ: {a.seeds} vs {b.seeds}")
    return paired_difference(a.metric(metric), b.metric(metric))
