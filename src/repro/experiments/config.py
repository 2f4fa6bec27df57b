"""Scenario configuration — every knob of the paper's methodology (§4)."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cluster.share import ShareParams
from repro.scheduling.registry import available_policies
from repro.workload.deadlines import DeadlineModel
from repro.workload.synthetic import SDSCSP2Model
from repro.workload.traces import ESTIMATE_MODES, WorkloadSpec


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario: policy × workload × cluster × estimates.

    Defaults reproduce the paper's base configuration: 3000 SDSC-SP2
    jobs on 128 nodes (SPEC rating 168), 20 % high-urgency jobs,
    deadline high:low ratio 4, arrival delay factor 1, actual (trace)
    estimates.
    """

    # -- policy ------------------------------------------------------------
    policy: str = "librarisk"
    policy_kwargs: dict[str, Any] = field(default_factory=dict)

    # -- cluster -------------------------------------------------------------
    num_nodes: int = 128
    rating: float = 168.0
    overrun_floor_share: float = 0.05
    redistribute_spare: bool = False

    # -- workload ---------------------------------------------------------------
    num_jobs: int = 3000
    arrival_delay_factor: float = 1.0
    #: Optional path to a real SWF trace (e.g. SDSC-SP2-1998-4.2-cln.swf);
    #: when None, the calibrated synthetic generator is used.
    trace_path: Optional[str] = None

    # -- estimates ----------------------------------------------------------------
    estimate_mode: str = "trace"
    inaccuracy_pct: float = 100.0

    # -- deadlines ------------------------------------------------------------------
    high_urgency_fraction: float = 0.20
    deadline_ratio: float = 4.0
    deadline_low_factor_mean: float = 2.0
    deadline_cv: float = 0.25

    # -- determinism --------------------------------------------------------------------
    seed: int = 42

    def __post_init__(self) -> None:
        if self.policy not in available_policies():
            raise ValueError(
                f"unknown policy {self.policy!r}; available: {available_policies()}"
            )
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.num_jobs < 1:
            raise ValueError("num_jobs must be >= 1")
        if self.estimate_mode not in ESTIMATE_MODES:
            raise ValueError(f"estimate_mode must be one of {ESTIMATE_MODES}")
        if not 0 < self.arrival_delay_factor < math.inf:
            raise ValueError("arrival_delay_factor must be > 0")
        if not 0.0 <= self.high_urgency_fraction <= 1.0:
            raise ValueError("high_urgency_fraction must be in [0, 1]")

    # -- derived builders -----------------------------------------------------
    def share_params(self) -> ShareParams:
        return ShareParams(
            overrun_floor_share=self.overrun_floor_share,
            redistribute_spare=self.redistribute_spare,
        )

    def deadline_model(self) -> DeadlineModel:
        return DeadlineModel(
            high_urgency_fraction=self.high_urgency_fraction,
            ratio=self.deadline_ratio,
            low_factor_mean=self.deadline_low_factor_mean,
            cv=self.deadline_cv,
        )

    def workload_spec(self) -> WorkloadSpec:
        return WorkloadSpec(
            arrival_delay_factor=self.arrival_delay_factor,
            estimate_mode=self.estimate_mode,
            inaccuracy_pct=self.inaccuracy_pct,
            deadline_model=self.deadline_model(),
        )

    def synthetic_model(self) -> SDSCSP2Model:
        # Cap the processor-count table at the cluster size so shrunken
        # test clusters still get a valid (renormalised) distribution.
        default = SDSCSP2Model()
        kept = [
            (c, w)
            for c, w in zip(default.proc_choices, default.proc_weights)
            if c <= self.num_nodes
        ]
        if not kept:
            kept = [(1, 1.0)]
        choices, weights = zip(*kept)
        return SDSCSP2Model(
            num_jobs=self.num_jobs,
            max_procs=self.num_nodes,
            proc_choices=choices,
            proc_weights=weights,
        )

    def replace(self, **changes: Any) -> "ScenarioConfig":
        """A copy with the given fields changed (dataclasses.replace)."""
        return dataclasses.replace(self, **changes)

    def label(self) -> str:
        """Short human-readable scenario label for tables."""
        parts = [self.policy]
        if self.policy_kwargs:
            parts.append(",".join(f"{k}={v}" for k, v in sorted(self.policy_kwargs.items())))
        parts.append(f"est={self.estimate_mode}")
        if self.estimate_mode == "inaccuracy":
            parts.append(f"{self.inaccuracy_pct:g}%")
        return " ".join(parts)
