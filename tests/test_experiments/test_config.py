"""Tests for ScenarioConfig."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.failures import NodeFailureInjector
from repro.cluster.node import TimeSharedNode
from repro.cluster.share import ShareParams
from repro.experiments.config import ScenarioConfig
from repro.scheduling.registry import make_policy
from repro.service.engine import EngineConfig
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.workload.synthetic import SDSCSP2Model
from repro.workload.traces import WorkloadSpec, scale_arrivals


class TestValidation:
    def test_defaults_are_paper_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.num_jobs == 3000
        assert cfg.num_nodes == 128
        assert cfg.rating == 168.0
        assert cfg.high_urgency_fraction == 0.20
        assert cfg.deadline_ratio == 4.0
        assert cfg.arrival_delay_factor == 1.0
        assert cfg.estimate_mode == "trace"

    @pytest.mark.parametrize("kwargs", [
        {"policy": "unknown"},
        {"num_nodes": 0},
        {"num_jobs": 0},
        {"estimate_mode": "psychic"},
        {"arrival_delay_factor": 0.0},
        {"high_urgency_fraction": 1.5},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioConfig(**kwargs)


def _node(rating=168.0):
    return TimeSharedNode(0, rating, Simulator())


def _injector(mtbf, repair_time):
    return NodeFailureInjector(Simulator(), Cluster([_node()], reference_rating=168.0),
                               make_policy("libra"), RngStreams(seed=1),
                               mtbf=mtbf, repair_time=repair_time)


#: Every positivity check on a float knob, with the message it keeps.
POSITIVE = [
    pytest.param(lambda x: ScenarioConfig(arrival_delay_factor=x),
                 "arrival_delay_factor must be > 0", id="ScenarioConfig"),
    pytest.param(lambda x: WorkloadSpec(arrival_delay_factor=x),
                 "arrival_delay_factor must be > 0", id="WorkloadSpec"),
    pytest.param(lambda x: scale_arrivals([], x),
                 "arrival delay factor must be > 0", id="scale_arrivals"),
    pytest.param(lambda x: SDSCSP2Model(mean_interarrival=x),
                 "means must be positive", id="SDSCSP2Model.mean_interarrival"),
    pytest.param(lambda x: SDSCSP2Model(mean_runtime=x),
                 "means must be positive", id="SDSCSP2Model.mean_runtime"),
    pytest.param(_node, "rating must be > 0", id="Node"),
    pytest.param(lambda x: Cluster([_node()], reference_rating=x),
                 "reference_rating must be > 0", id="Cluster"),
    pytest.param(lambda x: Cluster.homogeneous(Simulator(), 1, reference_rating=x),
                 "reference_rating must be > 0", id="Cluster.homogeneous"),
    pytest.param(lambda x: _injector(x, 3600.0),
                 "mtbf and repair_time must be > 0", id="NodeFailureInjector.mtbf"),
    pytest.param(lambda x: _injector(3600.0, x),
                 "mtbf and repair_time must be > 0", id="NodeFailureInjector.repair_time"),
    pytest.param(lambda x: EngineConfig(rating=x), "rating must be > 0", id="EngineConfig"),
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("build, message", POSITIVE)
def test_positivity_checks_are_ranges(build, message, value):
    """`x <= 0` is False for NaN; each check is `not 0 < x < inf` instead."""
    with pytest.raises(ValueError, match=message):
        build(value)


class TestBuilders:
    def test_share_params(self):
        cfg = ScenarioConfig(overrun_floor_share=0.1, redistribute_spare=True)
        assert cfg.share_params() == ShareParams(
            overrun_floor_share=0.1, redistribute_spare=True
        )

    def test_deadline_model(self):
        cfg = ScenarioConfig(high_urgency_fraction=0.5, deadline_ratio=6.0)
        model = cfg.deadline_model()
        assert model.high_urgency_fraction == 0.5
        assert model.ratio == 6.0

    def test_workload_spec(self):
        cfg = ScenarioConfig(estimate_mode="inaccuracy", inaccuracy_pct=40.0,
                             arrival_delay_factor=0.5)
        spec = cfg.workload_spec()
        assert spec.estimate_mode == "inaccuracy"
        assert spec.inaccuracy_pct == 40.0
        assert spec.arrival_delay_factor == 0.5

    def test_synthetic_model_caps_procs_to_cluster(self):
        cfg = ScenarioConfig(num_nodes=16)
        model = cfg.synthetic_model()
        assert all(c <= 16 for c in model.proc_choices)
        assert model.max_procs == 16

    def test_replace(self):
        cfg = ScenarioConfig()
        other = cfg.replace(policy="edf", seed=7)
        assert other.policy == "edf"
        assert other.seed == 7
        assert cfg.policy == "librarisk"  # original untouched

    def test_label_mentions_policy_and_mode(self):
        cfg = ScenarioConfig(policy="libra", estimate_mode="accurate")
        label = cfg.label()
        assert "libra" in label and "accurate" in label

    def test_label_includes_kwargs_and_inaccuracy(self):
        cfg = ScenarioConfig(
            policy="librarisk", policy_kwargs={"node_order": "index"},
            estimate_mode="inaccuracy", inaccuracy_pct=60.0,
        )
        label = cfg.label()
        assert "node_order=index" in label
        assert "60" in label
