"""Tests for deterministic trace-id minting and trace reconstruction."""

import pytest

from repro.obs.tracing import (
    SPAN_ID_WIDTH,
    TRACE_ID_WIDTH,
    build_trace,
    canonical_json,
    mint_span_id,
    mint_trace_id,
    render_trace,
    seed_from_config,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario_jobs
from repro.service.engine import AdmissionEngine, EngineConfig, engine_for_scenario
from tests.conftest import make_job


def small_engine(**kwargs) -> AdmissionEngine:
    defaults = dict(policy="librarisk", num_nodes=4, rating=1.0)
    defaults.update(kwargs)
    return AdmissionEngine(EngineConfig(**defaults))


class TestMinting:
    def test_trace_id_is_deterministic(self):
        assert mint_trace_id(1, 2, 3) == mint_trace_id(1, 2, 3)
        assert len(mint_trace_id(1, 2, 3)) == TRACE_ID_WIDTH

    def test_trace_id_varies_with_every_input(self):
        base = mint_trace_id(1, 2, 3)
        assert mint_trace_id(9, 2, 3) != base
        assert mint_trace_id(1, 9, 3) != base
        assert mint_trace_id(1, 2, 9) != base

    def test_span_id_is_deterministic(self):
        sid = mint_span_id("abc", "admission")
        assert sid == mint_span_id("abc", "admission")
        assert len(sid) == SPAN_ID_WIDTH
        assert sid != mint_span_id("abc", "execute")

    def test_seed_ignores_key_order(self):
        assert seed_from_config({"a": 1, "b": 2}) == seed_from_config(
            {"b": 2, "a": 1}
        )

    def test_seed_varies_with_config(self):
        assert seed_from_config({"policy": "edf"}) != seed_from_config(
            {"policy": "libra"}
        )

    def test_engines_with_same_config_share_a_seed(self):
        assert small_engine().trace_seed == small_engine().trace_seed
        assert small_engine().trace_seed != small_engine(policy="edf").trace_seed


class TestBuildTrace:
    def test_unknown_job_raises_keyerror(self):
        with pytest.raises(KeyError):
            build_trace(small_engine(), 42)

    def test_completed_job_has_full_span_tree(self):
        engine = small_engine()
        engine.submit(make_job(runtime=10.0, deadline=100.0, job_id=1))
        engine.drain()
        trace = engine.trace(1)
        assert trace["trace_id"] == engine.trace_ids[1]
        assert trace["job_id"] == 1
        names = [span["name"] for span in trace["spans"]]
        assert names == ["submit", "admission", "queue.wait", "execute",
                         "completion"]
        # LibraRisk stretches execution toward the deadline (proportional
        # share), so the span covers [start, finish] in simulated time.
        execute = next(s for s in trace["spans"] if s["name"] == "execute")
        assert 10.0 <= execute["duration"] <= 100.0
        root = trace["root"]
        assert root["attrs"]["outcome"] == "accepted"
        assert root["duration"] == pytest.approx(execute["end"] - root["start"])

    def test_rejected_job_has_no_execution_spans(self):
        engine = small_engine()
        decision = engine.submit(
            make_job(numproc=9, deadline=50.0, job_id=1)
        )
        assert decision.outcome == "rejected"
        trace = engine.trace(1)
        names = [span["name"] for span in trace["spans"]]
        assert "execute" not in names
        assert "queue.wait" not in names
        admission = next(s for s in trace["spans"] if s["name"] == "admission")
        assert admission["attrs"]["outcome"] == "rejected"
        assert admission["attrs"]["reason"]

    def test_trace_ids_differ_across_jobs(self):
        engine = small_engine()
        engine.submit(make_job(runtime=5.0, deadline=100.0, job_id=1))
        engine.submit(make_job(runtime=5.0, deadline=100.0, job_id=2))
        assert engine.trace_ids[1] != engine.trace_ids[2]

    def test_identical_runs_mint_identical_traces(self):
        def run():
            engine = small_engine()
            for i in (1, 2, 3):
                engine.submit(make_job(runtime=10.0, deadline=200.0, job_id=i))
            engine.drain()
            return [render_trace(engine.trace(i), json_out=True)
                    for i in (1, 2, 3)]

        assert run() == run()

    def test_peek_matches_minted_id(self):
        engine = small_engine()
        peeked = engine.peek_trace_id(7)
        engine.submit(make_job(runtime=5.0, deadline=100.0, job_id=7))
        assert engine.trace_ids[7] == peeked

    def test_explicit_trace_id_wins_over_minting(self):
        engine = small_engine()
        engine.submit(
            make_job(runtime=5.0, deadline=100.0, job_id=1), trace="cafe" * 4
        )
        assert engine.trace_ids[1] == "cafe" * 4
        assert engine.trace(1)["trace_id"] == "cafe" * 4

    @pytest.mark.parametrize("policy", ["edf", "libra", "librarisk"])
    def test_telemetry_off_decides_identically(self, policy):
        # The off arm is what the overhead gate prices: it may skip the
        # trace ids and the window, and nothing else.
        config = ScenarioConfig(num_jobs=300, num_nodes=32, seed=42, policy=policy)
        runs = []
        for telemetry in (True, False):
            engine = engine_for_scenario(config, telemetry=telemetry)
            decisions = [engine.submit(job) for job in build_scenario_jobs(config)]
            engine.drain()
            runs.append(([d.as_dict() for d in decisions],
                         engine.metrics().as_dict(), len(engine.trace_ids)))
        (on_decisions, on_metrics, on_ids), (off_decisions, off_metrics, off_ids) = runs
        assert off_decisions == on_decisions
        assert off_metrics == on_metrics
        assert (on_ids, off_ids) == (300, 0)
        assert any(d["outcome"] == "rejected" for d in on_decisions)

    def test_telemetry_off_mints_nothing(self):
        engine = AdmissionEngine(
            EngineConfig(policy="librarisk", num_nodes=4, rating=1.0),
            telemetry=False,
        )
        engine.submit(make_job(runtime=5.0, deadline=100.0, job_id=1))
        assert engine.trace_ids == {}
        # The trace is still renderable via the seq-0 fallback mint.
        trace = engine.trace(1)
        assert trace["trace_id"] == mint_trace_id(engine.trace_seed, 0, 1)


class TestRender:
    def test_json_render_is_canonical(self):
        engine = small_engine()
        engine.submit(make_job(runtime=10.0, deadline=100.0, job_id=1))
        engine.drain()
        text = render_trace(engine.trace(1), json_out=True)
        assert text == canonical_json(engine.trace(1))
        assert "\n" not in text

    def test_ascii_tree_lists_every_span(self):
        engine = small_engine()
        engine.submit(make_job(runtime=10.0, deadline=100.0, job_id=1))
        engine.drain()
        trace = engine.trace(1)
        text = render_trace(trace)
        assert text.splitlines()[0].startswith(f"trace {trace['trace_id']}")
        for span in trace["spans"]:
            assert span["name"] in text
            assert span["span_id"] in text
        assert text.count("|--") == len(trace["spans"]) - 1
        assert text.count("`--") == 1
