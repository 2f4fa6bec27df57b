"""Tests for the JSON-lines, Prometheus and report exporters."""

import io

import pytest

from repro.obs.exporters import (
    jsonl_line,
    prometheus_text,
    read_jsonl,
    run_report,
    write_jsonl,
)
from repro.obs.inspect import render_inspection
from repro.obs.metrics import MetricsRegistry


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.jsonl"
        records = [{"type": "meta", "seed": 1}, {"type": "decision", "job": 2}]
        assert write_jsonl(str(path), records) == 2
        assert read_jsonl(str(path)) == records

    def test_canonical_line_is_sorted_and_compact(self):
        assert jsonl_line({"b": 1, "a": [1.5, "x"]}) == '{"a":[1.5,"x"],"b":1}'

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            jsonl_line({"v": float("nan")})

    def test_read_skips_blank_lines(self):
        fp = io.StringIO('{"a":1}\n\n{"b":2}\n')
        assert read_jsonl(fp) == [{"a": 1}, {"b": 2}]

    def test_read_reports_bad_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok":1}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            read_jsonl(str(path))


class TestPrometheus:
    def test_counter_gauge_rendering(self):
        reg = MetricsRegistry()
        reg.counter("hits", "Hits", policy="libra").inc(3)
        reg.gauge("depth").set(7)
        text = prometheus_text(reg)
        assert "# TYPE hits counter" in text
        assert 'hits{policy="libra"} 3' in text
        assert "depth 7" in text
        assert text.endswith("\n")

    def test_histogram_rendering(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(20.0)
        text = prometheus_text(reg)
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="10"} 1' in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_sum 20.5" in text
        assert "lat_count 2" in text

    def test_type_header_emitted_once_per_family(self):
        reg = MetricsRegistry()
        reg.counter("d", outcome="a").inc()
        reg.counter("d", outcome="b").inc()
        text = prometheus_text(reg)
        assert text.count("# TYPE d counter") == 1


def _fake_run(policy="libra", with_profile=False):
    records = [
        {"type": "meta", "schema": 1, "scenario": f"{policy} est=trace",
         "policy": policy, "seed": 42, "num_jobs": 3, "num_nodes": 2},
        {"type": "span", "name": "run", "t0": 0.0, "t1": 100.0, "events": 9},
        {"type": "transition", "t": 0.0, "job": 1, "to": "submitted"},
        {"type": "decision", "t": 0.0, "job": 1, "policy": policy,
         "outcome": "accepted", "reason": "started on 1 node(s)"},
        {"type": "decision", "t": 1.0, "job": 2, "policy": policy,
         "outcome": "rejected", "reason": "no capacity"},
        {"type": "metrics", "values": {"pct_deadlines_fulfilled": 50.0,
                                       "acceptance_pct": 50.0}},
        {"type": "registry", "metrics": [
            {"name": "sim_events_total", "kind": "counter", "labels": {},
             "value": 9},
        ]},
    ]
    if with_profile:
        records.append({"type": "profile", "events": 9, "events_per_sec": 900.0})
    return records


class TestRunReport:
    def test_single_run_summary(self):
        text = run_report(_fake_run())
        assert "run 1/1" in text
        assert "1 accepted, 1 rejected" in text
        assert "no capacity" in text
        assert "pct_deadlines_fulfilled=50" in text

    def test_multi_run_split_on_meta(self):
        text = run_report(_fake_run("libra") + _fake_run("edf"))
        assert "run 1/2" in text and "run 2/2" in text

    def test_empty_stream(self):
        assert "empty" in run_report([])


class TestInspect:
    def test_render_prom_mode_uses_last_registry(self):
        text = render_inspection(_fake_run(), mode="prom")
        assert "sim_events_total 9" in text

    def test_render_decisions_mode(self):
        text = render_inspection(_fake_run(), mode="decisions")
        assert "accepted" in text and "rejected" in text
        filtered = render_inspection(_fake_run(), mode="decisions", policy="nope")
        assert filtered == ""

    def test_render_transitions_mode(self):
        text = render_inspection(_fake_run(), mode="transitions")
        assert "job=1" in text and "submitted" in text

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            render_inspection(_fake_run(), mode="nope")
