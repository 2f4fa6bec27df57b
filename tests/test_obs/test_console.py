"""Tests for the `repro top` console: parsing, views, rendering."""

import io
import json

from repro.obs import console
from repro.obs.console import (
    deterministic_view,
    metric_value,
    parse_prometheus,
    render_dashboard,
    run_top,
)

PROM_TEXT = """\
# HELP service_requests_total Requests handled
# TYPE service_requests_total counter
service_requests_total 42
service_request_seconds_count 42
service_request_seconds_sum 0.84
service_requests_shed_total 3
service_wal_fsyncs 17
engine_window_loss_ratio{policy="librarisk"} 0.25
engine_window_submitted{policy="librarisk"} 8
engine_cache_stat{stat="suitability_hits"} 10
engine_cache_stat{stat="suitability_misses"} 2
escaped{label="a\\"b"} 1
malformed-line
"""


def sample_snapshot() -> dict:
    return {
        "health": {
            "ok": True,
            "status": "ok",
            "t": 120.0,
            "slo": {
                "deadline_miss_objective": 0.05,
                "deadline_miss_ratio": 0.01,
                "burn_rate": 0.2,
            },
            "wal": {"enabled": True, "appended_lsn": 9, "applied_lsn": 9,
                    "lag": 0},
            "backpressure": {"inflight": 1, "max_inflight": 64,
                             "shed_total": 3, "draining": False},
        },
        "stats": {
            "t": 120.0,
            "policy": "librarisk",
            "submitted": 8,
            "accepted": 6,
            "rejected": 2,
            "completed": 4,
            "failed": 0,
            "running": 1,
            "queued": 1,
            "acceptance_ratio": 0.75,
            "window": {
                "t": 120.0,
                "window_s": 3600.0,
                "policies": {
                    "librarisk": {
                        "window_s": 3600.0,
                        "submitted": 8.0,
                        "rejected": 2.0,
                        "loss_ratio": 0.25,
                        "reject_reasons": {"risk_too_high": 2.0},
                    }
                },
            },
            "cache": {"suitability_hits": 10, "suitability_misses": 2},
        },
        "metrics": parse_prometheus(PROM_TEXT),
    }


class TestParsePrometheus:
    def test_parses_plain_and_labelled_samples(self):
        metrics = parse_prometheus(PROM_TEXT)
        assert metrics["service_requests_total"][()] == 42.0
        labels = (("policy", "librarisk"),)
        assert metrics["engine_window_loss_ratio"][labels] == 0.25

    def test_skips_comments_and_malformed_lines(self):
        metrics = parse_prometheus(PROM_TEXT)
        assert "malformed-line" not in metrics
        assert not any(name.startswith("#") for name in metrics)

    def test_unescapes_label_values(self):
        metrics = parse_prometheus(PROM_TEXT)
        assert (("label", 'a"b'),) in metrics["escaped"]

    def test_metric_value_sums_label_subsets(self):
        metrics = parse_prometheus(PROM_TEXT)
        assert metric_value(metrics, "engine_cache_stat") == 12.0
        assert metric_value(
            metrics, "engine_cache_stat", stat="suitability_hits"
        ) == 10.0
        assert metric_value(metrics, "absent", default=-1.0) == -1.0


class TestDeterministicView:
    def test_keeps_engine_state_drops_wall_clock_series(self):
        view = deterministic_view(sample_snapshot())
        assert view["t"] == 120.0
        assert view["counts"]["submitted"] == 8
        assert view["window"]["policies"]["librarisk"]["loss_ratio"] == 0.25
        assert view["slo"]["burn_rate"] == 0.2
        assert view["wal"]["appended_lsn"] == 9
        blob = json.dumps(view)
        assert "latency" not in blob
        assert "requests_total" not in blob

    def test_is_json_stable(self):
        dump = lambda: json.dumps(  # noqa: E731
            deterministic_view(sample_snapshot()), sort_keys=True
        )
        assert dump() == dump()


class TestRenderDashboard:
    def test_plain_render_mentions_every_section(self):
        text = render_dashboard(sample_snapshot(), color=False)
        assert "policy=librarisk" in text
        assert "status=ok" in text
        assert "loss_ratio=0.250" in text
        assert "risk_too_high=2" in text
        assert "hit_rate=0.833" in text
        assert "appended_lsn=9" in text
        assert "burn_rate=0.200" in text
        assert "shed=3" in text
        assert "\x1b[" not in text

    def test_color_render_adds_ansi_and_clear(self):
        text = render_dashboard(sample_snapshot(), color=True, clear=True)
        assert text.startswith("\x1b[2J\x1b[H")
        assert "\x1b[32m" in text  # green status

    def test_health_without_slo_renders_no_slo_line(self):
        # A fleet router's merged /healthz carries no SLO block; the
        # dashboard must not print zeros it was never given.
        snapshot = sample_snapshot()
        del snapshot["health"]["slo"]
        text = render_dashboard(snapshot, color=False)
        assert "slo:" not in text
        assert "slo:" in render_dashboard(sample_snapshot(), color=False)

    def test_degraded_status_is_not_green(self):
        snapshot = sample_snapshot()
        snapshot["health"]["status"] = "degraded"
        text = render_dashboard(snapshot, color=True, clear=False)
        assert "\x1b[33mdegraded\x1b[0m" in text


class TestRunTop:
    def test_once_json_prints_one_deterministic_line(self, monkeypatch):
        monkeypatch.setattr(
            console, "console_snapshot", lambda url, timeout=5.0: sample_snapshot()
        )
        out = io.StringIO()
        rc = run_top("http://x", once=True, json_out=True, stream=out)
        assert rc == 0
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["policy"] == "librarisk"

    def test_iterations_bound_the_loop(self, monkeypatch):
        monkeypatch.setattr(
            console, "console_snapshot", lambda url, timeout=5.0: sample_snapshot()
        )
        out = io.StringIO()
        rc = run_top("http://x", interval=0.0, json_out=True,
                     stream=out, iterations=3)
        assert rc == 0
        assert len(out.getvalue().strip().splitlines()) == 3

    def test_unreachable_service_fails_cleanly(self, monkeypatch):
        def boom(url, timeout=5.0):
            raise OSError("connection refused")

        monkeypatch.setattr(console, "console_snapshot", boom)
        out = io.StringIO()
        rc = run_top("http://nowhere", once=True, stream=out)
        assert rc == 1
        assert "cannot poll" in out.getvalue()
