"""Span self-time arithmetic and the trace file layout."""

import json

import pytest

from spans import Tracer, self_times, totals_by_name, write_trace


def test_self_time_is_duration_minus_direct_children():
    tracer = Tracer()
    root = tracer.add("request", 0.0, 10.0, -1, 7)
    child = tracer.add("sim.advance", 1.0, 4.0, root, 7)
    tracer.add("scheduling.admit", 4.0, 9.0, root, 7)
    tracer.add("inner", 2.0, 3.0, child, 7)
    assert self_times(tracer.spans) == [2.0, 2.0, 5.0, 1.0]


def test_totals_by_name_sum_over_requests():
    tracer = Tracer()
    for rid in range(3):
        root = tracer.add("request", 0.0, 4.0, -1, rid)
        tracer.add("scheduling.admit", 1.0, 4.0, root, rid)
    table = totals_by_name(tracer.spans)
    assert table["request"] == {"count": 3, "total_s": 12.0, "self_s": 3.0}
    assert table["scheduling.admit"] == {"count": 3, "total_s": 9.0, "self_s": 9.0}


def test_timed_context_manager_records_a_closed_span():
    tracer = Tracer()
    with tracer.timed("wal.recover", request_id=3) as span:
        pass
    name, start, end, parent, request_id = tracer.spans[span.index]
    assert (name, parent, request_id) == ("wal.recover", -1, 3)
    assert end >= start and span.seconds == end - start


def test_trace_file_round_trips(tmp_path):
    tracer = Tracer()
    root = tracer.add("request", 100.0, 100.5, -1, 0)
    tracer.add("sim.advance", 100.0, 100.2, root, 0)
    path = tmp_path / "trace.json"
    write_trace(str(path), tracer.spans, {"workload": "x"})
    doc = json.loads(path.read_text())
    assert doc["meta"] == {"workload": "x"}
    assert doc["fields"] == ["name", "start_s", "end_s", "parent", "request_id"]
    assert doc["spans"] == [["request", 0.0, 0.5, -1, 0], ["sim.advance", 0.0, 0.2, 0, 0]]
    assert doc["by_name"]["request"]["self_s"] == pytest.approx(0.3)
