"""Tests for the SWF parser/writer."""

import pytest

from repro.workload.swf import (
    MISSING,
    STATUS_COMPLETED,
    SWFHeader,
    SWFParseError,
    SWFRecord,
    iter_swf_records,
    parse_swf,
    read_swf_file,
    write_swf_file,
)
from repro.workload.traces import TraceColumns, usable_records

SAMPLE = """\
; Version: 2.2
; Computer: IBM SP2
; Installation: SDSC
; MaxJobs: 73496
; MaxNodes: 128
; UnixStartTime: 893534157
; TimeZone: US/Pacific
; Note: cleaned trace
; custom free-form comment
1 0 10 100 8 -1 -1 8 120 -1 1 3 1 -1 1 -1 -1 -1
2 60 0 50 -1 -1 -1 16 3600 -1 1 4 1 -1 1 -1 -1 -1
3 120 5 -1 4 -1 -1 4 600 -1 0 5 1 -1 1 -1 -1 -1
"""


class TestParsing:
    def test_parses_records(self):
        header, records = parse_swf(SAMPLE)
        assert len(records) == 3
        r = records[0]
        assert r.job_number == 1
        assert r.submit_time == 0.0
        assert r.wait_time == 10.0
        assert r.run_time == 100.0
        assert r.allocated_procs == 8
        assert r.requested_time == 120.0
        assert r.status == STATUS_COMPLETED

    def test_header_directives(self):
        header, _ = parse_swf(SAMPLE)
        assert header.version == "2.2"
        assert header.computer == "IBM SP2"
        assert header.installation == "SDSC"
        assert header.max_jobs == 73496
        assert header.max_nodes == 128
        assert header.unix_start_time == 893534157
        assert header.timezone == "US/Pacific"
        assert header.note == "cleaned trace"
        assert "custom free-form comment" in header.extra

    def test_blank_lines_skipped(self):
        _, records = parse_swf("\n\n1 0 0 10 1 -1 -1 1 20 -1 1 1 1 -1 1 -1 -1 -1\n\n")
        assert len(records) == 1

    def test_wrong_field_count_raises(self):
        with pytest.raises(SWFParseError, match="expected 18 fields"):
            parse_swf("1 2 3\n")

    def test_bad_value_raises_with_field_name(self):
        line = "1 0 0 abc 1 -1 -1 1 20 -1 1 1 1 -1 1 -1 -1 -1\n"
        with pytest.raises(SWFParseError, match="run_time"):
            parse_swf(line)

    @pytest.mark.parametrize("field,index", [
        ("submit_time", 1), ("run_time", 3), ("requested_time", 8),  # float fields
        ("job_number", 0), ("allocated_procs", 4), ("user_id", 11),  # integer fields
    ])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_value_names_line_and_field(self, field, index, token):
        parts = "1 0 0 100 1 -1 -1 1 20 -1 1 1 1 -1 1 -1 -1 -1".split()
        parts[index] = token
        with pytest.raises(SWFParseError, match=f"line 2: non-finite value .* for {field}$"):
            parse_swf("; header\n" + " ".join(parts) + "\n")

    @pytest.mark.parametrize("token", ["1e19", "-1e19", "9223372036854775808"])
    def test_integer_beyond_int64_names_line_and_field(self, token):
        line = f"{token} 0 0 100 1 -1 -1 1 20 -1 1 1 1 -1 1 -1 -1 -1\n"
        with pytest.raises(SWFParseError, match="line 1: value .* out of range for job_number$"):
            parse_swf(line)

    def test_non_finite_value_refused_when_streaming(self, tmp_path):
        path = tmp_path / "t.swf"
        path.write_text("1 0 0 100 inf -1 -1 1 20 -1 1 1 1 -1 1 -1 -1 -1\n")
        with pytest.raises(SWFParseError, match="line 1: .* for allocated_procs"):
            list(iter_swf_records(path))

    def test_float_submit_times_allowed(self):
        _, records = parse_swf("1 12.5 0 10 1 -1 -1 1 20 -1 1 1 1 -1 1 -1 -1 -1\n")
        assert records[0].submit_time == 12.5


class TestRecordViews:
    """The simulator reads parsed rows as :class:`TraceColumns`."""

    def test_procs_prefers_allocated(self):
        _, records = parse_swf(SAMPLE)
        procs = TraceColumns.from_records(records).procs
        assert procs[0] == 8
        assert procs[1] == 16  # allocated missing -> requested

    def test_usable(self):
        _, records = parse_swf(SAMPLE)
        usable = usable_records(TraceColumns.from_records(records))
        assert usable.job_number.tolist() == [1, 2]  # 3: run_time missing

    def test_unusable_without_procs(self):
        r = SWFRecord(job_number=1, submit_time=0.0, run_time=10.0)
        assert len(usable_records(TraceColumns.from_records([r]))) == 0


GOOD = "1 0 0 100 1 -1 -1 1 20 -1 1 1 1 -1 1 -1 -1 -1".split()


def line_with(index: int, token: str) -> str:
    parts = list(GOOD)
    parts[index] = token
    return " ".join(parts)


#: Data lines at every check a line can fail, and near ones it passes.
EDGE_LINES = [
    "1 2 3",
    " ".join(GOOD + ["7"]),
    line_with(3, "abc"),
    line_with(0, "1e19"),
    line_with(11, "-9223372036854775809"),
    line_with(0, "9223372036854775807"),  # rounds to 2**63: out of range
    line_with(1, "1e19"),  # a float field may exceed int64
    " ".join(GOOD[:1] + ["1e308", "0", "1e308"] + GOOD[4:]),  # a sum that overflows
    line_with(4, "1.5"),  # an integer field truncates
    line_with(0, "-5"),
] + [
    line_with(index, token)
    for index in (0, 1, 3, 4, 8, 11, 17)
    for token in ("nan", "inf", "-inf", "Infinity", "1e999")
] + [
    line_with(2, "inf") + " x",  # too many fields outranks a bad value
    "\n".join([line_with(4, "nan"), line_with(3, "abc")]),  # the first line's error
]


class TestColumnReader:
    """``read_swf_columns`` builds no record yet answers as ``read_swf_file``."""

    def read_both(self, tmp_path, text):
        path = tmp_path / "t.swf"
        path.write_text(text)

        def outcome(read):
            try:
                return read(path)
            except SWFParseError as exc:
                return str(exc)

        columns = outcome(TraceColumns.read_swf)
        records = outcome(read_swf_file)
        if isinstance(records, tuple):
            records = (records[0], TraceColumns.from_records(records[1]))
        return columns, records

    def test_sample_reads_to_the_same_columns_and_header(self, tmp_path):
        (header, columns), (header2, columns2) = self.read_both(tmp_path, SAMPLE)
        assert columns == columns2 and len(columns) == 3
        assert header == header2
        assert columns.procs.tolist() == [8, 16, 4]

    @pytest.mark.parametrize("line", EDGE_LINES)
    def test_every_line_gets_the_record_readers_verdict(self, tmp_path, line):
        columns, records = self.read_both(tmp_path, "; header\n" + line + "\n")
        if isinstance(records, str):
            assert columns == records
            assert records.startswith("line 2: ")
        else:
            assert columns[1] == records[1]
            assert [c.dtype for c in columns[1]._columns()] == [
                c.dtype for c in records[1]._columns()
            ]


class TestRoundTrip:
    def test_file_round_trip(self, tmp_path):
        header, records = parse_swf(SAMPLE)
        path = tmp_path / "out.swf"
        count = write_swf_file(path, records, header=header)
        assert count == 3
        header2, records2 = read_swf_file(path)
        assert records2 == records
        assert header2.max_nodes == header.max_nodes
        assert header2.version == header.version

    def test_to_line_renders_ints_compactly(self):
        r = SWFRecord(job_number=1, submit_time=5.0, run_time=10.0)
        line = r.to_line()
        assert line.split()[:4] == ["1", "5", "-1", "10"]

    def test_iter_swf_records_streams(self, tmp_path):
        path = tmp_path / "t.swf"
        _, records = parse_swf(SAMPLE)
        write_swf_file(path, records)
        streamed = list(iter_swf_records(path))
        assert streamed == records


class TestHeaderRendering:
    def test_to_lines_round_trips_directives(self):
        header = SWFHeader(version="2.2", max_nodes=128, note="x")
        rebuilt = SWFHeader()
        for line in header.to_lines():
            rebuilt.absorb(line)
        assert rebuilt.version == "2.2"
        assert rebuilt.max_nodes == 128
        assert rebuilt.note == "x"

    def test_unknown_directive_kept_in_extra(self):
        header = SWFHeader()
        header.absorb("; Frobnication Level: 9")
        assert header.extra == ["Frobnication Level: 9"]

    def test_malformed_int_directive_falls_back_to_extra(self):
        header = SWFHeader()
        header.absorb("; MaxNodes: lots")
        assert header.max_nodes is None
        assert "MaxNodes: lots" in header.extra
