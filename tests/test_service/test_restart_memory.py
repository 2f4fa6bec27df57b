"""A restart holds the engine it builds, not the log.

``wal.recover`` and ``WriteAheadLog.open`` stream the log (at most 16
decoded records ahead), so the memory either needs beyond what it
returns must not grow with the log.  tracemalloc measures that
transient — the peak during the call minus what is still allocated
after it — on EDF logs of 1,000 and 4,000 submits; a reader that
decodes the whole log first needs about 1.2 KB more per record.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario_jobs
from repro.service.engine import EngineConfig
from repro.service.loadgen import job_request_payload
from repro.service.wal import WriteAheadLog, recover

#: Transient bytes a restart may need, whatever the log's length.
BOUND = 256 * 1024


@pytest.fixture(scope="module", params=[1000, 4000])
def edf_log(request, tmp_path_factory):
    """An EDF log of submit records, written as a server would write it."""
    records = request.param
    scenario = ScenarioConfig(policy="edf", num_jobs=records, num_nodes=64, seed=42)
    config = EngineConfig.from_scenario(scenario)
    path = str(tmp_path_factory.mktemp("restart") / f"edf{records}.wal")
    wal = WriteAheadLog.open(path, config=config.as_dict(), fsync="none")
    clock = 0.0
    for job in build_scenario_jobs(scenario):
        wal.append(clock, {"v": 1, "type": "submit", "job": job_request_payload(job)})
        clock = job.submit_time
    wal.close()
    return path, records


def transient(call):
    """``call()``'s result and the bytes it needed beyond what it returned."""
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - current


def test_recover_holds_one_record_at_a_time(edf_log):
    path, records = edf_log
    (engine, report), extra = transient(lambda: recover(path))
    assert report.replayed == records and len(engine.decisions) == records
    assert extra < BOUND, f"{extra} transient bytes over {records} records"


def test_reopening_a_log_holds_one_record_at_a_time(edf_log):
    path, records = edf_log
    wal, extra = transient(lambda: WriteAheadLog.open(path))
    try:
        assert wal.next_lsn == records + 1
    finally:
        wal.close()
    assert extra < BOUND, f"{extra} transient bytes over {records} records"
