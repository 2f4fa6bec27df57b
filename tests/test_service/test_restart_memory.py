"""A restart holds the engine it builds, not the log; an engine holds
its live work, not its history.

``wal.recover``, ``WriteAheadLog.open`` and ``WriteAheadLog.compact``
stream the log (at most 16 decoded records ahead), so the memory they
need beyond what they return must not grow with the log.  tracemalloc
measures that transient — the peak during the call minus what is still
allocated after it — on EDF logs of 1,000 and 4,000 submits; a reader
that decodes the whole log first needs about 1.2 KB more per record.

A finished job leaves the object graph for one packed row of the RMS
ledger, so what an engine keeps per finished job is a small constant,
pinned by :data:`FINISHED_JOB_BYTES`.
"""

from __future__ import annotations

import gc
import math
import shutil
import tracemalloc

import pytest

from repro.cluster.ledger import JobLedger
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario_jobs
from repro.service import checkpoint as checkpoint_mod
from repro.service.engine import AdmissionEngine, EngineConfig
from repro.service.loadgen import job_request_payload
from repro.service.protocol import job_from_payload
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


def test_compaction_holds_one_record_at_a_time(edf_log, tmp_path):
    """``compact`` needs no more than the ``checkpoint.save`` it runs:
    the archive segment and the new tail are copied frame by frame."""
    path, records = edf_log
    log = str(tmp_path / "edf.wal")
    shutil.copyfile(path, log)  # compaction rewrites the log it is given
    engine, _ = recover(log)

    def save() -> None:  # like compact, keeps none of the document it writes
        checkpoint_mod.save(engine, str(tmp_path / "save.ckpt"))

    _, saving = transient(save)
    wal = WriteAheadLog.open(log)
    try:
        report, compacting = transient(
            lambda: wal.compact(engine, str(tmp_path / "compact.ckpt"))
        )
    finally:
        wal.close()
    assert report.archived == records and report.retained == 0
    extra = compacting - saving
    assert extra < BOUND, f"{extra} transient bytes over {records} records"


#: ``checkpoint.save``'s transient at 1,000 and 4,000 jobs (``edf_log``),
#: its document dropped: the figures read when the snapshot built a
#: ``Job`` and a ``Decision`` per finished job (4.60 and 8.71 MB before
#: finished jobs were packed).  Building from the rows, where a decision
#: shares its job's time and reason, must come in below them.
SAVE_TRANSIENT_BYTES = {1000: 4_850_000, 4000: 9_730_000}


def test_a_checkpoint_save_builds_no_object_per_finished_job(edf_log, tmp_path, monkeypatch):
    path, records = edf_log
    engine, _ = recover(path)
    engine.metrics()  # packs every finished job
    reference = checkpoint_mod.dumps(checkpoint_mod.snapshot(engine))

    def refuse(*args):
        raise AssertionError("checkpoint.save read a finished job back as an object")

    monkeypatch.setattr(JobLedger, "_read", refuse)
    monkeypatch.setattr(engine, "_as_decision", refuse)
    _, saving = transient(lambda: checkpoint_mod.save(engine, str(tmp_path / "s.ckpt")))
    snap, _ = checkpoint_mod.read(str(tmp_path / "s.ckpt"))
    assert checkpoint_mod.dumps(snap) == reference
    assert saving < SAVE_TRANSIENT_BYTES[records], (
        f"saving {records} jobs needed {saving} transient bytes"
    )


#: tracemalloc bytes an engine keeps per finished job, live or recovered
#: (EDF x 64, the slope between 1,000 and 4,000 jobs; 492 live and 693
#: recovered when every finished job stayed an object; now about 228 and
#: 255, of which the id index's dict entry and row int are about 69). A
#: shrink-only ceiling: a change that lowers the figure lowers this
#: number with it.
FINISHED_JOB_BYTES = 257
#: How far under the ceiling the figure may read before the ceiling must
#: come down: it moves by a fraction of a byte with what the process ran
#: before.
SLACK = 4

SLOPE_JOBS = (1000, 4000)


def kept_bytes(build) -> int:
    """Bytes still allocated once ``build()`` returns an engine (kept alive)
    and its metrics have been read (which packs every finished job)."""
    gc.collect()
    tracemalloc.start()
    try:
        engine = build()
        submitted = engine.metrics().total_submitted
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert submitted in SLOPE_JOBS
    return current


def per_finished_job(tmp_path, recovered: bool) -> float:
    sizes = []
    # The first pass only warms one-time state (caches, interned
    # strings), which would otherwise count against the smaller engine.
    for jobs in (SLOPE_JOBS[0],) + SLOPE_JOBS:
        scenario = ScenarioConfig(policy="edf", num_jobs=jobs, num_nodes=64, seed=42)
        config = EngineConfig.from_scenario(scenario)
        payloads = [job_request_payload(job) for job in build_scenario_jobs(scenario)]
        if recovered:
            path = str(tmp_path / f"edf{jobs}-{len(sizes)}.wal")
            wal = WriteAheadLog.open(path, config=config.as_dict(), fsync="none")
            clock = 0.0
            for payload in payloads:
                wal.append(clock, {"v": 1, "type": "submit", "job": payload})
                clock = payload["submit_time"]
            wal.append(clock, {"v": 1, "type": "drain"})
            wal.close()
            sizes.append(kept_bytes(lambda: recover(path)[0]))
        else:
            def live(config=config, payloads=payloads):
                engine = AdmissionEngine(config)
                for payload in payloads:
                    engine.submit(job_from_payload(payload))
                engine.drain()
                return engine
            sizes.append(kept_bytes(live))
    return (sizes[2] - sizes[1]) / (SLOPE_JOBS[1] - SLOPE_JOBS[0])


def test_an_engine_keeps_a_packed_row_per_finished_job(tmp_path):
    slopes = {
        "live": per_finished_job(tmp_path, recovered=False),
        "recovered": per_finished_job(tmp_path, recovered=True),
    }
    worst = max(slopes.values())
    assert worst <= FINISHED_JOB_BYTES, (
        f"an engine keeps {slopes} bytes per finished job, over the ceiling "
        f"of {FINISHED_JOB_BYTES}"
    )
    assert worst > FINISHED_JOB_BYTES - SLACK, (
        f"an engine now keeps {slopes} bytes per finished job: lower "
        f"FINISHED_JOB_BYTES to {math.ceil(worst) + SLACK // 2} so the "
        f"ceiling keeps what was won"
    )
