"""Checkpoint reader fuzz: every truncation and byte damage of a real file.

``checkpoint.load`` has two answers for a damaged file: a typed
:class:`CheckpointError`, or an engine whose snapshot equals the one
saved (a damage that changes nothing the checksum covers — a cut that
drops only the final newline, or a changed last digit of a float that
parses to the same double).  These tests cut a LibraRisk checkpoint at
every byte offset, flip the low bit of every byte and overwrite every
byte with ``0xff``, and check that nothing else ever comes out, as
``test_wal_fuzz.py`` does for the write-ahead log.
"""

from __future__ import annotations

import json

import pytest

from repro.service import checkpoint, protocol
from repro.service.checkpoint import CheckpointError
from repro.service.engine import AdmissionEngine, EngineConfig

CONFIG = EngineConfig(policy="librarisk", num_nodes=4, rating=1.0)


def build_engine() -> AdmissionEngine:
    engine = AdmissionEngine(CONFIG)
    for job_id in range(1, 11):
        engine.submit(protocol.job_from_payload({
            "id": job_id, "submit_time": 3.0 * job_id, "runtime": 20.0 + job_id,
            "estimated_runtime": 25.0, "numproc": 1 + job_id % 3,
            "deadline": 40.0 + 9.0 * job_id,
            "urgency": "high" if job_id % 2 else "low",
        }))
        if job_id == 5:
            engine.advance(17.0)
    return engine


def state(engine: AdmissionEngine) -> str:
    return checkpoint.dumps(checkpoint.snapshot(engine))


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The checkpoint bytes and the snapshot text of the engine they hold."""
    path = tmp_path_factory.mktemp("ckpt") / "engine.ckpt"
    checkpoint.save(build_engine(), str(path))
    raw = path.read_bytes()
    return raw, state(checkpoint.load(str(path)))


def outcomes(tmp_path, saved, variants) -> dict[str, int]:
    """Load every damaged variant; tally how each one ended.

    A variant that loads must parse to the very document saved: the
    damage changed no value, so nothing was loaded unverified.
    """
    raw, original = saved
    document = json.loads(raw)
    path = tmp_path / "damaged.ckpt"
    tally = {"refused": 0, "restored": 0}
    for data in variants:
        path.write_bytes(data)
        try:
            engine = checkpoint.load(str(path))
        except CheckpointError:
            tally["refused"] += 1
            continue
        assert json.loads(data) == document, data
        assert state(engine) == original, data
        tally["restored"] += 1
    return tally


def test_every_truncation_is_refused_unless_only_the_newline_goes(saved, tmp_path):
    raw, _ = saved
    tally = outcomes(tmp_path, saved, (raw[:cut] for cut in range(len(raw))))
    # Only the cut that drops the trailing newline leaves the whole document.
    assert tally == {"refused": len(raw) - 1, "restored": 1}


@pytest.mark.parametrize("damage", ["flip", "0xff"])
def test_no_byte_damage_escapes_or_loads_unverified(saved, tmp_path, damage):
    raw, _ = saved

    def variants():
        for position in range(len(raw)):
            damaged = bytearray(raw)
            if damage == "flip":
                damaged[position] ^= 0x01
            else:
                damaged[position] = 0xFF
            yield bytes(damaged)

    tally = outcomes(tmp_path, saved, variants())
    assert tally["refused"] + tally["restored"] == len(raw)
    assert tally["refused"] > 0.95 * len(raw)


def test_bytes_that_are_not_utf8_are_a_checkpoint_error(saved, tmp_path):
    raw, _ = saved
    path = tmp_path / "latin.ckpt"
    path.write_bytes(raw[:20] + b"\xff" + raw[21:])
    with pytest.raises(CheckpointError, match="invalid checkpoint JSON"):
        checkpoint.load(str(path))


def test_a_damaged_checksum_key_is_refused_not_read_as_legacy(saved, tmp_path):
    raw, _ = saved
    path = tmp_path / "key.ckpt"
    path.write_bytes(raw.replace(b'"checksum"', b'"checksul"', 1))
    with pytest.raises(CheckpointError, match="unknown checkpoint field"):
        checkpoint.load(str(path))


def test_a_legacy_checkpoint_without_checksum_still_loads(saved, tmp_path):
    raw, original = saved
    doc = json.loads(raw)
    del doc["checksum"]
    path = tmp_path / "legacy.ckpt"
    path.write_text(checkpoint.dumps(doc), encoding="utf-8")
    assert state(checkpoint.load(str(path))) == original
