"""Every engine path reproduces the live window and trace ids.

The windowed telemetry and the trace ids are rebuilt, never persisted
as such: WAL recovery re-submits each logged job and a checkpoint
restore replays the decision log into a fresh window.  So the live
engine, ``wal.recover``, a checkpoint restore and a checkpoint + WAL
tail must all report the same ``stats()["window"]`` and the same
trace ids — and the bytes a checkpoint writes are pinned, along with
the window and the ids, so the telemetry's internals can change
without moving any of them.
"""

import ast
import hashlib
import json
import pathlib

import pytest

import repro
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario_jobs
from repro.obs.tracing import canonical_json
from repro.obs.windows import WindowAggregator
from repro.service import checkpoint as checkpoint_mod
from repro.service import protocol
from repro.service.engine import AdmissionEngine, Decision, EngineConfig
from repro.service.loadgen import job_request_payload
from repro.service.server import AdmissionService
from repro.service.wal import WriteAheadLog, recover

#: (policy, seed) -> sha256 prefixes of (checkpoint bytes, live window,
#: three-day window, trace ids) after 150 submits to 16 nodes.
PINNED = {
    ("edf", 42): ("a8078e32edd7a3d0", "f9877b62fb04d352",
                  "8925debeb46aec40", "b524ff527b16ab91"),
    ("edf", 7): ("3a06ecca7282e390", "c48e3f5054e3e4c1",
                 "12245fa308d81a64", "b524ff527b16ab91"),
    ("librarisk", 42): ("5e3981a942847c64", "bee992500adf74c0",
                        "bc0c83034f36ed32", "d3f62ab0c63bddbf"),
    ("librarisk", 7): ("3453df1b460a0f15", "1f6aa07ef4c17e38",
                       "f3976a72740329bd", "d3f62ab0c63bddbf"),
}

JOBS, NODES, MIDPOINT = 150, 16, 90


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def telemetry(engine: AdmissionEngine) -> tuple[str, str, dict[int, str]]:
    """The live window and a three-day one over the decision log (both
    canonical JSON, read at the engine clock), and the trace ids."""
    wide = WindowAggregator(window=3 * 86400.0)
    wide.replay(engine.decisions)
    return (
        canonical_json(engine.stats()["window"]),
        canonical_json(wide.snapshot(engine.now)),
        dict(engine.trace_ids),
    )


@pytest.mark.parametrize("policy,seed", sorted(PINNED))
def test_every_path_reproduces_window_and_trace_ids(tmp_path, policy, seed):
    config = ScenarioConfig(policy=policy, num_jobs=JOBS, num_nodes=NODES, seed=seed)
    engine = AdmissionEngine(EngineConfig(policy=policy, num_nodes=NODES))
    wal_path = str(tmp_path / "wal.log")
    service = AdmissionService(
        engine, wal=WriteAheadLog.open(wal_path, config=engine.config.as_dict()),
    )
    mid_path = str(tmp_path / "mid.ckpt")
    for i, job in enumerate(build_scenario_jobs(config), 1):
        status, _ = service.handle(json.dumps({
            "v": protocol.PROTOCOL_VERSION, "type": "submit",
            "job": job_request_payload(job),
        }).encode())
        assert status == 200
        if i == MIDPOINT:
            checkpoint_mod.save(engine, mid_path)
    service.close_wal()
    live = telemetry(engine)
    assert engine.stats()["window"]["policies"][policy]["submitted"] >= 1.0

    recovered, _ = recover(wal_path)
    assert telemetry(recovered) == live

    final_path = str(tmp_path / "final.ckpt")
    checkpoint_mod.save(engine, final_path)
    assert telemetry(checkpoint_mod.load(final_path)) == live

    resumed, _ = recover(wal_path, checkpoint_path=mid_path)
    assert telemetry(resumed) == live

    with open(final_path, "rb") as fp:
        ckpt_bytes = fp.read()
    ids = canonical_json({str(k): v for k, v in sorted(live[2].items())})
    got = (sha(ckpt_bytes), sha(live[0].encode()), sha(live[1].encode()),
           sha(ids.encode()))
    assert got == PINNED[(policy, seed)]


class TestDecisionRecord:
    def test_as_dict_is_unchanged(self):
        rejected = Decision(job_id=7, outcome="rejected", t=1.5, policy="edf",
                            reason="late")
        assert json.dumps(rejected.as_dict()) == (
            '{"job": 7, "outcome": "rejected", "t": 1.5, "policy": "edf", '
            '"reason": "late"}'
        )
        accepted = Decision(7, "accepted", 1.5, "librarisk")
        assert json.dumps(accepted.as_dict()) == (
            '{"job": 7, "outcome": "accepted", "t": 1.5, "policy": "librarisk"}'
        )
        assert accepted.accepted and not rejected.accepted

    def test_equality_compares_fields(self):
        d = Decision(7, "rejected", 1.5, "edf", "late")
        assert d == Decision(job_id=7, outcome="rejected", t=1.5, policy="edf",
                             reason="late")
        assert d != Decision(7, "rejected", 1.5, "edf", "other")
        assert d != Decision(8, "rejected", 1.5, "edf", "late")

    def test_is_slotted_and_never_hashed(self):
        d = Decision(7, "accepted", 1.5, "edf")
        assert not hasattr(d, "__dict__")
        with pytest.raises(TypeError):
            hash(d)

    def test_no_source_calls_builtin_hash(self):
        """A decision is unhashable, so nothing in the package may need
        ``hash()`` — of a decision or anything else (it is salted per
        process, so it has no place in deterministic code either)."""
        root = pathlib.Path(repro.__file__).parent
        calls = [
            f"{path.relative_to(root)}:{node.lineno}"
            for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "hash"
        ]
        assert calls == []
