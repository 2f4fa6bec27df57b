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
from repro.obs.tracing import canonical_json, mint_trace_id, render_trace
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
    canonical JSON, read at the engine clock), and the trace ids.

    Every id must be the one derived from the job's submit counter: an
    engine stores a trace id only where it differs from that, and on
    these paths none does.
    """
    pins = [d.job_id for d in engine.decisions if d.pin is not None]
    assert pins == []
    for d in engine.decisions:
        assert engine.trace_id(d.job_id) == mint_trace_id(
            engine.trace_seed, d.seq, d.job_id
        )
    wide = WindowAggregator(window=3 * 86400.0)
    wide.replay(engine.decisions)
    return (
        canonical_json(engine.stats()["window"]),
        canonical_json(wide.snapshot(engine.now)),
        {d.job_id: engine.trace_id(d.job_id) for d in engine.decisions},
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


#: (policy, nodes, seed) -> sha256 prefixes of (checkpoint bytes,
#: ``metrics()``, window, per-id answers) mid-stream, then after drain.
#: The per-id answers are, for every job id submitted so far: the
#: ``query`` response, the ``repro trace --json`` text, the answer to an
#: identical resubmit and the error a conflicting one gets.
ANSWERS = {
    ("edf", 64, 42): ("26db569bad2a3b74", "9f07be3809248b01", "0862c84b2b6687e2",
                      "0f7f5ed504d72cc2", "95aa7b2c56d4139e", "38bc144ea2fa7787",
                      "93c580887e5526a9", "0d055ae3462fa62e"),
    ("edf", 64, 7): ("b649b345e7741501", "a66dcc5b355ea3c5", "3d5193069b954624",
                     "48ccfb2e6a904566", "ff2a64d16755422b", "76ff4074350bd557",
                     "dd9113968f5ed7ed", "10f5df2d53dd6253"),
    ("libra", 32, 42): ("db47b66f792b236b", "905f40f59e304b0e", "b5b5ae0c9a88c8a6",
                        "1fa3ad3d0f6a1afd", "9bb6b2faba865e26", "a7c95885bfac1d16",
                        "19356f7c6d1f5289", "8c5806c8de232c03"),
    ("libra", 32, 7): ("855aaaff48abdbfa", "f2f88536d708a15c", "dfdf9c97cd330a18",
                       "3e6c25fbbe767e76", "44a5a46230ac7a78", "1220b51973470c70",
                       "5fad2413a397b479", "5e4705a4d3fc1bb7"),
    ("librarisk", 32, 42): ("a4b50cbcefde3db0", "78ebddbec74bbcc2", "d12bc0c4c5e89b33",
                            "886472d6d6a5877e", "0fa32cd522c23448", "53fdfe0d721ceb80",
                            "428154c88de0171a", "23f0520c5b35db14"),
    ("librarisk", 32, 7): ("29b2043b852e9587", "52594a1c804b6b2c", "c2cb315bc8f404e4",
                           "4abce9ddea98580e", "57a0eeb656978f32", "a078d03f55136d35",
                           "b5959e30aefab967", "271b20312c2d8b4c"),
}

ANSWER_JOBS, ANSWER_CUT = 160, 100


def answers(service: AdmissionService, payloads: list[dict]) -> tuple[str, ...]:
    """Digests of everything the service answers about its past jobs."""
    engine = service.engine

    def ask(request: dict) -> str:
        status, response = service.handle(json.dumps(
            {"v": protocol.PROTOCOL_VERSION, **request}
        ).encode())
        return f"{status} {canonical_json(response)}"

    per_id = []
    for payload in payloads:
        job_id = payload["id"]
        conflict = dict(payload, runtime=payload["runtime"] * 2.0)
        per_id += [
            ask({"type": "query", "job": job_id}),
            render_trace(engine.trace(job_id), json_out=True),
            ask({"type": "submit", "job": payload}),
            ask({"type": "submit", "job": conflict}),
        ]
    return (
        sha(checkpoint_mod.dumps(checkpoint_mod.snapshot(engine)).encode()),
        sha(canonical_json(engine.metrics().as_dict()).encode()),
        sha(canonical_json(engine.stats()["window"]).encode()),
        sha("\n".join(per_id).encode()),
    )


@pytest.mark.parametrize("policy,nodes,seed", sorted(ANSWERS))
def test_every_past_id_answers_as_pinned(tmp_path, policy, nodes, seed):
    """Mid-stream and after a drain, on the live engine, the recovered
    one and a restored checkpoint: every answer about a past job is the
    pinned one."""
    config = ScenarioConfig(policy=policy, num_jobs=ANSWER_JOBS,
                            num_nodes=nodes, seed=seed)
    engine = AdmissionEngine(EngineConfig(policy=policy, num_nodes=nodes))
    wal_path = str(tmp_path / "wal.log")
    service = AdmissionService(
        engine, wal=WriteAheadLog.open(wal_path, config=engine.config.as_dict()),
    )
    payloads = [job_request_payload(job) for job in build_scenario_jobs(config)]
    got = []
    for i, payload in enumerate(payloads, 1):
        status, _ = service.handle(json.dumps({
            "v": protocol.PROTOCOL_VERSION, "type": "submit", "job": payload,
        }).encode())
        assert status == 200
        if i == ANSWER_CUT:
            got += answers(service, payloads[:i])
    status, _ = service.handle(json.dumps(
        {"v": protocol.PROTOCOL_VERSION, "type": "drain"}
    ).encode())
    assert status == 200
    drained = answers(service, payloads)
    service.close_wal()
    got += drained
    assert tuple(got) == ANSWERS[(policy, nodes, seed)]

    recovered, _ = recover(wal_path)
    assert answers(AdmissionService(recovered), payloads) == drained
    restored = checkpoint_mod.restore(checkpoint_mod.snapshot(engine))
    assert answers(AdmissionService(restored), payloads) == drained
