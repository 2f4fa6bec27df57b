#!/usr/bin/env python3
"""Chaos smoke test: ``kill -9`` a WAL-backed server mid-replay, recover,
and require byte-identical final metrics to an uninterrupted run.

This is the out-of-process complement to ``tests/test_service/test_chaos.py``:
the server really dies (``--faults crash=...,mode=exit`` hard-exits with
``os._exit(137)``, the same abrupt death ``kill -9`` produces), recovery
really reads whatever the dead process left on disk, and the comparison
is against a plain in-process replay of the same job stream.

One scripted crash is exercised at every WAL crash point::

    wal.before_append   request lost before it was logged
    wal.after_append    logged but never applied
    wal.after_apply     applied but never acked

A fourth scenario exercises the sharded fleet: a 4-worker
``repro serve --shards``-style deployment is driven through a
:class:`~repro.service.sharding.router.ShardRouter`, one worker is killed with
a real ``SIGKILL`` mid-stream, the supervisor respawns it, it recovers
from its own shard WAL, and the merged drained metrics must be
byte-identical to an un-killed run of the same fleet — while the
surviving shards kept answering throughout the outage.

A fifth scenario repeats the shard kill with **failover parking** on
(``max_parked``) and WAL auto-compaction enabled on every worker: no
submit may see a client-visible error (the down shard's submits are
parked in arrival order and acked, then flushed in order on recovery),
the drained fleet must again be byte-identical to the un-killed
baseline, and ``repro scrub`` must pass the surviving WAL chains —
then fail once a byte of an archived segment is flipped.

Exit status 0 iff every scenario recovers to its baseline metrics.

Usage::

    python scripts/chaos_smoke.py [--port 8461] [--jobs 40]
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
sys.path.insert(0, SRC)

from repro.experiments.config import ScenarioConfig  # noqa: E402
from repro.service import protocol  # noqa: E402
from repro.service.loadgen import job_request_payload  # noqa: E402

POLICY = "librarisk"
NODES = 8
SEED = 23
CRASH_POINTS = ("wal.before_append", "wal.after_append", "wal.after_apply")
CRASH_AT = 15  # the Nth hit of the crash point dies


def server_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def rpc(port: int, request: dict, timeout: float = 10.0):
    body = json.dumps(request).encode()
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/rpc", data=body,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def submit_request(job) -> dict:
    return {"v": protocol.PROTOCOL_VERSION, "type": "submit",
            "job": job_request_payload(job)}


def wait_healthy(port: int, proc, deadline: float = 30.0) -> None:
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if proc.poll() is not None:
            raise SystemExit(
                f"server exited during startup (rc={proc.returncode}):\n"
                f"{proc.stdout.read() if proc.stdout else ''}"
            )
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=1.0
            ):
                return
        except OSError:
            time.sleep(0.1)
    raise SystemExit("server did not become healthy in time")


def start_server(port: int, wal: str, restore=None, faults=None):
    cmd = [
        sys.executable, "-m", "repro", "serve", "--policy", POLICY,
        "--nodes", str(NODES), "--port", str(port), "--wal", wal,
    ]
    if restore is not None:
        cmd += ["--restore", restore]
    if faults is not None:
        cmd += ["--faults", faults]
    proc = subprocess.Popen(
        cmd, env=server_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    wait_healthy(port, proc)
    return proc


def baseline_metrics(jobs) -> dict:
    from repro.service.engine import AdmissionEngine, EngineConfig

    engine = AdmissionEngine(EngineConfig(policy=POLICY, num_nodes=NODES))
    for job in jobs:
        engine.submit(job)
    engine.drain()
    return engine.metrics().as_dict()


def run_crash_point(point: str, jobs, port: int, baseline: dict) -> bool:
    workdir = tempfile.mkdtemp(prefix=f"chaos-{point.replace('.', '-')}-")
    wal = os.path.join(workdir, "chaos.wal")
    compacted = os.path.join(workdir, "compact.json")

    proc = start_server(
        port, wal, faults=f"crash={point}:{CRASH_AT},mode=exit",
    )
    crashed_index = None
    for index, job in enumerate(jobs):
        try:
            status, _ = rpc(port, submit_request(job))
        except OSError:
            crashed_index = index
            break
        if status != 200:
            print(f"  [{point}] unexpected HTTP {status} on job {job.job_id}")
            proc.kill()
            return False
    proc.wait(timeout=30)
    if crashed_index is None or proc.returncode != 137:
        print(f"  [{point}] server did not die as scripted "
              f"(rc={proc.returncode}, crashed_index={crashed_index})")
        return False
    print(f"  [{point}] server died with rc=137 mid-job "
          f"{jobs[crashed_index].job_id} (as scripted)")

    # Offline recovery compacts whatever the dead process left behind.
    recover = subprocess.run(
        [sys.executable, "-m", "repro", "recover", wal, "--out", compacted],
        env=server_env(), capture_output=True, text=True, timeout=120,
    )
    if recover.returncode != 0:
        print(f"  [{point}] repro recover failed:\n{recover.stdout}{recover.stderr}")
        return False
    print("  " + recover.stdout.splitlines()[0])

    # Restart from the compacted checkpoint + the same WAL; the client
    # retries its unacknowledged request, then finishes the stream.
    proc = start_server(port, wal, restore=compacted)
    try:
        status, response = rpc(port, submit_request(jobs[crashed_index]))
        if status != 200:
            print(f"  [{point}] retry of the in-flight job failed: "
                  f"HTTP {status} {response}")
            return False
        if response.get("duplicate"):
            print(f"  [{point}] retry answered from the decision log "
                  f"(duplicate=true)")
        for job in jobs[crashed_index + 1:]:
            status, response = rpc(port, submit_request(job))
            if status != 200:
                print(f"  [{point}] job {job.job_id} failed after recovery: "
                      f"HTTP {status}")
                return False
        status, drained = rpc(
            port, {"v": protocol.PROTOCOL_VERSION, "type": "drain"},
            timeout=60.0,
        )
        if status != 200:
            print(f"  [{point}] drain failed: HTTP {status}")
            return False
    finally:
        proc.terminate()
        proc.wait(timeout=30)

    if drained["metrics"] != baseline:
        print(f"  [{point}] FINAL METRICS DIVERGED")
        for key in sorted(set(baseline) | set(drained["metrics"])):
            got, want = drained["metrics"].get(key), baseline.get(key)
            if got != want:
                print(f"    {key}: recovered={got!r} baseline={want!r}")
        return False
    print(f"  [{point}] final metrics byte-identical to uninterrupted run")
    return True


SHARDS = 4
KILL_AFTER = 12  # SIGKILL a worker once this many jobs are in


def run_sharded_fleet(jobs, base_port: int, workdir: str, kill: bool,
                      park: int = 0, compact_every: int = 0):
    """Drive one sharded fleet to drain; optionally SIGKILL a worker.

    With ``park > 0`` the router runs in failover-parking mode: the
    stream keeps its original order, every submit must be acked on the
    first attempt (forwarded or parked — a non-200 is fatal), and the
    report counts how many submits were parked.  ``compact_every``
    enables WAL auto-compaction on every worker.

    Returns ``(merged_metrics, per_shard_metrics, restarts, report)``
    where ``report`` is a dict of facts about the outage (which shard
    died, how many submits the survivors answered while it was down).
    """
    import signal

    from repro.service.engine import EngineConfig
    from repro.service.sharding.partition import shard_for_submit
    from repro.service.sharding.paths import shard_path
    from repro.service.sharding.router import ShardRouter
    from repro.service.sharding.supervisor import ShardSupervisor, WorkerSpec

    wal_base = os.path.join(workdir, "fleet.wal")
    specs = []
    for shard in range(SHARDS):
        port = base_port + shard
        cmd = [
            sys.executable, "-m", "repro", "serve", "--policy", POLICY,
            "--nodes", str(NODES), "--port", str(port),
            "--shard-id", str(shard), "--shard-count", str(SHARDS),
            "--wal", shard_path(wal_base, shard, SHARDS),
        ]
        if compact_every:
            cmd += ["--wal-compact-every", str(compact_every)]
        specs.append(WorkerSpec(
            shard_id=shard,
            cmd=cmd,
            url=f"http://127.0.0.1:{port}",
            env=server_env(),
        ))
    router = ShardRouter(
        EngineConfig(policy=POLICY, num_nodes=NODES),
        [spec.url for spec in specs],
        timeout=5.0,
        max_parked=park,
    )
    supervisor = ShardSupervisor(
        specs, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    supervisor.router = router

    # The victim is the shard owning the job at the kill index, so the
    # stream is guaranteed to route submits at a dead shard.  The jobs
    # after the kill are sent survivors-first: cross-shard interleaving
    # is irrelevant to any shard's state (each engine only ever sees
    # its own jobs, in its own order), and it lets the surviving shards
    # prove they keep admitting while the victim is down.
    victim = None
    order = list(jobs)
    if kill:
        victim = shard_for_submit(
            jobs[KILL_AFTER].job_id, jobs[KILL_AFTER].user, SHARDS,
        )
        if not park:
            # Parking keeps the original order end to end (that is the
            # point); without it the survivors-first reorder applies.
            rest = jobs[KILL_AFTER:]
            order = jobs[:KILL_AFTER] + [
                j for j in rest
                if shard_for_submit(j.job_id, j.user, SHARDS) != victim
            ] + [
                j for j in rest
                if shard_for_submit(j.job_id, j.user, SHARDS) == victim
            ]

    report = {"victim": victim, "served_during_outage": 0, "retried": 0,
              "parked": 0,
              "down_during_outage": None, "reachable_during_outage": None}
    with supervisor:
        supervisor.start(wait_healthy=True, timeout=60.0)
        victim_recovered = False
        for index, job in enumerate(order):
            if kill and index == KILL_AFTER:
                os.kill(router.shard_pids[victim], signal.SIGKILL)
                health = router.health_response()
                stats = router.stats_response()["stats"]
                report["down_during_outage"] = health["shards_down"]
                report["reachable_during_outage"] = stats["shards_reachable"]
                print(f"  [shard-kill] SIGKILL shard {victim} worker; fleet "
                      f"reports {health['status']!r} with "
                      f"{health['shards_down']} shard(s) down, "
                      f"{stats['shards_reachable']}/{SHARDS} shards "
                      f"reachable")
            body = json.dumps(submit_request(job)).encode()
            if park:
                # Parking mode is strict: every submit must be acked on
                # its first attempt — forwarded or parked — or the
                # "no client-visible submit loss" invariant is broken.
                status, response = router.handle(body)
                if status != 200:
                    raise SystemExit(
                        f"parking drill: job {job.job_id} saw a "
                        f"client-visible error: HTTP {status} {response}"
                    )
                if response.get("type") == "parked":
                    report["parked"] += 1
                continue
            attempts = 0
            deadline = time.monotonic() + 30.0
            while True:
                attempts += 1
                status, response = router.handle(body)
                if status == 200:
                    break
                if time.monotonic() > deadline:
                    raise SystemExit(
                        f"job {job.job_id} still failing after 30s: "
                        f"HTTP {status} {response}"
                    )
                time.sleep(0.2)
            if victim is not None and index >= KILL_AFTER:
                shard = shard_for_submit(job.job_id, job.user, SHARDS)
                if shard == victim:
                    victim_recovered = True
                elif attempts == 1 and not victim_recovered:
                    report["served_during_outage"] += 1
            if attempts > 1:
                report["retried"] += 1
        # The drain fans out to every shard, so wait for the whole
        # fleet (including the respawned victim) to be reachable again.
        # Keyed on shards_down, not the merged status: tiny 2-node
        # shards legitimately burn their deadline-miss budget and
        # report (SLO-)"degraded" while serving perfectly well.
        deadline = time.monotonic() + 30.0
        while router.health_response()["shards_down"] != 0:
            if time.monotonic() > deadline:
                raise SystemExit("a shard never came back after the kill")
            time.sleep(0.2)
        status, drained = router.handle(
            json.dumps({"v": protocol.PROTOCOL_VERSION, "type": "drain"})
            .encode()
        )
        if status != 200:
            raise SystemExit(f"sharded drain failed: HTTP {status} {drained}")
        restarts = supervisor.restart_counts()
    return drained["metrics"], drained.get("shards", {}), restarts, report


def run_shard_kill(jobs, base_port: int, clean, clean_shards) -> bool:
    """SIGKILL one of four shard workers mid-stream; require byte-identical
    merged metrics vs an un-killed run of the same sharded fleet."""
    killed_dir = tempfile.mkdtemp(prefix="chaos-shard-killed-")

    killed, killed_shards, restarts, report = run_sharded_fleet(
        jobs, base_port, killed_dir, kill=True,
    )
    victim = report["victim"]
    if victim is None or restarts.get(victim) != 1:
        print(f"  [shard-kill] supervisor did not restart the killed "
              f"worker exactly once (victim={victim}, restarts={restarts})")
        return False
    others = {k: v for k, v in restarts.items() if k != victim}
    if any(others.values()):
        print(f"  [shard-kill] surviving workers restarted too: {others}")
        return False
    print(f"  [shard-kill] supervisor respawned shard {victim} "
          f"(restarts {restarts}); survivors answered "
          f"{report['served_during_outage']} submit(s) during the outage; "
          f"{report['retried']} submit(s) needed retries")
    if report["reachable_during_outage"] != SHARDS - 1:
        print(f"  [shard-kill] expected {SHARDS - 1} shards reachable right "
              f"after the kill, saw {report['reachable_during_outage']}")
        return False
    if report["down_during_outage"] != 1:
        # The probe runs milliseconds after the SIGKILL; a respawned
        # worker takes far longer than that to boot, so /healthz must
        # have seen exactly the victim down while the rest served.
        print(f"  [shard-kill] /healthz saw {report['down_during_outage']} "
              f"shard(s) down during the outage, expected exactly 1")
        return False
    if report["served_during_outage"] < 1:
        print("  [shard-kill] no surviving shard answered during the outage")
        return False

    ok = True
    if killed != clean:
        print("  [shard-kill] MERGED METRICS DIVERGED")
        for key in sorted(set(clean) | set(killed)):
            got, want = killed.get(key), clean.get(key)
            if got != want:
                print(f"    {key}: killed={got!r} clean={want!r}")
        ok = False
    if killed_shards != clean_shards:
        print("  [shard-kill] PER-SHARD METRICS DIVERGED")
        ok = False
    if ok:
        print("  [shard-kill] merged + per-shard metrics byte-identical "
              "to the un-killed fleet")
    return ok


PARK_CAPACITY = 64  # per-shard failover parking slots for the drill
COMPACT_EVERY = 5   # workers compact once 5 records sit past the base LSN


def run_scrub(wal_base: str):
    """One ``repro scrub`` pass over the drill fleet's WAL chains."""
    return subprocess.run(
        [sys.executable, "-m", "repro", "scrub", wal_base,
         "--shards", str(SHARDS)],
        env=server_env(), capture_output=True, text=True, timeout=120,
    )


def run_parking_drill(jobs, base_port: int, clean, clean_shards) -> bool:
    """SIGKILL a shard with failover parking + WAL compaction on.

    Every submit must be acked first-try (forwarded or parked), the
    drained fleet must be byte-identical to the un-killed baseline,
    ``repro scrub`` must pass the surviving WAL chains, and must fail
    once a byte of an archived segment is flipped.
    """
    workdir = tempfile.mkdtemp(prefix="chaos-shard-parked-")
    killed, killed_shards, restarts, report = run_sharded_fleet(
        jobs, base_port, workdir, kill=True,
        park=PARK_CAPACITY, compact_every=COMPACT_EVERY,
    )
    victim = report["victim"]
    ok = True
    if report["parked"] < 1:
        print("  [parking] no submit was ever parked — the drill did not "
              "exercise failover parking")
        ok = False
    else:
        print(f"  [parking] {report['parked']} submit(s) to dead shard "
              f"{victim} parked and acked; zero client-visible errors")
    if restarts.get(victim) != 1 or any(
            count for shard, count in restarts.items() if shard != victim):
        print(f"  [parking] unexpected restart counts: {restarts}")
        ok = False

    if killed != clean:
        print("  [parking] MERGED METRICS DIVERGED")
        for key in sorted(set(clean) | set(killed)):
            got, want = killed.get(key), clean.get(key)
            if got != want:
                print(f"    {key}: parked={got!r} clean={want!r}")
        ok = False
    if killed_shards != clean_shards:
        print("  [parking] PER-SHARD METRICS DIVERGED")
        ok = False
    if ok:
        print("  [parking] merged + per-shard metrics byte-identical "
              "to the un-killed fleet")

    # Scrub the very WAL chains the drill dragged through a SIGKILL.
    wal_base = os.path.join(workdir, "fleet.wal")
    scrub = run_scrub(wal_base)
    if scrub.returncode != 0:
        print(f"  [scrub] surviving fleet failed scrub "
              f"(rc={scrub.returncode}):\n{scrub.stdout}{scrub.stderr}")
        ok = False
    else:
        summary = scrub.stdout.strip().splitlines()
        print("  [scrub] " + (summary[0] if summary else "clean (exit 0)"))

    segments = sorted(glob.glob(os.path.join(workdir, "*.seg*")))
    if not segments:
        print("  [scrub] no archived segments found — compaction never ran")
        return False
    target = segments[0]
    with open(target, "rb") as handle:
        blob = bytearray(handle.read())
    blob[len(blob) // 2] ^= 0x01
    with open(target, "wb") as handle:
        handle.write(bytes(blob))
    scrub = run_scrub(wal_base)
    if scrub.returncode == 0:
        print(f"  [scrub] flipped a byte of {os.path.basename(target)} "
              f"and scrub still passed")
        ok = False
    else:
        print(f"  [scrub] corrupted {os.path.basename(target)} detected "
              f"(exit {scrub.returncode})")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=8461)
    parser.add_argument("--jobs", type=int, default=40)
    args = parser.parse_args()

    from repro.experiments.runner import build_scenario_jobs

    config = ScenarioConfig(
        policy=POLICY, num_jobs=args.jobs, num_nodes=NODES, seed=SEED,
    )
    jobs = build_scenario_jobs(config)
    baseline = baseline_metrics(jobs)
    print(f"baseline: {len(jobs)} jobs through in-process {POLICY}, "
          f"{baseline['pct_deadlines_fulfilled']:.1f}% deadlines fulfilled")

    ok = True
    for offset, point in enumerate(CRASH_POINTS):
        print(f"crash point {point}:")
        ok = run_crash_point(point, jobs, args.port + offset, baseline) and ok

    # One un-killed fleet run anchors both sharded drills: per-shard
    # state depends only on per-shard arrival order, which every drill
    # preserves, so a single baseline serves both comparisons.
    print(f"shard kill ({SHARDS} workers):")
    clean_dir = tempfile.mkdtemp(prefix="chaos-shard-clean-")
    clean, clean_shards, clean_restarts, _ = run_sharded_fleet(
        jobs, args.port + 100, clean_dir, kill=False,
    )
    if any(clean_restarts.values()):
        print(f"  [shard-kill] baseline fleet restarted workers "
              f"unexpectedly: {clean_restarts}")
        ok = False
    else:
        print(f"  [shard-kill] baseline fleet drained: "
              f"{clean['pct_deadlines_fulfilled']:.1f}% deadlines fulfilled")
        ok = run_shard_kill(
            jobs, args.port + 100 + SHARDS, clean, clean_shards,
        ) and ok
        print(f"parking drill ({SHARDS} workers, failover parking "
              f"+ compaction + scrub):")
        ok = run_parking_drill(
            jobs, args.port + 100 + 2 * SHARDS, clean, clean_shards,
        ) and ok
    print("chaos smoke: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
