#!/usr/bin/env python3
"""Observability smoke test: serve, load, trace, top — twice, byte-identical.

The observability stack promises determinism end to end: trace ids are
minted from (config seed, submit sequence, job id), windowed telemetry
advances on simulated time, and ``repro top --once --json`` emits only
the deterministic view.  This script holds that promise against the
real CLI surface:

1. start ``repro serve`` (WAL-backed) as a subprocess,
2. drive 200 jobs through ``repro replay --url`` (the load generator),
3. capture ``repro trace <job-id> --url ... --json``,
4. capture ``repro top --once --json``,
5. stop the server, re-read the same trace offline from the WAL
   (``repro trace --wal``) and require it byte-identical to the live
   answer,
6. run the whole cycle again from scratch and require both the trace
   and the top snapshot byte-identical to the first pass,
7. price the instrumentation: best-of-3 interleaved in-process engine
   passes with telemetry on and off (LibraRisk, 2000 jobs x 64 nodes,
   after one warm-up pass) must differ by at most 5 %.

Exit status 0 iff every comparison holds.

Usage::

    python scripts/obs_smoke.py [--port 8471] [--jobs 200]
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
sys.path.insert(0, SRC)

POLICY = "librarisk"
NODES = 16
TRACE_JOB_ID = 1

#: Stage 7, the instrumentation-overhead gate.
OVERHEAD_JOBS = 2000
OVERHEAD_NODES = 64
OVERHEAD_REPEATS = 3
MAX_OVERHEAD_PCT = 5.0


def server_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def repro(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=server_env(), capture_output=True, text=True, timeout=120,
    )


def must(proc: subprocess.CompletedProcess, what: str) -> str:
    if proc.returncode != 0:
        raise SystemExit(
            f"{what} failed (rc={proc.returncode}):\n"
            f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
        )
    return proc.stdout


def wait_healthy(port: int, proc: subprocess.Popen,
                 deadline: float = 30.0) -> None:
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


def stop_server(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)


def run_cycle(port: int, jobs: int, workdir: str) -> dict:
    """One serve → load → trace → top pass; returns the captured outputs."""
    wal = os.path.join(workdir, "obs.wal")
    url = f"http://127.0.0.1:{port}"
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--policy", POLICY,
         "--nodes", str(NODES), "--port", str(port), "--wal", wal],
        env=server_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    try:
        wait_healthy(port, server)
        must(repro("replay", "--url", url, "--jobs", str(jobs),
                   "--nodes", str(NODES), "--policy", POLICY),
             "repro replay")
        live_trace = must(
            repro("trace", str(TRACE_JOB_ID), "--url", url, "--json"),
            "repro trace --url",
        ).strip()
        top_json = must(
            repro("top", "--url", url, "--once", "--json"),
            "repro top --once --json",
        ).strip()
    finally:
        stop_server(server)

    wal_trace = must(
        repro("trace", str(TRACE_JOB_ID), "--wal", wal, "--json"),
        "repro trace --wal",
    ).strip()
    return {"live_trace": live_trace, "wal_trace": wal_trace, "top": top_json}


def check(label: str, ok: bool) -> bool:
    print(f"  {'PASS' if ok else 'FAIL'}  {label}")
    return ok


def engine_pass(config, telemetry: bool) -> float:
    """Wall seconds of one in-process submit + drain pass."""
    from repro.experiments.runner import build_scenario_jobs
    from repro.service.engine import engine_for_scenario

    jobs = build_scenario_jobs(config)
    engine = engine_for_scenario(config, telemetry=telemetry)
    t0 = time.perf_counter()
    for job in jobs:
        engine.submit(job)
    engine.drain()
    return time.perf_counter() - t0


def overhead_stage() -> bool:
    """Tracing + windowed telemetry against a ``telemetry=False`` engine."""
    from repro.experiments.config import ScenarioConfig

    config = ScenarioConfig(num_jobs=OVERHEAD_JOBS, num_nodes=OVERHEAD_NODES,
                            seed=42, policy=POLICY)
    engine_pass(config, telemetry=True)  # warm-up: imports, allocator growth
    best = {True: float("inf"), False: float("inf")}
    for _ in range(OVERHEAD_REPEATS):  # interleaved, so drift hits both arms
        for telemetry in (True, False):
            best[telemetry] = min(best[telemetry], engine_pass(config, telemetry))
    overhead = (best[True] - best[False]) / best[False] * 100.0
    print(f"obs smoke: telemetry on {OVERHEAD_JOBS / best[True]:.1f} jobs/s, "
          f"off {OVERHEAD_JOBS / best[False]:.1f} jobs/s, "
          f"overhead {overhead:+.2f}%")
    return check(f"telemetry overhead <= {MAX_OVERHEAD_PCT:g}%",
                 overhead <= MAX_OVERHEAD_PCT)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=8471)
    parser.add_argument("--jobs", type=int, default=200)
    args = parser.parse_args()

    workdir = tempfile.mkdtemp(prefix="obs-smoke-")
    failures = 0
    try:
        dir_a = os.path.join(workdir, "a")
        dir_b = os.path.join(workdir, "b")
        os.makedirs(dir_a)
        os.makedirs(dir_b)
        print(f"obs smoke: pass 1 ({args.jobs} jobs on port {args.port})")
        first = run_cycle(args.port, args.jobs, dir_a)
        print(f"obs smoke: pass 2 (fresh server on port {args.port + 1})")
        second = run_cycle(args.port + 1, args.jobs, dir_b)

        trace = json.loads(first["live_trace"])
        top = json.loads(first["top"])
        print("obs smoke: comparisons")
        for label, ok in (
            ("trace has a span tree",
             bool(trace.get("trace_id")) and len(trace.get("spans", [])) >= 2),
            ("top reports the policy and counts",
             top.get("policy") == POLICY
             and top.get("counts", {}).get("submitted") == args.jobs),
            ("top carries windowed loss ratio",
             POLICY in top.get("window", {}).get("policies", {})),
            ("live trace == WAL-recovered trace",
             first["live_trace"] == first["wal_trace"]),
            ("trace byte-identical across runs",
             first["live_trace"] == second["live_trace"]),
            ("top snapshot byte-identical across runs",
             first["top"] == second["top"]),
        ):
            if not check(label, ok):
                failures += 1
        if failures:
            print(f"\nfirst trace:  {first['live_trace'][:400]}")
            print(f"second trace: {second['live_trace'][:400]}")
            print(f"first top:    {first['top'][:400]}")
            print(f"second top:   {second['top'][:400]}")
        print(f"obs smoke: overhead ({POLICY}, {OVERHEAD_JOBS} jobs x "
              f"{OVERHEAD_NODES} nodes, best of {OVERHEAD_REPEATS})")
        overhead_ok = overhead_stage()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # The timing verdict stands apart: its noise can cross the threshold.
    print(f"\nobs smoke: determinism {'OK' if not failures else f'{failures} failure(s)'}")
    print(f"obs smoke: overhead {'OK' if overhead_ok else 'FAIL (timing; rerun once first)'}")
    return 1 if failures or not overhead_ok else 0


if __name__ == "__main__":
    sys.exit(main())
