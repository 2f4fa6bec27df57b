"""``--selfcheck``: does the benchmark repeat within its own bounds?

Runs two full sets of the workloads on the same checkout and compares
them metric by metric: the relative difference must stay within the
bound ``BENCHMARK.json`` declares for that metric.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Any

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_once(workload: str, seed: int, smoke: bool) -> dict[str, Any]:
    """One untraced run; raises when it fails its output checks (exit != 0)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} exited with {done.returncode}:\n{done.stdout}\n{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def selfcheck(manifest: dict[str, Any], seed: int, smoke: bool) -> int:
    failures = 0
    print(f"selfcheck seed={seed}: two sets of {len(manifest['workloads'])} workloads")
    print(f"{'workload':16s} {'metric':20s} {'set 1':>12s} {'set 2':>12s} "
          f"{'differ by':>9s} {'bound':>6s}")
    sets = [
        {w["name"]: run_once(w["name"], seed, smoke) for w in manifest["workloads"]}
        for _ in range(2)
    ]
    for workload in sets[0]:
        first, second = sets[0][workload], sets[1][workload]
        for entry in manifest["end_to_end"]:
            a = first["metrics"][entry["name"]]["value"]
            b = second["metrics"][entry["name"]]["value"]
            diff = abs(b - a) / a
            ok = diff <= entry["bound"]
            failures += not ok
            print(f"{workload:16s} {entry['name']:20s} {a:12.6g} {b:12.6g} "
                  f"{100 * diff:8.2f}% {100 * entry['bound']:5.0f}%"
                  f"{'' if ok else '  OUT OF BOUNDS'}")
    print("selfcheck: " + ("ok" if not failures else f"{failures} out of bounds"))
    return 1 if failures else 0
