"""Child-process hygiene: every process the benchmark starts is reaped.

All children (``repro serve``, shard fleets, stub shards, set-up probes)
are started through one :class:`Children` registry used as a context
manager, so success, exceptions and the per-workload alarm all end in
``close()``: SIGKILL whatever still runs, then wait for it.  Scratch
files live in one directory under ``bench/out`` (the benchmark may
write only inside its checkout) that ``close()`` removes.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import urllib.error
import urllib.request
from time import perf_counter, sleep
from typing import Any, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


def child_env() -> dict[str, str]:
    """An environment in which ``python -m repro`` finds this checkout."""
    env = dict(os.environ)
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + prior if prior else "")
    return env


def serve_cmd(policy: str, nodes: int, port: int, *extra: str) -> list[str]:
    return [
        sys.executable, "-m", "repro", "serve", "--policy", policy,
        "--nodes", str(nodes), "--host", "127.0.0.1", "--port", str(port),
        *extra,
    ]


class Children:
    """Registry of started processes and supervisors plus one temp dir."""

    def __init__(self) -> None:
        self._procs: list[subprocess.Popen] = []  # type: ignore[type-arg]
        self._supervisors: list[Any] = []
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
        self.env = child_env()
        self._scratch = 0

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def scratch(self, suffix: str) -> str:
        """A fresh file path inside the temp dir (nothing is created)."""
        self._scratch += 1
        return os.path.join(self.tmp, f"{self._scratch:04d}{suffix}")

    def spawn(self, cmd: Sequence[str], **kwargs: Any) -> subprocess.Popen:  # type: ignore[type-arg]
        kwargs.setdefault("stdout", subprocess.DEVNULL)
        kwargs.setdefault("stderr", subprocess.DEVNULL)
        proc = subprocess.Popen(list(cmd), env=self.env, **kwargs)
        self._procs.append(proc)
        return proc

    def adopt(self, supervisor: Any) -> Any:
        """Track a ``ShardSupervisor`` so ``close()`` stops its workers."""
        self._supervisors.append(supervisor)
        return supervisor

    @staticmethod
    def kill(proc: subprocess.Popen) -> None:  # type: ignore[type-arg]
        """SIGKILL ``proc`` (if it still runs) and wait until it has ended."""
        if proc.poll() is None:
            proc.kill()
        proc.wait()

    def close(self) -> None:
        for supervisor in self._supervisors:
            supervisor.stop(timeout=5.0)
            for state in supervisor.workers:
                if state.proc is not None:
                    self.kill(state.proc)
        self._supervisors.clear()
        for proc in self._procs:
            self.kill(proc)
        self._procs.clear()
        shutil.rmtree(self.tmp, ignore_errors=True)


def wait_healthy(urls: Sequence[str], procs: Sequence[Any], timeout: float = 60.0) -> None:
    """Block until every ``/healthz`` answers 200 (5 ms poll, not 50)."""
    deadline = perf_counter() + timeout
    for url, proc in zip(urls, procs):
        while True:
            try:
                with urllib.request.urlopen(f"{url}/healthz", timeout=1.0) as resp:
                    if resp.status == 200:
                        break
            except (urllib.error.URLError, OSError):
                pass
            if proc.poll() is not None:
                raise RuntimeError(f"server at {url} exited with {proc.returncode}")
            if perf_counter() > deadline:
                raise TimeoutError(f"server at {url} not healthy after {timeout:g}s")
            sleep(0.005)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set of this process, or of live process ``pid``."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
