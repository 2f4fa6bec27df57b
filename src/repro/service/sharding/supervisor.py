"""One worker process per shard, restarted from its own WAL on death.

The supervisor is the piece that turns the shard plan into actual
parallelism: each shard runs as a separate ``repro serve`` **process**
(its own interpreter, so the GIL bounds one shard, not the fleet),
listening on its own port, logging to its own shard-namespaced WAL.

Crash contract
--------------
``kill -9`` one worker and:

* the monitor thread notices within ``poll_interval`` and respawns the
  identical command line;
* the respawned ``repro serve --wal <shard wal>`` recovers that shard's
  engine from its checkpoint + WAL exactly as an unsharded server would
  (the recovery path is shared, not reimplemented);
* every other shard keeps serving throughout — the router keeps
  routing to them and reports the fleet as ``degraded``, not down.

Restart policy
--------------
Respawns are **backed off exponentially** (``backoff_base *
backoff_factor**consecutive``, capped at ``backoff_max``) with a small
deterministic jitter derived from ``crc32(shard_id:restart_no)`` — no
entropy, so two runs of the same crash schedule respawn on the same
timeline.  Restarts draw from a per-shard **budget** of
``max_restarts`` credits that *refills with healthy uptime* (one
credit per ``restart_refill`` seconds alive): a worker that flaps once
an hour lives forever, while a crash-looping worker exhausts the
budget just like the old lifetime cap and degrades into an honest
``down`` shard instead of a fork bomb.  A worker that stays up at
least ``stable_uptime`` seconds also resets the backoff ladder.
"""

from __future__ import annotations

import socket
import subprocess
import threading
import zlib
from dataclasses import dataclass, field
from time import monotonic, sleep
from typing import IO, Any, Optional, Union

from repro.obs.log import get_logger
from repro.service.loadgen import ServiceClient

log = get_logger("service.sharding.supervisor")


def free_ports(count: int) -> list[int]:
    """Reserve ``count`` distinct free TCP ports (best effort).

    The sockets are bound, recorded, then closed — a race with other
    port grabbers is possible but fine for tests and benchmarks; real
    deployments pass explicit ``--port`` ranges.
    """
    sockets = []
    ports = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
            ports.append(sock.getsockname()[1])
    finally:
        for sock in sockets:
            sock.close()
    return ports


@dataclass
class WorkerSpec:
    """Everything needed to (re)spawn one shard worker."""

    shard_id: int
    cmd: list[str]
    url: str
    env: Optional[dict[str, str]] = None


@dataclass
class WorkerState:
    """Mutable supervision record of one shard worker."""

    spec: WorkerSpec
    proc: Optional[subprocess.Popen] = None  # type: ignore[type-arg]
    restarts: int = 0  # lifetime total, monotone
    failed: bool = False
    history: list[int] = field(default_factory=list)  # pids, oldest first
    #: Restart credits spent minus healthy-uptime refills; the worker is
    #: marked ``failed`` when charging one more would exceed the budget.
    budget_used: float = 0.0
    #: Consecutive deaths without a stable run — the backoff exponent.
    consecutive: int = 0
    #: monotonic() of the last spawn / last refill accrual tick.
    spawned_at: float = 0.0
    refilled_at: float = 0.0
    #: When nonzero, a respawn is scheduled for this monotonic time.
    respawn_at: float = 0.0


def _restart_jitter(shard_id: int, restart_no: int, scale: float) -> float:
    """Deterministic jitter in ``[0, scale)`` — crc32, never ``random``."""
    token = f"{shard_id}:{restart_no}".encode("ascii")
    return scale * (zlib.crc32(token) % 1000) / 1000.0


class ShardSupervisor:
    """Spawn, watch, restart, and stop the per-shard worker processes."""

    def __init__(
        self,
        specs: list[WorkerSpec],
        max_restarts: int = 5,
        poll_interval: float = 0.2,
        stdout: Union[int, IO[bytes], None] = None,
        stderr: Union[int, IO[bytes], None] = None,
        backoff_base: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_max: float = 5.0,
        restart_refill: float = 30.0,
        stable_uptime: float = 5.0,
    ) -> None:
        if not specs:
            raise ValueError("need at least one worker spec")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be > 0")
        if backoff_base <= 0 or backoff_factor < 1.0 or backoff_max <= 0:
            raise ValueError("backoff parameters must be positive")
        if restart_refill <= 0 or stable_uptime <= 0:
            raise ValueError("restart_refill and stable_uptime must be > 0")
        self.specs = specs
        self.max_restarts = int(max_restarts)
        self.poll_interval = float(poll_interval)
        self.backoff_base = float(backoff_base)
        self.backoff_factor = float(backoff_factor)
        self.backoff_max = float(backoff_max)
        self.restart_refill = float(restart_refill)
        self.stable_uptime = float(stable_uptime)
        self._stdout = stdout
        self._stderr = stderr
        self.workers = [WorkerState(spec=spec) for spec in specs]
        self._lock = threading.Lock()
        self._stopping = False
        self._monitor: Optional[threading.Thread] = None
        #: Optional router whose ``shard_pids`` mirror is kept current.
        self.router: Optional[Any] = None

    # -- spawning -----------------------------------------------------------
    def _spawn(self, state: WorkerState) -> None:
        proc = subprocess.Popen(
            state.spec.cmd,
            env=state.spec.env,
            stdout=self._stdout,
            stderr=self._stderr,
        )
        state.proc = proc
        state.history.append(proc.pid)
        state.spawned_at = monotonic()
        state.refilled_at = state.spawned_at
        state.respawn_at = 0.0
        if self.router is not None:
            self.router.shard_pids[state.spec.shard_id] = proc.pid
        log.info("shard %d worker pid %d: %s",
                 state.spec.shard_id, proc.pid, " ".join(state.spec.cmd))

    def start(self, wait_healthy: bool = True, timeout: float = 30.0) -> None:
        """Spawn every worker; optionally block until all answer /healthz."""
        with self._lock:
            for state in self.workers:
                self._spawn(state)
        self._monitor = threading.Thread(
            target=self._watch, name="repro-shard-supervisor", daemon=True
        )
        self._monitor.start()
        if wait_healthy:
            self.wait_healthy(timeout=timeout)

    def wait_healthy(self, timeout: float = 30.0) -> None:
        """Block until every live worker answers ``GET /healthz`` with 200."""
        deadline = monotonic() + timeout
        for state in self.workers:
            client = ServiceClient(state.spec.url, timeout=1.0)
            while True:
                if state.failed:
                    raise RuntimeError(
                        f"shard {state.spec.shard_id} worker failed permanently "
                        f"while waiting for health"
                    )
                proc = state.proc
                if proc is not None and proc.poll() is not None and self._stopping:
                    raise RuntimeError("supervisor stopped during wait_healthy")
                if client.healthy():
                    break
                if monotonic() > deadline:
                    raise TimeoutError(
                        f"shard {state.spec.shard_id} worker at "
                        f"{state.spec.url} not healthy after {timeout:g}s"
                    )
                sleep(0.05)

    # -- monitoring ---------------------------------------------------------
    def _watch(self) -> None:
        while not self._stopping:
            now = monotonic()
            with self._lock:
                for state in self.workers:
                    if self._stopping or state.failed:
                        continue
                    self._tick_worker(state, now)
            sleep(self.poll_interval)

    def _tick_worker(self, state: WorkerState, now: float) -> None:
        """One supervision step for one worker (caller holds the lock)."""
        if state.respawn_at:
            if now >= state.respawn_at:
                state.restarts += 1
                log.warning(
                    "shard %d respawn %d (budget %.2f/%d used)",
                    state.spec.shard_id, state.restarts,
                    state.budget_used, self.max_restarts,
                )
                self._spawn(state)
            return
        proc = state.proc
        if proc is None:
            return
        if proc.poll() is None:
            # Alive: healthy uptime refills the restart budget and, once
            # the run counts as stable, resets the backoff ladder.
            if state.budget_used > 0.0:
                state.budget_used = max(
                    0.0,
                    state.budget_used
                    - (now - state.refilled_at) / self.restart_refill,
                )
            state.refilled_at = now
            if state.consecutive and now - state.spawned_at >= self.stable_uptime:
                state.consecutive = 0
            return
        # Dead: charge the budget, then either fail permanently or
        # schedule a backed-off respawn.
        code = proc.returncode
        if state.budget_used + 1.0 > self.max_restarts + 1e-9:
            state.failed = True
            log.error(
                "shard %d worker died (exit %s) with restart budget "
                "exhausted (%d credits); marking it down",
                state.spec.shard_id, code, self.max_restarts,
            )
            return
        state.budget_used += 1.0
        state.consecutive += 1
        delay = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (state.consecutive - 1),
        ) + _restart_jitter(
            state.spec.shard_id, state.restarts + 1, self.backoff_base
        )
        state.respawn_at = now + delay
        log.warning(
            "shard %d worker died (exit %s); respawn in %.3fs "
            "(attempt %d, budget %.2f/%d used)",
            state.spec.shard_id, code, delay,
            state.consecutive, state.budget_used, self.max_restarts,
        )

    # -- introspection ------------------------------------------------------
    def pids(self) -> dict[int, int]:
        """Live pid per shard id (absent while a shard is down)."""
        out: dict[int, int] = {}
        with self._lock:
            for state in self.workers:
                proc = state.proc
                if proc is not None and proc.poll() is None:
                    out[state.spec.shard_id] = proc.pid
        return out

    def restart_counts(self) -> dict[int, int]:
        with self._lock:
            return {s.spec.shard_id: s.restarts for s in self.workers}

    # -- shutdown -----------------------------------------------------------
    def stop(self, timeout: float = 10.0) -> None:
        """Terminate every worker (SIGTERM, then SIGKILL stragglers)."""
        self._stopping = True
        if self._monitor is not None:
            self._monitor.join(timeout=max(1.0, 2 * self.poll_interval))
        with self._lock:
            for state in self.workers:
                proc = state.proc
                if proc is not None and proc.poll() is None:
                    proc.terminate()
            deadline = monotonic() + timeout
            for state in self.workers:
                proc = state.proc
                if proc is None:
                    continue
                try:
                    proc.wait(timeout=max(0.1, deadline - monotonic()))
                except subprocess.TimeoutExpired:
                    log.error(
                        "shard %d worker pid %d ignored SIGTERM; killing",
                        state.spec.shard_id, proc.pid,
                    )
                    proc.kill()
                    proc.wait(timeout=5.0)

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()


__all__ = ["ShardSupervisor", "WorkerSpec", "WorkerState", "free_ports"]
