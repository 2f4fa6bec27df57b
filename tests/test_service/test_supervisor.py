"""Supervisor tests: real worker processes, real SIGKILLs, real recovery.

These spawn ``python -m repro serve`` subprocesses, so they are the
slowest tests in the service suite — one fleet per test, small shard
counts, and every scenario asserts something only a live process tree
can prove (respawn, WAL recovery across an actual process boundary,
port rebinding after an unclean death).
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.service import protocol
from repro.service.engine import EngineConfig
from repro.service.loadgen import ServiceClient
from repro.service.sharding import (
    ShardRouter,
    ShardSupervisor,
    WorkerSpec,
    free_ports,
    shard_for_job,
    shard_path,
)

POLICY = "librarisk"
NODES = 4


def worker_env() -> dict:
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        ))),
        "src",
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def make_specs(num_shards: int, tmp_path, wal: bool = True) -> list:
    ports = free_ports(num_shards)
    specs = []
    for shard in range(num_shards):
        cmd = [
            sys.executable, "-m", "repro", "serve", "--policy", POLICY,
            "--nodes", str(NODES), "--port", str(ports[shard]),
            "--shard-id", str(shard), "--shard-count", str(num_shards),
        ]
        if wal:
            cmd += ["--wal",
                    shard_path(str(tmp_path / "fleet.wal"), shard, num_shards)]
        specs.append(WorkerSpec(
            shard_id=shard, cmd=cmd,
            url=f"http://127.0.0.1:{ports[shard]}", env=worker_env(),
        ))
    return specs


def make_fleet(num_shards: int, tmp_path, **supervisor_kwargs):
    specs = make_specs(num_shards, tmp_path)
    router = ShardRouter(
        EngineConfig(policy=POLICY, num_nodes=NODES),
        [spec.url for spec in specs],
        timeout=5.0,
    )
    supervisor = ShardSupervisor(
        specs, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        **supervisor_kwargs,
    )
    supervisor.router = router
    return supervisor, router


def submit_via(router: ShardRouter, job_id: int, submit_time: float,
               deadline_s: float = 15.0):
    body = json.dumps({
        "v": protocol.PROTOCOL_VERSION, "type": "submit",
        "job": {"id": job_id, "submit_time": submit_time, "runtime": 10.0,
                "estimated_runtime": 10.0, "numproc": 1, "deadline": 1000.0},
    }).encode()
    end = time.monotonic() + deadline_s
    while True:
        status, response = router.handle(body)
        if status == 200:
            return response
        if time.monotonic() > end:
            raise AssertionError(
                f"submit {job_id} failing after {deadline_s}s: "
                f"{status} {response}"
            )
        time.sleep(0.2)


def all_alive(supervisor):
    """Every shard has a live worker process."""
    return len(supervisor.pids()) == len(supervisor.workers)


class TestFreePorts:
    def test_ports_are_distinct_and_bindable(self):
        ports = free_ports(4)
        assert len(set(ports)) == 4
        assert all(p > 0 for p in ports)


class TestSupervisorLifecycle:
    def test_start_health_pids_and_clean_stop(self, tmp_path):
        supervisor, router = make_fleet(2, tmp_path)
        with supervisor:
            supervisor.start(wait_healthy=True, timeout=30.0)
            assert all_alive(supervisor)
            pids = supervisor.pids()
            assert set(pids) == {0, 1}
            # The router's pid mirror is what chaos kills aim at.
            assert router.shard_pids == pids
            for spec in supervisor.specs:
                assert ServiceClient(spec.url, timeout=2.0).healthy()
        assert not all_alive(supervisor)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardSupervisor([])
        spec = WorkerSpec(shard_id=0, cmd=["true"], url="http://x")
        with pytest.raises(ValueError):
            ShardSupervisor([spec], max_restarts=-1)
        with pytest.raises(ValueError):
            ShardSupervisor([spec], poll_interval=0.0)
        with pytest.raises(ValueError):
            ShardSupervisor([spec], backoff_base=0.0)
        with pytest.raises(ValueError):
            ShardSupervisor([spec], restart_refill=0.0)


class TestRestartPolicy:
    def test_jitter_is_deterministic_and_bounded(self):
        from repro.service.sharding.supervisor import _restart_jitter

        values = [_restart_jitter(s, r, 0.05)
                  for s in range(4) for r in range(4)]
        assert values == [_restart_jitter(s, r, 0.05)
                          for s in range(4) for r in range(4)]
        assert all(0.0 <= v < 0.05 for v in values)
        assert len(set(values)) > 1  # actually spreads respawns

    def test_backoff_escalates_across_consecutive_deaths(self, tmp_path):
        specs = make_specs(1, tmp_path)
        specs[0].cmd = [sys.executable, "-c", "import sys; sys.exit(3)"]
        supervisor = ShardSupervisor(
            specs, max_restarts=3, poll_interval=0.02,
            backoff_base=0.05, backoff_factor=2.0,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        with supervisor:
            with pytest.raises(RuntimeError):
                supervisor.start(wait_healthy=True, timeout=10.0)
            end = time.monotonic() + 10.0
            while not supervisor.workers[0].failed:
                assert time.monotonic() < end
                time.sleep(0.02)
        state = supervisor.workers[0]
        assert state.restarts == 3
        assert state.consecutive == 3  # never a stable run to reset it
        assert state.budget_used > 2.9  # no healthy uptime to refill

    def test_healthy_uptime_refills_the_restart_budget(self, tmp_path):
        """A worker flapping slower than the refill rate lives forever —
        this is what replaces the old lifetime max_restarts cap."""
        specs = make_specs(1, tmp_path)
        # A plain sleeper: healthy uptime is wall time alive.
        specs[0].cmd = [sys.executable, "-c", "import time; time.sleep(60)"]
        supervisor = ShardSupervisor(
            specs, max_restarts=2, poll_interval=0.02,
            backoff_base=0.02, restart_refill=0.2, stable_uptime=0.2,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        with supervisor:
            supervisor.start(wait_healthy=False)
            kills = 4  # > max_restarts: would be fatal under a hard cap
            for round_no in range(kills):
                end = time.monotonic() + 10.0
                while not all_alive(supervisor):
                    assert time.monotonic() < end, "respawn never happened"
                    time.sleep(0.02)
                time.sleep(0.5)  # healthy uptime: refills > 1 credit
                pid = supervisor.pids()[0]
                os.kill(pid, signal.SIGKILL)
                end = time.monotonic() + 10.0
                while supervisor.restart_counts()[0] < round_no + 1 or \
                        not all_alive(supervisor):
                    assert time.monotonic() < end, "budget should have refilled"
                    time.sleep(0.02)
            state = supervisor.workers[0]
            assert not state.failed
            assert state.restarts == kills
            assert all_alive(supervisor)
            assert state.budget_used <= supervisor.max_restarts


class TestKillAndRecover:
    def test_sigkilled_worker_is_respawned_and_recovers_its_wal(self, tmp_path):
        supervisor, router = make_fleet(2, tmp_path)
        with supervisor:
            supervisor.start(wait_healthy=True, timeout=30.0)
            # Seed both shards, remembering one decision per shard.
            first = {}
            for job_id in range(1, 7):
                response = submit_via(router, job_id, float(job_id))
                first[job_id] = response["decision"]
            victim = shard_for_job(1, 2)
            os.kill(router.shard_pids[victim], signal.SIGKILL)

            # The monitor respawns the identical command line; the
            # worker recovers from its own shard WAL on the same port.
            end = time.monotonic() + 20.0
            while supervisor.restart_counts()[victim] < 1 or \
                    not all_alive(supervisor):
                assert time.monotonic() < end, "worker was not respawned"
                time.sleep(0.1)

            # A duplicate resubmit of a pre-kill job must be answered
            # from the recovered decision log, byte-identically.
            response = submit_via(router, 1, 1.0)
            assert response["duplicate"] is True
            assert response["decision"] == first[1]
            assert supervisor.restart_counts() == {victim: 1, 1 - victim: 0}

    def test_crash_looping_worker_is_marked_down(self, tmp_path):
        specs = make_specs(1, tmp_path)
        # A worker that dies instantly: invalid flag value.
        specs[0].cmd = [sys.executable, "-c", "import sys; sys.exit(3)"]
        supervisor = ShardSupervisor(
            specs, max_restarts=2, poll_interval=0.05,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        with supervisor:
            with pytest.raises(RuntimeError):
                supervisor.start(wait_healthy=True, timeout=10.0)
            end = time.monotonic() + 10.0
            while not supervisor.workers[0].failed:
                assert time.monotonic() < end
                time.sleep(0.05)
            assert supervisor.restart_counts()[0] == 2
            # Pid history shows the original spawn plus both respawns.
            assert len(supervisor.workers[0].history) == 3


class TestServeShardedCli:
    def test_serve_shards_runs_a_router_and_workers(self, tmp_path):
        port = free_ports(1)[0]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--shards", "2",
             "--nodes", str(NODES), "--policy", POLICY,
             "--port", str(port),
             "--wal", str(tmp_path / "cli.wal")],
            env=worker_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        try:
            url = f"http://127.0.0.1:{port}"
            end = time.monotonic() + 30.0
            while True:
                assert proc.poll() is None, proc.stdout.read()
                try:
                    with urllib.request.urlopen(f"{url}/healthz", timeout=1.0) as r:
                        health = json.loads(r.read())
                    if health.get("shards_down") == 0:
                        break
                except OSError:
                    pass
                assert time.monotonic() < end, "sharded serve never healthy"
                time.sleep(0.2)
            assert health["shard_count"] == 2
            client = ServiceClient(url, timeout=5.0)
            status, response = client.rpc({
                "v": protocol.PROTOCOL_VERSION, "type": "submit",
                "job": {"id": 1, "submit_time": 0.0, "runtime": 5.0,
                        "estimated_runtime": 5.0, "numproc": 1,
                        "deadline": 100.0},
            })
            assert status == 200, response
            assert response["decision"]["outcome"] == "accepted"
            # The merged /v1/stats carries every per-shard job count.
            status, response = client.stats()
            assert status == 200, response
            stats = response["stats"]
            assert stats["policy"] == POLICY
            shards = list(stats["shards"].values())
            assert len(shards) == 2
            for key in ("submitted", "accepted", "rejected", "completed",
                        "failed", "running", "queued"):
                assert stats[key] == sum(s[key] for s in shards), key
            assert stats["running"] == 1
            # Worker WALs are shard-namespaced next to the --wal base.
            assert (tmp_path / "cli.shard0of2.wal").exists()
            assert (tmp_path / "cli.shard1of2.wal").exists()
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        assert proc.returncode == 0
