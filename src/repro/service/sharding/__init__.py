"""Sharded multi-engine admission service.

One admission engine is bounded by a single interpreter; this package
scales the service sideways without giving up the repo's standard of
proof (byte-identical exports, deterministic traces):

* :mod:`~repro.service.sharding.partition` — deterministic shard plan:
  the cluster's nodes are split into N contiguous slices, each backed
  by its own :class:`~repro.service.engine.AdmissionEngine` with a
  distinct trace-id seed, and jobs are pinned to shards by a stable
  job-id/user hash (``zlib.crc32``, never ``hash()``);
* :mod:`~repro.service.sharding.paths` — shard-namespaced WAL and
  checkpoint filenames, so N workers can share one state directory
  without clobbering each other;
* :mod:`~repro.service.sharding.router` — the stateless front-end:
  same HTTP surface as a single server, raw-body pass-through for
  single-shard requests (a 1-shard router is byte-identical on the
  wire to an unsharded server), per-shard splitting for batch frames,
  exact metric merging for ``drain``/``stats``/``/metrics``;
* :mod:`~repro.service.sharding.breaker` — per-shard circuit breakers
  (closed/open/half-open) so a dead shard fails fast instead of
  costing a connect timeout per request;
* :mod:`~repro.service.sharding.parking` — deterministic failover
  parking: submits owned by a down shard queue in arrival order and
  flush in order on recovery, so a shard kill leaves no client-visible
  submit loss and byte-identical end state;
* :mod:`~repro.service.sharding.supervisor` — one worker process per
  shard, watched and respawned with exponential backoff and an
  uptime-refilled restart budget: ``kill -9`` one worker and it
  recovers from its own WAL while every other shard keeps serving.

``repro serve --shards N`` wires all of it together; see
``docs/SERVICE.md``.
"""

from repro.service.sharding.breaker import ShardBreaker
from repro.service.sharding.parking import ParkingLot
from repro.service.sharding.partition import (
    plan_shards,
    shard_for_job,
    shard_for_submit,
    shard_for_user,
    shard_node_counts,
)
from repro.service.sharding.paths import shard_path, shard_port
from repro.service.sharding.router import (
    RouterServer,
    ShardRouter,
    merge_scenario_metrics,
)
from repro.service.sharding.supervisor import (
    ShardSupervisor,
    WorkerSpec,
    WorkerState,
    free_ports,
)

__all__ = [
    "ParkingLot",
    "RouterServer",
    "ShardBreaker",
    "ShardRouter",
    "ShardSupervisor",
    "WorkerSpec",
    "WorkerState",
    "free_ports",
    "merge_scenario_metrics",
    "plan_shards",
    "shard_for_job",
    "shard_for_submit",
    "shard_for_user",
    "shard_node_counts",
    "shard_path",
    "shard_port",
]
