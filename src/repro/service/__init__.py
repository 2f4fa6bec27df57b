"""Online admission-control service.

The batch pipeline (``repro.experiments``) answers "what would policy X
have done over this whole trace"; this package answers the production
question — "this job is arriving *now*: admit it?" — with the same
kernel, cluster and policies behind an incremental API:

* :mod:`~repro.service.engine` — the :class:`AdmissionEngine`:
  ``submit`` one job at a time, ``advance``/``drain`` the clock;
* :mod:`~repro.service.clock` — virtual (workload-driven) and
  wall-clock (live, sped-up) time sources;
* :mod:`~repro.service.protocol` — the versioned JSON request/response
  schema with strict validation and typed error codes;
* :mod:`~repro.service.server` — stdlib HTTP front-end with
  request-size/queue-depth backpressure (``repro serve``);
* :mod:`~repro.service.checkpoint` — deterministic snapshot/restore of
  live engine state (atomic, checksummed writes);
* :mod:`~repro.service.wal` — write-ahead log + crash recovery: every
  mutating request is durably logged before it is applied, and
  ``repro recover`` / ``repro serve --wal`` replay the log on top of
  the latest checkpoint (``kill -9``-safe);
* :mod:`~repro.service.faults` — deterministic, seeded fault injection
  (drops, 5xx, delays, crash points, torn WAL tails) for chaos tests;
* :mod:`~repro.service.client` — retrying client with exponential
  backoff + jitter, Retry-After awareness and idempotent submits;
* :mod:`~repro.service.replay` / :mod:`~repro.service.loadgen` —
  deterministic in-process trace replay and an open-loop HTTP load
  generator (``repro replay``);
* :mod:`~repro.service.sharding` — the sharded multi-engine service:
  deterministic node partitioning, a stateless routing front-end with
  batch-frame splitting and exact metric merging, and a per-shard
  worker supervisor with independent crash recovery
  (``repro serve --shards N``).

See ``docs/SERVICE.md``.
"""
