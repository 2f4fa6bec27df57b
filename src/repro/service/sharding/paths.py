"""Shard-safe filesystem naming for WALs, checkpoints, and ports.

Multiple shard workers may share one ``--wal`` / ``--checkpoint``
directory, so every on-disk artifact is namespaced by shard identity:
``svc.wal`` becomes ``svc.shard0of4.wal`` for shard 0 of 4.  The suffix
is inserted *before* the file extension so tooling keyed on extensions
(log rotation, `repro recover --wal`) keeps working.  Namespacing the
basename is also what keeps the checkpoint writer's atomic-rename
temp files (``mkstemp(prefix=basename + ".")``) from colliding between
shards in a shared directory.
"""

from __future__ import annotations

import os

__all__ = ["shard_path", "shard_port"]


def shard_path(base: str, shard_id: int, shard_count: int) -> str:
    """Namespace ``base`` by shard identity, preserving the extension."""
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    if not 0 <= shard_id < shard_count:
        raise ValueError("shard_id must be in [0, shard_count)")
    root, ext = os.path.splitext(base)
    return f"{root}.shard{shard_id}of{shard_count}{ext}"


def shard_port(base_port: int, shard_id: int) -> int:
    """Deterministic worker port: ``base_port + 1 + shard_id``.

    The router owns ``base_port``; workers line up after it so one
    ``--port`` flag names the whole port range.  ``base_port == 0``
    (ephemeral) stays 0 — every worker then binds its own free port.
    """
    if base_port == 0:
        return 0
    return base_port + 1 + shard_id
