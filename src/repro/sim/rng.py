"""Named, deterministic random-number streams.

Every stochastic component in the library (inter-arrival jitter,
deadline factors, estimate models, synthetic trace generation, ...)
draws from its own named stream derived from a single root seed.  Two
properties follow:

* A whole experiment is a pure function of ``(config, seed)``.
* Adding a new consumer of randomness does **not** perturb existing
  streams, because streams are keyed by *name*, not by draw order.

Streams are ``numpy.random.Generator`` instances seeded from
``SeedSequence(root_seed, <stable hash of name>)``.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np


def _name_key(name: str) -> int:
    """Stable 64-bit integer derived from a stream name.

    ``hash()`` is salted per-process in Python, so we use BLAKE2 to keep
    streams identical across runs and machines.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class RngStreams:
    """A family of independent named random streams under one root seed.

    Examples
    --------
    >>> streams = RngStreams(seed=42)
    >>> a = streams.get("arrivals").random()
    >>> b = RngStreams(seed=42).get("arrivals").random()
    >>> a == b
    True
    >>> streams.get("arrivals") is streams.get("arrivals")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream called ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            seq = np.random.SeedSequence([self.seed & 0xFFFFFFFFFFFFFFFF, _name_key(name)])
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RngStreams":
        """Derive a child family whose streams are independent of this one.

        Used when one experiment drives several repetitions: each
        repetition gets ``streams.spawn(f"rep{i}")``.
        """
        return RngStreams(seed=(self.seed * 1_000_003 + _name_key(name)) & 0x7FFFFFFFFFFFFFFF)

    def stream_names(self) -> list[str]:
        """Names of the streams created so far (sorted)."""
        return sorted(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngStreams seed={self.seed} streams={len(self._streams)}>"
