"""A retrying admission-service client: exponential backoff with jitter.

:class:`RetryingClient` wraps the plain
:class:`~repro.service.loadgen.ServiceClient` with production client
behaviour:

* **Retries with exponential backoff + jitter** on transport failures
  (connection refused/reset/timeout → status ``0``) and retryable 5xx
  codes (``overloaded``, ``shutting_down``, ``internal``, ``injected``).
  Deliberate 4xx refusals are never retried — resending an invalid or
  conflicting request verbatim cannot succeed.
* **Retry-After awareness** — a server backoff hint (JSON
  ``error.retry_after``, mirrored in the HTTP header) overrides the
  computed delay, so shedding servers control their own recovery.
* **Idempotent submits** — the server answers a retried submit of a
  known job id with the *originally recorded* decision
  (``duplicate: true``), so resending after an ambiguous failure can
  never double-admit.  Submits are therefore only retried when the job
  payload carries an explicit ``id``; without one each send would be a
  new job.

The fleet's one circuit breaker is the router's per-shard
:class:`~repro.service.sharding.breaker.ShardBreaker`; this client only
retries.

Everything time- and randomness-dependent is injectable (``sleep``,
``seed``), so retry schedules are deterministic under test.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.obs.log import get_logger
from repro.service import protocol
from repro.service.loadgen import ServiceClient

log = get_logger("service.client")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule with multiplicative jitter.

    Attempt ``k`` (0-based) sleeps ``base_delay * multiplier**k``
    capped at ``max_delay``, scaled by a uniform factor in
    ``[1 - jitter, 1]`` so synchronized clients fan out instead of
    retrying in lockstep.
    """

    max_attempts: int = 5
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retrying after failed attempt ``attempt``."""
        raw = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        return raw * (1.0 - self.jitter * rng.random())


class RetryingClient(ServiceClient):
    """Drop-in :class:`ServiceClient` with retries.

    Parameters
    ----------
    url, timeout:
        As for :class:`ServiceClient`.
    policy:
        The backoff schedule.
    seed:
        Seeds the jitter RNG (deterministic retry schedules in tests).
    sleep:
        Injection point for the backoff sleep (tests pass a recorder).
    """

    def __init__(
        self,
        url: str,
        timeout: float = 10.0,
        policy: Optional[RetryPolicy] = None,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__(url, timeout=timeout)
        self.policy = policy if policy is not None else RetryPolicy()
        self._rng = random.Random(seed)
        self._sleep = sleep
        self.attempts = 0
        self.retries = 0

    # -- retry core ----------------------------------------------------------
    def rpc(
        self, request: dict[str, Any], retryable: Optional[bool] = None
    ) -> tuple[int, dict[str, Any]]:
        """Send with retries; returns the final ``(status, response)``.

        ``retryable=None`` infers safety from the request: everything
        is retryable except a ``submit`` without an explicit job id
        (the server's idempotent dedupe needs the id as its handle).
        """
        if retryable is None:
            retryable = self._is_retryable(request)
        attempts = self.policy.max_attempts if retryable else 1
        for attempt in range(attempts):
            self.attempts += 1
            status, response = super().rpc(request)
            if attempt + 1 == attempts or not self._failed(status, response):
                break
            self.retries += 1
            self._sleep(self._retry_delay(attempt, response))
        return status, response

    @staticmethod
    def _is_retryable(request: dict[str, Any]) -> bool:
        if request.get("type") == "submit":
            job = request.get("job")
            return isinstance(job, dict) and job.get("id") is not None
        if request.get("type") == "batch":
            # A replayed frame is only safe when *every* item can be
            # deduped by id — one id-less job would be re-admitted as a
            # fresh job on each retry.
            jobs = request.get("jobs")
            return isinstance(jobs, list) and all(
                isinstance(job, dict) and job.get("id") is not None for job in jobs
            )
        return True

    @staticmethod
    def _failed(status: int, response: dict[str, Any]) -> bool:
        """Transport failures and retryable server codes count as failed."""
        if status == 0:
            return True
        code = response.get("error", {}).get("code")
        return code in protocol.RETRYABLE_CODES

    def _retry_delay(self, attempt: int, response: dict[str, Any]) -> float:
        hinted = response.get("error", {}).get("retry_after")
        if isinstance(hinted, (int, float)) and hinted > 0:
            return float(hinted)
        return self.policy.delay(attempt, self._rng)

    @property
    def client_stats(self) -> dict[str, Any]:
        """Deterministic counters for tests and reports."""
        return {"attempts": self.attempts, "retries": self.retries}


__all__ = ["RetryPolicy", "RetryingClient"]
