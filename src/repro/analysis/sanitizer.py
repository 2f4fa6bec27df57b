"""Runtime determinism sanitizer (``REPRO_SANITIZE=1``).

The whole-program rule FLOW001 of ``repro lint`` proves that no
*resolvable* call chain leads from a decision-path root to a
nondeterminism source; this module enforces the same ban dynamically,
catching what static resolution cannot see (callbacks, monkeypatched
hooks, ``getattr`` dispatch).  When installed it monkeypatches the
banned sources — ``time`` wall clocks, the module-level ``random``
functions, ``os.urandom`` — to raise :class:`SanitizerViolation` with
a captured stack *if* touched inside an active decision-path span;
outside spans they pass straight through to the real functions, so
serving loops, profilers and load generators keep working.

Spans wrap the engine's ``sim.run`` calls (submit/advance/drain): all
admission decisions fire inside the kernel loop, so anything the
policies, nodes or observers read while deciding is covered.  Code
with a sanctioned reason to read a wall clock inside a span (the
profiler's admission timer, whose output is explicitly outside the
byte-identical guarantee) wraps the read in :func:`exempt`.

Seeded generators (``random.Random(seed)`` instances,
``numpy`` ``Generator`` streams from :mod:`repro.sim.rng`) are
untouched — determinism comes from the seed, not from avoiding the
module.  ``datetime.datetime.now`` cannot be patched (immutable C
type); FLOW001 covers it statically instead.

Enable with ``REPRO_SANITIZE=1`` (the test suite's ``conftest``
installs it session-wide; CI runs one tier-1 shard that way).
"""

from __future__ import annotations

import os
import random
import threading
import time
import traceback
from types import TracebackType
from typing import Any, Callable, Optional

ENV_FLAG = "REPRO_SANITIZE"

_TIME_ATTRS = (
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "sleep",
)
_RANDOM_ATTRS = (
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "expovariate", "getrandbits",
    "normalvariate",
)


class SanitizerViolation(RuntimeError):
    """A banned nondeterminism source was read inside a decision span.

    The message carries the offending call and the full stack that
    reached it, so the finding is actionable without a debugger.
    """

    def __init__(self, source: str, stack: str) -> None:
        super().__init__(
            f"determinism sanitizer: {source} called inside an active "
            f"decision-path span; decision bytes must not depend on it "
            f"(wrap a sanctioned read in repro.analysis.sanitizer.exempt()).\n"
            f"Captured stack:\n{stack}"
        )
        self.source = source
        self.stack = stack


class _State(threading.local):
    """Per-thread span/exemption depths."""

    def __init__(self) -> None:
        self.span_depth = 0
        self.exempt_depth = 0


_state = _State()

#: name -> original callable, non-empty only while installed.
_originals: dict[str, Callable[..., Any]] = {}


class _Span:
    """Decision-path span: banned sources raise while one is active.

    A plain class, not ``@contextmanager`` — this sits on the serving
    hot path and must cost two integer bumps, nothing more.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        _state.span_depth += 1

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        _state.span_depth -= 1


class _Exempt:
    """Scoped exemption for sanctioned reads inside a span."""

    __slots__ = ()

    def __enter__(self) -> None:
        _state.exempt_depth += 1

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        _state.exempt_depth -= 1


_SPAN = _Span()
_EXEMPT = _Exempt()


def decision_span() -> _Span:
    """The span the engine holds around each ``sim.run``."""
    return _SPAN


def exempt() -> _Exempt:
    """Allow a sanctioned nondeterministic read inside a span."""
    return _EXEMPT


def in_span() -> bool:
    return _state.span_depth > 0 and _state.exempt_depth == 0


def _guard(
    name: str, original: Callable[..., Any]
) -> Callable[..., Any]:
    def guarded(*args: Any, **kwargs: Any) -> Any:
        if _state.span_depth > 0 and _state.exempt_depth == 0:
            stack = "".join(traceback.format_stack())
            raise SanitizerViolation(name, stack)
        return original(*args, **kwargs)

    # Impersonate the original so introspection-based consumers (e.g.
    # pytest-benchmark resolving its timer via __module__/__qualname__)
    # keep working while the guard is installed.
    guarded.__name__ = getattr(original, "__name__", name.rpartition(".")[2])
    guarded.__qualname__ = getattr(original, "__qualname__", guarded.__name__)
    guarded.__module__ = getattr(original, "__module__", name.rpartition(".")[0])
    return guarded


def installed() -> bool:
    return bool(_originals)


def install() -> None:
    """Patch the banned sources (idempotent)."""
    if _originals:
        return
    for attr in _TIME_ATTRS:
        original = getattr(time, attr, None)
        if original is None:  # pragma: no cover - platform-dependent
            continue
        _originals[f"time.{attr}"] = original
        setattr(time, attr, _guard(f"time.{attr}", original))
    for attr in _RANDOM_ATTRS:
        original = getattr(random, attr, None)
        if original is None:  # pragma: no cover - version-dependent
            continue
        _originals[f"random.{attr}"] = original
        setattr(random, attr, _guard(f"random.{attr}", original))
    _originals["os.urandom"] = os.urandom
    os.urandom = _guard("os.urandom", os.urandom)  # type: ignore[assignment]


def uninstall() -> None:
    """Restore every patched source (idempotent)."""
    for name, original in list(_originals.items()):
        module_name, _, attr = name.partition(".")
        module = {"time": time, "random": random, "os": os}[module_name]
        setattr(module, attr, original)
    _originals.clear()


def enabled_by_env() -> bool:
    return os.environ.get(ENV_FLAG, "").strip().lower() in (
        "1", "true", "yes", "on"
    )


def install_from_env() -> bool:
    """Install when ``REPRO_SANITIZE`` asks for it; returns whether on."""
    if enabled_by_env():
        install()
        return True
    return False


__all__ = [
    "ENV_FLAG",
    "SanitizerViolation",
    "decision_span",
    "enabled_by_env",
    "exempt",
    "in_span",
    "install",
    "install_from_env",
    "installed",
    "uninstall",
]
