"""Name-based policy construction for the CLI and experiment harness."""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.scheduling.base import SchedulingPolicy
from repro.scheduling.edf import EDFPolicy
from repro.scheduling.fcfs import FCFSPolicy
from repro.scheduling.libra import LibraPolicy
from repro.scheduling.librarisk import LibraRiskPolicy

_REGISTRY: Dict[str, Callable[..., SchedulingPolicy]] = {
    EDFPolicy.name: EDFPolicy,
    FCFSPolicy.name: FCFSPolicy,
    LibraPolicy.name: LibraPolicy,
    LibraRiskPolicy.name: LibraRiskPolicy,
}


def available_policies() -> list[str]:
    """Names of all registered admission-control policies."""
    return sorted(_REGISTRY)


def make_policy(name: str, **kwargs: Any) -> SchedulingPolicy:
    """Instantiate a policy by registry name.

    >>> make_policy("librarisk").name
    'librarisk'
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; available: {', '.join(available_policies())}"
        ) from None
    return factory(**kwargs)


def register_policy(factory: Callable[..., SchedulingPolicy]) -> None:
    """Register a custom policy class (its ``name`` attribute is the key).

    Allows downstream users to plug their own admission control into the
    experiment harness and CLI without modifying this package.
    """
    name = getattr(factory, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError("policy factory must expose a non-empty string 'name' attribute")
    if name in _REGISTRY:
        raise ValueError(f"policy name {name!r} already registered")
    _REGISTRY[name] = factory


def policy_discipline(name: str) -> str:
    """Node discipline ('space_shared'/'time_shared') a policy requires."""
    try:
        return _REGISTRY[name].discipline  # type: ignore[union-attr]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}") from None
