"""Fixtures shared by the scheduling tests."""

from __future__ import annotations

import contextlib

import pytest

from repro.scheduling import registry
from tests.test_scheduling.reference_scans import WITNESSES
from tests.test_scheduling.reference_walk import WITNESSES as WALK_WITNESSES


@pytest.fixture
def reference_scans(monkeypatch):
    """A context manager inside which the registry builds the witnesses.

    ``with reference_scans(): ...`` makes ``make_policy("libra")`` and
    ``make_policy("librarisk")`` return the reference-scan subclasses
    from :mod:`tests.test_scheduling.reference_scans`, so every harness
    that builds a policy by name runs the witness; leaving the block
    restores the production policies.
    """

    @contextlib.contextmanager
    def installed():
        with monkeypatch.context() as patch:
            for name, witness in WITNESSES.items():
                patch.setitem(registry._REGISTRY, name, witness)
            yield

    return installed


@pytest.fixture
def reference_walk(monkeypatch):
    """As ``reference_scans``, for ``make_policy("edf")`` and
    ``make_policy("fcfs")``: inside ``with reference_walk(): ...`` they
    return the per-node-walk witnesses of
    :mod:`tests.test_scheduling.reference_walk`."""

    @contextlib.contextmanager
    def installed():
        with monkeypatch.context() as patch:
            for name, witness in WALK_WITNESSES.items():
                patch.setitem(registry._REGISTRY, name, witness)
            yield

    return installed
