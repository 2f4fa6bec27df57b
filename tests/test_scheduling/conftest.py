"""Fixtures shared by the scheduling tests."""

from __future__ import annotations

import contextlib

import pytest

from repro.scheduling import registry
from tests.test_scheduling.reference_scans import WITNESSES


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
