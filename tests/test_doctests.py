"""Run the doctests embedded in module docstrings and APIs.

Keeps every ``>>>`` example in the documentation executable and true.
"""

import doctest

import pytest

import repro.scheduling.registry
import repro.sim.kernel
import repro.sim.rng

MODULES = [
    repro.sim.kernel,
    repro.sim.rng,
    repro.scheduling.registry,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {module.__name__}"
    assert results.attempted > 0, f"no doctests found in {module.__name__}"


def test_package_quickstart_doctest():
    """The __init__ quickstart example must stay runnable."""
    import repro

    results = doctest.testmod(repro, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0
