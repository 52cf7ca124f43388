"""Run the doctests embedded in module and function docstrings."""

import doctest

import pytest

import repro.core.units
import repro.sim.engine
import repro.sim.rng

MODULES = [
    repro.core.units,
    repro.sim.rng,
    repro.sim.engine,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, optionflags=doctest.ELLIPSIS)
    assert results.failed == 0
    assert results.attempted > 0, f"{module.__name__} has no doctests"
