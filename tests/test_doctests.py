"""Run the executable examples embedded in module docstrings."""

import doctest

import pytest

import repro.analysis.erlang
import repro.flows.qos
import repro.sim.engine
import repro.sim.simulation
import repro.sim.stats

MODULES = [
    repro.sim.engine,
    repro.sim.simulation,
    repro.sim.stats,
    repro.analysis.erlang,
    repro.flows.qos,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
