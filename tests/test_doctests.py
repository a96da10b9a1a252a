"""Run the executable examples embedded in module docstrings.

Keeps the documentation honest: every ``>>>`` example in the covered
modules is executed on every test run.
"""

from __future__ import annotations

import doctest

import pytest

import repro.cluster.partition
import repro.core.dp
import repro.experiments.cache
import repro.metrics.stats
import repro.metrics.timeline
import repro.obs.analytics
import repro.obs.inspect
import repro.obs.progress
import repro.obs.telemetry
import repro.obs.trace_io
import repro.sim.engine
import repro.workload.load

MODULES = [
    repro.cluster.partition,
    repro.core.dp,
    repro.experiments.cache,
    repro.metrics.stats,
    repro.metrics.timeline,
    repro.obs.analytics,
    repro.obs.inspect,
    repro.obs.progress,
    repro.obs.telemetry,
    repro.obs.trace_io,
    repro.sim.engine,
    repro.workload.load,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0, f"no doctests found in {module.__name__}"
