"""Every musel name the benchmark wraps exists.

perfbench/probes.py replaces module attributes by name, and a missing one
fails only when a traced benchmark run installs its wrappers.  This test
reads perfbench/ and changes nothing in it.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
sys.path.insert(0, os.path.abspath(PERFBENCH))
probes = pytest.importorskip("probes")


@pytest.mark.parametrize("mod, attr", [
    entry[:2] for entry in (probes.ESTIMATOR_ENTRIES + probes.MISSING_ENTRIES
                            + probes.OTHER_ENTRIES + probes.LP_SOLVE_NAMES)])
def test_wrapped_name_exists(mod, attr):
    assert hasattr(importlib.import_module(mod), attr), f"{mod}.{attr}"
