"""Every musel name the benchmark wraps exists, and every field and call
shape it reads off musel objects still works.

perfbench/probes.py replaces module attributes by name, and a missing one
fails only when a traced benchmark run installs its wrappers; a field or
keyword that perfbench/workloads.py, oracle.py or probes.py reads fails
only when that workload runs.  This test reads perfbench/ and changes
nothing in it.
"""

import dataclasses
import importlib
import inspect
import os
import sys

import numpy as np
import pytest

from musel.estimators import Estimate, SelectorConfig
from musel.lp import LinearProgram, check_solution, solve_lp
from musel.sensitivity import SensitivityResult
from musel.simulate import run_experiment

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
sys.path.insert(0, os.path.abspath(PERFBENCH))
probes = pytest.importorskip("probes")


@pytest.mark.parametrize("mod, attr", [
    entry[:2] for entry in (probes.ESTIMATOR_ENTRIES + probes.MISSING_ENTRIES
                            + probes.OTHER_ENTRIES + probes.LP_SOLVE_NAMES)])
def test_wrapped_name_exists(mod, attr):
    assert hasattr(importlib.import_module(mod), attr), f"{mod}.{attr}"


def test_selector_config_feas_tol():
    # workloads.py bounds estimate residuals by cfg.feas_tol
    assert SelectorConfig(mu=0.0, tau=0.0).feas_tol == 1e-9


@pytest.mark.parametrize("cls, name", [(Estimate, "fp_rounds"),
                                       (SensitivityResult, "lp_count")])
def test_result_field(cls, name):
    assert name in {f.name for f in dataclasses.fields(cls)}


def test_run_experiment_takes_workers():
    assert "workers" in inspect.signature(run_experiment).parameters


def test_lp_fields_and_two_argument_check():
    # oracle.py hands A_eq, b_eq, lower and upper to HiGHS; probes.py checks
    # each OPTIMAL solution with check_solution(lp, sol)
    lp = LinearProgram(c=np.ones(2), A_ub=-np.eye(2), b_ub=-np.ones(2),
                       lower=np.zeros(2))
    assert lp.A_eq.shape == (0, 2) and lp.b_eq.shape == (0,)
    assert np.array_equal(lp.lower, [0.0, 0.0])
    assert np.array_equal(lp.upper, [np.inf, np.inf])
    assert check_solution(lp, solve_lp(lp)) <= 1e-9
