"""Differential tests of the LP engine against HiGHS.

scipy's ``linprog(method="highs-ds")`` is a test-only oracle: musel never
imports scipy.  Every LP a solver path builds is recorded by wrapping the
``solve_lp`` name the path calls, then solved again by HiGHS.  Statuses must
agree, objectives must match within 1e-9 relative, and an optimal ``x``
must satisfy its program within feas_tol * (1 + max|b|).
"""

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.optimize import linprog

from musel import estimators, sensitivity
from musel.estimators import SelectorConfig, solve_missing_data_cmu
from musel.lp import (DEFAULT_FEAS_TOL, LinearProgram, LpStatus,
                      check_solution, solve_lp)

from conftest import normalized_gram, selector_instance
from test_lp import assert_ray

HIGHS_STATUS = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE,
                3: LpStatus.UNBOUNDED}


def highs(lp):
    eq = lp.A_eq.shape[0] > 0
    ub = lp.A_ub.shape[0] > 0
    return linprog(lp.c, A_ub=lp.A_ub if ub else None,
                   b_ub=lp.b_ub if ub else None,
                   A_eq=lp.A_eq if eq else None, b_eq=lp.b_eq if eq else None,
                   bounds=np.column_stack([lp.lower, lp.upper]),
                   method="highs-ds",
                   options={"primal_feasibility_tolerance": 1e-10,
                            "dual_feasibility_tolerance": 1e-10})


def assert_agrees(lp, sol):
    res = highs(lp)
    assert sol.status is HIGHS_STATUS[res.status], res.message
    if sol.status is LpStatus.OPTIMAL:
        assert abs(sol.objective_value - res.fun) <= 1e-9 * max(1.0, abs(res.fun))
        b_max = max(np.max(np.abs(lp.b_ub), initial=0.0),
                    np.max(np.abs(lp.b_eq), initial=0.0))
        assert check_solution(lp, sol) <= DEFAULT_FEAS_TOL * (1.0 + b_max)


@pytest.fixture
def recorded(monkeypatch):
    """recorded(module) -> list that fills with the (lp, solution) pairs of
    every ``module.solve_lp`` call."""
    def install(module):
        pairs = []

        def wrapped(lp, *args, **kwargs):
            sol = solve_lp(lp, *args, **kwargs)
            pairs.append((lp, sol))
            return sol

        monkeypatch.setattr(module, "solve_lp", wrapped)
        return pairs
    return install


@pytest.mark.parametrize("p,n,seeds", [(40, 40, range(4)), (120, 40, range(3)),
                                       (500, 100, range(1))])
@pytest.mark.parametrize("mu", [0.0, 0.11])
def test_selector_lps(recorded, p, n, seeds, mu):
    pairs = recorded(estimators)
    for seed in seeds:
        _, _, y, Z_tilde = selector_instance(seed, n, p, s=2)
        solve_missing_data_cmu(Z_tilde, y, pi=0.1,
                               config=SelectorConfig(mu=mu, tau=0.02))
    assert len(pairs) == len(seeds)
    for lp, sol in pairs:
        assert_agrees(lp, sol)


def test_free_domain_split_lps(recorded):
    pairs = recorded(estimators)
    for seed in range(2):
        _, _, y, Z_tilde = selector_instance(100 + seed, 40, 60, s=2)
        solve_missing_data_cmu(Z_tilde, y, pi=0.1, config=SelectorConfig(
            mu=0.11, tau=0.02, domain="free"))
    assert len(pairs) > 2
    for lp, sol in pairs:
        assert_agrees(lp, sol)


@pytest.mark.parametrize("kappa", [
    lambda psi: sensitivity.kappa_inf_exact(psi, 2),
    lambda psi: sensitivity.kappa_one(psi, 2),
    lambda psi: sensitivity.kappa_lower_bound(psi, 2),
], ids=["kappa_inf_exact", "kappa_one", "kappa_lower_bound"])
def test_cone_lps(recorded, kappa):
    pairs = recorded(sensitivity)
    kappa(normalized_gram(5, 30, 7))
    kappa(normalized_gram(5, 4, 8))          # rank-deficient Gram
    assert pairs
    for lp, sol in pairs:
        assert_agrees(lp, sol)


@pytest.mark.parametrize("seed", range(40))
def test_generic_lps_with_free_and_one_sided_bounds(seed):
    """Feasible by construction, with negative costs, one-sided and free
    variables: the LPs that need the dual phase 1."""
    rng = np.random.default_rng(7000 + seed)
    n = int(rng.integers(2, 6))
    m_ub = int(rng.integers(1, 6))
    m_eq = int(rng.integers(0, 2))
    kind = rng.integers(0, 4, n)     # boxed, lower only, upper only, free
    lower = np.where((kind == 0) | (kind == 1), -1.0, -np.inf)
    upper = np.where((kind == 0) | (kind == 2), 2.0, np.inf)
    x0 = rng.uniform(-1.0, 2.0, n)
    A_ub = rng.standard_normal((m_ub, n)).round(3)
    A_eq = rng.standard_normal((m_eq, n)).round(3)
    lp = LinearProgram(c=rng.standard_normal(n).round(3), A_ub=A_ub,
                       b_ub=A_ub @ x0 + rng.random(m_ub),
                       A_eq=A_eq if m_eq else None,
                       b_eq=A_eq @ x0 if m_eq else None,
                       lower=lower, upper=upper)
    sol = solve_lp(lp)
    assert_agrees(lp, sol)
    if sol.status is LpStatus.UNBOUNDED:
        assert_ray(lp, sol.ray)
        assert check_solution(lp, sol) <= 1e-9     # x is a feasible point
