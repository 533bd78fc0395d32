"""Differential tests of the LP engine against HiGHS.

scipy's ``linprog(method="highs-ds")`` is a test-only oracle: musel never
imports scipy.  Every LP a solver path builds is recorded by wrapping the
``solve_lp`` name the path calls, then solved again by HiGHS.  Statuses must
agree, objectives must match within 1e-9 relative, and an optimal ``x``
must satisfy its program within feas_tol * (1 + max|b|).  Generic LPs with
one-sided and free variables are solved in the form ``conftest.in_contract``
gives them and compared with HiGHS in the form they were drawn in.
"""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("scipy")
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from musel import estimators, lp as lp_module, sensitivity
from musel.estimators import SelectorConfig, solve_missing_data_cmu
from musel.lp import (DEFAULT_FEAS_TOL, LinearProgram, LpStatus,
                      check_solution, solve_lp)

from conftest import (bounded_costs, in_contract, normalized_gram,
                      selector_instance)
from test_estimators import paired_free_instance
from test_lp import assert_farkas

HIGHS_STATUS = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE}


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
    assert len(pairs) == 2
    for lp, sol in pairs:
        assert_agrees(lp, sol)


def test_free_domain_branch_lps(recorded):
    """The split LP of a paired instance and its two sign branches."""
    pairs = recorded(estimators)
    Z, y, cfg = paired_free_instance()
    estimators.solve_compensated_mu(Z, y, cfg)
    assert len(pairs) == 3
    for lp, sol in pairs:
        assert_agrees(lp, sol)


# relaxations: how many of the LPs are anchor relaxations, those whose first
# row is the l1 row 1'(a + b) <= 2s; the three Grams have p = 5
@pytest.mark.parametrize("kappa, relaxations", [
    (lambda psi: sensitivity.kappa_inf_exact(psi, 2), 15),
    (lambda psi: sensitivity.kappa_one(psi, 2), 0),
    (lambda psi: sensitivity.kappa_lower_bound(psi, 2), 15),
    (lambda psi: sensitivity.kappa_star(psi, 2, 1), 0),
], ids=["kappa_inf_exact", "kappa_one", "kappa_lower_bound", "kappa_star"])
def test_cone_lps(recorded, kappa, relaxations):
    pairs = recorded(sensitivity)
    kappa(normalized_gram(5, 30, 7))
    kappa(normalized_gram(5, 4, 8))          # rank-deficient Gram
    kappa(normalized_gram(5, 30, 0))         # kappa_one branches
    assert pairs
    assert sum(np.all(lp.A_ub[0, :-1] == 1.0) for lp, _ in pairs) == relaxations
    for lp, sol in pairs:
        assert_agrees(lp, sol)


def solve_in_contract(lp):
    """(solution of lp's in_contract form, that solution in lp's terms)."""
    lp2, offset, back = in_contract(lp)
    sol = solve_lp(lp2)
    return sol, replace(sol, x=back(sol.x),
                        objective_value=sol.objective_value + offset)


def generic_lp(seed):
    """Feasible by construction, with boxed, one-sided and free variables and
    costs of either sign where the box bounds them."""
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
    return LinearProgram(c=bounded_costs(rng.standard_normal(n).round(3),
                                         lower, upper),
                         A_ub=A_ub, b_ub=A_ub @ x0 + rng.random(m_ub),
                         A_eq=A_eq if m_eq else None,
                         b_eq=A_eq @ x0 if m_eq else None,
                         lower=lower, upper=upper)


@pytest.mark.parametrize("seed", range(40))
def test_generic_lps_with_free_and_one_sided_bounds(seed):
    lp = generic_lp(seed)
    assert_agrees(lp, solve_in_contract(lp)[1])


@pytest.mark.parametrize("seed", range(40))
def test_bland_on_every_pivot_agrees(seed, monkeypatch):
    """Bland's fallback, forced on every pivot, against HiGHS."""
    monkeypatch.setattr(lp_module, "_BLAND_AFTER", -np.inf)
    lp = generic_lp(seed)
    sol2, sol = solve_in_contract(lp)
    assert sol2.diagnostics["bland"] == sol2.iterations
    assert_agrees(lp, sol)


@st.composite
def small_lps(draw):
    """Dense LPs with m, n <= 8: small integer data, boxed, one-sided and
    free variables, equality rows, and a repeated row for degeneracy; the
    costs are those of bounded_costs."""
    n = draw(st.integers(1, 8))
    m_eq = draw(st.integers(0, 2))
    m_ub = draw(st.integers(0, 8 - m_eq))
    ints = st.integers(-3, 3).map(float)
    A = np.array(draw(st.lists(ints, min_size=(m_ub + m_eq) * n,
                               max_size=(m_ub + m_eq) * n))).reshape(-1, n)
    b = np.array(draw(st.lists(ints, min_size=m_ub + m_eq, max_size=m_ub + m_eq)))
    if m_ub >= 2 and draw(st.booleans()):
        A[1], b[1] = A[0], b[0]
    kind = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    lower = np.where(kind <= 1, -1.0, -np.inf)   # boxed, lower only,
    upper = np.where(kind % 3 == 0, 2.0, np.inf)  # upper only, free
    c = bounded_costs(np.array(draw(st.lists(ints, min_size=n, max_size=n))),
                      lower, upper)
    return LinearProgram(c=c, A_ub=A[:m_ub] if m_ub else None,
                         b_ub=b[:m_ub] if m_ub else None,
                         A_eq=A[m_ub:] if m_eq else None,
                         b_eq=b[m_ub:] if m_eq else None,
                         lower=lower, upper=upper)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(small_lps())
def test_fuzz_against_highs(lp):
    sol2, sol = solve_in_contract(lp)
    res = highs(lp)
    assert sol.status is HIGHS_STATUS[res.status], res.message
    if sol.status is LpStatus.OPTIMAL:
        assert abs(sol.objective_value - res.fun) <= 1e-7 * max(1.0, abs(res.fun))
    else:
        assert_farkas(in_contract(lp)[0], sol2.farkas_y)
