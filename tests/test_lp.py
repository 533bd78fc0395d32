"""LP engine tests: hand cases, a vertex-enumeration oracle, determinism."""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from musel import estimators, lp as lp_module, sensitivity
from musel.estimators import SelectorConfig
from musel.lp import (LinearProgram, LpStatus, _DualSimplex, check_solution,
                      solve_lp)

from conftest import (bounded_costs, in_contract, normalized_gram,
                      selector_instance)
from pair_lp import build_cmu_lp_direct


def vertex_enum_oracle(lp, tol=1e-9):
    """Independent brute force for small bounded LPs.

    Enumerates every choice of n active constraints among {inequality rows
    as equalities, equality rows, finite variable bounds}, solves the square
    system, keeps feasible points, and returns (status, best objective).
    Only valid when the feasible set is bounded (finite boxes in tests).
    """
    n = lp.n_vars
    rows = []
    rhs = []
    for A, b in ((lp.A_ub, lp.b_ub), (lp.A_eq, lp.b_eq)):
        for r, v in zip(A, b):
            rows.append(r)
            rhs.append(v)
    for j in range(n):
        if np.isfinite(lp.lower[j]):
            e = np.zeros(n)
            e[j] = 1.0
            rows.append(e)
            rhs.append(lp.lower[j])
        if np.isfinite(lp.upper[j]):
            e = np.zeros(n)
            e[j] = 1.0
            rows.append(e)
            rhs.append(lp.upper[j])
    rows = np.array(rows)
    rhs = np.array(rhs)

    best = np.inf
    feasible = False
    for idx in combinations(range(len(rows)), n):
        A = rows[list(idx)]
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        x = np.linalg.solve(A, rhs[list(idx)])
        if np.any(x < lp.lower - tol) or np.any(x > lp.upper + tol):
            continue
        if lp.A_ub.shape[0] and np.max(lp.A_ub @ x - lp.b_ub) > tol:
            continue
        if lp.A_eq.shape[0] and np.max(np.abs(lp.A_eq @ x - lp.b_eq)) > tol:
            continue
        feasible = True
        best = min(best, float(lp.c @ x))
    if not feasible:
        return "infeasible", None
    return "optimal", best


def assert_farkas(lp, y, tol=1e-9):
    """y proves the program empty: y >= 0 on the <= rows, and y'b lies
    below the minimum of y'A x over the variable box."""
    m1 = lp.A_ub.shape[0]
    assert np.all(y[:m1] >= -tol)
    g = y @ np.vstack([lp.A_ub, lp.A_eq])
    pos, neg = g > tol, g < -tol
    box_min = g[pos] @ lp.lower[pos] + g[neg] @ lp.upper[neg]
    assert y @ np.concatenate([lp.b_ub, lp.b_eq]) < box_min - tol


def test_single_variable_lower_bound():
    lp = LinearProgram(c=[1.0], A_ub=[[-1.0]], b_ub=[-1.0], lower=[0.0])
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


def test_infeasible_with_certificate():
    lp = LinearProgram(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[-1.0],
                       lower=[0.0, 0.0])
    sol = solve_lp(lp)
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.farkas_y is not None
    assert np.any(sol.farkas_y != 0.0)
    assert sol.diagnostics["infeasibility"] > 0
    assert_farkas(lp, sol.farkas_y)


def test_two_variable_polygon_matches_vertex_oracle():
    # stated expectation derived from the vertex oracle over the polygon:
    # vertices (0,0), (2,0), (2,2), (0,4); min of -x1-2x2 is -8 at (0,4)
    lp = LinearProgram(c=[-1.0, -2.0], A_ub=[[1.0, 1.0], [1.0, 0.0]],
                       b_ub=[4.0, 2.0], lower=[0.0, 0.0], upper=[10.0, 10.0])
    status, best = vertex_enum_oracle(lp)
    assert status == "optimal" and best == pytest.approx(-8.0, abs=1e-9)
    lp2, offset, back = in_contract(lp)
    sol = solve_lp(lp2)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value + offset == pytest.approx(best, abs=1e-9)
    assert np.allclose(back(sol.x), [0.0, 4.0], atol=1e-9)


def test_equality_with_free_variable_split():
    lp = LinearProgram(c=[1.0, 1.0], A_eq=[[1.0, -1.0]], b_eq=[-3.0],
                       lower=[0.0, 0.0])
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(3.0, abs=1e-9)
    assert np.allclose(sol.x, [0.0, 3.0], atol=1e-9)


def test_upper_bound_flip():
    lp2, _, back = in_contract(LinearProgram(c=[-1.0], A_ub=[[1.0]],
                                             b_ub=[10.0], lower=[0.0],
                                             upper=[3.0]))
    sol = solve_lp(lp2)
    assert sol.status is LpStatus.OPTIMAL
    assert back(sol.x)[0] == pytest.approx(3.0, abs=1e-12)


def test_nan_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        LinearProgram(c=[np.nan], A_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(ValueError, match="non-finite"):
        LinearProgram(c=[1.0], A_ub=[[np.nan]], b_ub=[1.0])
    with pytest.raises(ValueError, match="NaN"):
        LinearProgram(c=[1.0], lower=[np.nan])


@pytest.mark.parametrize("kw, message", [
    ({"A_ub": [[1.0, 1.0, 1.0]], "b_ub": [1.0]},
     "A_ub: shape mismatch (A (1, 3), b (1,), n=2)"),
    ({"A_eq": [[1.0, 1.0]], "b_eq": [1.0, 2.0]},
     "A_eq: shape mismatch (A (1, 2), b (2,), n=2)"),
    ({"lower": [0.0, np.inf]}, "bounds: lower=+inf / upper=-inf rejected"),
    ({"upper": [-np.inf, 1.0]}, "bounds: lower=+inf / upper=-inf rejected"),
    ({"lower": [0.0, 2.0], "upper": [1.0, 1.0]},
     "variable 1: lower bound exceeds upper bound"),
    (None, "solve_lp expects a LinearProgram"),
], ids=["ub-shape", "eq-shape", "lower-inf", "upper-inf", "crossed",
        "not-an-lp"])
def test_malformed_lp_rejected(kw, message):
    """A LinearProgram that is not one raises at construction; solve_lp
    given anything else raises TypeError."""
    if kw is None:
        with pytest.raises(TypeError) as e:
            solve_lp({"c": [1.0, 1.0]})
    else:
        with pytest.raises(ValueError) as e:
            LinearProgram(c=[1.0, 1.0], **kw)
    assert str(e.value) == message


@pytest.mark.parametrize("c, lower, j", [
    ([1.0, -0.5, -2.0], [0.0, 0.0, 0.0], 1),
    ([1.0, 0.0, 2.0], [0.0, 0.0, -np.inf], 2),
    ([1.0, 3.0, -1.0], [0.0, -np.inf, 0.0], 1),
])
def test_out_of_contract_lp_rejected(c, lower, j):
    """solve_lp takes only c >= 0 and finite lower bounds, and names the
    first variable that breaks either."""
    lp = LinearProgram(c=c, A_ub=[[1.0, 1.0, 1.0]], b_ub=[1.0], lower=lower)
    with pytest.raises(ValueError, match=rf"^variable {j}: solve_lp needs "
                                         r"c_j >= 0 and a finite lower bound"):
        solve_lp(lp)


def test_default_lower_solves():
    """An omitted lower bound is 0, inside solve_lp's contract."""
    lp = LinearProgram(c=[1.0, 1.0, 1.0], A_ub=[[1.0, 1.0, 1.0]], b_ub=[1.0])
    assert np.array_equal(lp.lower, np.zeros(3))
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == 0.0 and np.array_equal(sol.x, np.zeros(3))


def test_iteration_limit_status():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((12, 8))
    lp, _, _ = in_contract(LinearProgram(
        c=-np.ones(8), A_ub=A, b_ub=np.abs(A).sum(axis=1),
        lower=np.zeros(8), upper=np.full(8, 10.0)))
    sol = solve_lp(lp, max_iters=1)
    assert sol.status is LpStatus.ITERATION_LIMIT
    assert sol.iterations <= 2


def small_lp_against_vertex_oracle(seed):
    """Solve seed's small boxed LP in contract form, check its verdict and
    optimum against vertex_enum_oracle, and return the solution."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 6))
    m_ub = int(rng.integers(1, 9 - n))
    m_eq = int(rng.integers(0, 2))
    c = rng.standard_normal(n).round(3)
    A_ub = rng.standard_normal((m_ub, n)).round(3)
    b_ub = rng.standard_normal(m_ub).round(3)
    A_eq = rng.standard_normal((m_eq, n)).round(3) if m_eq else None
    b_eq = rng.standard_normal(m_eq).round(3) if m_eq else None
    lp = LinearProgram(c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                       lower=np.zeros(n), upper=np.full(n, 3.0))
    status, best = vertex_enum_oracle(lp)
    lp2, offset, back = in_contract(lp)
    sol = solve_lp(lp2)
    if status == "infeasible":
        assert sol.status is LpStatus.INFEASIBLE
        assert_farkas(lp2, sol.farkas_y)
    else:
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value + offset == pytest.approx(best, abs=1e-7)
        assert check_solution(lp2, sol) <= 1e-9
        assert check_solution(lp, replace(sol, x=back(sol.x))) <= 1e-9
    return sol


@pytest.mark.parametrize("seed", range(50))
def test_random_small_lps_match_vertex_enumeration(seed):
    small_lp_against_vertex_oracle(seed)


@pytest.fixture
def bland_everywhere(monkeypatch):
    """Bland's rule picks every pivot: the degenerate run it waits for is
    -inf long."""
    monkeypatch.setattr(lp_module, "_BLAND_AFTER", -np.inf)


@pytest.mark.parametrize("seed", range(50))
def test_bland_on_every_pivot_matches_vertex_enumeration(seed, bland_everywhere):
    sol = small_lp_against_vertex_oracle(seed)
    assert sol.diagnostics["bland"] == sol.iterations


@pytest.mark.parametrize("seed", range(10))
def test_optimal_solutions_feasible(seed):
    rng = np.random.default_rng(2000 + seed)
    n, m = 6, 10
    A = rng.standard_normal((m, n))
    x0 = rng.random(n)
    b = A @ x0 + rng.random(m)          # x0 strictly feasible
    lp = LinearProgram(c=rng.standard_normal(n), A_ub=A, b_ub=b,
                       lower=np.zeros(n), upper=np.full(n, 5.0))
    lp2, _, back = in_contract(lp)
    sol = solve_lp(lp2)
    assert sol.status is LpStatus.OPTIMAL
    assert check_solution(lp2, sol) <= 1e-9
    assert check_solution(lp, replace(sol, x=back(sol.x))) <= 1e-9


def test_determinism_bitwise():
    rng = np.random.default_rng(3)
    n, m = 7, 9
    A = rng.standard_normal((m, n))
    b = A @ rng.random(n) + 0.5
    lp, _, _ = in_contract(LinearProgram(c=rng.standard_normal(n), A_ub=A,
                                         b_ub=b, lower=np.zeros(n),
                                         upper=np.full(n, 5.0)))
    s1 = solve_lp(lp)
    s2 = solve_lp(lp)
    assert s1.status is s2.status
    assert np.array_equal(s1.x, s2.x)
    assert s1.objective_value == s2.objective_value
    assert s1.iterations == s2.iterations


def _degenerate_lp():
    # min t with t >= every row of A x over x in [0, 1]^n and x_0 = 1: only t
    # has a cost, so the reduced costs of the x_j are often zero and dual
    # steps of length zero follow
    n = 4
    rng = np.random.default_rng(0)
    A = np.hstack([rng.standard_normal((8, n)), -np.ones((8, 1))])
    return LinearProgram(c=np.r_[np.zeros(n), 1.0], A_ub=A, b_ub=np.zeros(8),
                         lower=np.r_[1.0, np.zeros(n)],
                         upper=np.r_[np.ones(n), np.inf])


def test_degenerate_lp_terminates():
    lp = _degenerate_lp()
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.diagnostics["degenerate"] > 0
    assert check_solution(lp, sol) <= 1e-9
    status, best = vertex_enum_oracle(lp)
    assert status == "optimal"
    assert sol.objective_value == pytest.approx(best, abs=1e-9)


def _rank_deficient_lp():
    # rows 0 and 1 repeat, and so do columns 1 and 2 (the reflection of the
    # three columns with negative costs keeps both repeats)
    A = np.array([[1.0, 2.0, 2.0, -1.0],
                  [1.0, 2.0, 2.0, -1.0],
                  [3.0, -1.0, -1.0, 1.0],
                  [-1.0, 0.5, 0.5, 2.0]])
    return in_contract(LinearProgram(c=[-1.0, -1.0, -1.0, 0.5], A_ub=A,
                                     b_ub=[4.0, 4.0, 3.0, 2.0],
                                     lower=np.zeros(4),
                                     upper=np.full(4, 3.0)))[0]


def test_rank_deficient_lp_matches_vertex_oracle():
    lp = _rank_deficient_lp()
    status, best = vertex_enum_oracle(lp)
    sol = solve_lp(lp)
    assert status == "optimal"
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(best, abs=1e-9)
    assert check_solution(lp, sol) <= 1e-9


@pytest.mark.parametrize("make", [_degenerate_lp, _rank_deficient_lp])
def test_bland_on_every_pivot_degenerate_lps(make, bland_everywhere):
    lp = make()
    status, best = vertex_enum_oracle(lp)
    sol = solve_lp(lp)
    assert status == "optimal"
    assert sol.status is LpStatus.OPTIMAL
    assert sol.diagnostics["bland"] == sol.iterations > 0
    assert sol.objective_value == pytest.approx(best, abs=1e-9)
    assert check_solution(lp, sol) <= 1e-9


def _engine_run(lp, basic, nonbasic_slacks):
    """An engine for lp's <= rows started from the basis with the given
    structural columns basic and the given rows' slacks nonbasic; returns
    (engine, status of its run)."""
    n, m = lp.n_vars, lp.A_ub.shape[0]
    eng = _DualSimplex(lp.A_ub, 1000)
    eng.is_basic[basic] = True
    eng.is_basic[[n + i for i in nonbasic_slacks]] = False
    c = np.concatenate([lp.c, np.zeros(m)])
    lo = np.concatenate([lp.lower, np.zeros(m)])
    up = np.concatenate([lp.upper, np.full(m, np.inf)])
    return eng, eng.run(c, lp.b_ub, lo, up)


def test_singular_basis_block_is_repaired():
    # start from a basis whose structural block holds both copies of the
    # repeated column: the block is singular and must be swapped for slacks
    lp = _rank_deficient_lp()
    _, best = vertex_enum_oracle(lp)
    eng, status = _engine_run(lp, [1, 2], [0, 2])
    assert status is LpStatus.OPTIMAL
    assert eng.repairs >= 1
    assert lp.c @ eng.x[:lp.n_vars] == pytest.approx(best, abs=1e-9)


def test_dual_infeasible_basis_restarts_from_slacks():
    # min x0 + 2 x1 over x0 + x1 >= 1, x0 - x1 <= 2, x >= 0: with x1 basic
    # in row 0 the reduced cost of x0 is 1 - 2 = -1, and x0 has no upper
    # bound to flip to, so the engine starts again from the all-slack basis
    lp = LinearProgram(c=[1.0, 2.0], A_ub=[[-1.0, -1.0], [1.0, -1.0]],
                       b_ub=[-1.0, 2.0], lower=[0.0, 0.0])
    status, best = vertex_enum_oracle(lp)
    assert status == "optimal" and best == pytest.approx(1.0, abs=1e-12)
    eng, status = _engine_run(lp, [1], [0])
    assert status is LpStatus.OPTIMAL
    assert eng.restarts == 1
    assert lp.c @ eng.x[:lp.n_vars] == pytest.approx(best, abs=1e-9)
    assert solve_lp(lp).diagnostics["restarts"] == 0


@pytest.mark.parametrize("lp, max_iters, status", [
    (LinearProgram(c=[1.0], A_ub=[[-1.0]], b_ub=[-1.0], lower=[0.0]),
     None, LpStatus.OPTIMAL),
    (LinearProgram(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[-1.0],
                   lower=[0.0, 0.0]), None, LpStatus.INFEASIBLE),
    # the rows imply x <= 2, so the bounds and the reflection x -> 2 - x
    # leave the LP as it was
    (in_contract(LinearProgram(c=[-1.0, -1.0], A_ub=[[1.0, 2.0], [3.0, 1.0]],
                               b_ub=[4.0, 6.0], lower=[0.0, 0.0],
                               upper=[2.0, 2.0]))[0],
     1, LpStatus.ITERATION_LIMIT),
])
def test_diagnostics_on_every_status(lp, max_iters, status):
    sol = solve_lp(lp, max_iters=max_iters)
    assert sol.status is status
    assert sol.diagnostics["refactors"] >= 1
    assert sol.diagnostics["updates"] >= 0
    assert sol.diagnostics["repairs"] == 0
    assert sol.diagnostics["restarts"] == 0
    assert 0 <= sol.diagnostics["degenerate"] <= sol.iterations
    assert sol.diagnostics["bland"] == 0


def _dense_state(eng, c, b, lo, up):
    """x and d of the engine's basis, solved with the full m x m basis."""
    full = np.hstack([eng.A, np.eye(eng.m)])
    basic = eng.is_basic
    d = c - np.linalg.solve(full[:, basic].T, c[basic]) @ full
    x = np.where(eng.at_upper, np.where(np.isinf(up), 0.0, up),
                 np.where(np.isinf(lo), 0.0, lo))
    x[basic] = 0.0
    x[basic] = np.linalg.solve(full[:, basic], b - full @ x)
    return x, d


def test_block_updates_match_fresh_factor(monkeypatch):
    """After every in-place update, and after every bound-flip shift, the
    kept inverse, x and d agree with a fresh factorization.  The LPs mix
    boxed, one-sided and free variables (reflected and split into the
    contract), so all four block changes occur: a structural or a slack
    leaves, a structural or a slack enters."""
    run, update, move = _DualSimplex.run, _DualSimplex._update, _DualSimplex._move
    data, kinds, moves = {}, set(), []

    def check(eng):
        if eng.S.size:
            inv = np.linalg.inv(eng.A[eng.R][:, eng.S])
            assert np.abs(eng.Kinv - inv).max() <= 1e-10 * np.abs(inv).max()
        x, d = _dense_state(eng, *data[eng])
        assert np.abs(eng.x - x).max() <= 1e-10 * max(1.0, np.abs(x).max())
        assert np.abs(eng.d - d).max() <= 1e-10 * max(1.0, np.abs(d).max())

    def checked_run(self, c, b, lo, up):
        data[self] = (c, b, lo, up)
        return run(self, c, b, lo, up)

    def checked_update(self, q, r, *args):
        done = update(self, q, r, *args)
        if done:
            kinds.add(("structural" if r < self.n else "slack") + " leaves, "
                      + ("structural" if q < self.n else "slack") + " enters")
            check(self)
        return done

    def checked_move(self, idx, vals):
        move(self, idx, vals)
        moves.append(idx.size)
        check(self)

    monkeypatch.setattr(_DualSimplex, "run", checked_run)
    monkeypatch.setattr(_DualSimplex, "_update", checked_update)
    monkeypatch.setattr(_DualSimplex, "_move", checked_move)
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, m = int(rng.integers(4, 15)), int(rng.integers(3, 15))
        A = rng.standard_normal((m, n))
        c = rng.standard_normal(n)
        b = A @ rng.random(n) + 0.5 * rng.standard_normal(m)
        lower = np.where(rng.random(n) < 0.2, -np.inf, 0.0)
        upper = np.where(rng.random(n) < 0.5, 3.0, np.inf)
        solve_lp(in_contract(LinearProgram(c=bounded_costs(c, lower, upper),
                                           A_ub=A, b_ub=b, lower=lower,
                                           upper=upper))[0])
    assert len(kinds) == 4, kinds
    assert moves


def _dantzig_lp():
    """The Dantzig selector LP (mu = 0) of an n=40, p=120 design: 240 rows,
    119 pivots."""
    _, _, y, Z = selector_instance(1, 40, 120, s=2)
    return build_cmu_lp_direct(Z, y, SelectorConfig(mu=0.0, tau=0.005))


def test_long_solve_bitwise_reproducible():
    lp = _dantzig_lp()
    s1, s2 = solve_lp(lp), solve_lp(lp)
    assert s1.status is LpStatus.OPTIMAL and s1.iterations > 64
    assert np.array_equal(s1.x, s2.x)
    assert s1.objective_value == s2.objective_value
    assert s1.iterations == s2.iterations


@pytest.mark.parametrize("domain", ["nonneg", "free"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_selector_lps_never_pivot_degenerately(seed, domain, lp_solutions):
    """The selector LPs' dual steps all have positive length, so the
    most-infeasible rule after a degenerate pivot never prices them: their
    pivots are those of dual steepest edge alone."""
    solved = lp_solutions(estimators)
    _, _, y, Z_tilde = selector_instance(seed, 40, 120, s=2)
    for mu in (0.0, 0.11):
        config = SelectorConfig(mu=mu, tau=0.02, domain=domain)
        estimators.solve_missing_data_cmu(Z_tilde, y, pi=0.1, config=config)
        estimators.solve_mu_selector(Z_tilde / 0.9, y, config)
    assert sum(sol.iterations for sol in solved) > 0
    assert [sol.diagnostics["degenerate"] for sol in solved] == [0] * len(solved)


def test_refactors_follow_the_schedule():
    """Pivots update the block in place: the factorizations are the first,
    one per 64 updates, the terminal one and any repairs."""
    sol = solve_lp(_dantzig_lp())
    diag = sol.diagnostics
    assert sol.status is LpStatus.OPTIMAL and sol.iterations > 64
    assert diag["refactors"] <= 2 + sol.iterations // 64 + diag["repairs"]
    assert diag["updates"] >= sol.iterations - diag["refactors"]


def test_rejected_updates_refactor(lp_stops, monkeypatch):
    """With every in-place update rejected, each pivot refactors instead,
    and sensitivity and selector LPs end as with updates, bit for bit."""
    solved = lp_stops(0)
    sensitivity.kappa_inf_exact(normalized_gram(6, 20, 3), 2)
    sensitivity.kappa_one(normalized_gram(5, 30, 0), 2)
    _, _, y, Z = selector_instance(1, 40, 120, s=2)
    G, c = estimators.selector_gram(Z / 0.9, y)
    lps = list(solved) + [estimators._direct_lp(G, c, mu, 0.02)
                          for mu in (0.0, 0.11)]
    updated = [solve_lp(lp) for lp in lps]
    assert sum(sol.diagnostics["updates"] for sol in updated) > 64
    monkeypatch.setattr(lp_module, "_UPDATE_TOL", -1.0)
    for lp, ref in zip(lps, updated):
        sol = solve_lp(lp)
        assert sol.diagnostics["updates"] == 0
        assert sol.status is ref.status
        assert sol.objective_value == ref.objective_value
        assert np.array_equal(sol.x, ref.x)
