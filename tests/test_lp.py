"""LP engine tests: hand cases, a vertex-enumeration oracle, determinism."""

from itertools import combinations

import numpy as np
import pytest

from musel.lp import (LinearProgram, LpStatus, _DualSimplex, check_solution,
                      solve_lp)


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


def assert_ray(lp, ray, tol=1e-9):
    """ray is a recession direction of the program along which c falls."""
    assert lp.c @ ray < -tol
    assert np.all(lp.A_ub @ ray <= tol)
    assert np.all(np.abs(lp.A_eq @ ray) <= tol)
    assert np.all(ray[np.isfinite(lp.lower)] >= -tol)
    assert np.all(ray[np.isfinite(lp.upper)] <= tol)


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
    assert sol.diagnostics["phase1_infeasibility"] > 0
    assert_farkas(lp, sol.farkas_y)


def test_two_variable_polygon_matches_vertex_oracle():
    # stated expectation derived from the vertex oracle over the polygon:
    # vertices (0,0), (2,0), (2,2), (0,4); min of -x1-2x2 is -8 at (0,4)
    lp = LinearProgram(c=[-1.0, -2.0], A_ub=[[1.0, 1.0], [1.0, 0.0]],
                       b_ub=[4.0, 2.0], lower=[0.0, 0.0], upper=[10.0, 10.0])
    status, best = vertex_enum_oracle(lp)
    assert status == "optimal" and best == pytest.approx(-8.0, abs=1e-9)
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(best, abs=1e-9)
    assert np.allclose(sol.x, [0.0, 4.0], atol=1e-9)


def test_unbounded_exposes_ray():
    lp = LinearProgram(c=[-1.0], A_ub=[[-1.0]], b_ub=[0.0], lower=[0.0])
    sol = solve_lp(lp)
    assert sol.status is LpStatus.UNBOUNDED
    assert sol.ray is not None and sol.ray[0] > 0
    assert_ray(lp, sol.ray)


def test_unbounded_free_variable_ray():
    # x0 free, x1 >= 0: x0 - x1 <= 1 leaves x0 -> -inf open
    lp = LinearProgram(c=[1.0, 0.5], A_ub=[[1.0, -1.0], [0.0, 1.0]],
                       b_ub=[1.0, 4.0], lower=[-np.inf, 0.0])
    sol = solve_lp(lp)
    assert sol.status is LpStatus.UNBOUNDED
    assert_ray(lp, sol.ray)


def test_equality_with_free_variable_split():
    lp = LinearProgram(c=[1.0, 1.0], A_eq=[[1.0, -1.0]], b_eq=[-3.0],
                       lower=[0.0, 0.0])
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(3.0, abs=1e-9)
    assert np.allclose(sol.x, [0.0, 3.0], atol=1e-9)


def test_upper_bound_flip():
    lp = LinearProgram(c=[-1.0], A_ub=[[1.0]], b_ub=[10.0],
                       lower=[0.0], upper=[3.0])
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x[0] == pytest.approx(3.0, abs=1e-12)


def test_nan_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        LinearProgram(c=[np.nan], A_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(ValueError, match="non-finite"):
        LinearProgram(c=[1.0], A_ub=[[np.nan]], b_ub=[1.0])
    with pytest.raises(ValueError, match="NaN"):
        LinearProgram(c=[1.0], lower=[np.nan])


def test_iteration_limit_status():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((12, 8))
    lp = LinearProgram(c=-np.ones(8), A_ub=A, b_ub=np.abs(A).sum(axis=1),
                       lower=np.zeros(8), upper=np.full(8, 10.0))
    sol = solve_lp(lp, max_iters=1)
    assert sol.status is LpStatus.ITERATION_LIMIT
    assert sol.iterations <= 2


@pytest.mark.parametrize("seed", range(50))
def test_random_small_lps_match_vertex_enumeration(seed):
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
    sol = solve_lp(lp)
    if status == "infeasible":
        assert sol.status is LpStatus.INFEASIBLE
        assert_farkas(lp, sol.farkas_y)
    else:
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(best, abs=1e-7)
        assert check_solution(lp, sol) <= 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_optimal_solutions_feasible(seed):
    rng = np.random.default_rng(2000 + seed)
    n, m = 6, 10
    A = rng.standard_normal((m, n))
    x0 = rng.random(n)
    b = A @ x0 + rng.random(m)          # x0 strictly feasible
    lp = LinearProgram(c=rng.standard_normal(n), A_ub=A, b_ub=b,
                       lower=np.zeros(n), upper=np.full(n, 5.0))
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert check_solution(lp, sol) <= 1e-9


def test_determinism_bitwise():
    rng = np.random.default_rng(3)
    n, m = 7, 9
    A = rng.standard_normal((m, n))
    b = A @ rng.random(n) + 0.5
    lp = LinearProgram(c=rng.standard_normal(n), A_ub=A, b_ub=b,
                       lower=np.zeros(n))
    s1 = solve_lp(lp)
    s2 = solve_lp(lp)
    assert s1.status is s2.status
    assert np.array_equal(s1.x, s2.x)
    assert s1.objective_value == s2.objective_value
    assert s1.iterations == s2.iterations


def test_debug_dump_env_flag(tmp_path, monkeypatch):
    dump = tmp_path / "lp_dump.txt"
    monkeypatch.setenv("MUSEL_LP_DEBUG", str(dump))
    lp = LinearProgram(c=[1.0], A_ub=[[-1.0]], b_ub=[-1.0], lower=[0.0])
    solve_lp(lp)
    text = dump.read_text()
    assert "vars=1" in text and "<=" in text


def test_degenerate_lp_terminates():
    # many redundant constraints through the origin force degenerate pivots
    n = 4
    rng = np.random.default_rng(9)
    A = np.vstack([rng.standard_normal((8, n)), np.eye(n)])
    b = np.concatenate([np.zeros(8), np.ones(n)])
    lp = LinearProgram(c=-np.ones(n), A_ub=A, b_ub=b, lower=np.zeros(n))
    sol = solve_lp(lp)
    assert sol.status in (LpStatus.OPTIMAL, LpStatus.INFEASIBLE)
    if sol.status is LpStatus.OPTIMAL:
        assert check_solution(lp, sol) <= 1e-9


def _rank_deficient_lp():
    # rows 0 and 1 repeat, and so do columns 1 and 2
    A = np.array([[1.0, 2.0, 2.0, -1.0],
                  [1.0, 2.0, 2.0, -1.0],
                  [3.0, -1.0, -1.0, 1.0],
                  [-1.0, 0.5, 0.5, 2.0]])
    return LinearProgram(c=[-1.0, -1.0, -1.0, 0.5], A_ub=A,
                         b_ub=[4.0, 4.0, 3.0, 2.0],
                         lower=np.zeros(4), upper=np.full(4, 3.0))


def test_rank_deficient_lp_matches_vertex_oracle():
    lp = _rank_deficient_lp()
    status, best = vertex_enum_oracle(lp)
    sol = solve_lp(lp)
    assert status == "optimal"
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(best, abs=1e-9)
    assert check_solution(lp, sol) <= 1e-9


def test_singular_basis_block_is_repaired():
    # start from a basis whose structural block holds both copies of the
    # repeated column: the block is singular and must be swapped for slacks
    lp = _rank_deficient_lp()
    _, best = vertex_enum_oracle(lp)
    n, m = 4, 4
    eng = _DualSimplex(lp.A_ub, 1e-9, 1e-9, 1000)
    eng.is_basic[[1, 2]] = True
    eng.is_basic[[n + 0, n + 2]] = False
    c = np.concatenate([lp.c, np.zeros(m)])
    lo = np.concatenate([lp.lower, np.zeros(m)])
    up = np.concatenate([lp.upper, np.full(m, np.inf)])
    assert eng.run(c, lp.b_ub, lo, up) is LpStatus.OPTIMAL
    assert eng.repairs >= 1
    assert lp.c @ eng.x[:n] == pytest.approx(best, abs=1e-9)
