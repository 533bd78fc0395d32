import numpy as np
import pytest

from musel.lp import LinearProgram


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def normalized_gram(p, n, seed):
    """Gram matrix of a centered, column-normalized Gaussian design."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    X -= X.mean(axis=0)
    X /= np.sqrt((X ** 2).mean(axis=0))
    return X.T @ X / n


def selector_instance(seed, n, p, s=1, pi=0.1, noise_sd=0.05 / 1.96,
                      theta_value=0.5):
    """A small masked-design regression instance with ground truth."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    X -= X.mean(axis=0)
    X /= np.sqrt((X ** 2).mean(axis=0))
    theta = np.zeros(p)
    theta[rng.choice(p, s, replace=False)] = theta_value
    y = X @ theta + noise_sd * rng.standard_normal(n)
    eta = (rng.random((n, p)) >= pi).astype(float)
    Z_tilde = X * eta
    return X, theta, y, Z_tilde


def bounded_costs(c, lower, upper):
    """c with the signs that bound c@x below over the box lower <= x <= upper:
    boxed columns keep their cost, those bounded only below get |c|, those
    bounded only above -|c|, and free ones 0.  in_contract takes the LPs
    that such costs make."""
    lo, up = np.isfinite(lower), np.isfinite(upper)
    return np.where(lo & up, c, np.where(lo, np.abs(c),
                                         np.where(up, -np.abs(c), 0.0)))


def in_contract(lp):
    """(lp2, offset, back): an LP that solve_lp takes, with the same optimum
    as lp up to ``offset``, and the map back(x2) of its points to lp's.

    A column with a finite upper bound and a negative cost, or no lower
    bound, is reflected, x_j = u_j - x2_j; a free column of cost 0 is
    split, x_j = x2_j - x2_k with k a column appended after the others.
    Every other column must have c_j >= 0 and a finite lower bound.
    """
    c, lo, up = lp.c, lp.lower, lp.upper
    refl = ((c < 0) | np.isinf(lo)) & np.isfinite(up)
    free = np.isinf(lo) & np.isinf(up)
    assert not np.any(c[free]), "a free column with a cost has no equivalent"
    sign = np.where(refl, -1.0, 1.0)
    shift = np.where(refl, up, 0.0)                 # x = shift + sign * x2
    k = int(free.sum())

    def rows(A, b):
        return np.hstack([A * sign, -A[:, free]]), b - A @ shift

    A_ub, b_ub = rows(lp.A_ub, lp.b_ub)
    A_eq, b_eq = rows(lp.A_eq, lp.b_eq)
    lp2 = LinearProgram(
        c=np.concatenate([c * sign, np.zeros(k)]),
        A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        lower=np.concatenate([np.where(refl | free, 0.0, lo), np.zeros(k)]),
        upper=np.concatenate([np.where(refl, up - lo, up), np.full(k, np.inf)]))

    def back(x2):
        x = shift + sign * x2[:lp.n_vars]
        x[free] -= x2[lp.n_vars:]
        return x
    return lp2, float(c @ shift), back


@pytest.fixture
def lp_stops(monkeypatch):
    """lp_stops(n) makes the n-th LP that musel.sensitivity solves end at its
    iteration limit (none for n = 0); returns the list of LPs solved so far."""
    from dataclasses import replace

    from musel import sensitivity
    from musel.lp import LpStatus

    def install(n):
        real, solved = sensitivity.solve_lp, []

        def solve(lp, *args, **kwargs):
            sol = real(lp, *args, **kwargs)
            solved.append(lp)
            if len(solved) == n:
                return replace(sol, status=LpStatus.ITERATION_LIMIT)
            return sol

        monkeypatch.setattr(sensitivity, "solve_lp", solve)
        return solved
    return install


@pytest.fixture
def lp_solutions(monkeypatch):
    """lp_solutions(module) records every LpSolution that ``module.solve_lp``
    returns from then on; returns the list."""
    def install(module):
        real, solved = module.solve_lp, []

        def solve(lp, *args, **kwargs):
            sol = real(lp, *args, **kwargs)
            solved.append(sol)
            return sol

        monkeypatch.setattr(module, "solve_lp", solve)
        return solved
    return install


@pytest.fixture
def third_lp_stops(lp_stops):
    """Make the third LP that musel.sensitivity solves end at its iteration
    limit; returns the list of LPs solved so far."""
    return lp_stops(3)
