import numpy as np
import pytest


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
def third_lp_stops(lp_stops):
    """Make the third LP that musel.sensitivity solves end at its iteration
    limit; returns the list of LPs solved so far."""
    return lp_stops(3)
