"""The pair form of the selector LP and its witness, for the tests.

The solvers run the direct 2p-row LP over theta alone.  The pair form over
(theta, u) states the selector constraint as |c - G theta + u|_inf <= tau
with |u|_inf <= mu*|theta|_1; the two share their optimal value, which
``tests/test_estimators.py`` checks on random instances.  The free u enters
the LP split, u = u+ - u-, so that solve_lp takes it.
"""

import numpy as np

from musel.core import as_vector
from musel.estimators import _direct_lp, feasibility_check, selector_gram
from musel.lp import LinearProgram


def build_cmu_lp(Z, y, config):
    """The pair-form LP over (theta, u) for the nonnegative orthant.

    Variables theta in R+^p and u = u+ - u- in R^p, in the order
    (theta, u+, u-); objective sum(theta); 4p rows encoding
    |c - G theta + u|_inf <= tau and |u|_inf <= mu*sum(theta).  Its optimal
    theta solves the selector problem on R+^p.
    """
    if config.domain != "nonneg":
        raise ValueError("pair LP requires domain='nonneg'; "
                         "use solve_* for the free domain")
    G, c = selector_gram(Z, y, config.compensation)
    p = G.shape[0]
    eye = np.eye(p)
    mu_row = np.full((p, p), -config.mu)
    A = np.vstack([
        np.hstack([-G, eye, -eye]),       # -G theta + u <= tau - c
        np.hstack([G, -eye, eye]),        # G theta - u <= tau + c
        np.hstack([mu_row, eye, -eye]),   # u - mu*sum(theta) <= 0
        np.hstack([mu_row, -eye, eye]),   # -u - mu*sum(theta) <= 0
    ])
    b = np.concatenate([config.tau - c, config.tau + c, np.zeros(2 * p)])
    obj = np.concatenate([np.ones(p), np.zeros(2 * p)])
    return LinearProgram(c=obj, A_ub=A, b_ub=b, lower=np.zeros(3 * p))


def build_cmu_lp_direct(Z, y, config):
    """The direct 2p-row LP over theta alone (nonnegative orthant): the
    form the solvers run."""
    if config.domain != "nonneg":
        raise ValueError("direct LP requires domain='nonneg'")
    G, c = selector_gram(Z, y, config.compensation)
    return _direct_lp(G, c, config.mu, config.tau)


def lift_to_pair(theta, Z, y, config):
    """Witness u turning a feasible theta into a pair (theta, u) with
    |c - G theta + u|_inf <= tau and |u|_inf <= mu*|theta|_1.

    u_i = -N_i where |N_i| <= mu*|theta|_1, else -sign(N_i)*mu*|theta|_1,
    with N = c - G theta.  Raises if theta is infeasible.
    """
    theta = as_vector(theta, "theta")
    residual, feasible = feasibility_check(theta, Z, y, config)
    if not feasible:
        raise ValueError(f"theta is infeasible (residual {residual:.3e})")
    G, c = selector_gram(Z, y, config.compensation)
    N = c - G @ theta
    cap = config.mu * float(np.sum(np.abs(theta)))
    return np.where(np.abs(N) <= cap, -N, -np.sign(N) * cap)
