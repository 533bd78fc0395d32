"""The l1-minimization selectors.

All selectors minimize |theta|_1 over the feasible set

    { theta in Theta : |Z'(y - Z theta)/n + Dhat theta|_inf <= mu*|theta|_1 + tau }

where Dhat is an optional diagonal compensation for the bias that design
noise induces in Z'Z/n.  With mu = 0 and Dhat = 0 this is the Dantzig
selector; with Dhat = 0 it is the plain matrix-uncertainty selector; with
an estimated Dhat it is the compensated selector.

Over the nonnegative orthant the problem is a single linear program.  Over
all of R^p it is the same LP for [G, -G] in x = (theta+, theta-) >= 0:

- every feasible theta gives a feasible x with 1'x = |theta|_1, so the LP
  value v is at most the selector's value;
- an optimal x with no index positive in both parts has |theta|_1 = 1'x = v
  and is feasible, so it is optimal;
- when the fixed point g(r) = r of g(r) = min |theta|_1 over
  |c - G theta|_inf <= mu*r + tau exists, the optimum has no such pair: a
  pair would give g(v) < v, hence v > r* >= v.

When a pair does occur, the search branches on the sign of a paired
index (Land & Doig 1960): each branch is the same LP with one part of that
index held at 0, so its value bounds every theta of that sign below, and
the least pair-free optimum over the branches is the selector's optimum.
"""

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .core import as_matrix, as_vector, gram
from .lp import DEFAULT_FEAS_TOL, LinearProgram, LpStatus, solve_lp
from .missing import check_no_dead_columns, estimate_pi, rescale, sigma_hat

NONZERO_THRESHOLD = 1e-8  # |theta_j| above which j counts as support


@dataclass(frozen=True)
class SelectorConfig:
    """Selector constants.

    mu scales the |theta|_1 slack in the constraint; tau is the absolute
    slack; compensation is the diagonal Dhat as a length-p vector (None
    means no compensation).  domain is "nonneg" or "free".  The LPs use
    the solver's fixed tolerances; ``feas_tol``, a class constant, is its
    bound tolerance, which ``feasibility_check`` and the free-domain pair
    test apply as well.  The support of an estimate is fixed by the module
    constant NONZERO_THRESHOLD.
    """

    mu: float
    tau: float
    compensation: np.ndarray = None
    domain: str = "nonneg"
    feas_tol: ClassVar[float] = DEFAULT_FEAS_TOL

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu >= 0):
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        if not (np.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")
        if self.domain not in ("nonneg", "free"):
            raise ValueError(f"domain must be 'nonneg' or 'free', got {self.domain!r}")
        if self.compensation is not None:
            d = as_vector(self.compensation, "compensation")
            if np.any(d < 0):
                raise ValueError("compensation entries must be >= 0")
            object.__setattr__(self, "compensation", d)


@dataclass
class Estimate:
    """A selector solution with diagnostics.

    support holds the indices with |theta_j| above NONZERO_THRESHOLD;
    residual is |c - G theta|_inf - (mu*|theta|_1 + tau) for the (G, c) the
    selector solved over (<= feas_tol when theta is feasible); fp_rounds
    counts the LPs the free-domain search solved, the branches included
    (None on the nonneg path, which solves one LP).  iterations sums the
    pivots of every LP solved.
    """

    theta: np.ndarray
    l1_norm: float
    support: np.ndarray
    status: LpStatus
    iterations: int
    residual: float = None
    fp_rounds: int = None

    @property
    def optimal(self):
        return self.status is LpStatus.OPTIMAL


def selector_gram(Z, y, compensation=None):
    """(G, c) with G = Z'Z/n - diag(Dhat) and c = Z'y/n, so the selector
    constraint reads |c - G theta|_inf <= mu*|theta|_1 + tau."""
    Z = as_matrix(Z, "Z")
    y = as_vector(y, "y")
    n = Z.shape[0]
    if y.shape[0] != n:
        raise ValueError(f"Z has {n} rows but y has {y.shape[0]}")
    return gram(Z, compensation), Z.T @ y / n


def _direct_lp(G, c, mu, tau):
    """min 1'x over x >= 0 with |c - G x|_inf <= mu*1'x + tau, for a G of
    any width: the selector LP of both domains.  Its feasible x are those
    of the pair form |c - G x + u|_inf <= tau, |u|_inf <= mu*1'x, with the
    witness u eliminated, so it needs 2*rows(G) rows and no u."""
    n = G.shape[1]
    A = np.vstack([G - mu, -G - mu])
    b = np.concatenate([tau + c, tau - c])
    return LinearProgram(c=np.ones(n), A_ub=A, b_ub=b)


def _residual(G, c, theta, mu, tau):
    """|c - G theta|_inf - (mu*|theta|_1 + tau): <= 0 exactly on the
    selector feasible set of (G, c)."""
    l1 = float(np.sum(np.abs(theta)))
    return float(np.max(np.abs(c - G @ theta))) - (mu * l1 + tau)


def _solve_from_gram(G, c, config):
    """The selector over (G, c): the LP of G for "nonneg", of [G, -G] for
    "free".  While a free-domain optimum pairs, its LP gives way to two
    copies, one with theta_j- held at 0 (solved first) and one with
    theta_j+ held at 0, for the first j with the largest min(theta_j+,
    theta_j-).  The search runs depth first and drops a copy that is
    INFEASIBLE or not below the best pair-free optimum so far; with none
    found the result is INFEASIBLE.  A solve that ends neither OPTIMAL nor
    INFEASIBLE leaves the minimum unproven: its status is returned."""
    p = G.shape[0]
    free = config.domain == "free"
    lp = _direct_lp(np.hstack([G, -G]) if free else G, c, config.mu, config.tau)
    nodes, best, theta = [lp], np.inf, np.zeros(p)
    status, iterations, rounds = LpStatus.INFEASIBLE, 0, 0
    while nodes:
        node = nodes.pop()
        sol = solve_lp(node)
        rounds += 1
        iterations += sol.iterations
        if sol.status is LpStatus.INFEASIBLE:
            continue
        if sol.status is not LpStatus.OPTIMAL:
            theta, status = np.zeros(p), sol.status
            break
        if sol.objective_value >= best:
            continue
        x = sol.x
        split = float(np.sum(x))
        signed = x[:p] - x[p:] if free else x
        # a nonneg x has split <= |x|_1, so only the free domain pairs
        if split - np.sum(np.abs(signed)) <= config.feas_tol * (1.0 + split):
            best, theta, status = sol.objective_value, signed, sol.status
            continue
        # split - |theta|_1 = 2 sum_j min(theta_j+, theta_j-) > 0 here, and a
        # held part stays at exactly 0 (fixed variables never enter the
        # basis), so j is not yet held and the search ends within depth p
        j = int(np.argmax(np.minimum(x[:p], x[p:])))
        # pushed last, the copy with theta_j- held (theta_j >= 0) runs first
        for held in (j, p + j):
            upper = node.upper.copy()
            upper[held] = 0.0
            nodes.append(replace(node, upper=upper))
    l1 = float(np.sum(np.abs(theta)))
    return Estimate(theta=theta, l1_norm=l1,
                    support=np.nonzero(np.abs(theta) > NONZERO_THRESHOLD)[0],
                    status=status, iterations=iterations,
                    residual=_residual(G, c, theta, config.mu, config.tau),
                    fp_rounds=rounds if free else None)


def solve_compensated_mu(Z, y, config):
    """Compensated selector: requires config.compensation (use
    solve_mu_selector when there is nothing to compensate)."""
    if config.compensation is None:
        raise ValueError("config.compensation missing; "
                         "use solve_mu_selector for the uncompensated case")
    G, c = selector_gram(Z, y, config.compensation)
    return _solve_from_gram(G, c, config)


def solve_mu_selector(Z, y, config):
    """Matrix-uncertainty selector: the compensated solver with Dhat = 0."""
    p = as_matrix(Z, "Z").shape[1]
    cfg = replace(config, compensation=np.zeros(p))
    return solve_compensated_mu(Z, y, cfg)


def solve_dantzig(Z, y, tau, domain="nonneg"):
    """Dantzig selector: the compensated solver with mu = 0 and Dhat = 0."""
    p = as_matrix(Z, "Z").shape[1]
    cfg = SelectorConfig(mu=0.0, tau=tau, compensation=np.zeros(p),
                         domain=domain)
    return solve_compensated_mu(Z, y, cfg)


def solve_missing_data_cmu(Z_tilde, y, pi=None, *, config, path="rescale"):
    """Compensated selector for a masked design Z_tilde (missing entries
    are exact 0.0).

    pi is the known missingness probability (scalar or per-column); pass
    None to estimate it from the zero frequency (pooled).  config, a
    required keyword, gives mu, tau and the domain; Dhat is
    ``sigma_hat(Z_tilde, pi)``, and config.compensation is ignored.
    path="rescale" runs the compensated selector on Z_tilde/(1-pi): the
    estimator of ``musel estimate --mode missing`` and ``musel simulate``.
    path="direct" solves |Z~'(y(1-pi) - Z~ theta)/n + Dhat theta|_inf <=
    mu|theta|_1 + tau on the masked design, the rescaled program with Dhat,
    mu and tau divided by (1-pi)^2 (so Dhat over-compensates); it is kept
    for ``--path direct``, which perfbench's estimate-p500 requests.
    """
    Z_tilde = as_matrix(Z_tilde, "Z_tilde")
    y = as_vector(y, "y")
    if pi is None:
        check_no_dead_columns(Z_tilde)
        pi = estimate_pi(Z_tilde, mode="pooled")
    dhat = sigma_hat(Z_tilde, pi)

    if path == "rescale":
        cfg = replace(config, compensation=dhat)
        return solve_compensated_mu(rescale(Z_tilde, pi), y, cfg)
    if path == "direct":
        pi_arr = np.atleast_1d(np.asarray(pi, dtype=float))
        if pi_arr.size != 1:
            raise ValueError("path='direct' uses the pooled form; pass scalar pi")
        pi_s = float(pi_arr[0])
        G = gram(Z_tilde, dhat)
        # (1 - pi) scales Z~'y, not y: the rounding order fixes the bytes of c
        c = (1.0 - pi_s) * (Z_tilde.T @ y) / Z_tilde.shape[0]
        return _solve_from_gram(G, c, config)
    raise ValueError(f"path must be 'rescale' or 'direct', got {path!r}")


def feasibility_check(theta, Z, y, config):
    """(residual, feasible) of theta against the selector constraint set.

    residual = |c - G theta|_inf - (mu*|theta|_1 + tau); feasible means the
    residual is within feas_tol and theta respects the domain.
    """
    theta = as_vector(theta, "theta")
    G, c = selector_gram(Z, y, config.compensation)
    if theta.shape[0] != G.shape[0]:
        raise ValueError(f"theta length {theta.shape[0]} != p={G.shape[0]}")
    residual = _residual(G, c, theta, config.mu, config.tau)
    domain_ok = True
    if config.domain == "nonneg":
        domain_ok = bool(np.min(theta, initial=0.0) >= -config.feas_tol)
    return residual, bool(residual <= config.feas_tol and domain_ok)
