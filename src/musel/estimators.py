"""The l1-minimization selectors.

All selectors minimize |theta|_1 over the feasible set

    { theta in Theta : |Z'(y - Z theta)/n + Dhat theta|_inf <= mu*|theta|_1 + tau }

where Dhat is an optional diagonal compensation for the bias that design
noise induces in Z'Z/n.  With mu = 0 and Dhat = 0 this is the Dantzig
selector; with Dhat = 0 it is the plain matrix-uncertainty selector; with
an estimated Dhat it is the compensated selector.

Over the nonnegative orthant the problem is a single linear program.  Over
all of R^p the |theta|_1 on the relaxing side makes a one-shot sign-split
LP inexact; we solve it by a bisection-safeguarded fixed point on
r = |theta|_1 (each inner step an LP with constraint radius mu*r + tau),
which converges to the exact optimum when the fixed point is reached.
"""

from dataclasses import dataclass, replace

import numpy as np

from .core import as_matrix, as_vector, gram
from .lp import LinearProgram, LpStatus, solve_lp
from .missing import MaskedDesign, check_no_dead_columns, estimate_pi, rescale, sigma_hat


@dataclass(frozen=True)
class SelectorConfig:
    """Selector constants and solver settings.

    mu scales the |theta|_1 slack in the constraint; tau is the absolute
    slack; compensation is the diagonal Dhat as a length-p vector (None
    means no compensation).  domain is "nonneg" or "free".
    """

    mu: float
    tau: float
    compensation: np.ndarray = None
    domain: str = "nonneg"
    nonzero_threshold: float = 1e-8
    feas_tol: float = 1e-9
    opt_tol: float = 1e-9
    max_iters: int = None
    fixed_point_max_rounds: int = 50
    fixed_point_tol: float = 1e-8

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

    support holds the indices with |theta_j| above the nonzero threshold;
    residual is |c - G theta|_inf - (mu*|theta|_1 + tau) for the (G, c) the
    selector solved over (<= feas_tol when theta is feasible); fp_* report
    the fixed-point loop used for the free domain (None for the single-LP
    nonnegative path).
    """

    theta: np.ndarray
    l1_norm: float
    support: np.ndarray
    status: LpStatus
    iterations: int
    residual: float = None
    fp_rounds: int = None
    fp_converged: bool = None

    @property
    def optimal(self):
        return self.status is LpStatus.OPTIMAL


def selector_gram(Z, y, compensation=None):
    """(G, c) with G = Z'Z/n - diag(Dhat) and c = Z'y/n, so the selector
    constraint reads |c - G theta|_inf <= mu*|theta|_1 + tau."""
    Z = as_matrix(Z, "Z")
    y = as_vector(y, "y")
    n, p = Z.shape
    if y.shape[0] != n:
        raise ValueError(f"Z has {n} rows but y has {y.shape[0]}")
    d = None
    if compensation is not None:
        d = as_vector(compensation, "compensation")
        if d.shape[0] != p:
            raise ValueError(f"compensation length {d.shape[0]} != p={p}")
    return gram(Z, d), Z.T @ y / n


def build_cmu_lp(Z, y, config):
    """The pair-form LP over (theta, u) for the nonnegative orthant.

    Variables theta in R+^p and u in R^p; objective sum(theta); 4p rows
    encoding |c - G theta + u|_inf <= tau and |u|_inf <= mu*sum(theta).
    Its optimal theta solves the selector problem on R+^p.
    """
    if config.domain != "nonneg":
        raise ValueError("pair LP requires domain='nonneg'; "
                         "use solve_* for the free domain")
    G, c = selector_gram(Z, y, config.compensation)
    p = G.shape[0]
    eye = np.eye(p)
    mu_row = np.full((p, p), -config.mu)
    A = np.vstack([
        np.hstack([-G, eye]),         # -G theta + u <= tau - c
        np.hstack([G, -eye]),         # G theta - u <= tau + c
        np.hstack([mu_row, eye]),     # u - mu*sum(theta) <= 0
        np.hstack([mu_row, -eye]),    # -u - mu*sum(theta) <= 0
    ])
    b = np.concatenate([config.tau - c, config.tau + c, np.zeros(2 * p)])
    obj = np.concatenate([np.ones(p), np.zeros(p)])
    lower = np.concatenate([np.zeros(p), np.full(p, -np.inf)])
    return LinearProgram(c=obj, A_ub=A, b_ub=b, lower=lower)


def build_cmu_lp_direct(Z, y, config):
    """The direct 2p-row LP over theta alone (nonnegative orthant).

    Equivalent in optimal value to the pair LP of build_cmu_lp; this is the
    form the solvers run.
    """
    if config.domain != "nonneg":
        raise ValueError("direct LP requires domain='nonneg'")
    G, c = selector_gram(Z, y, config.compensation)
    return _direct_lp(G, c, config.mu, config.tau)


def _direct_lp(G, c, mu, tau):
    p = G.shape[0]
    A = np.vstack([G - mu, -G - mu])
    b = np.concatenate([tau + c, tau - c])
    return LinearProgram(c=np.ones(p), A_ub=A, b_ub=b, lower=np.zeros(p))


def _split_lp(G, c, radius):
    """min sum(th_pos + th_neg) s.t. |c - G(th_pos - th_neg)|_inf <= radius."""
    p = G.shape[0]
    A = np.vstack([np.hstack([G, -G]), np.hstack([-G, G])])
    b = np.concatenate([radius + c, radius - c])
    return LinearProgram(c=np.ones(2 * p), A_ub=A, b_ub=b, lower=np.zeros(2 * p))


def _make_estimate(theta, status, iterations, threshold, **kw):
    l1 = float(np.sum(np.abs(theta)))
    support = np.nonzero(np.abs(theta) > threshold)[0]
    return Estimate(theta=theta, l1_norm=l1, support=support,
                    status=status, iterations=iterations, **kw)


def _solve_nonneg(G, c, config):
    lp = _direct_lp(G, c, config.mu, config.tau)
    sol = solve_lp(lp, feas_tol=config.feas_tol, opt_tol=config.opt_tol,
                   max_iters=config.max_iters)
    theta = sol.x if sol.status is LpStatus.OPTIMAL else np.zeros(G.shape[0])
    return _make_estimate(theta, sol.status, sol.iterations,
                          config.nonzero_threshold)


def _solve_free(G, c, config):
    """Bisection-safeguarded fixed point on r = |theta|_1.

    g(r) = min |theta|_1 over |c - G theta|_inf <= mu*r + tau is
    nonincreasing, so phi(r) = g(r) - r is strictly decreasing with at most
    one root r*, which equals the optimal value of the original problem; a
    theta attaining g(r*) = r* solves it exactly.  An iterate at radius
    mu*r + tau is feasible in the original set precisely when its norm is
    >= r, i.e. on the phi >= 0 side, so the loop terminates only there.
    Infeasible inner LPs count as phi = +inf (radius below feasibility).
    """
    p = G.shape[0]
    mu, tau = config.mu, config.tau
    iters = 0

    def run(radius):
        sol = solve_lp(_split_lp(G, c, radius), feas_tol=config.feas_tol,
                       opt_tol=config.opt_tol, max_iters=config.max_iters)
        theta = sol.x[:p] - sol.x[p:]
        return sol, theta

    if mu == 0.0:
        sol, theta = run(tau)
        if sol.status is not LpStatus.OPTIMAL:
            theta = np.zeros(p)
        return _make_estimate(theta, sol.status, sol.iterations,
                              config.nonzero_threshold, fp_rounds=1,
                              fp_converged=sol.status is LpStatus.OPTIMAL)

    # bracket [r_lo, r_hi] around the root; theta = 0 is feasible once
    # mu*r + tau >= |c|_inf, which pins a finite r_hi with phi(r_hi) <= 0.
    r_hi = max(0.0, (float(np.max(np.abs(c))) - tau) / mu)
    r_lo = 0.0
    r = 0.0
    best = None          # (l1, theta) among iterates feasible in the original set
    converged = False
    rounds = 0
    widths = []
    for rounds in range(1, config.fixed_point_max_rounds + 1):
        sol, theta = run(mu * r + tau)
        iters += sol.iterations
        if sol.status is LpStatus.ITERATION_LIMIT:
            return _make_estimate(np.zeros(p), sol.status, iters,
                                  config.nonzero_threshold, fp_rounds=rounds,
                                  fp_converged=False)
        if sol.status is LpStatus.OPTIMAL:
            l1 = float(np.sum(np.abs(theta)))
            phi = l1 - r
            if phi >= 0.0 and (best is None or l1 < best[0]):
                best = (l1, theta)
            if 0.0 <= phi <= config.fixed_point_tol:
                converged = True
                break
            if abs(phi) <= config.fixed_point_tol:
                # within tolerance from the infeasible side: confirm with one
                # solve at r = l1 <= r*, which lands on the feasible side
                sol2, theta2 = run(mu * l1 + tau)
                iters += sol2.iterations
                rounds += 1
                if sol2.status is LpStatus.OPTIMAL:
                    l12 = float(np.sum(np.abs(theta2)))
                    if (l12 >= l1 - config.fixed_point_tol
                            and (best is None or l12 < best[0])):
                        best = (l12, theta2)
                    if best is None:
                        best = (l1, theta)   # residual <= mu*tol, acceptable
                    converged = True
                    break
            if phi > 0:
                r_lo = max(r_lo, r)
            else:
                r_hi = min(r_hi, r)
            r_next = l1
        else:
            # infeasible at this radius: the root lies above
            r_lo = max(r_lo, r)
            r_next = r_hi
        widths.append(r_hi - r_lo)
        stalled = len(widths) >= 2 and widths[-1] > 0.7 * widths[-2]
        if not (r_lo < r_next < r_hi) or stalled:
            r_next = 0.5 * (r_lo + r_hi)
        r = r_next

    if best is not None:
        l1, theta = best
        status = LpStatus.OPTIMAL if converged else LpStatus.ITERATION_LIMIT
        return _make_estimate(theta, status, iters, config.nonzero_threshold,
                              fp_rounds=rounds, fp_converged=converged)
    return _make_estimate(np.zeros(p), LpStatus.INFEASIBLE, iters,
                          config.nonzero_threshold, fp_rounds=rounds,
                          fp_converged=False)


def _residual(G, c, theta, mu, tau):
    """|c - G theta|_inf - (mu*|theta|_1 + tau): <= 0 exactly on the
    selector feasible set of (G, c)."""
    l1 = float(np.sum(np.abs(theta)))
    return float(np.max(np.abs(c - G @ theta))) - (mu * l1 + tau)


def _solve_from_gram(G, c, config):
    solve = _solve_nonneg if config.domain == "nonneg" else _solve_free
    est = solve(G, c, config)
    est.residual = _residual(G, c, est.theta, config.mu, config.tau)
    return est


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


def solve_dantzig(Z, y, tau, domain="nonneg", **kwargs):
    """Dantzig selector: the compensated solver with mu = 0 and Dhat = 0."""
    p = as_matrix(Z, "Z").shape[1]
    cfg = SelectorConfig(mu=0.0, tau=tau, compensation=np.zeros(p),
                         domain=domain, **kwargs)
    return solve_compensated_mu(Z, y, cfg)


def solve_missing_data_cmu(Z_tilde, y, pi=None, config=None, path="rescale"):
    """Compensated selector for a masked design.

    pi is the known missingness probability (scalar or per-column); pass
    None to estimate it from the zero frequency (pooled).  Two equivalent-
    in-spirit routes are exposed: path="rescale" rescales the masked design
    by 1/(1-pi) and runs the standard compensated selector; path="direct"
    keeps the masked design and solves the modified feasible set
    |Z~'(y(1-pi) - Z~ theta)/n + Dhat theta|_inf <= mu|theta|_1 + tau,
    which is the form used when pi had to be estimated.
    """
    if config is None:
        raise ValueError("config is required")
    Z_tilde = as_matrix(Z_tilde, "Z_tilde")
    y = as_vector(y, "y")
    masked = MaskedDesign(Z_tilde=Z_tilde)
    estimated = pi is None
    if estimated:
        check_no_dead_columns(masked)
        pi_val = estimate_pi(masked, mode="pooled")
    else:
        pi_val = pi
    dhat = sigma_hat(masked, pi_val)

    if path == "rescale":
        Z = rescale(masked, pi_val)
        cfg = replace(config, compensation=dhat.sigma_hat_sq)
        return solve_compensated_mu(Z, y, cfg)
    if path == "direct":
        pi_arr = np.atleast_1d(np.asarray(pi_val, dtype=float))
        if pi_arr.size != 1:
            raise ValueError("path='direct' uses the pooled form; pass scalar pi")
        pi_s = float(pi_arr[0])
        G = gram(Z_tilde, dhat.sigma_hat_sq)
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
