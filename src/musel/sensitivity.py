"""Cone sensitivities of a Gram matrix and the error bounds built on them.

The l_q sensitivity is the minimum of |Psi delta|_inf over unit-l_q vectors
in the union of cones C_J = {delta : |delta_{J^c}|_1 <= |delta_J|_1} with
|J| <= s.  Because C_J grows with J, the minimum over |J| <= s is attained
at |J| = s, so only size-s supports are enumerated.

Exact values come from enumerating (support, sign pattern, anchor
coordinate) and solving one small LP per combination.  A budget cap guards
the combinatorial blow-up; past it, kappa_lower_bound provides a valid
linear-programming lower bound for any p.
"""

import math
import time
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .core import check_gram, gram
from .lp import LinearProgram, LpStatus, solve_lp

DEFAULT_BUDGET_CAP = 100_000

KIND_EXACT = "exact"
KIND_LOWER_BOUND = "lower_bound"
KIND_BRUTEFORCE = "bruteforce_approx"


class BudgetExceededError(ValueError):
    """Raised when exact enumeration would exceed the LP budget cap."""


@dataclass
class SensitivityResult:
    """A sensitivity value with provenance.

    kind is "exact", "lower_bound" or "bruteforce_approx"; q is the norm
    index (float, with inf for the sup norm) or None for coordinate-wise
    results, which carry the coordinate in ``coord``.  certificate (and its
    support J) is attached only when it provably attains the value.
    """

    value: float
    kind: str
    s: int
    q: float = None
    coord: int = None
    certificate: np.ndarray = None
    certificate_J: tuple = None
    lp_count: int = 0
    wall_time: float = 0.0

    def to_dict(self):
        q = self.q
        if q is not None:
            q = "inf" if math.isinf(q) else q
        return {
            "value": self.value,
            "kind": self.kind,
            "s": self.s,
            "q": q if self.coord is None else f"star:{self.coord}",
            "certificate": None if self.certificate is None
            else list(self.certificate),
            "lp_count": self.lp_count,
            "wall_time": self.wall_time,
        }


def in_cone(delta, J, tol=1e-12):
    """Whether |delta_{J^c}|_1 <= |delta_J|_1 holds (within tol)."""
    delta = np.asarray(delta, dtype=float)
    mask = np.zeros(delta.shape[0], dtype=bool)
    mask[list(J)] = True
    return bool(np.sum(np.abs(delta[~mask])) <= np.sum(np.abs(delta[mask])) + tol)


def _delta_from_parts(p, J, sigma, v, a, b):
    delta = np.zeros(p)
    delta[list(J)] = sigma * v
    Jc = [j for j in range(p) if j not in set(J)]
    delta[Jc] = a - b
    return delta


def _check_s(p, s):
    if not 1 <= s <= p:
        raise ValueError(f"s must be in [1, {p}], got {s}")


def _check_budget(planned, budget_cap, message):
    """Raise BudgetExceededError with ``message.format(planned, budget_cap)``
    when an enumeration plans more LPs than the cap allows."""
    if planned > budget_cap:
        raise BudgetExceededError(message.format(planned, budget_cap))


def _enumerate_cones(psi, s, programs):
    """Minimize over the cone LPs of every size-s support J and sign pattern.

    Variables are z = [v (s), a (p-s), b (p-s), t] with delta_J = sigma*v,
    delta_{J^c} = a - b and t the epigraph of |Psi delta|_inf.  For each
    (J, sigma), in lexicographic order, the block rows
    [Psi_J sigma, Psi_Jc, -Psi_Jc | -1], their negation and the cone row
    are built once; ``programs(J, Jc, sigma)`` yields the LinearProgram
    keywords (equality rows, bounds) of each LP to solve over them.
    Returns (value, certificate, J, lp_count) for the first strictly
    smallest OPTIMAL value.
    """
    p = psi.shape[0]
    best = np.inf
    best_cert = None
    best_J = None
    lp_count = 0
    for J in combinations(range(p), s):
        Jc = [j for j in range(p) if j not in set(J)]
        k_j = len(Jc)
        nv = s + 2 * k_j
        obj = np.zeros(nv + 1)
        obj[-1] = 1.0
        b = np.zeros(2 * p + 1)
        for sigma in product((1.0, -1.0), repeat=s):
            sigma = np.array(sigma)
            M = np.hstack([psi[:, list(J)] * sigma, psi[:, Jc], -psi[:, Jc]])
            cone = np.concatenate([-np.ones(s), np.ones(2 * k_j), [0.0]])
            A = np.vstack([
                np.hstack([M, -np.ones((p, 1))]),
                np.hstack([-M, -np.ones((p, 1))]),
                cone,
            ])
            for rows in programs(J, Jc, sigma):
                sol = solve_lp(LinearProgram(c=obj, A_ub=A, b_ub=b, **rows))
                lp_count += 1
                if sol.status is LpStatus.OPTIMAL and sol.objective_value < best:
                    best = sol.objective_value
                    z = sol.x
                    best_cert = _delta_from_parts(p, J, sigma, z[:s],
                                                  z[s:s + k_j],
                                                  z[s + k_j:s + 2 * k_j])
                    best_J = J
    return float(best), best_cert, best_J, lp_count


def kappa_inf_exact(psi, s, budget_cap=DEFAULT_BUDGET_CAP):
    """Exact sup-norm sensitivity by (support, signs, anchor) enumeration.

    Each subproblem fixes a size-s support J, a sign pattern on J, and an
    anchor coordinate forced to 1 (covering |delta|_inf = 1 up to the
    delta -> -delta symmetry), and minimizes the epigraph of
    |Psi delta|_inf subject to the cone row.  Raises BudgetExceededError
    when the enumeration would exceed budget_cap LPs; use
    kappa_lower_bound then.
    """
    psi = check_gram(psi)
    p = psi.shape[0]
    _check_s(p, s)
    _check_budget(math.comb(p, s) * (2 ** s) * 2 * p, budget_cap,
                  "exact enumeration needs ~{} LPs > cap {}; "
                  "use kappa_lower_bound")

    def anchors(J, Jc, sigma):
        k_j = len(Jc)
        nv = s + 2 * k_j
        for anchor in range(p):
            lower = np.zeros(nv + 1)
            upper = np.concatenate([np.ones(nv), [np.inf]])
            if anchor in J:
                pos = J.index(anchor)
                if sigma[pos] < 0:
                    continue            # anchor at +1 needs sigma=+1 there
                lower[pos] = 1.0
            else:
                pos = Jc.index(anchor)
                lower[s + pos] = 1.0
                upper[s + k_j + pos] = 0.0
            yield {"lower": lower, "upper": upper}

    t0 = time.perf_counter()
    value, cert, cert_J, lp_count = _enumerate_cones(psi, s, anchors)
    return SensitivityResult(value=value, kind=KIND_EXACT, s=s, q=np.inf,
                             certificate=cert, certificate_J=cert_J,
                             lp_count=lp_count,
                             wall_time=time.perf_counter() - t0)


def _min_linf_on_l1_sphere(psi, s, n_samples=4000, seed=0):
    """Brute-force min of |Psi delta|_inf over the unit l1 sphere inside the
    cones, by seeded sampling plus pattern-search polish (upper bound)."""
    from .core import pattern_search_min, _project_to_cone

    p = psi.shape[0]
    rng = np.random.default_rng(seed)
    best = np.inf
    for J in combinations(range(p), s):
        mask = np.zeros(p, dtype=bool)
        mask[list(J)] = True

        def fun(d, _m=mask):
            d = _project_to_cone(d, _m)
            l1 = np.sum(np.abs(d))
            if l1 < 1e-14:
                return np.inf
            return float(np.max(np.abs(psi @ (d / l1))))

        starts = [np.eye(p)[j] for j in J]
        for _ in range(n_samples // math.comb(p, s) + 8):
            d = rng.standard_normal(p)
            starts.append(d / np.sum(np.abs(d)))
        cand = min(starts, key=fun)
        _, val = pattern_search_min(fun, cand, step0=0.5)
        best = min(best, val)
    return float(best)


def kappa_one(psi, s, budget_cap=DEFAULT_BUDGET_CAP, promote_p_max=4):
    """l1 sensitivity via the mass-split LP, one per (support, sign pattern).

    The split-variable representation can in principle admit slack, so the
    result is labeled a lower bound; for p <= promote_p_max it is
    cross-checked against a brute-force scan of the unit l1 sphere and
    promoted to exact when the two agree within 1e-5.
    """
    psi = check_gram(psi)
    p = psi.shape[0]
    _check_s(p, s)
    _check_budget(math.comb(p, s) * (2 ** s), budget_cap,
                  "exact enumeration needs ~{} LPs > cap {}; "
                  "use kappa_lower_bound with kappa_q_from_inf")

    def unit_mass(J, Jc, sigma):
        nv = s + 2 * len(Jc)
        yield {"A_eq": np.concatenate([np.ones(nv), [0.0]])[None, :],
               "b_eq": [1.0], "lower": np.zeros(nv + 1),
               "upper": np.concatenate([np.ones(nv), [np.inf]])}

    t0 = time.perf_counter()
    best, best_cert, best_J, lp_count = _enumerate_cones(psi, s, unit_mass)

    kind = KIND_LOWER_BOUND
    cert = None
    cert_J = None
    if p <= promote_p_max:
        bf = _min_linf_on_l1_sphere(psi, s)
        if abs(bf - best) <= 1e-5:
            kind = KIND_EXACT
            cert = best_cert
            cert_J = best_J
    return SensitivityResult(value=best, kind=kind, s=s, q=1.0,
                             certificate=cert, certificate_J=cert_J,
                             lp_count=lp_count,
                             wall_time=time.perf_counter() - t0)


def kappa_q_from_inf(kappa_inf, s, q):
    """Lower bound kappa_q(s) >= (2s)^(-1/q) * kappa_inf(s); identity at q=inf."""
    if not (q >= 1):
        raise ValueError(f"q must lie in [1, inf], got {q}")
    if math.isinf(q):
        return float(kappa_inf)
    return float((2.0 * s) ** (-1.0 / q) * kappa_inf)


def kappa_star(psi, s, k, budget_cap=DEFAULT_BUDGET_CAP, exact_p_max=6):
    """Coordinate-wise sensitivity: min |Psi delta|_inf over cone vectors
    with delta_k = 1.

    For p <= exact_p_max the (support, sign) enumeration solves the problem
    exactly (the anchor pins the scale, so each subproblem is a plain LP
    over unbounded cone variables).  For larger p a single relaxed LP is
    solved over {delta_k = 1, |delta|_inf <= M, sum-split l1 <= 2sM,
    1 <= M <= 2s}, a superset of the cone section as long as the M cap does
    not bind; the result is flagged as a lower bound.
    """
    psi = check_gram(psi)
    p = psi.shape[0]
    _check_s(p, s)
    if not 0 <= k < p:
        raise ValueError(f"coordinate k must be in [0, {p}), got {k}")

    t0 = time.perf_counter()
    if p <= exact_p_max:
        _check_budget(math.comb(p, s) * (2 ** s), budget_cap,
                      "~{} LPs > cap {}")

        def anchored(J, Jc, sigma):
            if k in J and sigma[J.index(k)] < 0:
                return
            k_j = len(Jc)
            anchor = np.zeros(s + 2 * k_j + 1)
            if k in J:
                anchor[J.index(k)] = 1.0
            else:
                pos = Jc.index(k)
                anchor[s + pos] = 1.0
                anchor[s + k_j + pos] = -1.0
            yield {"A_eq": anchor[None, :], "b_eq": [1.0],
                   "lower": np.zeros_like(anchor)}

        value, cert, cert_J, lp_count = _enumerate_cones(psi, s, anchored)
        return SensitivityResult(value=value, kind=KIND_EXACT, s=s, coord=k,
                                 certificate=cert, certificate_J=cert_J,
                                 lp_count=lp_count,
                                 wall_time=time.perf_counter() - t0)

    # relaxed single LP: vars [a (p), b (p), M, t]
    nv = 2 * p + 2
    A_rows = []
    b_rows = []
    row = np.zeros(nv)
    row[:2 * p] = 1.0
    row[2 * p] = -2.0 * s
    A_rows.append(row)                      # sum(a+b) <= 2sM
    b_rows.append(0.0)
    for j in range(p):
        r1 = np.zeros(nv); r1[j] = 1.0; r1[2 * p] = -1.0
        r2 = np.zeros(nv); r2[p + j] = 1.0; r2[2 * p] = -1.0
        A_rows.extend([r1, r2])             # a_j <= M, b_j <= M
        b_rows.extend([0.0, 0.0])
    eps_pos = np.hstack([psi, -psi, np.zeros((p, 1)), -np.ones((p, 1))])
    eps_neg = np.hstack([-psi, psi, np.zeros((p, 1)), -np.ones((p, 1))])
    A = np.vstack([np.array(A_rows), eps_pos, eps_neg])
    b = np.concatenate([b_rows, np.zeros(2 * p)])
    anchor = np.zeros(nv)
    anchor[k] = 1.0
    anchor[p + k] = -1.0
    obj = np.zeros(nv)
    obj[-1] = 1.0
    lower = np.zeros(nv)
    lower[2 * p] = 1.0
    upper = np.full(nv, np.inf)
    upper[2 * p] = 2.0 * s
    sol = solve_lp(LinearProgram(c=obj, A_ub=A, b_ub=b,
                                 A_eq=anchor[None, :], b_eq=[1.0],
                                 lower=lower, upper=upper))
    val = sol.objective_value if sol.status is LpStatus.OPTIMAL else 0.0
    return SensitivityResult(value=float(val), kind=KIND_LOWER_BOUND, s=s,
                             coord=k, lp_count=1,
                             wall_time=time.perf_counter() - t0)


def kappa_lower_bound(psi, s):
    """LP lower bound on kappa_inf(s) for any p.

    Relaxes the union of cone sections {|delta|_inf = 1} to
    {delta_k = +-1, |delta|_inf <= 1, |delta|_1 <= 2s} and minimizes the
    epigraph of |Psi delta|_inf over the 2p anchor choices.
    """
    psi = check_gram(psi)
    p = psi.shape[0]
    _check_s(p, s)
    t0 = time.perf_counter()
    nv = 2 * p + 1                           # a, b, t
    l1row = np.concatenate([np.ones(2 * p), [0.0]])
    Mpsi = np.hstack([psi, -psi, -np.ones((p, 1))])
    Mneg = np.hstack([-psi, psi, -np.ones((p, 1))])
    A = np.vstack([l1row, Mpsi, Mneg])
    b = np.concatenate([[2.0 * s], np.zeros(2 * p)])
    obj = np.zeros(nv)
    obj[-1] = 1.0
    best = np.inf
    lp_count = 0
    for k in range(p):
        for sign in (1.0, -1.0):
            lower = np.zeros(nv)
            upper = np.concatenate([np.ones(2 * p), [np.inf]])
            if sign > 0:
                lower[k] = 1.0
                upper[p + k] = 0.0
            else:
                lower[p + k] = 1.0
                upper[k] = 0.0
            sol = solve_lp(LinearProgram(c=obj, A_ub=A, b_ub=b,
                                         lower=lower, upper=upper))
            lp_count += 1
            if sol.status is LpStatus.OPTIMAL and sol.objective_value < best:
                best = sol.objective_value
    return SensitivityResult(value=float(best), kind=KIND_LOWER_BOUND, s=s,
                             q=np.inf, lp_count=lp_count,
                             wall_time=time.perf_counter() - t0)


def empirical_gram(Z, D_hat=None):
    """Plug-in Gram estimate Z'Z/n - diag(Dhat) from noisy observations.

    May fail to be positive semidefinite; the sensitivity computations do
    not require psd-ness.
    """
    if D_hat is not None:
        D_hat = np.asarray(getattr(D_hat, "sigma_hat_sq", D_hat), dtype=float)
    return gram(Z, D_hat)


def _ratio(num, kappa):
    if kappa is None:
        return None
    k = float(getattr(kappa, "value", kappa))
    return np.inf if k <= 0 else num / k


def theorem1_bounds(nu, kappas, l1_theta_star, kappa_stars=None):
    """Error bounds from sensitivities: |error|_q <= nu/kappa_q(s) per
    requested q, coordinate-wise via kappa_k*, and the prediction bound
    min(nu^2/kappa_1, 2*nu*|theta*|_1).

    kappas maps q -> value (SensitivityResult or float); lower-bound kappas
    give conservative (larger, still valid) bounds.  Nonpositive kappas
    yield +inf, flagged rather than raised.
    """
    lq = {q: _ratio(nu, v) for q, v in kappas.items()}
    coord = {}
    if kappa_stars is not None:
        coord = {k: _ratio(nu, v) for k, v in kappa_stars.items()}
    pred_terms = [2.0 * nu * l1_theta_star]
    if 1.0 in lq and lq[1.0] is not None and np.isfinite(lq[1.0]):
        k1 = float(getattr(kappas[1.0], "value", kappas[1.0]))
        pred_terms.append(nu ** 2 / k1 if k1 > 0 else np.inf)
    prediction = min(pred_terms)
    flags = sorted([q for q, v in lq.items() if not np.isfinite(v)])
    return {"lq": lq, "coord": coord, "prediction": prediction,
            "infinite_q": flags}


def c_q(q):
    """Interpolation constant 2^(-1/q-1/2) / (1 + (q-1)^(-1/q)) for 1<q<=2."""
    if not 1 < q <= 2:
        raise ValueError(f"c_q is defined for 1 < q <= 2, got {q}")
    return 2.0 ** (-1.0 / q - 0.5) / (1.0 + (q - 1.0) ** (-1.0 / q))


def theorem2_bounds(nu, s, q=2.0, kappa_re_s=None, kappa_re_2s=None, rho=None):
    """Error bounds under restricted-eigenvalue / coherence assumptions.

    Returns the labeled bounds that the supplied constants allow:
    l1 <= 4*nu*s/k_RE(s); prediction <= 4*nu^2*s/k_RE(s);
    lq <= 4*nu*s^(1/q)/k_RE(2s) for 1<q<=2; and under coherence rho<1/(2s),
    lq <= (2s)^(1/q)*nu/(1-2*rho*s) (refused with an explanation otherwise).
    """
    out = {}
    if kappa_re_s is not None:
        k = float(kappa_re_s)
        out["l1_re"] = _ratio(4.0 * nu * s, k)
        out["prediction_re"] = _ratio(4.0 * nu ** 2 * s, k)
    if kappa_re_2s is not None:
        if not 1 < q <= 2:
            raise ValueError(f"the RE(2s) bound needs 1 < q <= 2, got {q}")
        out["lq_re2s"] = _ratio(4.0 * nu * s ** (1.0 / q), float(kappa_re_2s))
    if rho is not None:
        if rho >= 1.0 / (2 * s):
            raise ValueError(
                f"coherence bound needs rho < 1/(2s) = {1.0 / (2 * s):.6g}, "
                f"got rho = {rho}; the bound is vacuous there")
        expo = 0.0 if math.isinf(q) else 1.0 / q
        out["lq_coherence"] = (2.0 * s) ** expo * nu / (1.0 - 2.0 * rho * s)
    return out


def theorem3_ci(theta_hat, mu_eps, tau_eps, kappa_hat_q, kappa_hat_1,
                kappa_hat_star=None):
    """Data-driven confidence-interval radii from empirical sensitivities.

    radius_q = 2*(mu|theta_hat|_1 + tau) / (kappa_hat_q * (1 - mu/kappa_hat_1)_+),
    with x_+ = max(0, x) and 1/0 = inf (flagged, not raised).  The empirical
    kappas may be computed at any s' >= s; the radii stay valid.
    """
    if hasattr(theta_hat, "l1_norm"):
        l1 = float(theta_hat.l1_norm)
    else:
        l1 = float(np.sum(np.abs(np.asarray(theta_hat, dtype=float))))
    num = 2.0 * (mu_eps * l1 + tau_eps)
    k1 = float(getattr(kappa_hat_1, "value", kappa_hat_1))
    shrink = np.inf if k1 <= 0 else mu_eps / k1
    factor = max(0.0, 1.0 - shrink)
    radius = {}
    for q, v in kappa_hat_q.items():
        kq = float(getattr(v, "value", v))
        denom = kq * factor
        radius[q] = np.inf if denom <= 0 else num / denom
    coord_radius = {}
    if kappa_hat_star is not None:
        for k, v in kappa_hat_star.items():
            kk = float(getattr(v, "value", v))
            denom = kk * factor
            coord_radius[k] = np.inf if denom <= 0 else num / denom
    degenerate = factor == 0.0
    return {"radius": radius, "coord_radius": coord_radius,
            "shrink_factor": factor, "degenerate": degenerate}
