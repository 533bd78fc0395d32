"""Cone sensitivities of a Gram matrix and the error bounds built on them.

The l_q sensitivity is the minimum of |Psi delta|_inf over unit-l_q vectors
in the union of cones C_J = {delta : |delta_{J^c}|_1 <= |delta_J|_1} with
|J| <= s.  Because C_J grows with J, the minimum over |J| <= s is attained
at |J| = s, so only size-s supports are enumerated.

Exact values come from enumerating (support, sign pattern) pairs and
solving a few small LPs per pair.  The delta -> -delta symmetry and the
fact that a cone vector lies in the cone of its own s largest entries
leave s*2^(s-1) anchor LPs per support for kappa_inf, and a relaxation LP
per anchor bounds them all, so only the anchors whose bound can still win
are enumerated; kappa_one is exact when its best LP optimum is a genuine
unit-l1 vector, which it certifies.
A budget cap guards the combinatorial blow-up; past it, kappa_lower_bound
provides a valid linear-programming lower bound for any p.
"""

import math
import time
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .core import check_gram, gram
from .lp import LinearProgram, LpStatus, solve_lp

DEFAULT_BUDGET_CAP = 100_000
# kappa_one enumerates the sign orthants of J^c up to this p, so its result
# is always exact there; kappa_star enumerates exactly up to STAR_EXACT_P_MAX.
ORTHANT_P_MAX = 4
STAR_EXACT_P_MAX = 6

KIND_EXACT = "exact"
KIND_LOWER_BOUND = "lower_bound"


class BudgetExceededError(ValueError):
    """Raised when exact enumeration would exceed the LP budget cap."""


class SensitivityLpError(ValueError):
    """An enumerated LP ended other than OPTIMAL.

    Every such LP is feasible and bounded by construction (see
    ``_enumerate_cones``, ``_anchor_bounds`` and ``kappa_star``), so any
    other status is a solver failure, and skipping the LP could leave a
    bound that is too high.  Carries the status, the support J and signs
    sigma (None for the anchor relaxations of ``_anchor_bounds`` and
    ``kappa_star``) and the anchor coordinate (None for the unit-mass LPs
    of ``kappa_one``).
    """

    def __init__(self, status, J, sigma, anchor):
        self.status = status
        self.J = J
        self.sigma = sigma
        self.anchor = anchor
        signs = None if sigma is None else tuple(int(v) for v in sigma)
        super().__init__(f"sensitivity LP (J={J}, sigma={signs}, "
                         f"anchor={anchor}) ended {status.value}; "
                         f"its minimum is unknown")


@dataclass
class SensitivityResult:
    """A sensitivity value with provenance.

    kind is "exact" or "lower_bound"; q is the norm
    index (float, with inf for the sup norm) or None for coordinate-wise
    results, which carry the coordinate in ``coord``.  certificate (and its
    support J) is attached only when it provably attains the value.
    lp_count is the number of LPs solved, for kappa_inf_exact its anchor
    relaxations included.
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


def _enumerate_cones(psi, s, programs, supports=None):
    """Minimize over the cone LPs of size-s supports J and sign patterns.

    Variables are z = [v (s), a (p-s), b (p-s), t] with delta_J = sigma*v,
    delta_{J^c} = a - b and t the epigraph of |Psi delta|_inf.  J runs over
    ``supports`` (default: every size-s support), which must be in
    lexicographic order.  For each (J, sigma), in that order with sigma
    from all +1 to all -1, ``programs(J, Jc, sigma)`` yields
    (anchor, keywords): the coordinate the LP pins (or None) and the
    LinearProgram keywords (equality rows, bounds) of each LP to solve over
    the block rows [Psi_J sigma, Psi_Jc, -Psi_Jc | -1], their negation and
    the cone row.  The block is built once per (J, sigma), and only if
    ``programs`` yields an LP for it.  Returns (value, certificate, J,
    sigma, lp_count) for the first strictly smallest value.

    Every LP of the three callers is feasible and bounded: delta = e_j for
    an anchor j in J (or any j in J when there is none), plus e_k when the
    anchor k lies outside J, meets the cone row, the bounds and the unit
    mass, with t large; and t >= |Psi delta|_inf >= 0 bounds the objective.
    So an LP that is not OPTIMAL raises SensitivityLpError, never skipped.
    """
    p = psi.shape[0]
    k_j = p - s
    obj = np.zeros(s + 2 * k_j + 1)
    obj[-1] = 1.0
    b = np.zeros(2 * p + 1)
    cone = np.concatenate([-np.ones(s), np.ones(2 * k_j), [0.0]])
    best = np.inf
    best_cert = best_J = best_sigma = None
    lp_count = 0
    for J in combinations(range(p), s) if supports is None else supports:
        Jc = [j for j in range(p) if j not in J]
        for sigma in product((1.0, -1.0), repeat=s):
            sigma = np.array(sigma)
            A = None
            for anchor, rows in programs(J, Jc, sigma):
                if A is None:
                    M = np.hstack([psi[:, list(J)] * sigma, psi[:, Jc],
                                   -psi[:, Jc]])
                    A = np.vstack([np.hstack([M, -np.ones((p, 1))]),
                                   np.hstack([-M, -np.ones((p, 1))]),
                                   cone])
                sol = solve_lp(LinearProgram(c=obj, A_ub=A, b_ub=b, **rows))
                lp_count += 1
                if sol.status is not LpStatus.OPTIMAL:
                    raise SensitivityLpError(sol.status, J, sigma, anchor)
                if sol.objective_value < best:
                    best = sol.objective_value
                    z = sol.x
                    best_cert = _delta_from_parts(p, J, sigma, z[:s],
                                                  z[s:s + k_j],
                                                  z[s + k_j:s + 2 * k_j])
                    best_J, best_sigma = J, sigma
    return float(best), best_cert, best_J, best_sigma, lp_count


def kappa_inf_exact(psi, s, budget_cap=DEFAULT_BUDGET_CAP):
    """Exact sup-norm sensitivity by (support, signs, anchor) enumeration.

    Each cone LP fixes a size-s support J, a sign pattern sigma on J and
    an anchor k in J with sigma_k = +1 whose entry is forced to 1, and
    minimizes the epigraph of |Psi delta|_inf subject to the cone row and
    |delta|_inf <= 1.  Anchors outside J are never needed: if delta in C_J
    has |delta|_inf = 1, then delta also lies in C_J' for J' its s largest
    entries (|delta_J'|_1 >= |delta_J|_1 and |delta_J'c|_1 <= |delta_Jc|_1),
    and J' holds the anchor; the delta -> -delta symmetry makes its sign
    +1.  That is C(p, s)*s*2^(s-1) cone LPs.

    For s >= 2 a bound pass first solves the p relaxation LPs of
    ``_anchor_bounds``.  Every feasible delta of a cone LP of anchor k has
    delta_k = 1, |delta|_inf <= 1 and |delta|_1 <= 2|delta_J|_1 <= 2s, so it
    is feasible for anchor k's relaxation, whose value b_k is therefore at
    most every cone LP value of anchor k.  The anchors are then visited in
    stable ascending order of b_k, each with all of its cone LPs, up to the
    first anchor with b_k > best + 1e-7*(1 + |best|): no later anchor can
    hold the minimum.  At s = 1 the relaxation of anchor k has the same
    feasible set as its one cone LP (the cone row gives 1'(a + b) <= 1), so
    the bound pass would only repeat the enumeration and is skipped.

    Of equal values the one first in the lexicographic order of (J, sigma,
    anchor) wins, sigma ordered +1 before -1: the first strictly smallest
    of the full enumeration, whatever order the anchors are visited in.
    At most C(p, s)*s*2^(s-1) + p LPs (p fewer at s = 1); raises
    BudgetExceededError when they would exceed budget_cap, and
    SensitivityLpError when one ends other than OPTIMAL.  Use
    kappa_lower_bound past the cap.
    """
    psi = check_gram(psi)
    p = psi.shape[0]
    _check_s(p, s)
    _check_budget(math.comb(p, s) * s * 2 ** (s - 1) + (p if s > 1 else 0),
                  budget_cap, "exact enumeration needs ~{} LPs > cap {}; "
                  "use kappa_lower_bound")
    upper = np.concatenate([np.ones(s + 2 * (p - s)), [np.inf]])

    def cone_lps(anchors):
        def programs(J, Jc, sigma):
            for pos, k in enumerate(J):
                if sigma[pos] > 0 and k in anchors:
                    lower = np.zeros_like(upper)
                    lower[pos] = 1.0
                    yield k, {"lower": lower, "upper": upper}
        return programs

    t0 = time.perf_counter()
    if s == 1:
        value, cert, cert_J, _, lp_count = _enumerate_cones(
            psi, s, cone_lps(range(p)))
    else:
        bounds = _anchor_bounds(psi, s)
        lp_count = p
        best, cert = (np.inf,), None
        for k in np.argsort(bounds, kind="stable").tolist():
            if bounds[k] > best[0] + 1e-7 * (1.0 + abs(best[0])):
                break
            value, z, J, sigma, n = _enumerate_cones(
                psi, s, cone_lps((k,)),
                [J for J in combinations(range(p), s) if k in J])
            lp_count += n
            key = (value, J, tuple(-sigma), k)
            if key < best:
                best, cert = key, z
        value, cert_J = best[:2]
    return SensitivityResult(value=value, kind=KIND_EXACT, s=s, q=np.inf,
                             certificate=cert, certificate_J=cert_J,
                             lp_count=lp_count,
                             wall_time=time.perf_counter() - t0)


def kappa_one(psi, s, budget_cap=DEFAULT_BUDGET_CAP):
    """l1 sensitivity via the mass-split LP, one per (support, sign pattern).

    With delta_{J^c} = a - b and unit mass 1'(v + a + b) = 1, every unit-l1
    cone vector is feasible, so the least LP value is a lower bound.  If its
    optimum has |delta|_1 = 1 (within 1e-9), no index has both a_j and b_j
    positive, and delta is a unit cone vector attaining the bound: the
    result is exact, with delta as certificate.  Otherwise it is a lower
    bound without one.  For p <= ORTHANT_P_MAX each (J, sigma) is split
    further into the 2^(p-s) sign orthants of J^c (a_j or b_j held at 0),
    whose optima are all pair-free, so the result there is always exact.
    """
    psi = check_gram(psi)
    p = psi.shape[0]
    _check_s(p, s)
    orthants = p <= ORTHANT_P_MAX
    _check_budget(math.comb(p, s) * 2 ** (p if orthants else s), budget_cap,
                  "exact enumeration needs ~{} LPs > cap {}; "
                  "use kappa_lower_bound with kappa_q_from_inf")

    def unit_mass(J, Jc, sigma):
        k_j = len(Jc)
        nv = s + 2 * k_j
        # offset k_j holds b_j at 0 (delta_j >= 0), offset 0 holds a_j
        for held in product((k_j, 0), repeat=k_j) if orthants else [()]:
            upper = np.concatenate([np.ones(nv), [np.inf]])
            upper[[s + off + pos for pos, off in enumerate(held)]] = 0.0
            yield None, {"A_eq": np.concatenate([np.ones(nv), [0.0]])[None, :],
                         "b_eq": [1.0], "lower": np.zeros(nv + 1),
                         "upper": upper}

    t0 = time.perf_counter()
    best, cert, cert_J, _, lp_count = _enumerate_cones(psi, s, unit_mass)
    kind = KIND_EXACT
    if cert is None or abs(np.sum(np.abs(cert)) - 1.0) > 1e-9:
        kind, cert, cert_J = KIND_LOWER_BOUND, None, None
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


def kappa_star(psi, s, k, budget_cap=DEFAULT_BUDGET_CAP):
    """Coordinate-wise sensitivity: min |Psi delta|_inf over cone vectors
    with delta_k = 1.

    For p <= STAR_EXACT_P_MAX the (support, sign) enumeration solves the problem
    exactly (the anchor pins the scale, so each subproblem is a plain LP
    over unbounded cone variables).  For larger p a single relaxed LP is
    solved over {delta_k = 1, |delta|_inf <= M, sum-split l1 <= 2sM,
    1 <= M <= 2s}, a superset of the cone section as long as the M cap does
    not bind; the result is flagged as a lower bound.  That LP is feasible
    (delta = e_k, M = 1) and bounded (t >= 0), so one that is not OPTIMAL
    raises SensitivityLpError(status, None, None, k).
    """
    psi = check_gram(psi)
    p = psi.shape[0]
    _check_s(p, s)
    if not 0 <= k < p:
        raise ValueError(f"coordinate k must be in [0, {p}), got {k}")

    t0 = time.perf_counter()
    if p <= STAR_EXACT_P_MAX:
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
            yield k, {"A_eq": anchor[None, :], "b_eq": [1.0],
                      "lower": np.zeros_like(anchor)}

        value, cert, cert_J, _, lp_count = _enumerate_cones(psi, s, anchored)
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
    if sol.status is not LpStatus.OPTIMAL:
        raise SensitivityLpError(sol.status, None, None, k)
    return SensitivityResult(value=sol.objective_value, kind=KIND_LOWER_BOUND,
                             s=s, coord=k, lp_count=1,
                             wall_time=time.perf_counter() - t0)


def _anchor_bounds(psi, s):
    """Values b_k of the relaxation LPs of the p anchors k, in order.

    The LP of anchor k minimizes the epigraph t of |Psi delta|_inf over
    {delta_k = 1, |delta|_inf <= 1, |delta|_1 <= 2s}, with delta = a - b,
    a, b in [0, 1] and b_k held at 0.  It is feasible (delta = e_k, as
    1 <= 2s) and bounded (t >= 0), so one that is not OPTIMAL raises
    SensitivityLpError(status, None, None, k).
    """
    p = psi.shape[0]
    nv = 2 * p + 1                           # a, b, t
    l1row = np.concatenate([np.ones(2 * p), [0.0]])
    Mpsi = np.hstack([psi, -psi, -np.ones((p, 1))])
    Mneg = np.hstack([-psi, psi, -np.ones((p, 1))])
    A = np.vstack([l1row, Mpsi, Mneg])
    b = np.concatenate([[2.0 * s], np.zeros(2 * p)])
    obj = np.zeros(nv)
    obj[-1] = 1.0
    bounds = np.empty(p)
    for k in range(p):
        lower = np.zeros(nv)
        upper = np.concatenate([np.ones(2 * p), [np.inf]])
        lower[k] = 1.0
        upper[p + k] = 0.0
        sol = solve_lp(LinearProgram(c=obj, A_ub=A, b_ub=b,
                                     lower=lower, upper=upper))
        if sol.status is not LpStatus.OPTIMAL:
            raise SensitivityLpError(sol.status, None, None, k)
        bounds[k] = sol.objective_value
    return bounds


def kappa_lower_bound(psi, s):
    """LP lower bound on kappa_inf(s) for any p.

    Relaxes the union of cone sections {|delta|_inf = 1} to
    {delta_k = 1, |delta|_inf <= 1, |delta|_1 <= 2s} and minimizes the
    epigraph of |Psi delta|_inf over the p anchor choices (``_anchor_bounds``).
    The anchor delta_k = -1 is not needed: swapping a and b maps it onto
    delta_k = +1 and leaves the relaxed set and |Psi delta|_inf unchanged.
    """
    psi = check_gram(psi)
    p = psi.shape[0]
    _check_s(p, s)
    t0 = time.perf_counter()
    best = min(_anchor_bounds(psi, s))
    return SensitivityResult(value=float(best), kind=KIND_LOWER_BOUND, s=s,
                             q=np.inf, lp_count=p,
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
