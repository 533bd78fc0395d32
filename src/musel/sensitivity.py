"""Cone sensitivities of a Gram matrix and the error bounds built on them.

The l_q sensitivity is the minimum of |Psi delta|_inf over unit-l_q vectors
in the union of cones C_J = {delta : |delta_{J^c}|_1 <= |delta_J|_1} with
|J| <= s.  Because C_J grows with J, the minimum over |J| <= s is attained
at |J| = s, so only size-s supports are enumerated.

Every LP here has one variable layout, z = (a, b, t) over all p
coordinates with delta = a - b, and the rows of ``_epigraph`` making t the
epigraph of |Psi delta|_inf; a cone row (per support) or an l1 row (the
anchor relaxations) is stacked on them, and signs, anchors and orthants
are bounds on a and b.  Exact values come from enumerating (support, sign
pattern) pairs and solving a few small LPs per pair.  The delta -> -delta
symmetry and the fact that a cone vector lies in the cone of its own s
largest entries leave s*2^(s-1) anchor LPs per support for kappa_inf, and a
relaxation LP per anchor bounds them all, so only the anchors whose bound
can still win are enumerated; kappa_one is exact when its best LP optimum
is a genuine unit-l1 vector, which it certifies.
A budget caps the LPs a call solves; past it the result is a lower bound
from kappa_inf_exact's anchor walk, stopped early (kappa_lower_bound is the
walk with no visits).
"""

import math
import time
from dataclasses import dataclass, replace
from itertools import combinations, product

import numpy as np

from .core import check_gram
from .lp import LinearProgram, LpStatus, solve_lp

DEFAULT_BUDGET_CAP = 100_000
# kappa_one enumerates the sign orthants of J^c up to this p, so its result
# is always exact there; kappa_star enumerates exactly up to STAR_EXACT_P_MAX.
ORTHANT_P_MAX = 4
STAR_EXACT_P_MAX = 6

KIND_EXACT = "exact"
KIND_LOWER_BOUND = "lower_bound"


class SensitivityLpError(ValueError):
    """An enumerated LP ended other than OPTIMAL.

    Every such LP is feasible and bounded by construction (see
    ``_enumerate_cones`` and ``_anchor_bounds``), so any other status is a
    solver failure, and skipping the LP could leave a bound that is too
    high.  Carries the status, the support J and signs sigma (None for the
    anchor relaxations of ``_anchor_bounds``, which kappa_inf_exact solves
    first whatever its budget) and the anchor coordinate (None for the
    unit-mass LPs of ``kappa_one``).
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
    lp_count is the number of LPs solved, for kappa_inf_exact its p anchor
    relaxations included, which run whatever the budget.
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


def _check_s(p, s):
    if not 1 <= s <= p:
        raise ValueError(f"s must be in [1, {p}], got {s}")


def _epigraph(psi):
    """The rows [Psi, -Psi, -1] and [-Psi, Psi, -1] over z = (a, b, t):
    with delta = a - b, z meets them (<= 0) iff t >= |Psi delta|_inf."""
    t = -np.ones((psi.shape[0], 1))
    return np.vstack([np.hstack([psi, -psi, t]), np.hstack([-psi, psi, t])])


def _min_t(A, b, where, **rows):
    """Solve min t over z = (a, b, t) with A z <= b and the LinearProgram
    keywords ``rows``; raise SensitivityLpError(status, *where) unless the
    solve ends OPTIMAL."""
    obj = np.zeros(A.shape[1])
    obj[-1] = 1.0
    sol = solve_lp(LinearProgram(c=obj, A_ub=A, b_ub=b, **rows))
    if sol.status is not LpStatus.OPTIMAL:
        raise SensitivityLpError(sol.status, *where)
    return sol


def _anchored(k, upper):
    """The LinearProgram bounds that pin delta_k = 1 over z = (a, b, t):
    a_k held at 1 and b_k at 0 on a copy of ``upper``, every other lower
    bound 0."""
    p = upper.shape[0] // 2
    lower = np.zeros(upper.shape[0])
    lower[k] = 1.0
    upper = upper.copy()
    upper[k] = 1.0
    upper[p + k] = 0.0
    return {"lower": lower, "upper": upper}


def _anchor_lps(k):
    """``_enumerate_cones`` programs: one LP pinned at delta_k = 1 per
    (J, sigma), skipping the sign patterns that hold a_k at 0."""
    def programs(J, sigma, upper):
        if k not in J or sigma[J.index(k)] > 0:
            yield k, _anchored(k, upper)
    return programs


def _enumerate_cones(psi, s, programs, box=1.0, supports=None):
    """Minimize over the cone LPs of size-s supports J and sign patterns.

    The rows of support J are ``_epigraph(psi)`` and the cone row
    sum_{J^c}(a + b) - sum_J(a + b) <= 0.  J runs over ``supports``
    (default: every size-s support), which must be in lexicographic order.
    For each (J, sigma), in that order with sigma from all +1 to all -1,
    ``programs(J, sigma, upper)`` yields (anchor, keywords): the
    coordinate the LP pins (or None) and the LinearProgram keywords
    (bounds, equality rows) of each LP to solve.  ``upper`` is ``box`` on
    a and b and inf on t, with the sign holds: b_j at 0 where sigma_j = +1,
    a_j at 0 where sigma_j = -1; a program that changes it copies it first.
    Returns (value, certificate a - b, J, sigma, lp_count) for the first
    strictly smallest value.

    Every LP of the three callers is feasible and bounded: delta = e_j for
    an anchor j in J (or any j in J when there is none), plus e_k when the
    anchor k lies outside J, meets the cone row, the bounds and the unit
    mass, with t large; and t >= |Psi delta|_inf >= 0 bounds the objective.
    So an LP that is not OPTIMAL raises SensitivityLpError, never skipped.
    """
    p = psi.shape[0]
    epigraph = _epigraph(psi)
    b = np.zeros(2 * p + 1)
    best = np.inf
    best_cert = best_J = best_sigma = None
    lp_count = 0
    for J in combinations(range(p), s) if supports is None else supports:
        cone = np.ones(2 * p + 1)
        cone[list(J)] = cone[[p + j for j in J]] = -1.0
        cone[-1] = 0.0
        A = np.vstack([epigraph, cone])
        for sigma in product((1.0, -1.0), repeat=s):
            sigma = np.array(sigma)
            upper = np.full(2 * p + 1, box)
            upper[-1] = np.inf
            upper[[j if sg < 0 else p + j for j, sg in zip(J, sigma)]] = 0.0
            for anchor, rows in programs(J, sigma, upper):
                sol = _min_t(A, b, (J, sigma, anchor), **rows)
                lp_count += 1
                if sol.objective_value < best:
                    best = sol.objective_value
                    best_cert = sol.x[:p] - sol.x[p:2 * p]
                    best_J, best_sigma = J, sigma
    return float(best), best_cert, best_J, best_sigma, lp_count


def kappa_inf_exact(psi, s, budget_cap=DEFAULT_BUDGET_CAP):
    """Sup-norm sensitivity by (support, signs, anchor) enumeration: exact,
    or a lower bound once budget_cap LPs are spent.

    Each cone LP fixes a size-s support J, a sign pattern sigma on J and
    an anchor k in J with sigma_k = +1 whose entry is forced to 1, and
    minimizes the epigraph of |Psi delta|_inf subject to the cone row and
    |delta|_inf <= 1.  Anchors outside J are never needed: if delta in C_J
    has |delta|_inf = 1, then delta also lies in C_J' for J' its s largest
    entries (|delta_J'|_1 >= |delta_J|_1 and |delta_J'c|_1 <= |delta_Jc|_1),
    and J' holds the anchor; the delta -> -delta symmetry makes its sign
    +1.  That is C(p, s)*s*2^(s-1) cone LPs.

    A bound pass first solves the p relaxation LPs of ``_anchor_bounds``.
    Every feasible delta of a cone LP of anchor k has delta_k = 1,
    |delta|_inf <= 1 and |delta|_1 <= 2|delta_J|_1 <= 2s, so it is feasible
    for anchor k's relaxation, whose value b_k is therefore at most every
    cone LP value of anchor k.  The anchors are then visited in stable
    ascending order of b_k, each with its C(p-1, s-1)*2^(s-1) cone LPs, up
    to the first anchor with b_k > best + 1e-7*(1 + |best|): no later
    anchor can hold the minimum.  A visit runs only while lp_count stays
    within budget_cap; a walk stopped by the budget is a "lower_bound"
    without certificate, min(best, b_k) with k the next anchor, since every
    unvisited anchor's cone LPs are at least its b_k >= this b_k.

    Of equal values the one first in the lexicographic order of (J, sigma,
    anchor) wins, sigma ordered +1 before -1: the first strictly smallest
    of the full enumeration, whatever order the anchors are visited in.
    Raises SensitivityLpError when an LP ends other than OPTIMAL.
    """
    psi = check_gram(psi)
    p = psi.shape[0]
    _check_s(p, s)

    t0 = time.perf_counter()
    bounds = _anchor_bounds(psi, s)
    visit = math.comb(p - 1, s - 1) * 2 ** (s - 1)
    lp_count = p
    best, cert = (np.inf,), None
    for k in np.argsort(bounds, kind="stable").tolist():
        if bounds[k] > best[0] + 1e-7 * (1.0 + abs(best[0])):
            break
        if lp_count + visit > budget_cap:
            best, cert = (min(best[0], bounds[k]), None), None
            break
        value, z, J, sigma, n = _enumerate_cones(
            psi, s, _anchor_lps(k),
            supports=[J for J in combinations(range(p), s) if k in J])
        lp_count += n
        key = (value, J, tuple(-sigma), k)
        if key < best:
            best, cert = key, z
    value, cert_J = best[:2]
    kind = KIND_EXACT if cert is not None else KIND_LOWER_BOUND
    return SensitivityResult(value=float(value), kind=kind, s=s, q=np.inf,
                             certificate=cert, certificate_J=cert_J,
                             lp_count=lp_count,
                             wall_time=time.perf_counter() - t0)


# kappa_lower_bound calls the walk by this name, so that perfbench/probes.py,
# which wraps both public names, does not record one call inside the other.
_walk = kappa_inf_exact


def kappa_one(psi, s, budget_cap=DEFAULT_BUDGET_CAP):
    """l1 sensitivity via the mass-split LP, one per (support, sign pattern).

    With unit mass 1'(a + b) = 1, every unit-l1 cone vector is feasible, so
    the least LP value is a lower bound.  If its optimum has |delta|_1 = 1
    (within 1e-9), no index has both a_j and b_j positive, and delta is a
    unit cone vector attaining the bound: the result is exact, with delta
    as certificate.  Otherwise it is a lower bound without one.  For
    p <= ORTHANT_P_MAX each (J, sigma) is split further into the 2^(p-s)
    sign orthants of J^c (a_j or b_j held at 0), whose optima are all
    pair-free, so the result there is always exact.  Swapping a and b maps
    the LPs of -sigma (and the negated orthants) onto those of sigma with
    the same values, so only the sign patterns with sigma_1 = +1 are
    solved: C(p, s)*2^(s-1) LPs, or C(p, s)*2^(p-1) with orthants; past
    budget_cap, the l1 reduction of kappa_inf_exact(psi, s, budget_cap).
    """
    psi = check_gram(psi)
    p = psi.shape[0]
    _check_s(p, s)
    orthants = p <= ORTHANT_P_MAX
    if math.comb(p, s) * 2 ** ((p if orthants else s) - 1) > budget_cap:
        return _from_inf(kappa_inf_exact(psi, s, budget_cap), s, 1.0)
    mass = np.concatenate([np.ones(2 * p), [0.0]])[None, :]

    def unit_mass(J, sigma, upper):
        if sigma[0] < 0:
            return
        Jc = [j for j in range(p) if j not in J]
        # an orthant holds b_j (delta_j >= 0) or a_j at 0 for each j in J^c
        for held in product((p, 0), repeat=len(Jc)) if orthants else [()]:
            upper_o = upper.copy()
            upper_o[[off + j for off, j in zip(held, Jc)]] = 0.0
            yield None, {"A_eq": mass, "b_eq": [1.0], "upper": upper_o}

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


def _from_inf(base, s, q):
    """The l_q lower bound (2s)^(-1/q) * kappa_inf that the q = inf result
    ``base`` implies; no certificate attains it."""
    return replace(base, value=kappa_q_from_inf(base.value, s, q), q=q,
                   kind=KIND_LOWER_BOUND, certificate=None,
                   certificate_J=None)


def kappa_star(psi, s, k, budget_cap=DEFAULT_BUDGET_CAP):
    """Coordinate-wise sensitivity: min |Psi delta|_inf over cone vectors
    with delta_k = 1.

    For p <= STAR_EXACT_P_MAX the (support, sign) enumeration solves the
    problem exactly: each cone LP holds a_k at 1 and b_k at 0 (skipping
    the sign patterns that hold a_k at 0), over unbounded a and b.  For
    larger p, or past budget_cap LPs (C(p, s)*2^s planned), the result is
    kappa_lower_bound(psi, s) relabelled to coordinate k, the same for
    every k, so one call gives the bound of all p coordinates.  It is
    min_j b_j over the relaxations of ``_anchor_bounds`` and a lower bound
    here as well: a delta in C_J with delta_k = 1 has M = |delta|_inf >= 1,
    and +-delta/M, the sign making its largest entry j equal to +1, is
    feasible for the relaxation of j, so |Psi delta|_inf >= M*b_j >= min_j
    b_j.
    """
    psi = check_gram(psi)
    p = psi.shape[0]
    _check_s(p, s)
    if not 0 <= k < p:
        raise ValueError(f"coordinate k must be in [0, {p}), got {k}")

    if p > STAR_EXACT_P_MAX or math.comb(p, s) * 2 ** s > budget_cap:
        return replace(kappa_lower_bound(psi, s), q=None, coord=k)
    t0 = time.perf_counter()
    value, cert, cert_J, _, lp_count = _enumerate_cones(
        psi, s, _anchor_lps(k), box=np.inf)
    return SensitivityResult(value=value, kind=KIND_EXACT, s=s, coord=k,
                             certificate=cert, certificate_J=cert_J,
                             lp_count=lp_count,
                             wall_time=time.perf_counter() - t0)


def _anchor_bounds(psi, s):
    """Values b_k of the relaxation LPs of the p anchors k, in order.

    The LP of anchor k minimizes the epigraph t of |Psi delta|_inf over
    {delta_k = 1, |delta|_inf <= 1, |delta|_1 <= 2s}: the l1 row
    1'(a + b) <= 2s stacked on ``_epigraph(psi)``, a, b in [0, 1], a_k held
    at 1 and b_k at 0.  It is feasible (delta = e_k, as 1 <= 2s) and
    bounded (t >= 0), so one that is not OPTIMAL raises
    SensitivityLpError(status, None, None, k).  The anchor delta_k = -1 is
    not needed: swapping a and b maps it onto delta_k = +1 and leaves the
    relaxed set and |Psi delta|_inf unchanged.
    """
    p = psi.shape[0]
    A = np.vstack([np.concatenate([np.ones(2 * p), [0.0]]), _epigraph(psi)])
    b = np.concatenate([[2.0 * s], np.zeros(2 * p)])
    box = np.concatenate([np.ones(2 * p), [np.inf]])
    return np.array([_min_t(A, b, (None, None, k),
                            **_anchored(k, box)).objective_value
                     for k in range(p)])


def kappa_lower_bound(psi, s):
    """LP lower bound on kappa_inf(s) for any p: min_k b_k over the p
    anchor relaxations of ``_anchor_bounds``, which relax the union of cone
    sections {|delta|_inf = 1} to {delta_k = 1, |delta|_inf <= 1,
    |delta|_1 <= 2s}.  It is kappa_inf_exact's walk with no visits."""
    return _walk(psi, s, budget_cap=0)


def _ratio(num, kappa):
    """num / kappa, or +inf when kappa <= 0 (flagged, not raised)."""
    return np.inf if kappa <= 0 else num / kappa


def theorem1_bounds(nu, kappas, l1_theta_star, kappa_stars=None):
    """Error bounds from sensitivities: |error|_q <= nu/kappa_q(s) per
    requested q, coordinate-wise via kappa_k*, and the prediction bound
    min(nu^2/kappa_1, 2*nu*|theta*|_1).

    kappas maps q -> kappa_q(s) and kappa_stars k -> kappa_k*, as numbers
    (pass a SensitivityResult's ``value``); lower-bound kappas give
    conservative (larger, still valid) bounds.  Nonpositive kappas yield
    +inf, flagged rather than raised.
    """
    lq = {q: _ratio(nu, v) for q, v in kappas.items()}
    coord = {k: _ratio(nu, v) for k, v in (kappa_stars or {}).items()}
    prediction = 2.0 * nu * l1_theta_star
    if 1.0 in kappas:
        prediction = min(prediction, _ratio(nu ** 2, kappas[1.0]))
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
        out["l1_re"] = _ratio(4.0 * nu * s, kappa_re_s)
        out["prediction_re"] = _ratio(4.0 * nu ** 2 * s, kappa_re_s)
    if kappa_re_2s is not None:
        if not 1 < q <= 2:
            raise ValueError(f"the RE(2s) bound needs 1 < q <= 2, got {q}")
        out["lq_re2s"] = _ratio(4.0 * nu * s ** (1.0 / q), kappa_re_2s)
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
    with x_+ = max(0, x) and 1/0 = inf (flagged, not raised).  theta_hat is
    an array and the kappas are numbers (pass a SensitivityResult's
    ``value``): kappa_hat_q maps q -> kappa, kappa_hat_star k -> kappa.
    The empirical kappas may be computed at any s' >= s; the radii stay
    valid.
    """
    num = 2.0 * (mu_eps * float(np.sum(np.abs(theta_hat))) + tau_eps)
    factor = max(0.0, 1.0 - _ratio(mu_eps, kappa_hat_1))
    radius = {q: _ratio(num, v * factor) for q, v in kappa_hat_q.items()}
    coord_radius = {k: _ratio(num, v * factor)
                    for k, v in (kappa_hat_star or {}).items()}
    return {"radius": radius, "coord_radius": coord_radius,
            "shrink_factor": factor, "degenerate": factor == 0.0}
