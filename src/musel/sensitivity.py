"""Cone sensitivities of a Gram matrix and the error bounds built on them.

The l_q sensitivity is the minimum of |Psi delta|_inf over unit-l_q vectors
in the union of cones C_J = {delta : |delta_{J^c}|_1 <= |delta_J|_1} with
|J| <= s.  Because C_J grows with J, the minimum over |J| <= s is attained
at |J| = s, so only size-s supports are enumerated.

Every LP here has one variable layout, z = (a, b, t) over all p
coordinates with delta = a - b, and the rows of ``_epigraph`` making t the
epigraph of |Psi delta|_inf; a cone row (per support) or an l1 row (the
anchor relaxations) is stacked on them, and signs, anchors and branches
are bounds on a and b.  Exact values come from enumerating (support, sign
pattern) pairs and solving a few small LPs per pair.  The delta -> -delta
symmetry and the fact that a cone vector lies in the cone of its own s
largest entries leave s*2^(s-1) anchor LPs per support for kappa_inf, and a
relaxation LP per anchor bounds them all; kappa_one branches on the sign
of an index its optimum pairs.  Those searches and kappa_lower_bound's
screened pass run on ``_search``; past its budget a result is a lower bound.
"""

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .core import check_gram
from .lp import LinearProgram, LpStatus, solve_lp

DEFAULT_BUDGET_CAP = 100_000
_SCREEN = 12    # the coordinates whose epigraph rows an anchor's screen keeps
# kappa_lower_bound screens from this p on: in a scan of p = 13-80 (48 Grams
# per p) the screens first took fewer pivots in sum at p = 54 (CHANGES.md)
_SCREEN_FROM = 54

KIND_EXACT = "exact"
KIND_LOWER_BOUND = "lower_bound"


class SensitivityLpError(ValueError):
    """An enumerated LP ended other than OPTIMAL.

    Every such LP is feasible and bounded by construction (see
    ``_enumerate_cones`` and ``_relaxations``), so any other status is a
    solver failure, and skipping the LP could leave a bound that is too
    high.  Carries the status, the support J and signs sigma (None for the
    anchor relaxations and screens of ``_relaxations``) and the anchor
    coordinate (None for the unit-mass LPs of ``kappa_one``).
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


def _search(nodes, expand, budget, best=(np.inf,), found=None):
    """Land & Doig's search over (bound, cost, node) entries, ``nodes`` in
    pop order, on a stack.  A node whose bound exceeds best[0] by more than
    1e-7*(1 + |best[0]|) is dropped; one whose cost would take the LPs spent
    past ``budget`` stops the search, uncertified, at the least of best[0]
    and the open bounds.  Else expand(node) gives (key, certificate,
    children): a key (value first) below ``best`` is the new incumbent, and
    the children with bound below best[0] are pushed, the first on top.
    Returns (value, certificate, LPs spent)."""
    stack, spent = nodes[::-1], 0
    while stack:
        bound, cost, node = stack.pop()
        if bound > best[0] + 1e-7 * (1.0 + abs(best[0])):
            continue
        if spent + cost > budget:
            return min([best[0], bound] + [e[0] for e in stack]), None, spent
        spent += cost
        key, cert, children = expand(node)
        if key < best:
            best, found = key, cert
        stack += [e for e in children[::-1] if e[0] < best[0]]
    return best[0], found, spent


def _enumerate_cones(psi, s, programs, box=1.0, supports=None, branches=0):
    """Minimize over the cone LPs of size-s supports J and sign patterns.

    The rows of support J are ``_epigraph(psi)`` and the cone row
    sum_{J^c}(a + b) - sum_J(a + b) <= 0.  For each J of ``supports``
    (default: all; in lexicographic order) and each sigma, all +1 first,
    ``programs(J, sigma, upper)`` yields the anchor each LP pins (or None)
    and its LinearProgram keywords.  ``upper`` is ``box`` on a and b and
    inf on t, with the sign holds (b_j at 0 where sigma_j = +1, a_j where
    sigma_j = -1); a program that changes it copies it first.  Returns
    (value, certificate a - b, J, sigma, lp_count) of the first strictly
    smallest value.

    An optimum with |delta|_1 < 1 - 1e-9 pairs (only kappa_one's unit-mass
    LPs can; an anchored delta has |delta|_1 >= 1) and certifies nothing.
    Once all are solved, ``_search`` takes the paired LPs lowest first, with
    ``branches`` copies as budget: two copies replace each, bounded by its
    value, b_j held at 0 (searched first) and a_j, for the first j with
    the largest min(a_j, b_j).

    Every LP is feasible and bounded: delta = e_j for an anchor j in J (or
    sigma_j e_j, j in J, without one), plus e_k for an anchor k outside J,
    meets the cone row, the bounds (copies hold parts of J^c) and the unit
    mass, with t large; and t >= |Psi delta|_inf >= 0.  So an LP that is
    not OPTIMAL raises SensitivityLpError, never skipped.
    """
    p = psi.shape[0]
    epigraph, b = _epigraph(psi), np.zeros(2 * p + 1)

    @lru_cache(maxsize=1)
    def cone_rows(J):  # coordinate i % p of z's entry i, before t
        cone = np.where(np.isin(np.arange(2 * p) % p, J), -1.0, 1.0)
        return np.vstack([epigraph, np.append(cone, 0.0)])

    def solve(node):
        where, rows = node
        sol = _min_t(cone_rows(where[0]), b, where, **rows)
        value, a, z = sol.objective_value, sol.x[:p], sol.x[p:2 * p]
        if np.sum(np.abs(a - z)) >= 1 - 1e-9:
            return (value,), (a - z, *where[:2]), []
        j = int(np.argmax(np.minimum(a, z)))
        held = [rows["upper"].copy() for _ in range(2)]
        held[0][p + j] = held[1][j] = 0.0  # b_j held, then a_j
        return (np.inf,), None, [(value, 1, (where, rows | {"upper": u}))
                                 for u in held]

    best, found, paired, roots = (np.inf,), None, [], 0
    for J in combinations(range(p), s) if supports is None else supports:
        for sigma in map(np.array, product((1.0, -1.0), repeat=s)):
            upper = np.append(np.full(2 * p, box), np.inf)
            upper[[j if sg < 0 else p + j for j, sg in zip(J, sigma)]] = 0.0
            for anchor, rows in programs(J, sigma, upper):
                key, cert, copies = solve(((J, sigma, anchor), rows))
                roots += 1
                if key < best:
                    best, found = key, cert
                paired += [e for e in copies if e[0] < best[0]]
    paired = sorted((e for e in paired if e[0] < best[0]), key=lambda e: e[0])
    value, found, spent = _search(paired, solve, branches, best, found)
    return (float(value), *(found or (None,) * 3), roots + spent)


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
    cone LP value of anchor k.  ``_search`` then takes the anchors in
    stable ascending order of b_k, b_k as bound, and the rest of budget_cap
    as budget; visiting one costs its C(p-1, s-1)*2^(s-1) cone LPs.

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

    def expand(k):
        value, z, J, sigma, _ = _enumerate_cones(
            psi, s, _anchor_lps(k),
            supports=[J for J in combinations(range(p), s) if k in J])
        return (value, J, tuple(-sigma), k), (z, J), []

    order = np.argsort(bounds, kind="stable").tolist()
    value, found, spent = _search([(bounds[k], visit, k) for k in order],
                                  expand, budget_cap - p)
    cert, cert_J = found or (None, None)
    kind = KIND_EXACT if cert is not None else KIND_LOWER_BOUND
    return SensitivityResult(value=float(value), kind=kind, s=s, q=np.inf,
                             certificate=cert, certificate_J=cert_J,
                             lp_count=p + spent,
                             wall_time=time.perf_counter() - t0)


def kappa_one(psi, s, budget_cap=DEFAULT_BUDGET_CAP):
    """l1 sensitivity via the mass-split LP, one per (support, sign pattern).

    With unit mass 1'(a + b) = 1 every unit-l1 cone vector is feasible,
    and an optimum with |delta|_1 = 1 is one.  Swapping a and b maps the
    LPs of -sigma onto those of sigma, so the roots are the C(p, s)*2^(s-1)
    with sigma_1 = +1; past budget_cap they give way to the l1 reduction of
    kappa_inf_exact(psi, s, budget_cap).  The roots that pair a_j with b_j
    are searched (``_enumerate_cones``) with the rest of budget_cap: the
    least pair-free optimum is exact, with delta as certificate; a search
    cut short is an uncertified lower bound, at least the least root value.
    """
    psi = check_gram(psi)
    p = psi.shape[0]
    _check_s(p, s)
    roots = math.comb(p, s) * 2 ** (s - 1)
    if roots > budget_cap:
        return _from_inf(kappa_inf_exact(psi, s, budget_cap), s, 1.0)
    mass = np.concatenate([np.ones(2 * p), [0.0]])[None, :]

    def unit_mass(J, sigma, upper):
        if sigma[0] > 0:
            yield None, {"A_eq": mass, "b_eq": [1.0], "upper": upper}

    t0 = time.perf_counter()
    best, cert, cert_J, _, lp_count = _enumerate_cones(
        psi, s, unit_mass, branches=budget_cap - roots)
    kind = KIND_EXACT if cert is not None else KIND_LOWER_BOUND
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

    The (support, sign) enumeration solves it exactly: each cone LP holds
    a_k at 1 and b_k at 0 (skipping the sign patterns that hold a_k at 0),
    over unbounded a and b.  Where its plan of those LPs,
    C(p, s)*2^s - C(p-1, s-1)*2^(s-1), exceeds budget_cap, the result is
    kappa_lower_bound(psi, s) relabelled to k, the same for every k, so one
    call gives the bound of all p coordinates.  It is min_j b_j over the
    relaxations of ``_anchor_bounds`` and a lower bound here as well: a
    delta in C_J with delta_k = 1 has M = |delta|_inf >= 1, and +-delta/M,
    the sign making its largest entry j equal to +1, is feasible for the
    relaxation of j, so |Psi delta|_inf >= M*b_j >= min_j b_j.
    """
    psi = check_gram(psi)
    p = psi.shape[0]
    _check_s(p, s)
    if not 0 <= k < p:
        raise ValueError(f"coordinate k must be in [0, {p}), got {k}")
    plan = math.comb(p, s) * 2 ** s - math.comb(p - 1, s - 1) * 2 ** (s - 1)
    if plan > budget_cap:
        return replace(kappa_lower_bound(psi, s), q=None, coord=k)
    t0 = time.perf_counter()
    value, cert, cert_J, _, lp_count = _enumerate_cones(
        psi, s, _anchor_lps(k), box=np.inf)
    return SensitivityResult(value=value, kind=KIND_EXACT, s=s, coord=k,
                             certificate=cert, certificate_J=cert_J,
                             lp_count=lp_count,
                             wall_time=time.perf_counter() - t0)


def _relaxations(psi, s):
    """relax(k, m=None), the value of the relaxation LP of anchor k.

    The LP of anchor k minimizes the epigraph t of |Psi delta|_inf over
    {delta_k = 1, |delta|_inf <= 1, |delta|_1 <= 2s}: the l1 row
    1'(a + b) <= 2s stacked on ``_epigraph(psi)``, a, b in [0, 1], a_k held
    at 1 and b_k at 0.  It is feasible (delta = e_k, as 1 <= 2s) and
    bounded (t >= 0), so one that is not OPTIMAL raises
    SensitivityLpError(status, None, None, k).  The anchor delta_k = -1 is
    not needed: swapping a and b maps it onto delta_k = +1 and leaves the
    relaxed set and |Psi delta|_inf unchanged.  With m it is the screen of
    anchor k: the l1 row and, in index order, the epigraph rows of the m
    largest |Psi_ik| (ties to the lowest i); with rows dropped, l_k <= b_k.
    """
    p = psi.shape[0]
    A = np.vstack([np.concatenate([np.ones(2 * p), [0.0]]), _epigraph(psi)])
    b = np.concatenate([[2.0 * s], np.zeros(2 * p)])
    box = np.concatenate([np.ones(2 * p), [np.inf]])

    def relax(k, m=None):
        rows = slice(None)
        if m:
            i = np.sort(np.argsort(-np.abs(psi[:, k]), kind="stable")[:m])
            rows = np.concatenate([[0], 1 + i, 1 + p + i])
        return _min_t(A[rows], b[rows], (None, None, k),
                      **_anchored(k, box)).objective_value
    return relax


def _anchor_bounds(psi, s):
    """Values b_k of the relaxation LPs of the p anchors k, in order."""
    return np.array(list(map(_relaxations(psi, s), range(psi.shape[0]))))


def kappa_lower_bound(psi, s):
    """LP lower bound on kappa_inf(s): min_k b_k over the p relaxations of
    ``_relaxations``.  From p = _SCREEN_FROM, ``_search`` takes the anchors in
    stable ascending order of their screens l_k, as bounds, and solves the
    relaxation of each it keeps (one it drops has b_k >= l_k > min_j b_j)."""
    psi = check_gram(psi)
    p = psi.shape[0]
    _check_s(p, s)
    t0 = time.perf_counter()
    if p < _SCREEN_FROM:
        value, spent = min(_anchor_bounds(psi, s)), 0
    else:
        relax = _relaxations(psi, s)
        screens = [relax(k, _SCREEN) for k in range(p)]
        order = np.argsort(screens, kind="stable").tolist()
        value, _, spent = _search([(screens[k], 1, k) for k in order],
                                  lambda k: ((relax(k),), None, []), np.inf)
    return SensitivityResult(value=float(value), kind=KIND_LOWER_BOUND, s=s,
                             q=np.inf, lp_count=p + spent,
                             wall_time=time.perf_counter() - t0)


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
