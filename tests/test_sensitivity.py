"""Sensitivity machinery: exact values vs grid oracles, the (k1)-(k4) bound
chain, certificates, and the bound/CI report functions."""

import math
from itertools import combinations, product

import numpy as np
import pytest

from musel import sensitivity
from musel.core import gram, coherence
from musel.lp import LinearProgram, LpStatus, solve_lp
from musel.missing import apply_mask, rescale, sigma_hat
from musel.sensitivity import (_enumerate_cones, _from_inf, c_q, in_cone,
                               kappa_inf_exact, kappa_lower_bound, kappa_one,
                               kappa_q_from_inf, kappa_star, theorem1_bounds,
                               theorem2_bounds, theorem3_ci)

from conftest import normalized_gram
from re_oracle import pattern_search_min, project_to_cone, re_constant_bruteforce


def grid_kappa_inf_2d(psi, J, resolution=2001):
    """Scan the boundary of the sup-norm ball in 2-D for cone vectors."""
    best = np.inf
    ts = np.linspace(-1.0, 1.0, resolution)
    for anchor in (0, 1):
        for sign in (1.0, -1.0):
            for t in ts:
                d = np.empty(2)
                d[anchor] = sign
                d[1 - anchor] = t
                if in_cone(d, J):
                    best = min(best, float(np.max(np.abs(psi @ d))))
    return best


def sphere_cone_min(psi, s, q, seed=0, n_starts=40):
    """Pattern-search approximation of kappa_q for the l2/lq sphere (q=2 here);
    an upper bound on the true sensitivity."""
    p = psi.shape[0]
    rng = np.random.default_rng(seed)
    best = np.inf
    for J in combinations(range(p), s):
        mask = np.zeros(p, dtype=bool)
        mask[list(J)] = True

        def fun(d, _m=mask):
            d = project_to_cone(d, _m)
            nq = float(np.sum(np.abs(d) ** q) ** (1.0 / q))
            if nq < 1e-12:
                return np.inf
            return float(np.max(np.abs(psi @ (d / nq))))

        starts = [np.eye(p)[j] for j in J]
        starts += [rng.standard_normal(p) for _ in range(n_starts)]
        cand = min(starts, key=fun)
        _, val = pattern_search_min(fun, cand, step0=0.5)
        best = min(best, val)
    return best


def anchor_lps(p, anchors, outside=True):
    """``_enumerate_cones`` programs that force each coordinate of
    ``anchors``, in order, to +1: inside J where sigma = +1 there (a_k = 1,
    b_k held by the sign), and (with outside) outside J as a_k = 1,
    b_k = 0."""
    def programs(J, sigma, upper):
        for anchor in anchors:
            held = upper
            if anchor in J:
                if sigma[J.index(anchor)] < 0:
                    continue
            elif outside:
                held = upper.copy()
                held[p + anchor] = 0.0
            else:
                continue
            lower = np.zeros(2 * p + 1)
            lower[anchor] = 1.0
            yield anchor, {"lower": lower, "upper": held}
    return programs


def kappa_inf_all_anchors(psi, s, outside=True):
    """kappa_inf by an unpruned anchor enumeration: every coordinate, inside
    J (with sigma = +1 there) or, with outside, outside it, is forced to +1
    in turn.  Returns (value, certificate, J) of the first strictly smallest
    LP in (J, sigma, anchor) order."""
    value, cert, J, _, _ = _enumerate_cones(
        psi, s, anchor_lps(psi.shape[0], range(psi.shape[0]), outside))
    return value, cert, J


def kappa_lower_bound_two_signs(psi, s):
    """The relaxed lower bound over both anchor signs delta_k = +-1."""
    p = psi.shape[0]
    A = np.vstack([np.concatenate([np.ones(2 * p), [0.0]]),
                   np.hstack([psi, -psi, -np.ones((p, 1))]),
                   np.hstack([-psi, psi, -np.ones((p, 1))])])
    b = np.concatenate([[2.0 * s], np.zeros(2 * p)])
    obj = np.zeros(2 * p + 1)
    obj[-1] = 1.0
    best = np.inf
    for k in range(p):
        for one, zero in ((k, p + k), (p + k, k)):
            lower = np.zeros(2 * p + 1)
            upper = np.concatenate([np.ones(2 * p), [np.inf]])
            lower[one] = 1.0
            upper[zero] = 0.0
            sol = solve_lp(LinearProgram(c=obj, A_ub=A, b_ub=b,
                                         lower=lower, upper=upper))
            if sol.status is LpStatus.OPTIMAL:
                best = min(best, sol.objective_value)
    return best


def masked_gram(p, seed, pi=0.2):
    """The plug-in Gram gram(rescale(Z~, pi), sigma_hat(Z~, pi)) of a 30 x p
    Gaussian design masked with probability pi; it is indefinite in general,
    as under the missing-data model."""
    Z = apply_mask(np.random.default_rng(seed).standard_normal((30, p)), pi,
                   seed)
    return gram(rescale(Z, pi), sigma_hat(Z, pi))


def kappa_one_orthants(psi, s):
    """Exact kappa_one: for each support J and sign vector sigma with
    sigma_0 = +1 (delta -> -delta covers the rest), delta = sigma*x with
    x >= 0, 1'x = 1 and the cone row 1'x_Jc <= 1'x_J is one LP in (x, t)."""
    p = psi.shape[0]
    obj = np.zeros(p + 1)
    obj[-1] = 1.0
    best = np.inf
    for J in combinations(range(p), s):
        cone = np.ones(p + 1)
        cone[list(J)] = -1.0
        cone[-1] = 0.0
        for signs in product((1.0, -1.0), repeat=p - 1):
            M = psi * np.array((1.0,) + signs)
            A = np.vstack([np.hstack([M, -np.ones((p, 1))]),
                           np.hstack([-M, -np.ones((p, 1))]), cone])
            sol = solve_lp(LinearProgram(
                c=obj, A_ub=A, b_ub=np.zeros(2 * p + 1),
                A_eq=np.concatenate([np.ones(p), [0.0]])[None, :],
                b_eq=[1.0], lower=np.zeros(p + 1)))
            if sol.status is LpStatus.OPTIMAL:
                best = min(best, sol.objective_value)
    return best


class TestInCone:
    def test_supported_on_J(self):
        assert in_cone([1.0, 2.0, 0.0], J=[0, 1])

    def test_supported_off_J(self):
        assert not in_cone([0.0, 0.0, 1.0], J=[0])

    def test_boundary_equality(self):
        assert in_cone([1.0, -1.0], J=[0])


class TestKappaInf:
    def test_identity(self):
        for s in (1, 2):
            r = kappa_inf_exact(np.eye(5), s)
            assert r.value == pytest.approx(1.0, abs=1e-9)
            assert r.kind == "exact"

    def test_two_by_two_grid_oracle(self):
        psi = np.array([[1.0, 0.5], [0.5, 1.0]])
        r = kappa_inf_exact(psi, 1)
        oracle = min(grid_kappa_inf_2d(psi, [0]), grid_kappa_inf_2d(psi, [1]))
        assert oracle == pytest.approx(0.5, abs=1e-3)
        assert r.value == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_k1_coherence_bound(self, seed):
        psi = normalized_gram(5, 60, seed)
        rho = coherence(psi)
        s = 1
        if rho < 1.0 / (2 * s):
            r = kappa_inf_exact(psi, s)
            assert r.value >= 1.0 - 2 * rho * s - 1e-9

    # budgets p, p + v, p + 2v, ... (v the cone LPs of one anchor visit)
    # on Grams at p 5-12 and s 1-3, up to one visit past the exact call's
    @pytest.mark.parametrize("p, n, s", [(5, 40, 1), (6, 4, 3), (7, 16, 2),
                                         (9, 40, 3), (12, 8, 1), (12, 30, 2),
                                         (10, 30, 3)])
    def test_budget_walk(self, p, n, s):
        psi = normalized_gram(p, n, 600 + 10 * p + s)
        exact = kappa_inf_exact(psi, s)
        bound = kappa_lower_bound(psi, s)
        visit = math.comb(p - 1, s - 1) * 2 ** (s - 1)
        last = -np.inf
        for budget in range(p, exact.lp_count + visit + 1, visit):
            r = kappa_inf_exact(psi, s, budget_cap=budget)
            assert last <= r.value
            assert r.value <= exact.value + 1e-12 * max(1.0, abs(exact.value))
            assert r.lp_count <= max(p, budget)
            last = r.value
            if budget < exact.lp_count:
                assert (r.kind, r.certificate, r.certificate_J,
                        r.lp_count) == ("lower_bound", None, None, budget)
                continue
            assert np.float64(r.value).tobytes() == \
                np.float64(exact.value).tobytes()
            assert r.certificate.tobytes() == exact.certificate.tobytes()
            assert (r.kind, r.certificate_J, r.lp_count) == (
                "exact", exact.certificate_J, exact.lp_count)
        # below one visit the walk is kappa_lower_bound, bit for bit
        for budget in (0, p, p + visit - 1):
            r = kappa_inf_exact(psi, s, budget_cap=budget)
            assert r.to_dict() | {"wall_time": 0} == \
                bound.to_dict() | {"wall_time": 0}

    # normalized Grams at p 5-8, s 1-3, and p=8 Grams of a 16-row design at
    # s=2 (the sensitivity benchmark's kappa_inf input)
    @pytest.mark.parametrize("p, n, seed, s", [
        (p, 40, 10 * p + s, s) for p in range(5, 9) for s in (1, 2, 3)
    ] + [(8, 16, seed, 2) for seed in (1, 2)])
    def test_matches_all_anchor_enumeration(self, p, n, seed, s):
        psi = normalized_gram(p, n, seed)
        r = kappa_inf_exact(psi, s)
        oracle = kappa_inf_all_anchors(psi, s)[0]
        assert abs(r.value - oracle) <= 1e-12 * abs(oracle)
        full = math.comb(p, s) * s * 2 ** (s - 1)
        assert p < r.lp_count <= full + p

    # the pruned enumeration keeps the unpruned one's winner bit for bit:
    # seeded Grams at p 4-9 of 4 (rank-deficient, few anchors prune), 16 or
    # 40 rows, and identity Grams (n None), where every LP ties at 1
    @pytest.mark.parametrize("p, n, s", [
        (p, (4, 16, 40)[(p + s) % 3], s) for p in range(4, 10) for s in (1, 2, 3)
    ] + [(3, None, 2), (5, None, 1), (5, None, 2), (5, None, 3)])
    def test_bitwise_equals_unpruned(self, p, n, s):
        psi = np.eye(p) if n is None else normalized_gram(p, n, 7 * p + n + s)
        r = kappa_inf_exact(psi, s)
        value, cert, J = kappa_inf_all_anchors(psi, s, outside=False)
        assert np.float64(r.value).tobytes() == np.float64(value).tobytes()
        assert r.certificate.tobytes() == cert.tobytes()
        assert r.certificate_J == J

    @pytest.mark.parametrize("p, s", [(5, 3), (6, 2), (7, 3), (8, 2)])
    def test_anchor_bound_below_its_cone_lps(self, p, s):
        """The lemma that prunes: b_k is at most every cone LP of anchor k,
        inside J or outside it."""
        psi = normalized_gram(p, 20, 900 + 10 * p + s)
        bounds = sensitivity._anchor_bounds(psi, s)
        for k in range(p):
            exact = _enumerate_cones(psi, s, anchor_lps(p, [k]))[0]
            assert bounds[k] <= exact + 1e-12

    @pytest.mark.parametrize("p, n, s", [(4, 30, 2), (6, 4, 3), (8, 16, 2),
                                         (9, 40, 3)])
    def test_lp_count_is_solves(self, lp_stops, p, n, s):
        solved = lp_stops(0)
        r = kappa_inf_exact(normalized_gram(p, n, p + s), s)
        assert r.lp_count == len(solved)
        assert r.lp_count <= math.comb(p, s) * s * 2 ** (s - 1) + p

    # (routine, Gram seed, s, scale the certificate is normalized to): all
    # three share one certificate code path, so each must return a vector
    # that attains its value.  kappa_one's is its least pair-free optimum.
    @pytest.mark.parametrize("kappa, seed, s, scale", [
        (kappa_inf_exact, 3, 2, lambda d: np.max(np.abs(d))),
        (kappa_one, 8, 1, lambda d: np.sum(np.abs(d))),
        (lambda psi, s: kappa_star(psi, s, 1), 3, 2, lambda d: d[1]),
    ], ids=["inf", "one", "star"])
    def test_certificate_attains(self, kappa, seed, s, scale):
        psi = normalized_gram(4, 30, seed)
        r = kappa(psi, s)
        assert r.kind == "exact"
        assert r.certificate is not None
        assert in_cone(r.certificate, r.certificate_J, tol=1e-9)
        assert scale(r.certificate) == pytest.approx(1.0, abs=1e-7)
        attained = float(np.max(np.abs(psi @ r.certificate)))
        assert attained == pytest.approx(r.value, abs=1e-7)


class TestKappaOne:
    def test_identity_s1(self):
        r = kappa_one(np.eye(4), 1)
        assert r.value == pytest.approx(0.5, abs=1e-9)
        assert r.kind == "exact"          # the least root optimum is pair-free

    def test_identity_s2(self):
        r = kappa_one(np.eye(4), 2)
        assert r.value == pytest.approx(0.25, abs=1e-9)
        assert r.kind == "exact"

    @pytest.mark.parametrize("seed", range(4))
    def test_k3_against_re_oracle(self, seed):
        psi = normalized_gram(4, 40, 100 + seed)
        s = 1
        k1 = kappa_one(psi, s)
        kre = re_constant_bruteforce(psi, s, grid_resolution=30)
        assert k1.value >= kre / (4 * s) - 1e-7

    @staticmethod
    def assert_exact(psi, s):
        """kappa_one(psi, s) is exact, equals the orthant oracle and carries
        a unit-l1 cone vector attaining its value; returns it."""
        r = kappa_one(psi, s)
        oracle = kappa_one_orthants(psi, s)
        assert r.kind == "exact"
        assert abs(r.value - oracle) <= 1e-9 * max(1.0, oracle)
        assert in_cone(r.certificate, r.certificate_J, tol=1e-9)
        assert np.sum(np.abs(r.certificate)) == pytest.approx(1.0, abs=1e-9)
        attained = float(np.max(np.abs(psi @ r.certificate)))
        assert attained == pytest.approx(r.value, abs=1e-9)
        return r

    # seed 0 at p=5, s=2 has a paired root optimum (branched), seed 3 not
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("p", [4, 5, 6])
    @pytest.mark.parametrize("s", [1, 2])
    def test_matches_orthant_oracle(self, p, s, seed):
        self.assert_exact(normalized_gram(p, 30, seed), s)

    # the masked plug-in Grams all pair at the root
    @pytest.mark.parametrize("kind, p, s, seed", [
        ("normalized", 8, 1, 3), ("normalized", 8, 2, 0),
        ("masked", 5, 2, 0), ("masked", 6, 3, 0), ("masked", 7, 2, 0)])
    def test_larger_and_masked_grams_match_orthant_oracle(self, kind, p, s,
                                                          seed):
        self.assert_exact(normalized_gram(p, 30, seed) if kind == "normalized"
                          else masked_gram(p, seed), s)

    @pytest.mark.parametrize("seed, value", [(0, 0.11437089655914355),
                                             (1, 0.10535617331240385),
                                             (2, 0.08943552662955447)])
    def test_paired_roots_are_searched(self, seed, value):
        """The root optima of these Grams pair, so the root LPs alone give
        only a lower bound (0.1104, 0.1031 and 0.0843); the search is
        exact."""
        r = self.assert_exact(normalized_gram(5, 30, seed), 2)
        assert r.value == pytest.approx(value, rel=1e-12)
        assert r.lp_count > 20

    @pytest.mark.parametrize("p, s, seed", [(5, 2, 1), (7, 3, 2)])
    def test_roots_are_solved_first(self, lp_stops, lp_solutions, p, s,
                                    seed):
        """Every root is solved before any branch, and the paired roots
        are searched from the lowest value up."""
        held = lp_stops(0)
        solved = lp_solutions(sensitivity)
        r = kappa_one(normalized_gram(p, 30, seed), s)
        roots = math.comb(p, s) * 2 ** (s - 1)
        held = [int(np.sum(lp.upper[:-1] == 0.0)) for lp in held]
        assert len(held) == len(solved) == r.lp_count
        assert held[:roots] == [s] * roots
        assert all(n > s for n in held[roots:])
        paired = [sol.objective_value for sol in solved[:roots]
                  if np.sum(np.abs(sol.x[:p] - sol.x[p:2 * p])) < 1 - 1e-9]
        assert paired
        if r.lp_count > roots:
            assert min(paired) < r.value
            # the first branch holds one more part than the lowest root
            assert held[roots] == s + 1

    def test_pair_free_least_root_ends_the_search(self, lp_solutions):
        """normalized_gram(7, 30, 2) at s = 3 has paired roots, but its
        least root is pair-free, so no branch runs (searching each paired
        root as it came took 214 LPs)."""
        solved = lp_solutions(sensitivity)
        psi = normalized_gram(7, 30, 2)
        r = self.assert_exact(psi, 3)
        assert r.lp_count == len(solved) == math.comb(7, 3) * 4
        assert r.value == min(sol.objective_value for sol in solved)
        assert any(np.sum(np.abs(sol.x[:7] - sol.x[7:14])) < 1 - 1e-9
                   for sol in solved)

    @pytest.mark.parametrize("p, s", [(4, 2), (6, 2)])
    def test_lp_count_is_budget(self, lp_stops, p, s):
        """Only the sign patterns with sigma_1 = +1 are roots: C(p, s) *
        2^(s-1) LPs, whose held parts are the sign holds alone; the rest
        of lp_count are branches."""
        solved = lp_stops(0)
        psi = normalized_gram(p, 30, 0)
        r = kappa_one(psi, s)
        assert r.lp_count == len(solved)
        roots = [lp for lp in solved if np.sum(lp.upper[:-1] == 0.0) == s]
        assert len(roots) == math.comb(p, s) * 2 ** (s - 1)
        for lp in roots:
            J = np.flatnonzero(lp.A_ub[-1, :p] < 0)
            assert lp.upper[p + J[0]] == 0.0             # sigma_1 = +1
        assert kappa_one(psi, s, budget_cap=r.lp_count).lp_count == r.lp_count

    @pytest.mark.parametrize("seed", [0, 1])
    def test_branches_spend_the_rest_of_the_budget(self, lp_stops, seed):
        """Every root is solved and the branches spend budget_cap minus the
        roots: a search cut short is a lower bound between the roots' value
        and the exact one, and budget_cap=lp_count gives the same result."""
        psi = normalized_gram(5, 30, seed)
        roots = math.comb(5, 2) * 2
        full = kappa_one(psi, 2)
        root_only = kappa_one(psi, 2, budget_cap=roots)
        assert root_only.lp_count == roots < full.lp_count
        assert root_only.kind == "lower_bound" and root_only.certificate is None
        assert root_only.value < full.value
        solved = lp_stops(0)
        for budget in range(roots, full.lp_count + 1):
            solved.clear()
            r = kappa_one(psi, 2, budget_cap=budget)
            assert r.lp_count == len(solved) <= budget
            if r.kind == "exact":
                assert r.value == full.value
            else:
                assert r.certificate is None and r.certificate_J is None
                # a copy's optimum can round below its parent's by an ulp
                assert root_only.value * (1 - 1e-12) <= r.value < full.value
            again = kappa_one(psi, 2, budget_cap=r.lp_count)
            assert (again.to_dict() | {"wall_time": 0}) == (
                r.to_dict() | {"wall_time": 0})
        assert (r.to_dict() | {"wall_time": 0}) == (
            full.to_dict() | {"wall_time": 0})

    @pytest.mark.parametrize("p, s", [(4, 2), (6, 2), (8, 3)])
    def test_below_plan_is_l1_reduction(self, p, s):
        """Below its plan, kappa_one is the l1 reduction of the budgeted
        kappa_inf walk."""
        psi = normalized_gram(p, 30, 50 + p)
        plan = math.comb(p, s) * 2 ** (s - 1)
        full = kappa_one(psi, s).value
        for budget in (1, p + 1, plan - 1):
            r = kappa_one(psi, s, budget_cap=budget)
            base = kappa_inf_exact(psi, s, budget_cap=budget)
            assert (r.to_dict() | {"wall_time": 0}) == (
                _from_inf(base, s, 1.0).to_dict() | {"wall_time": 0})
            assert r.kind == "lower_bound" and r.certificate is None
            assert r.value <= full + 1e-12

    def test_smaller_support_never_below(self):
        # enumerating |J| = s only is valid: cones nest, so the value is
        # nonincreasing in s and the |J| <= s minimum is attained at |J| = s
        psi = normalized_gram(4, 25, 9)
        assert kappa_one(psi, 2).value <= kappa_one(psi, 1).value + 1e-12
        assert (kappa_inf_exact(psi, 2).value
                <= kappa_inf_exact(psi, 1).value + 1e-12)


class TestKappaQFromInf:
    def test_q_inf_identity(self):
        assert kappa_q_from_inf(0.7, 3, np.inf) == 0.7

    def test_matches_exact_identity_kappa1(self):
        psi = np.eye(4)
        kinf = kappa_inf_exact(psi, 1).value
        assert kappa_q_from_inf(kinf, 1, 1.0) == pytest.approx(
            kappa_one(psi, 1).value, abs=1e-9)

    def test_q2_formula(self):
        assert kappa_q_from_inf(1.0, 2, 2.0) == pytest.approx(0.5)


class TestKappaStar:
    def test_identity(self):
        for k in range(3):
            r = kappa_star(np.eye(3), 1, k)
            assert r.value == pytest.approx(1.0, abs=1e-9)
            assert r.kind == "exact"

    def test_two_by_two(self):
        psi = np.array([[1.0, 0.5], [0.5, 1.0]])
        r = kappa_star(psi, 1, 0)
        assert r.value == pytest.approx(0.5, abs=1e-9)
        # certificate should be the (1, -1) direction
        assert r.certificate[0] == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("k", [-1, 3])
    def test_coordinate_outside_range_rejected(self, k):
        with pytest.raises(ValueError) as e:
            kappa_star(np.eye(3), 1, k)
        assert str(e.value) == f"coordinate k must be in [0, 3), got {k}"

    @pytest.mark.parametrize("seed", range(4))
    def test_dominates_kappa_inf(self, seed):
        psi = normalized_gram(5, 50, 200 + seed)
        kinf = kappa_inf_exact(psi, 1).value
        for k in range(psi.shape[0]):
            ks = kappa_star(psi, 1, k).value
            assert ks >= kinf - 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_relaxed_lower_bounds_exact(self, seed):
        psi = normalized_gram(5, 50, 300 + seed)
        exact = kappa_star(psi, 1, 2)
        relaxed = kappa_star(psi, 1, 2, budget_cap=5 * 2 - 1)
        assert exact.kind == "exact" and relaxed.kind == "lower_bound"
        assert relaxed.value <= exact.value + 1e-8

    def test_relaxed_bound_below_large_cone_vector(self):
        """Below its plan the bound holds for cone vectors whose entries
        far exceed delta_k = 1: on the rank-one Gram v v' with
        v = (1, -0.1, 0, ...), delta = (1, 10, 0, ...) lies in C_{1} and
        Psi delta vanishes up to rounding."""
        v = np.zeros(8)
        v[:2] = (1.0, -0.1)
        psi = np.outer(v, v)
        delta = np.zeros(8)
        delta[:2] = (1.0, 10.0)
        assert in_cone(delta, [1])
        attained = float(np.max(np.abs(psi @ delta)))
        r = kappa_star(psi, 1, 0, budget_cap=8 * 2 - 1)
        assert r.value <= attained
        assert r.kind == "lower_bound" and r.lp_count == 8

    @pytest.mark.parametrize("p, s", [(7, 1), (7, 2), (8, 1), (8, 2)])
    def test_past_exact_is_lower_bound(self, p, s):
        """Below its plan every coordinate gets kappa_lower_bound's value,
        bit for bit, from the same p relaxations."""
        psi = normalized_gram(p, 30, 40 * p + s)
        lb = kappa_lower_bound(psi, s)
        for k in (0, 3, p - 1):
            r = kappa_star(psi, s, k, budget_cap=math.comb(p, s) * 2 ** s - 1)
            assert np.float64(r.value).tobytes() == np.float64(lb.value).tobytes()
            assert (r.kind, r.s, r.q, r.coord, r.lp_count) == (
                "lower_bound", s, None, k, p)
            assert r.to_dict()["q"] == f"star:{k}"

    def test_all_negative_support(self):
        """On the rank-one Gram v v' with v = (1, 0.1), delta = (1, -10)
        lies in C_{1} and Psi delta = 0: kappa*_0 is attained on the sign
        pattern of J = {1} whose entries are all -1 (J = {0} gives 0.9)."""
        v = np.array([1.0, 0.1])
        r = kappa_star(np.outer(v, v), 1, 0)
        assert (r.kind, r.certificate_J) == ("exact", (1,))
        assert r.value == pytest.approx(0.0, abs=1e-12)
        assert r.certificate == pytest.approx([1.0, -10.0], abs=1e-9)

    # 22 (Gram, s), normalized and masked plug-in Grams: two seeds at each
    # p 7-10 at s = 1, one at p 7-9 at s = 2
    @pytest.mark.parametrize("kind, p, s, seed", [
        (kind, p, s, seed) for kind in ("normalized", "masked")
        for p in range(7, 11) for s in (1, 2) if s == 1 or p < 10
        for seed in ((p, 100 + p) if s == 1 else (p,))])
    def test_min_over_coordinates_is_kappa_inf(self, kind, p, s, seed):
        """min_k kappa*_k = kappa_inf: a cone vector with delta_k = 1,
        scaled by 1/|delta|_inf, is one of kappa_inf's, and kappa_inf's
        certificate is one of kappa*_k's for k its +1 entry.  Each kappa*_k
        is exact, at least kappa_lower_bound, and certified by a cone
        vector with delta_k = 1 that attains it."""
        psi = (normalized_gram(p, 30, seed) if kind == "normalized"
               else masked_gram(p, seed))
        bound = kappa_lower_bound(psi, s).value
        stars = [kappa_star(psi, s, k) for k in range(p)]
        for k, r in enumerate(stars):
            assert r.kind == "exact"
            assert r.value >= bound - 1e-12 * abs(bound)
            assert r.certificate[k] == 1.0
            assert in_cone(r.certificate, r.certificate_J, tol=1e-9)
            attained = float(np.max(np.abs(psi @ r.certificate)))
            scale = max(1.0, float(np.max(np.abs(r.certificate))))
            assert attained == pytest.approx(r.value, abs=1e-9 * scale)
        exact = kappa_inf_exact(psi, s).value
        assert abs(min(r.value for r in stars) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("p, s", [(4, 1), (5, 2), (6, 3)])
    def test_below_plan_is_lower_bound(self, p, s):
        """Below its plan of C(p, s)*2^s LPs, kappa_star is
        kappa_lower_bound relabelled, as past STAR_EXACT_P_MAX."""
        psi = normalized_gram(p, 30, 20 * p + s)
        plan = math.comb(p, s) * 2 ** s
        lb = kappa_lower_bound(psi, s)
        for k in (0, p - 1):
            r = kappa_star(psi, s, k, budget_cap=plan - 1)
            assert (r.to_dict() | {"wall_time": 0}) == (
                lb.to_dict() | {"q": f"star:{k}", "wall_time": 0})
            assert r.value <= kappa_star(psi, s, k).value + 1e-12
            assert kappa_star(psi, s, k, budget_cap=plan).kind == "exact"


class TestAnchorPin:
    """Every LP of the anchored routines pins one coordinate k at
    delta_k = 1: lower[k] == upper[k] == 1 and upper[p + k] == 0, with no
    other lower bound nonzero."""

    @staticmethod
    def anchors(solved, p):
        ks = []
        for lp in solved:
            (k,) = np.flatnonzero(lp.lower)
            assert k < p
            assert lp.lower[k] == lp.upper[k] == 1.0
            assert lp.upper[p + k] == 0.0
            ks.append(int(k))
        return ks

    @pytest.mark.parametrize("p", [5, 6, 7, 8])
    @pytest.mark.parametrize("s", [1, 2])
    def test_kappa_inf_exact(self, lp_stops, p, s):
        solved = lp_stops(0)
        r = kappa_inf_exact(normalized_gram(p, 30, 60 + p), s)
        ks = self.anchors(solved, p)
        assert len(ks) == r.lp_count
        assert ks[:p] == list(range(p))       # the anchor relaxations

    @pytest.mark.parametrize("p", [4, 5, 6])
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("last", [False, True])
    def test_kappa_star_exact(self, lp_stops, p, s, last):
        k = p - 1 if last else 0
        solved = lp_stops(0)
        r = kappa_star(normalized_gram(p, 30, 70 + p), s, k)
        assert r.kind == "exact"
        assert self.anchors(solved, p) == [k] * r.lp_count

    @pytest.mark.parametrize("p", [5, 20])
    def test_kappa_lower_bound(self, lp_stops, p):
        solved = lp_stops(0)
        kappa_lower_bound(normalized_gram(p, 30, 80 + p), 2)
        assert self.anchors(solved, p) == list(range(p))


class TestKappaLowerBound:
    def test_identity_tight(self):
        r = kappa_lower_bound(np.eye(6), 1)
        assert r.value == pytest.approx(1.0, abs=1e-9)
        assert r.kind == "lower_bound"

    @pytest.mark.parametrize("seed", range(4))
    def test_below_exact(self, seed):
        psi = normalized_gram(5, 40, 400 + seed)
        lb = kappa_lower_bound(psi, 1).value
        exact = kappa_inf_exact(psi, 1).value
        assert lb <= exact + 1e-8

    @pytest.mark.parametrize("p", [6, 60])
    def test_matches_two_sign_relaxation(self, p):
        psi = normalized_gram(p, 40, 500 + p)
        r = kappa_lower_bound(psi, 2)
        oracle = kappa_lower_bound_two_signs(psi, 2)
        assert abs(r.value - oracle) <= 1e-12 * abs(oracle)
        assert r.lp_count == p

    @pytest.mark.parametrize("p, n, seed", [(5, 40, 1), (8, 16, 2),
                                            (8, 4, 3), (12, 30, 4)])
    def test_equals_exact_at_s1(self, p, n, seed):
        """At s = 1 the relaxation of anchor k has the feasible set of its
        one cone LP."""
        psi = normalized_gram(p, n, seed)
        lb = kappa_lower_bound(psi, 1).value
        exact = kappa_inf_exact(psi, 1).value
        assert abs(lb - exact) <= 1e-12

    def test_pivots_after_degenerate_steps(self, lp_solutions):
        """Only t has a cost in the anchor relaxations, so many dual steps
        have length zero; the most infeasible row leaves after them.  Dual
        steepest edge alone took 3539 + 3531 + 3432 = 10502 pivots on these
        Grams, the rule 1913 + 2027 + 2029 = 5969, with the same values."""
        solved = lp_solutions(sensitivity)
        values = [kappa_lower_bound(normalized_gram(60, 40, seed), 2).value
                  for seed in (1, 2, 3)]
        assert values == [0.06680500565738717, 0.050346751016892274,
                          0.06040007351263967]
        assert len(solved) == 180
        assert sum(sol.iterations for sol in solved) <= 6500

    def test_nonincreasing_in_s(self):
        psi = normalized_gram(6, 50, 5)
        vals = [kappa_lower_bound(psi, s).value for s in (1, 2, 3)]
        assert vals[0] >= vals[1] - 1e-12 >= vals[2] - 2e-12


class TestEmpiricalGram:
    def test_exact_when_noiseless(self, rng):
        X = rng.standard_normal((12, 3))
        assert np.array_equal(gram(X), X.T @ X / 12)

    def test_root_n_consistency(self):
        # median max-error should shrink roughly like 1/sqrt(n)
        errs = {}
        for n in (100, 400):
            vals = []
            for seed in range(10):
                rng = np.random.default_rng(1000 + seed)
                X = rng.standard_normal((n, 8))
                psi = gram(X)
                Xi = 0.3 * rng.standard_normal((n, 8))
                Z = X + Xi
                dhat = (Xi ** 2).mean(axis=0)
                est = gram(Z, dhat)
                # remove the cross terms' own randomness: compare to psi
                vals.append(np.max(np.abs(est - psi)))
            errs[n] = np.median(vals)
        ratio = errs[100] / errs[400]
        assert 1.2 <= ratio <= 3.5


class TestTheorem1Bounds:
    def test_zero_nu(self):
        rep = theorem1_bounds(0.0, {1.0: 0.5, np.inf: 0.7}, 1.0)
        assert rep["lq"][1.0] == 0.0
        assert rep["prediction"] == 0.0

    def test_hand_values(self):
        rep = theorem1_bounds(0.38, {1.0: 0.5}, 1.5)
        assert rep["lq"][1.0] == pytest.approx(0.76)
        assert rep["prediction"] == pytest.approx(0.38 ** 2 / 0.5)
        assert rep["prediction"] == pytest.approx(0.2888, abs=1e-4)

    def test_zero_kappa_flagged(self):
        rep = theorem1_bounds(1.0, {2.0: 0.0}, 1.0)
        assert math.isinf(rep["lq"][2.0])
        assert 2.0 in rep["infinite_q"]

    def test_coordinatewise(self):
        rep = theorem1_bounds(0.4, {}, 1.0, kappa_stars={0: 0.8, 3: 0.2})
        assert rep["coord"][0] == pytest.approx(0.5)
        assert rep["coord"][3] == pytest.approx(2.0)


class TestTheorem2Bounds:
    def test_plugin_l1(self):
        rep = theorem2_bounds(1.0, 1, kappa_re_s=1.0)
        assert rep["l1_re"] == pytest.approx(4.0)

    @pytest.mark.parametrize("q", [1.5, 2.0])
    def test_lq_re2s(self, q):
        nu, s, k = 0.3, 3, 0.7
        rep = theorem2_bounds(nu, s, q=q, kappa_re_2s=k)
        assert rep["lq_re2s"] == 4.0 * nu * s ** (1.0 / q) / k

    def test_cq_value(self):
        assert c_q(2.0) == pytest.approx(0.25)

    def test_coherence_case(self):
        rep = theorem2_bounds(1.0, 1, q=np.inf, rho=0.4)
        assert rep["lq_coherence"] == pytest.approx(5.0)

    def test_rho_refusal(self):
        with pytest.raises(ValueError, match="rho"):
            theorem2_bounds(1.0, 2, q=2.0, rho=0.3)

    def test_re2s_range_check(self):
        with pytest.raises(ValueError, match="1 < q <= 2"):
            theorem2_bounds(1.0, 1, q=3.0, kappa_re_2s=0.5)


class TestTheorem3Ci:
    def test_mu_zero_dantzig_like(self):
        rep = theorem3_ci(np.array([0.5, 0.5]), 0.0, 0.05, {2.0: 0.5}, 0.5)
        assert rep["radius"][2.0] == pytest.approx(2 * 0.05 / 0.5)
        assert not rep["degenerate"]

    def test_degenerate_flagged(self):
        rep = theorem3_ci(np.array([1.0]), 0.1, 0.05, {1.0: 0.5}, 0.1)
        assert rep["degenerate"]
        assert math.isinf(rep["radius"][1.0])

    def test_hand_value(self):
        rep = theorem3_ci(np.array([1.0]), 0.05, 0.01, {2.0: 0.5}, 0.5)
        assert rep["radius"][2.0] == pytest.approx(0.26667, abs=1e-4)

    def test_coordinate_radii(self):
        rep = theorem3_ci(np.array([1.0]), 0.05, 0.01, {}, 0.5,
                          kappa_hat_star={1: 0.5})
        assert rep["coord_radius"][1] == pytest.approx(0.26667, abs=1e-4)


class TestChainConsistency:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("s", [1, 2])
    def test_k2_k4_with_q2_oracle(self, seed, s):
        psi = normalized_gram(4, 50, 700 + seed)
        kinf = kappa_inf_exact(psi, s).value
        k2_lb = kappa_q_from_inf(kinf, s, 2.0)
        kappa2 = sphere_cone_min(psi, s, q=2.0, seed=seed)
        assert kappa2 >= k2_lb - 1e-6        # (k2) at q=2
        if 2 * s <= psi.shape[0]:
            kre2s = re_constant_bruteforce(psi, 2 * s, grid_resolution=25)
            assert kappa2 >= c_q(2.0) * s ** -0.5 * kre2s - 1e-6   # (k4)


def test_interpolation_inequality(rng):
    for _ in range(500):
        d = rng.standard_normal(rng.integers(2, 8))
        q = float(rng.uniform(1.000001, 2.0))
        lq = np.sum(np.abs(d) ** q)
        l1 = np.sum(np.abs(d))
        l2 = np.sqrt(np.sum(d ** 2))
        assert lq <= l1 ** (2 - q) * l2 ** (2 * (q - 1)) * (1 + 1e-10)


class TestFailedLp:
    """An enumerated LP that is not OPTIMAL stops the enumeration: skipping
    it could leave a minimum that is too high."""

    def test_kappa_inf_exact_raises(self, third_lp_stops):
        psi = normalized_gram(4, 30, 3)
        with pytest.raises(sensitivity.SensitivityLpError) as e:
            kappa_inf_exact(psi, 2)
        # the bound pass comes first: LP 3 is anchor 2's relaxation
        err = e.value
        assert (err.status, err.J, err.sigma, err.anchor) == (
            LpStatus.ITERATION_LIMIT, None, None, 2)
        assert str(err) == ("sensitivity LP (J=None, sigma=None, "
                            "anchor=2) ended iteration_limit; "
                            "its minimum is unknown")
        assert len(third_lp_stops) == 3

    def test_kappa_inf_exact_raises_in_cone_lp(self, lp_stops):
        psi = normalized_gram(4, 30, 3)
        solved = lp_stops(4 + 2)
        with pytest.raises(sensitivity.SensitivityLpError) as e:
            kappa_inf_exact(psi, 2)
        # after the 4 relaxations, anchor 2 (the least bound) is visited
        # first: J = (0, 2) with sigma (+, +), then sigma (-, +)
        err = e.value
        assert (err.status, err.J, tuple(err.sigma), err.anchor) == (
            LpStatus.ITERATION_LIMIT, (0, 2), (-1.0, 1.0), 2)
        assert str(err) == ("sensitivity LP (J=(0, 2), sigma=(-1, 1), "
                            "anchor=2) ended iteration_limit; "
                            "its minimum is unknown")
        assert len(solved) == 6

    def test_kappa_star_relaxation_raises(self, lp_stops):
        # below the plan of C(7, 2)*4 = 84 LPs: the p anchor relaxations, of
        # which the first, anchor 0's, stops whatever coordinate is asked for
        psi = normalized_gram(7, 30, 5)
        solved = lp_stops(1)
        with pytest.raises(sensitivity.SensitivityLpError) as e:
            kappa_star(psi, 2, 3, budget_cap=83)
        err = e.value
        assert (err.status, err.J, err.sigma, err.anchor) == (
            LpStatus.ITERATION_LIMIT, None, None, 0)
        assert str(err) == ("sensitivity LP (J=None, sigma=None, "
                            "anchor=0) ended iteration_limit; "
                            "its minimum is unknown")
        assert len(solved) == 1

    def test_kappa_lower_bound_raises(self, third_lp_stops):
        psi = normalized_gram(4, 30, 3)
        with pytest.raises(sensitivity.SensitivityLpError) as e:
            kappa_lower_bound(psi, 2)
        err = e.value
        assert (err.status, err.J, err.sigma, err.anchor) == (
            LpStatus.ITERATION_LIMIT, None, None, 2)
        assert "ended iteration_limit" in str(err)
        assert len(third_lp_stops) == 3
