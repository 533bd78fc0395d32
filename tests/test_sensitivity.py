"""Sensitivity machinery: exact values vs grid oracles, the (k1)-(k4) bound
chain, certificates, and the bound/CI report functions."""

import math

import numpy as np
import pytest

from musel.core import _project_to_cone, gram, pattern_search_min, coherence, re_constant_bruteforce
from musel.sensitivity import (BudgetExceededError, c_q, empirical_gram,
                               in_cone, kappa_inf_exact, kappa_lower_bound,
                               kappa_one, kappa_q_from_inf, kappa_star,
                               theorem1_bounds, theorem2_bounds, theorem3_ci)

from conftest import normalized_gram


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
    from itertools import combinations
    p = psi.shape[0]
    rng = np.random.default_rng(seed)
    best = np.inf
    for J in combinations(range(p), s):
        mask = np.zeros(p, dtype=bool)
        mask[list(J)] = True

        def fun(d, _m=mask):
            d = _project_to_cone(d, _m)
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

    def test_budget_error(self):
        with pytest.raises(BudgetExceededError, match="kappa_lower_bound"):
            kappa_inf_exact(np.eye(40), 3, budget_cap=1000)

    # (routine, Gram seed, s, scale the certificate is normalized to): all
    # three share one certificate code path, so each must return a vector
    # that attains its value.  kappa_one carries a certificate only when
    # promoted to exact, which the seed-8 Gram at s=1 is.
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
        assert r.kind == "exact"          # promoted on p <= 4

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
        relaxed = kappa_star(psi, 1, 2, exact_p_max=4)
        assert exact.kind == "exact" and relaxed.kind == "lower_bound"
        assert relaxed.value <= exact.value + 1e-8


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

    def test_nonincreasing_in_s(self):
        psi = normalized_gram(6, 50, 5)
        vals = [kappa_lower_bound(psi, s).value for s in (1, 2, 3)]
        assert vals[0] >= vals[1] - 1e-12 >= vals[2] - 2e-12


class TestEmpiricalGram:
    def test_no_compensation(self, rng):
        Z = rng.standard_normal((10, 4))
        assert np.allclose(empirical_gram(Z), gram(Z), atol=1e-15)

    def test_exact_when_noiseless(self, rng):
        X = rng.standard_normal((12, 3))
        assert np.array_equal(empirical_gram(X), X.T @ X / 12)

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
                est = empirical_gram(Z, dhat)
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
