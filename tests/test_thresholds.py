"""Threshold calculus: formula values against a high-precision Decimal oracle,
scaling laws, and Monte Carlo coverage of the deviation bounds."""

import json
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from musel.core import error_matrices, normalize_design
from musel.missing import apply_mask, sigma_hat, sigma_true
from musel.thresholds import (NoiseParams, Thresholds, b_missing, delta_bar,
                              nu_bound, subgaussian_deltas, thresholds_for)

getcontext().prec = 50


def dec_sqrt(x):
    return Decimal(x).sqrt()


def dec_log(x):
    return Decimal(x).ln()


class TestDeltaBar:
    def test_sqrt_branch_dominates(self):
        # enormous t0 kills the second branch
        v = delta_bar(0.1, 4, gamma0=1.0, t0=1e12, n=25)
        expect = math.sqrt(2 * math.log(40) / 25)
        assert v == pytest.approx(expect, rel=1e-12)

    def test_linear_branch_value_decimal_oracle(self):
        # gamma0=1, t0=0.001, n=10, N=2, eps=0.1: second branch dominates
        v = delta_bar(0.1, 2, gamma0=1.0, t0=0.001, n=10)
        oracle = 2 * dec_log(Decimal(2) / Decimal("0.1")) / (Decimal("0.001") * 10)
        assert v == pytest.approx(float(oracle), rel=1e-12)
        assert v == pytest.approx(599.146454710798, rel=1e-10)

    def test_positive(self):
        assert delta_bar(0.99, 1, 0.5, 0.5, 1000) > 0

    def test_eps_range(self):
        with pytest.raises(ValueError):
            delta_bar(0.0, 2, 1.0, 1.0, 10)
        with pytest.raises(ValueError):
            delta_bar(1.0, 2, 1.0, 1.0, 10)


class TestSubgaussianDeltas:
    def test_p1_has_zero_delta4(self):
        params = NoiseParams(gamma_xi=0.1, gamma_Xi=0.2, epsilon=0.05, n=50, p=1)
        d = subgaussian_deltas(params)
        assert d[3] == 0.0
        assert all(v >= 0 for v in d)

    def test_delta1_decimal_oracle(self):
        params = NoiseParams(gamma_xi=1.0, gamma_Xi=1.0, epsilon=0.05,
                             n=100, p=2, m2=1.0)
        d = subgaussian_deltas(params)
        oracle = dec_sqrt(2 * dec_log(Decimal(2 * 2 ** 2) / Decimal("0.05")) / 100)
        assert d[0] == pytest.approx(float(oracle), rel=1e-12)
        assert d[0] == pytest.approx(0.3185961021492205, rel=1e-12)

    def test_gamma_scaling(self):
        base = NoiseParams(gamma_xi=0.3, gamma_Xi=0.5, epsilon=0.1, n=80, p=4,
                           gamma0=1.0, t0=1.0)
        double = NoiseParams(gamma_xi=0.3, gamma_Xi=1.0, epsilon=0.1, n=80, p=4,
                             gamma0=1.0, t0=1.0)
        d1 = subgaussian_deltas(base)
        d2 = subgaussian_deltas(double)
        assert d2[0] == pytest.approx(2 * d1[0], rel=1e-12)
        assert d2[1] == d1[1]

    def test_sqrt_n_scaling(self):
        # gamma branch: quadrupling n halves every delta (same log terms)
        kw = dict(gamma_xi=0.2, gamma_Xi=0.2, epsilon=0.05, p=10,
                  gamma0=1.0, t0=1e9)
        d_n = subgaussian_deltas(NoiseParams(n=100, **kw))
        d_4n = subgaussian_deltas(NoiseParams(n=400, **kw))
        for a, b in zip(d_4n, d_n):
            assert 0.45 <= a / b <= 0.55


class TestBMissing:
    def test_zero_at_pi_zero(self):
        assert b_missing(0.05, 0.0, 1.0, 100, 10) == 0.0

    def test_value_decimal_oracle(self):
        v = b_missing(0.05, 0.1, 1.0, 100, 500)
        oracle = (Decimal("0.1") / Decimal("0.9") ** 2
                  * dec_sqrt(dec_log(Decimal(1000) / Decimal("0.05")) / 200))
        assert v == pytest.approx(float(oracle), rel=1e-12)
        assert v == pytest.approx(0.02747226, rel=1e-6)

    def test_monotone_in_pi(self):
        vals = [b_missing(0.05, pi, 1.0, 100, 20) for pi in (0.1, 0.3, 0.6)]
        assert vals[0] < vals[1] < vals[2]

    def test_pi_range(self):
        with pytest.raises(ValueError):
            b_missing(0.05, 1.0, 1.0, 100, 10)


class TestAssemble:
    def test_zeros(self):
        th = Thresholds(delta=(0, 0, 0, 0, 0), b=0.0)
        assert th.mu_eps == 0.0 and th.tau_eps == 0.0

    def test_direct_sum(self):
        th = Thresholds(delta=(1, 2, 3, 4, 5), b=6)
        assert th.mu_eps == 16.0
        assert th.tau_eps == 5.0

    def test_invariant_recomputed(self):
        th = Thresholds(delta=(0.1, 0.2, 0.3, 0.4, 0.5), b=0.6)
        assert th.mu_eps == pytest.approx(th.delta[0] + th.delta[3]
                                          + th.delta[4] + th.b, abs=0)
        assert th.tau_eps == pytest.approx(th.delta[1] + th.delta[2], abs=0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Thresholds(delta=(-1, 0, 0, 0, 0), b=0.0)

    def test_mu_decreasing_in_n(self):
        kw = dict(gamma_xi=0.05, gamma_Xi=0.2, epsilon=0.05, p=20)
        t100 = thresholds_for(NoiseParams(n=100, **kw))
        t400 = thresholds_for(NoiseParams(n=400, **kw))
        assert t400.mu_eps < t100.mu_eps

    def test_json_echoes_inputs(self):
        th = Thresholds(delta=(1, 2, 3, 4, 5), b=6)
        blob = json.loads(th.to_json(inputs={"n": 100, "p": 5}))
        assert blob["inputs"] == {"n": 100, "p": 5}
        assert blob["mu_eps"] == 16.0


class TestNuBound:
    def test_zero_theta(self):
        th = Thresholds(delta=(0.1, 0.2, 0.3, 0.4, 0.5), b=0.0)
        assert nu_bound(th, 0.1, 0.0) == pytest.approx(2 * th.tau_eps)

    def test_hand_value(self):
        # mu=0.1, delta1=0.02, tau=0.01, |theta*|_1=1.5 ->
        # 2*(0.12)*1.5 + 2*0.01 = 0.38
        th = Thresholds(delta=(0.0, 0.01, 0.0, 0.0, 0.0), b=0.1)
        assert th.mu_eps == pytest.approx(0.1)
        assert th.tau_eps == pytest.approx(0.01)
        assert nu_bound(th, 0.02, 1.5) == pytest.approx(0.38)

    def test_affine_in_theta(self):
        th = Thresholds(delta=(0.1, 0.2, 0.3, 0.4, 0.5), b=0.0)
        slope = 2 * (th.mu_eps + 0.05)
        v1 = nu_bound(th, 0.05, 1.0)
        v2 = nu_bound(th, 0.05, 2.0)
        assert v2 - v1 == pytest.approx(slope, rel=1e-12)


class TestCoverage:
    """Monte Carlo coverage of the deviation bounds at n=100, p=20."""

    @pytest.mark.parametrize("eps", [0.05, 0.1])
    def test_pr2_error_matrix_coverage(self, eps):
        n, p, reps = 100, 20, 500
        gamma_Xi, gamma_xi = 0.2, 0.05
        rng = np.random.default_rng(42)
        X = normalize_design(rng.standard_normal((n, p)))
        m2 = float(np.max((X ** 2).mean(axis=0)))
        params = NoiseParams(gamma_xi=gamma_xi, gamma_Xi=gamma_Xi, epsilon=eps,
                             n=n, p=p, m2=m2)
        d = subgaussian_deltas(params)
        D = np.full(p, gamma_Xi ** 2)
        exceed = np.zeros(5)
        for _ in range(reps):
            Xi = gamma_Xi * rng.standard_normal((n, p))
            xi = gamma_xi * rng.standard_normal(n)
            em = error_matrices(X, Xi, xi, D)
            vals = [np.max(np.abs(em.M1)), np.max(np.abs(em.M2)),
                    np.max(np.abs(em.M3)), np.max(np.abs(em.M4)),
                    np.max(np.abs(em.M5))]
            for i in range(5):
                exceed[i] += vals[i] >= d[i]
        se = math.sqrt(eps * (1 - eps) / reps)
        for i in range(5):
            assert exceed[i] / reps <= eps + 3 * se, f"delta_{i+1} coverage"

    def test_pr1_sigma_hat_coverage(self):
        n, p, reps, eps, pi = 100, 20, 500, 0.05, 0.1
        rng = np.random.default_rng(7)
        X = normalize_design(rng.standard_normal((n, p)))
        m4 = float(np.max((X ** 4).mean(axis=0)))
        b = b_missing(eps, pi, m4, n, p)
        truth = sigma_true(X, pi)
        count = 0
        for rep in range(reps):
            sh = sigma_hat(apply_mask(X, pi, rng_seed=rep), pi)
            count += np.max(np.abs(sh - truth)) >= b
        se = math.sqrt(eps * (1 - eps) / reps)
        assert count / reps <= eps + 3 * se
