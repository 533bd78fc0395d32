"""Masking pipeline: Bernoulli masks, rescaling, pi and sigma estimation."""

import numpy as np
import pytest

from musel.missing import (apply_mask, check_no_dead_columns, estimate_pi,
                           rescale, sigma_hat, sigma_true)


class TestApplyMask:
    def test_pi_zero_identity(self, rng):
        X = rng.standard_normal((5, 4))
        assert np.array_equal(apply_mask(X, 0.0, rng_seed=1), X)

    def test_same_seed_same_mask(self, rng):
        X = rng.standard_normal((10, 10))
        m1 = apply_mask(X, 0.3, rng_seed=99)
        m2 = apply_mask(X, 0.3, rng_seed=99)
        assert np.array_equal(m1, m2)

    def test_empirical_fraction(self):
        X = np.ones((100, 100))
        frac = np.mean(apply_mask(X, 0.5, rng_seed=5) == 0.0)
        se = np.sqrt(0.25 / 10_000)
        assert abs(frac - 0.5) <= 3 * se

    def test_pi_out_of_range(self, rng):
        X = rng.standard_normal((3, 2))
        for pi in (1.0, np.nan, -0.1, [0.1, np.nan]):
            with pytest.raises(ValueError, match="outside"):
                apply_mask(X, pi, rng_seed=0)


class TestRescale:
    def test_pi_zero_identity(self, rng):
        X = rng.standard_normal((4, 3))
        Z_tilde = apply_mask(X, 0.0, rng_seed=2)
        assert np.array_equal(rescale(Z_tilde, 0.0), X)

    def test_direct_arithmetic(self):
        assert rescale(np.array([[1.0]]), [0.5])[0, 0] == pytest.approx(2.0)

    def test_rescaled_noise_zero_mean(self, rng):
        # 10^4 independent masks of one row via row tiling
        reps = 10_000
        x = np.array([1.5, -2.0, 0.7])
        X = np.tile(x, (reps, 1))
        Z = rescale(apply_mask(X, 0.25, rng_seed=11), 0.25)
        Xi = Z - X
        means = Xi.mean(axis=0)
        sd = np.sqrt((x ** 2) * 0.25 / 0.75)
        assert np.all(np.abs(means) <= 3 * sd / np.sqrt(reps))


class TestEstimatePi:
    def test_no_zeros(self, rng):
        Z = np.abs(rng.standard_normal((6, 5))) + 0.1
        assert estimate_pi(Z) == 0.0

    def test_all_zeros_rejected_downstream(self):
        Z_tilde = np.zeros((4, 3))
        assert estimate_pi(Z_tilde) == 1.0
        with pytest.raises(ValueError, match="column 0"):
            check_no_dead_columns(Z_tilde)

    def test_binomial_concentration(self, rng):
        n, p, pi = 100, 500, 0.1
        X = rng.standard_normal((n, p))
        pi_hat = estimate_pi(apply_mask(X, pi, rng_seed=21))
        se = np.sqrt(pi * (1 - pi) / (n * p))
        assert abs(pi_hat - pi) <= 3 * se

    def test_per_column_mode(self, rng):
        X = rng.standard_normal((200, 3))
        Z_tilde = apply_mask(X, [0.0, 0.2, 0.5], rng_seed=3)
        per = estimate_pi(Z_tilde, mode="per-column")
        assert per.shape == (3,)
        assert per[0] == 0.0
        assert abs(per[2] - 0.5) < 0.15

    @pytest.mark.parametrize("mode", ["column", "Pooled"])
    def test_bad_mode_rejected(self, mode):
        with pytest.raises(ValueError) as e:
            estimate_pi(np.eye(3), mode=mode)
        assert str(e.value) == ("mode must be 'pooled' or 'per-column', "
                                f"got {mode!r}")


class TestSigmaHat:
    def test_pi_zero(self, rng):
        X = rng.standard_normal((5, 2))
        Z_tilde = apply_mask(X, 0.0, rng_seed=1)
        assert np.all(sigma_hat(Z_tilde, 0.0) == 0.0)

    def test_hand_value(self):
        sh = sigma_hat(np.array([[1.0], [2.0]]), [0.5])
        assert sh[0] == pytest.approx(5.0)

    def test_unbiasedness_monte_carlo(self):
        # 10^4 iid sigma_hat draws: tile the column across batches of columns
        reps, n, pi = 10_000, 20, 0.3
        batch = 1000
        rng = np.random.default_rng(8)
        col = rng.standard_normal(n)
        draws = []
        for k in range(reps // batch):
            X = np.tile(col[:, None], (1, batch))
            draws.append(sigma_hat(apply_mask(X, pi, rng_seed=13 + k), pi))
        draws = np.concatenate(draws)
        target = sigma_true(col[:, None], pi)[0]
        se = draws.std(ddof=1) / np.sqrt(reps)
        assert abs(draws.mean() - target) <= 3 * se

    def test_dead_column_rejected(self):
        Z = np.array([[0.0, 1.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match="column 0"):
            sigma_hat(Z, 0.5)


class TestSigmaTrue:
    def test_pi_zero(self, rng):
        X = rng.standard_normal((4, 2))
        assert np.all(sigma_true(X, 0.0) == 0.0)

    def test_hand_value(self):
        assert sigma_true(np.ones((2, 1)), 0.5)[0] == pytest.approx(1.0)

    def test_quadratic_scaling(self, rng):
        X = rng.standard_normal((6, 3))
        assert np.allclose(sigma_true(3.0 * X, 0.2), 9.0 * sigma_true(X, 0.2))


def test_identity_pipeline_when_nothing_missing(rng):
    X = rng.standard_normal((10, 4))
    Z_tilde = apply_mask(X, 0.0, rng_seed=17)
    assert np.array_equal(rescale(Z_tilde, 0.0), X)
    assert np.all(sigma_hat(Z_tilde, 0.0) == 0.0)
    assert estimate_pi(Z_tilde) == 0.0
