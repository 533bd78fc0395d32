"""Core numerics: Gram, normalization, coherence, error matrices, RE oracle."""

import numpy as np
import pytest

from musel.core import (as_matrix, coherence, error_matrices, gram,
                        normalize_design)

from re_oracle import re_constant_bruteforce


def gram_tripleloop(X):
    """Independent O(n p^2) accumulation of X'X/n."""
    n, p = X.shape
    out = np.zeros((p, p))
    for j in range(p):
        for k in range(p):
            acc = 0.0
            for i in range(n):
                acc += X[i, j] * X[i, k]
            out[j, k] = acc / n
    return out


def power_iteration_lambda_min(psi, iters=5000):
    """lambda_min of a symmetric psd matrix via power iteration on c*I - psi."""
    c = float(np.abs(psi).sum(axis=1).max()) + 1.0
    M = c * np.eye(psi.shape[0]) - psi
    v = np.ones(psi.shape[0]) / np.sqrt(psi.shape[0])
    for _ in range(iters):
        w = M @ v
        v = w / np.linalg.norm(w)
    return c - float(v @ M @ v)


class TestGram:
    def test_identity(self):
        psi = gram(np.eye(2))
        assert np.allclose(psi, 0.5 * np.eye(2), atol=1e-15)

    def test_ones_column(self):
        psi = gram(np.ones((7, 1)))
        assert psi.shape == (1, 1) and psi[0, 0] == pytest.approx(1.0)

    def test_matches_tripleloop_oracle(self, rng):
        X = rng.standard_normal((5, 3))
        assert np.max(np.abs(gram(X) - gram_tripleloop(X))) <= 1e-12

    def test_psd_property(self, rng):
        X = rng.standard_normal((10, 6))
        psi = gram(X)
        for _ in range(100):
            v = rng.standard_normal(6)
            assert v @ psi @ v >= -1e-10

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gram(np.zeros((0, 3)))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(np.array([[1.0, np.nan]]))

    def test_diagonal_subtracted(self, rng):
        X = rng.standard_normal((6, 3))
        d = np.array([0.1, 0.0, 0.3])
        G = gram(X, d)
        assert np.array_equal(G, gram(X) - np.diag(d))
        assert np.array_equal(G[~np.eye(3, dtype=bool)],
                              gram(X)[~np.eye(3, dtype=bool)])

    @pytest.mark.parametrize("d, message", [
        ([0.1], "diag length 1 != p=3"),
        ([0.1, 0.2, 0.3, 0.4], "diag length 4 != p=3"),
        ([0.1, np.nan, 0.3], "non-finite"),
        (0.1, "1-D"),
    ])
    def test_diagonal_checked(self, rng, d, message):
        with pytest.raises(ValueError, match=message):
            gram(rng.standard_normal((6, 3)), d)


class TestNormalizeDesign:
    def test_already_centered_column(self):
        X = np.array([[1.0], [-1.0]])
        out = normalize_design(X)
        assert np.allclose(out, X)
        assert np.allclose(np.diag(gram(out)), 1.0, atol=1e-10)

    def test_shift_and_scale(self):
        out = normalize_design(np.array([[0.0], [2.0]]))
        assert np.allclose(out, [[-1.0], [1.0]])
        assert np.allclose(np.diag(gram(out)), 1.0, atol=1e-10)

    def test_constant_column_names_index(self):
        X = np.column_stack([np.arange(4.0), np.full(4, 3.0)])
        with pytest.raises(ValueError, match="column 1"):
            normalize_design(X)

    def test_unit_diagonal_property(self, rng):
        X = rng.standard_normal((20, 5)) * 3.0 + 1.0
        assert np.max(np.abs(np.diag(gram(normalize_design(X))) - 1.0)) <= 1e-10


class TestCoherence:
    def test_identity_zero(self):
        assert coherence(np.eye(3)) == 0.0

    def test_two_by_two(self):
        assert coherence(np.array([[1.0, 0.5], [0.5, 1.0]])) == pytest.approx(0.5)

    def test_scan_oracle(self, rng):
        p = 4
        off = np.array([[0.0, 0.1, -0.3, 0.2],
                        [0.1, 0.0, 0.05, -0.15],
                        [-0.3, 0.05, 0.0, 0.25],
                        [0.2, -0.15, 0.25, 0.0]])
        psi = np.eye(p) + off
        expect = max(abs(psi[i, j]) for i in range(p) for j in range(p) if i != j)
        assert coherence(psi) == pytest.approx(expect)

    def test_non_unit_diagonal_rejected(self):
        with pytest.raises(ValueError, match="unit diagonal"):
            coherence(np.array([[2.0, 0.1], [0.1, 1.0]]))


class TestErrorMatrices:
    def test_zero_noise(self, rng):
        X = rng.standard_normal((6, 3))
        D = np.array([0.2, 0.3, 0.4])
        em = error_matrices(X, np.zeros_like(X), np.zeros(6), D)
        assert np.all(em.M1 == 0) and np.all(em.M2 == 0)
        assert np.all(em.M3 == 0) and np.all(em.M4 == 0)
        assert np.array_equal(np.diag(em.M5), -D)

    def test_scalar_hand_case(self):
        em = error_matrices(np.array([[2.0]]), np.array([[3.0]]),
                            np.array([1.0]), np.array([9.0]))
        assert em.M1[0, 0] == pytest.approx(6.0)
        assert em.M2[0] == pytest.approx(2.0)
        assert em.M3[0] == pytest.approx(3.0)
        assert em.M4[0, 0] == 0.0
        assert em.M5[0, 0] == pytest.approx(0.0)

    def test_seeded_against_oracle(self, rng):
        X = rng.standard_normal((8, 4))
        Xi = rng.standard_normal((8, 4))
        xi = rng.standard_normal(8)
        em = error_matrices(X, Xi, xi, np.ones(4))
        assert np.all(np.diag(em.M4) == 0.0)
        # triple-loop oracle for M1
        n, p = X.shape
        M1 = np.zeros((p, p))
        for j in range(p):
            for k in range(p):
                M1[j, k] = sum(X[i, j] * Xi[i, k] for i in range(n)) / n
        assert np.max(np.abs(em.M1 - M1)) <= 1e-12

    def test_diag_split_reconstructs(self, rng):
        A = rng.standard_normal((5, 5))
        D = np.diag(np.diag(A))
        assert np.array_equal(D + (A - D), A)

    def test_dimension_mismatch(self, rng):
        X = rng.standard_normal((4, 3))
        with pytest.raises(ValueError):
            error_matrices(X, X[:, :2], np.zeros(4), np.ones(3))


class TestReConstant:
    def test_identity_near_one(self):
        val = re_constant_bruteforce(np.eye(4), 1, grid_resolution=50)
        assert val >= 0.99
        assert val <= 1.0 + 1e-9

    def test_coherence_implication(self):
        # unit diagonal, rho = 0.2 < 1/(3s): RE(s) >= sqrt(1 - 3*rho*s)
        psi = np.full((4, 4), 0.2)
        np.fill_diagonal(psi, 1.0)
        val = re_constant_bruteforce(psi, 1, grid_resolution=30)
        assert val >= np.sqrt(1 - 3 * 0.2 * 1) - 1e-9

    def test_s_equals_p_matches_lambda_min(self, rng):
        X = rng.standard_normal((30, 4))
        psi = gram(X)
        lam = power_iteration_lambda_min(psi)
        val = re_constant_bruteforce(psi, 4, grid_resolution=40)
        assert val == pytest.approx(lam, rel=1e-3)

    def test_p_cap_enforced(self):
        with pytest.raises(ValueError, match="p <="):
            re_constant_bruteforce(np.eye(9), 1)
