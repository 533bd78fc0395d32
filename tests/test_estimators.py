"""Selector tests: LP construction, solutions against a grid brute-force
oracle, reductions, feasibility, and the pair-form equivalence."""

from dataclasses import replace

import numpy as np
import pytest

from musel.estimators import (SelectorConfig, build_cmu_lp,
                              build_cmu_lp_direct, feasibility_check,
                              lift_to_pair, selector_gram,
                              solve_compensated_mu, solve_dantzig,
                              solve_missing_data_cmu, solve_mu_selector)
from musel.lp import LpStatus, solve_lp
from musel.missing import MaskedDesign, estimate_pi, rescale, sigma_hat

from conftest import selector_instance


def grid_min_l1(G, c, mu, tau, radius, center, base_res=15, local_res=11,
                zoom_rounds=6):
    """Brute-force min of sum(theta) over the nonnegative feasible set.

    One coarse global grid over [0, radius]^p plus shrinking local grids
    around ``center`` (the candidate optimum).  Every point's feasibility
    |c - G theta|_inf <= mu*sum(theta) + tau is recomputed here, so the
    check is independent of the solver; ``center`` itself joins the sample
    only if it passes.  Returns np.inf when nothing feasible is found.
    """
    p = G.shape[0]

    def best_over(points):
        resid = np.abs(c[None, :] - points @ G.T).max(axis=1)
        slack = mu * points.sum(axis=1) + tau
        feas = resid <= slack + 1e-12
        if not feas.any():
            return np.inf
        return float(points[feas].sum(axis=1).min())

    axes = [np.linspace(0.0, radius, base_res)] * p
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p)
    best = best_over(mesh)
    best = min(best, best_over(center[None, :]))
    width = radius / 2.0
    for _ in range(zoom_rounds):
        axes = [np.linspace(max(0.0, center[j] - width),
                            center[j] + width, local_res) for j in range(p)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p)
        best = min(best, best_over(mesh))
        width *= 0.35
    return best


def cmu_objective_vs_grid(seed, p, n, mu, tau_scale=1.0):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    dhat = np.abs(rng.standard_normal(p)) * 0.05
    G, c = selector_gram(Z, y, dhat)
    tau = tau_scale * 0.5 * float(np.max(np.abs(c)))
    cfg = SelectorConfig(mu=mu, tau=tau, compensation=dhat)
    est = solve_compensated_mu(Z, y, cfg)
    assert est.status is LpStatus.OPTIMAL
    radius = 2.0 * (est.l1_norm + 1.0)
    ref = grid_min_l1(G, c, mu, tau, radius, center=est.theta)
    return est.l1_norm, ref


class TestBuildCmuLp:
    def test_p1_zero_feasible(self):
        cfg = SelectorConfig(mu=0.0, tau=1.0, compensation=np.zeros(1))
        lp = build_cmu_lp(np.array([[1.0]]), np.array([0.0]), cfg)
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(0.0, abs=1e-10)

    def test_p2_hand_assembled_matrix(self):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((3, 2))
        y = rng.standard_normal(3)
        dhat = np.array([0.1, 0.2])
        mu, tau = 0.3, 0.4
        cfg = SelectorConfig(mu=mu, tau=tau, compensation=dhat)
        lp = build_cmu_lp(Z, y, cfg)

        # independent assembly, entry by entry
        n = 3
        G = np.empty((2, 2))
        for j in range(2):
            for k in range(2):
                G[j, k] = sum(Z[i, j] * Z[i, k] for i in range(n)) / n
        G[0, 0] -= dhat[0]
        G[1, 1] -= dhat[1]
        c_vec = np.array([sum(Z[i, j] * y[i] for i in range(n)) / n
                          for j in range(2)])
        expect_A = np.zeros((8, 4))
        expect_b = np.zeros(8)
        expect_A[0:2, 0:2] = -G
        expect_A[0:2, 2:4] = np.eye(2)
        expect_b[0:2] = tau - c_vec
        expect_A[2:4, 0:2] = G
        expect_A[2:4, 2:4] = -np.eye(2)
        expect_b[2:4] = tau + c_vec
        expect_A[4:6, 0:2] = -mu
        expect_A[4:6, 2:4] = np.eye(2)
        expect_A[6:8, 0:2] = -mu
        expect_A[6:8, 2:4] = -np.eye(2)
        assert lp.A_ub.shape == (8, 4)
        assert np.max(np.abs(lp.A_ub - expect_A)) == 0.0
        assert np.max(np.abs(lp.b_ub - expect_b)) == 0.0
        assert np.array_equal(lp.c, [1.0, 1.0, 0.0, 0.0])

    def test_mu_zero_collapses_to_dantzig(self):
        rng = np.random.default_rng(11)
        Z = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        cfg = SelectorConfig(mu=0.0, tau=0.2, compensation=np.zeros(3))
        pair = solve_lp(build_cmu_lp(Z, y, cfg))
        dz = solve_dantzig(Z, y, 0.2)
        assert pair.status is LpStatus.OPTIMAL
        assert pair.objective_value == pytest.approx(dz.l1_norm, abs=1e-8)
        # u box collapses to zero
        assert np.max(np.abs(pair.x[3:])) <= 1e-9

    def test_free_domain_rejected(self):
        cfg = SelectorConfig(mu=0.1, tau=0.1, compensation=np.zeros(2),
                             domain="free")
        with pytest.raises(ValueError, match="nonneg"):
            build_cmu_lp(np.eye(2), np.zeros(2), cfg)


class TestPairDirectEquivalence:
    @pytest.mark.parametrize("seed", range(50))
    def test_objectives_match(self, seed):
        rng = np.random.default_rng(500 + seed)
        p, n = int(rng.integers(2, 5)), int(rng.integers(2, 7))
        Z = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        dhat = np.abs(rng.standard_normal(p)) * 0.1
        mu = float(rng.random() * 0.3)
        tau = float(rng.random() * 0.5 + 0.05)
        cfg = SelectorConfig(mu=mu, tau=tau, compensation=dhat)
        pair = solve_lp(build_cmu_lp(Z, y, cfg))
        direct = solve_lp(build_cmu_lp_direct(Z, y, cfg))
        assert pair.status == direct.status
        if pair.status is LpStatus.OPTIMAL:
            assert pair.objective_value == pytest.approx(
                direct.objective_value, abs=1e-8)


class TestSolveCompensatedMu:
    def test_exactly_determined(self):
        cfg = SelectorConfig(mu=0.0, tau=0.0, compensation=np.zeros(1))
        est = solve_compensated_mu(np.array([[1.0]]), np.array([1.0]), cfg)
        assert est.status is LpStatus.OPTIMAL
        assert est.theta[0] == pytest.approx(1.0, abs=1e-10)

    def test_zero_response(self, rng):
        Z = rng.standard_normal((6, 4))
        cfg = SelectorConfig(mu=0.2, tau=0.1, compensation=np.full(4, 0.05))
        est = solve_compensated_mu(Z, np.zeros(6), cfg)
        assert est.l1_norm == 0.0
        assert est.support.size == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_vs_grid_oracle(self, seed):
        val, ref = cmu_objective_vs_grid(seed, p=3, n=4, mu=0.1)
        assert val == pytest.approx(ref, abs=1e-4 * max(1.0, ref))

    def test_requires_compensation(self, rng):
        Z = rng.standard_normal((3, 2))
        cfg = SelectorConfig(mu=0.1, tau=0.1)
        with pytest.raises(ValueError, match="compensation"):
            solve_compensated_mu(Z, np.zeros(3), cfg)

    def test_infeasible_surfaced(self):
        # |y - theta| <= tau with y < -tau has no nonnegative solution
        Z = np.array([[1.0]])
        y = np.array([-1.0])
        cfg = SelectorConfig(mu=0.0, tau=0.5, compensation=np.zeros(1))
        est = solve_compensated_mu(Z, y, cfg)
        assert est.status is LpStatus.INFEASIBLE

    def test_monotone_in_tau_and_mu(self, rng):
        Z = rng.standard_normal((8, 5))
        y = rng.standard_normal(8)
        base = None
        for tau in (0.3, 0.5, 0.8):
            est = solve_mu_selector(Z, y, SelectorConfig(mu=0.05, tau=tau))
            if base is not None:
                assert est.l1_norm <= base + 1e-9
            base = est.l1_norm
        base = None
        for mu in (0.0, 0.1, 0.3):
            est = solve_mu_selector(Z, y, SelectorConfig(mu=mu, tau=0.3))
            if base is not None:
                assert est.l1_norm <= base + 1e-9
            base = est.l1_norm


class TestSolveMuSelector:
    def test_square_invertible_interpolation(self):
        # mu = tau = 0 with invertible Z and nonnegative solution:
        # the unique feasible theta solves Z theta = y
        Z = np.array([[2.0, 1.0], [1.0, 3.0]])
        target = np.array([0.5, 1.0])
        y = Z @ target
        est = solve_mu_selector(Z, y, SelectorConfig(mu=0.0, tau=0.0))
        direct = np.linalg.solve(Z.T @ Z / 2, Z.T @ y / 2)
        assert np.allclose(est.theta, direct, atol=1e-8)
        assert np.allclose(est.theta, target, atol=1e-8)


class TestSolveDantzig:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_cmu_mu0_bitwise(self, seed):
        rng = np.random.default_rng(300 + seed)
        Z = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        e1 = solve_dantzig(Z, y, tau=0.25)
        cfg = SelectorConfig(mu=0.0, tau=0.25, compensation=np.zeros(3))
        e2 = solve_compensated_mu(Z, y, cfg)
        assert np.array_equal(e1.theta, e2.theta)
        assert e1.l1_norm == e2.l1_norm

    def test_large_tau_gives_zero(self, rng):
        Z = rng.standard_normal((6, 4))
        y = rng.standard_normal(6)
        _, c = selector_gram(Z, y)
        est = solve_dantzig(Z, y, tau=float(np.max(np.abs(c))) + 0.01)
        assert est.l1_norm == 0.0

    def test_seeded_vs_grid_oracle(self):
        val, ref = cmu_objective_vs_grid(77, p=3, n=5, mu=0.0)
        assert val == pytest.approx(ref, abs=1e-4 * max(1.0, ref))


class TestMissingData:
    def test_no_missingness_collapse(self, rng):
        Z = np.abs(rng.standard_normal((6, 3))) + 0.2
        y = rng.standard_normal(6)
        cfg = SelectorConfig(mu=0.1, tau=0.2)
        est = solve_missing_data_cmu(Z, y, pi=0.0, config=cfg)
        ref = solve_mu_selector(Z, y, cfg)
        assert np.array_equal(est.theta, ref.theta)

    def test_dead_column_named(self, rng):
        Z = rng.standard_normal((4, 3))
        Z[:, 1] = 0.0
        cfg = SelectorConfig(mu=0.1, tau=0.2)
        with pytest.raises(ValueError, match="column 1"):
            solve_missing_data_cmu(Z, np.zeros(4), pi=0.5, config=cfg)
        with pytest.raises(ValueError, match="column 1"):
            solve_missing_data_cmu(Z, np.zeros(4), pi=None, config=cfg)

    def test_rescale_vs_direct_paths_close(self):
        # known-pi rescaled route vs the masked-design route with estimated
        # pi; the gap shrinks with |pi_hat - pi| and must stay small
        X, theta, y, Z_tilde = selector_instance(31, n=20, p=5, s=1, pi=0.1)
        from musel.missing import MaskedDesign, estimate_pi
        pi_hat = estimate_pi(MaskedDesign(Z_tilde=Z_tilde))
        cfg = SelectorConfig(mu=0.11, tau=0.05)
        a = solve_missing_data_cmu(Z_tilde, y, pi=0.1, config=cfg,
                                   path="rescale")
        b = solve_missing_data_cmu(Z_tilde, y, pi=None, config=cfg,
                                   path="direct")
        assert a.status is LpStatus.OPTIMAL and b.status is LpStatus.OPTIMAL
        gap = float(np.sum(np.abs(a.theta - b.theta)))
        assert gap <= 1.0 * (abs(pi_hat - 0.1) + 0.05) * (a.l1_norm + 1.0)

    def test_direct_residual_is_masked_program(self):
        _, _, y, Z_tilde = selector_instance(32, n=20, p=5, s=1, pi=0.1)
        cfg = SelectorConfig(mu=0.11, tau=0.05)
        est = solve_missing_data_cmu(Z_tilde, y, pi=None, config=cfg,
                                     path="direct")
        masked = MaskedDesign(Z_tilde=Z_tilde)
        pi = estimate_pi(masked)
        G = Z_tilde.T @ Z_tilde / 20
        G[np.diag_indices_from(G)] -= sigma_hat(masked, pi).sigma_hat_sq
        c = (1.0 - pi) * (Z_tilde.T @ y) / 20
        l1 = float(np.sum(np.abs(est.theta)))
        expect = float(np.max(np.abs(c - G @ est.theta))) - (0.11 * l1 + 0.05)
        assert est.residual == expect

    def test_direct_needs_scalar_pi(self, rng):
        Z = np.abs(rng.standard_normal((5, 3))) + 0.1
        cfg = SelectorConfig(mu=0.1, tau=0.2)
        with pytest.raises(ValueError, match="scalar"):
            solve_missing_data_cmu(Z, np.zeros(5), pi=[0.1, 0.2, 0.1],
                                   config=cfg, path="direct")


class TestFeasibilityCheck:
    def test_solver_outputs_feasible(self, rng):
        for seed in range(5):
            rng = np.random.default_rng(800 + seed)
            Z = rng.standard_normal((7, 4))
            y = rng.standard_normal(7)
            cfg = SelectorConfig(mu=0.1, tau=0.3, compensation=np.zeros(4))
            est = solve_compensated_mu(Z, y, cfg)
            if est.status is LpStatus.OPTIMAL:
                residual, feasible = feasibility_check(est.theta, Z, y, cfg)
                assert feasible, residual

    def test_zero_with_large_tau(self, rng):
        Z = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        _, c = selector_gram(Z, y)
        cfg = SelectorConfig(mu=0.0, tau=float(np.max(np.abs(c))) + 0.1,
                             compensation=np.zeros(3))
        residual, feasible = feasibility_check(np.zeros(3), Z, y, cfg)
        assert feasible and residual < 0


class TestResidual:
    """Estimate.residual is the residual of the program the selector solved,
    bit for bit what feasibility_check reports for the same program."""

    @pytest.mark.parametrize("case", ["mu", "cmu", "dantzig", "free",
                                      "missing"])
    def test_matches_feasibility_check(self, case):
        X, _, y, Z_tilde = selector_instance(33, n=20, p=6, s=1, pi=0.1)
        cfg = SelectorConfig(mu=0.11, tau=0.05,
                             domain="free" if case == "free" else "nonneg")
        Z = X
        if case in ("mu", "free"):
            est = solve_mu_selector(X, y, cfg)
        elif case == "cmu":
            cfg = replace(cfg, compensation=np.full(6, 0.02))
            est = solve_compensated_mu(X, y, cfg)
        elif case == "dantzig":
            cfg = SelectorConfig(mu=0.0, tau=0.05)
            est = solve_dantzig(X, y, 0.05)
        else:
            est = solve_missing_data_cmu(Z_tilde, y, pi=0.1, config=cfg)
            masked = MaskedDesign(Z_tilde=Z_tilde)
            Z = rescale(masked, 0.1)
            cfg = replace(cfg, compensation=sigma_hat(masked, 0.1).sigma_hat_sq)
        assert est.status is LpStatus.OPTIMAL
        residual, feasible = feasibility_check(est.theta, Z, y, cfg)
        assert est.residual == residual
        assert feasible


class TestLiftToPair:
    def test_zero_residual_gives_zero_u(self):
        Z = np.array([[1.0]])
        y = np.array([1.0])
        cfg = SelectorConfig(mu=0.5, tau=0.0, compensation=np.zeros(1))
        u = lift_to_pair(np.array([1.0]), Z, y, cfg)
        assert u[0] == pytest.approx(0.0, abs=1e-15)

    def test_scalar_clipping_case(self):
        # N = 0.5, mu*|theta|_1 = 0.3, tau = 0.2: u = -0.3 and |N+u| = 0.2
        # constructed via Z = [1], theta = 1.5, mu = 0.2, y chosen so N = 0.5
        Z = np.array([[1.0]])
        theta = np.array([1.5])
        # N = c - G theta = y - theta (n=1, G=1) -> y = N + theta = 2.0
        y = np.array([2.0])
        cfg = SelectorConfig(mu=0.2, tau=0.2, compensation=np.zeros(1))
        u = lift_to_pair(theta, Z, y, cfg)
        assert u[0] == pytest.approx(-0.3)
        G, c = selector_gram(Z, y, np.zeros(1))
        N = c - G @ theta
        assert abs(N[0] + u[0]) <= 0.2 + 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_pair_membership(self, seed):
        rng = np.random.default_rng(600 + seed)
        Z = rng.standard_normal((6, 4))
        y = rng.standard_normal(6)
        cfg = SelectorConfig(mu=0.15, tau=0.3, compensation=np.zeros(4))
        est = solve_compensated_mu(Z, y, cfg)
        if est.status is not LpStatus.OPTIMAL:
            pytest.skip("infeasible draw")
        u = lift_to_pair(est.theta, Z, y, cfg)
        G, c = selector_gram(Z, y, np.zeros(4))
        N = c - G @ est.theta
        assert np.max(np.abs(N + u)) <= cfg.tau + 1e-9
        assert np.max(np.abs(u)) <= cfg.mu * est.l1_norm + 1e-9

    def test_infeasible_rejected(self, rng):
        Z = rng.standard_normal((4, 2))
        y = rng.standard_normal(4) + 5.0
        cfg = SelectorConfig(mu=0.0, tau=1e-6, compensation=np.zeros(2))
        with pytest.raises(ValueError, match="infeasible"):
            lift_to_pair(np.zeros(2), Z, y, cfg)


class TestStructuralProperties:
    def test_l1_minimality_and_cone(self):
        # when theta* is feasible: |theta_hat|_1 <= |theta*|_1 and the error
        # satisfies the cone inequality on the true support
        for seed in range(8):
            X, theta_star, y, Z_tilde = selector_instance(
                900 + seed, n=30, p=8, s=2, pi=0.1)
            cfg = SelectorConfig(mu=0.3, tau=0.3, compensation=np.zeros(8))
            residual, feasible = feasibility_check(theta_star, X, y, cfg)
            if not feasible:
                continue
            est = solve_compensated_mu(X, y, cfg)
            assert est.status is LpStatus.OPTIMAL
            assert est.l1_norm <= np.sum(np.abs(theta_star)) + 1e-9
            delta = est.theta - theta_star
            J = theta_star != 0
            assert (np.sum(np.abs(delta[~J]))
                    <= np.sum(np.abs(delta[J])) + 1e-9)


class TestFreeDomain:
    @pytest.mark.parametrize("seed", range(6))
    def test_fixed_point_feasible_and_not_worse(self, seed):
        rng = np.random.default_rng(700 + seed)
        Z = rng.standard_normal((8, 5))
        y = rng.standard_normal(8)
        mu, tau = 0.15, 0.1
        free_cfg = SelectorConfig(mu=mu, tau=tau, domain="free")
        est = solve_mu_selector(Z, y, free_cfg)
        assert est.status is LpStatus.OPTIMAL
        assert est.fp_converged
        chk = SelectorConfig(mu=mu, tau=tau, domain="free",
                             compensation=np.zeros(5))
        residual, feasible = feasibility_check(est.theta, Z, y, chk)
        assert feasible, residual
        nn = solve_mu_selector(Z, y, SelectorConfig(mu=mu, tau=tau))
        if nn.status is LpStatus.OPTIMAL:
            assert est.l1_norm <= nn.l1_norm + 1e-7
