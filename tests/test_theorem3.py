"""Theorem 3 end to end, for a known compensation diagonal D: the radii
that theorem3_ci builds from the sensitivities of the plug-in Gram
gram(Z, D) cover the compensated selector's l_1 and l_inf errors."""

import numpy as np

from musel.core import gram
from musel.estimators import solve_compensated_mu
from musel.lp import LpStatus
from musel.sensitivity import kappa_inf_exact, kappa_one, theorem3_ci

from test_acceptance import _coverage_protocol

REPS = 60


def test_radii_cover_errors():
    ctx = _coverage_protocol()
    X, theta_star, cfg, th = ctx["X"], ctx["theta_star"], ctx["cfg"], ctx["th"]
    rng, s = ctx["rng"], ctx["s"]
    n, p = X.shape
    norms = {1.0: lambda d: float(np.sum(np.abs(d))),
             np.inf: lambda d: float(np.max(np.abs(d)))}
    covered = {q: 0 for q in norms}
    ratios = {q: [] for q in norms}
    for _ in range(REPS):
        Z = X + ctx["gamma_Xi"] * rng.standard_normal((n, p))
        y = X @ theta_star + ctx["gamma_xi"] * rng.standard_normal(n)
        est = solve_compensated_mu(Z, y, cfg)
        if est.status is not LpStatus.OPTIMAL:
            continue
        psi_hat = gram(Z, ctx["D"])
        k_one = kappa_one(psi_hat, s).value
        k_inf = kappa_inf_exact(psi_hat, s).value
        ci = theorem3_ci(est.theta, th.mu_eps, th.tau_eps,
                         {1.0: k_one, np.inf: k_inf}, k_one)
        for q, norm in norms.items():
            err, radius = norm(est.theta - theta_star), ci["radius"][q]
            covered[q] += err <= radius
            ratios[q].append(radius / err if err > 0 else np.inf)
    floor = 1 - 6 * ctx["eps"] - 0.05
    for q in norms:
        print(f"q={q}: radius covers the error in {covered[q]}/{REPS} runs "
              f"(need >= {floor:.2f}); median radius/error "
              f"{np.median(ratios[q]):.3g}")
    assert all(covered[q] >= floor * REPS for q in norms)
