"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Criteria 1-2 replicate the benchmark study and dominate
the runtime (around 10-20 minutes total on two cores); everything else is
fast.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math

import numpy as np
import pytest

from musel.core import coherence, gram, normalize_design
from musel.estimators import (SelectorConfig, feasibility_check, selector_gram,
                              solve_compensated_mu, solve_dantzig,
                              solve_mu_selector)
from musel.lp import LpStatus
from musel.missing import apply_mask, estimate_pi, sigma_hat, sigma_true
from musel.sensitivity import (c_q, kappa_inf_exact, kappa_one,
                               kappa_q_from_inf)
from musel.simulate import SimConfig, run_experiment
from musel.thresholds import (NoiseParams, nu_bound, subgaussian_deltas,
                              thresholds_for)

from conftest import normalized_gram
from re_oracle import re_constant_bruteforce
from test_estimators import grid_min_l1
from test_sensitivity import sphere_cone_min


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    return ok


# -- criterion 1: full-scale benchmark reproduction (statistical) -----------

def test_criterion_1_table1_reproduction():
    cfg = SimConfig(seed=20260808, n=100, p=500, s_list=(1,),
                    delta_list=(0.1,), reps=100, estimators=("MU", "CMU"))
    rows = {r.estimator: r for r in run_experiment(cfg)}
    mu_row, cmu_row = rows["MU"], rows["CMU"]
    checks = {
        "MU exact in 36+-15": 21 <= mu_row.exact_count <= 51,
        "CMU exact in 54+-15": 39 <= cmu_row.exact_count <= 69,
        "MU err1 in 0.0110+-50%": 0.0055 <= mu_row.err1_mean <= 0.0165,
        "CMU err1 in 0.0044+-50%": 0.0022 <= cmu_row.err1_mean <= 0.0066,
        "no failed replications": mu_row.failed == 0 and cmu_row.failed == 0,
    }
    ok = all(checks.values())
    report(1, ok, f"MU exact={mu_row.exact_count} err1={mu_row.err1_mean:.4f}; "
                  f"CMU exact={cmu_row.exact_count} err1={cmu_row.err1_mean:.4f}")
    assert ok, checks


# -- criterion 2: directional improvement at reduced scale ------------------

def test_criterion_2_directional_improvement():
    batches_won = 0
    for batch in range(10):
        cfg = SimConfig(seed=5000 + batch, n=40, p=120, s_list=(1, 2),
                        delta_list=(0.05, 0.075), reps=30,
                        estimators=("MU", "CMU"))
        cell = {(r.estimator, r.s, r.delta): r.err1_mean
                for r in run_experiment(cfg)}
        batches_won += all(cell[("CMU", s, d)] < cell[("MU", s, d)]
                           for s in (1, 2) for d in (0.05, 0.075))
    ok = batches_won >= 8
    report(2, ok, f"CMU beat MU on every (s, delta) cell in {batches_won}/10 "
                  "seed batches (need >= 8)")
    assert ok


# -- criterion 3: LP objective against grid brute force ---------------------

def test_criterion_3_lp_grid_oracle_equivalence():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(42_000 + seed)
        p = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        Z = rng.standard_normal((n, p))
        # plant a nonnegative solution so the feasible set is never empty
        theta0 = np.where(rng.random(p) < 0.6, rng.random(p), 0.0)
        y = Z @ theta0 + 0.05 * rng.standard_normal(n)
        dhat = np.abs(rng.standard_normal(p)) * 0.05
        mu = float(rng.random() * 0.2)
        G, c = selector_gram(Z, y, dhat)
        slack0 = float(np.max(np.abs(c - G @ theta0))) - mu * theta0.sum()
        tau = 1.05 * max(slack0, 0.0) + 0.005
        cfg = SelectorConfig(mu=mu, tau=tau, compensation=dhat)
        est = solve_compensated_mu(Z, y, cfg)
        assert est.status is LpStatus.OPTIMAL
        ref = grid_min_l1(G, c, mu, tau, 2.0 * (est.l1_norm + 1.0),
                          center=est.theta)
        assert np.isfinite(ref)
        rel = abs(est.l1_norm - ref) / max(1.0, abs(ref))
        worst = max(worst, rel)
    ok = worst <= 1e-4
    report(3, ok, f"worst relative objective gap vs grid oracle = {worst:.2e} "
                  "(50 instances, need <= 1e-4)")
    assert ok


# -- criteria 4 and 5 share the subgaussian-noise protocol -------------------

def _coverage_protocol():
    n, p, s, reps, eps = 100, 20, 1, 500, 0.05
    gamma_Xi, gamma_xi = 0.2, 0.05
    rng = np.random.default_rng(314159)
    X = normalize_design(rng.standard_normal((n, p)))
    theta_star = np.zeros(p)
    theta_star[rng.choice(p, s, replace=False)] = 0.5
    m2 = float(np.max((X ** 2).mean(axis=0)))
    params = NoiseParams(gamma_xi=gamma_xi, gamma_Xi=gamma_Xi, epsilon=eps,
                         n=n, p=p, m2=m2)
    th = thresholds_for(params)           # known D: b = 0
    D = np.full(p, gamma_Xi ** 2)
    cfg = SelectorConfig(mu=th.mu_eps, tau=th.tau_eps, compensation=D)
    return dict(X=X, theta_star=theta_star, params=params, th=th, D=D,
                cfg=cfg, rng=rng, reps=reps, eps=eps, s=s,
                gamma_Xi=gamma_Xi, gamma_xi=gamma_xi)


@pytest.fixture(scope="module")
def coverage_runs():
    ctx = _coverage_protocol()
    X, th_star, cfg = ctx["X"], ctx["theta_star"], ctx["cfg"]
    rng, gamma_Xi, gamma_xi = ctx["rng"], ctx["gamma_Xi"], ctx["gamma_xi"]
    n, p = X.shape
    feas, l1_err = [], []
    for _ in range(ctx["reps"]):
        Xi = gamma_Xi * rng.standard_normal((n, p))
        xi = gamma_xi * rng.standard_normal(n)
        Z = X + Xi
        y = X @ th_star + xi
        _, is_feas = feasibility_check(th_star, Z, y, cfg)
        feas.append(is_feas)
        est = solve_compensated_mu(Z, y, cfg)
        if est.status is LpStatus.OPTIMAL:
            l1_err.append(float(np.sum(np.abs(est.theta - th_star))))
        else:
            l1_err.append(np.inf)
    return ctx, np.array(feas), np.array(l1_err)


def test_criterion_4_feasible_set_coverage(coverage_runs):
    ctx, feas, _ = coverage_runs
    freq = feas.mean()
    floor = 1 - 6 * ctx["eps"] - 0.05
    ok = freq >= floor
    report(4, ok, f"theta* in the feasible set in {freq:.3f} of runs "
                  f"(need >= {floor:.2f})")
    assert ok


def test_criterion_5_l1_error_bound_coverage(coverage_runs):
    ctx, _, l1_err = coverage_runs
    deltas = subgaussian_deltas(ctx["params"])
    nu = nu_bound(ctx["th"], deltas[0], float(np.sum(np.abs(ctx["theta_star"]))))
    k1 = kappa_one(gram(ctx["X"]), ctx["s"]).value
    bound = nu / k1
    freq = float(np.mean(l1_err <= bound))
    floor = 1 - 6 * ctx["eps"] - 0.05
    ok = freq >= floor and k1 > 0
    report(5, ok, f"|theta_hat - theta*|_1 <= nu/kappa_1 = {bound:.3f} in "
                  f"{freq:.3f} of runs (need >= {floor:.2f})")
    assert ok


# -- criterion 6: sensitivity chain and identity values ----------------------

def test_criterion_6_sensitivity_chain():
    failures = []
    for seed in range(30):
        psi = normalized_gram(4, 50, 80_000 + seed)
        s = 1 + seed % 2
        rho = coherence(psi)
        kinf = kappa_inf_exact(psi, s).value
        k1 = kappa_one(psi, s).value
        kre = re_constant_bruteforce(psi, s, grid_resolution=25)
        if rho < 1 / (2 * s) and not kinf >= 1 - 2 * rho * s - 1e-7:
            failures.append((seed, "k1-bound"))
        if not k1 >= (2 * s) ** -1.0 * kinf - 1e-7:
            failures.append((seed, "k2"))
        if not k1 >= kre / (4 * s) - 1e-7:
            failures.append((seed, "k3"))
        if 2 * s <= psi.shape[0]:
            kre2 = re_constant_bruteforce(psi, 2 * s, grid_resolution=25)
            kappa2 = sphere_cone_min(psi, s, q=2.0, seed=seed)
            if not kappa2 >= c_q(2.0) * s ** -0.5 * kre2 - 1e-6:
                failures.append((seed, "k4"))
            if not kappa2 >= (2 * s) ** -0.5 * kinf - 1e-6:
                failures.append((seed, "k2-q2"))
    ident = [
        abs(kappa_inf_exact(np.eye(5), 1).value - 1.0),
        abs(kappa_inf_exact(np.eye(5), 2).value - 1.0),
        abs(kappa_one(np.eye(4), 1).value - 0.5),
        abs(kappa_one(np.eye(4), 2).value - 0.25),
    ]
    ok = not failures and max(ident) <= 1e-6
    report(6, ok, f"chain inequalities held on 30 Grams "
                  f"({len(failures)} violations); identity values off by "
                  f"{max(ident):.1e} (need <= 1e-6)")
    assert ok, failures


# -- criterion 7: missing-data unbiasedness ----------------------------------

def test_criterion_7_unbiasedness():
    reps, n, pi = 10_000, 20, 0.1
    rng = np.random.default_rng(2718)
    col = rng.standard_normal(n)
    draws = []
    for k in range(10):
        X = np.tile(col[:, None], (1, reps // 10))
        draws.append(sigma_hat(apply_mask(X, pi, rng_seed=600 + k), pi))
    draws = np.concatenate(draws)
    target = sigma_true(col[:, None], pi)[0]
    se = draws.std(ddof=1) / math.sqrt(reps)
    sigma_ok = abs(draws.mean() - target) <= 3 * se

    Xbig = np.random.default_rng(999).standard_normal((100, 500))
    pi_hat = estimate_pi(apply_mask(Xbig, pi, rng_seed=77))
    se_pi = math.sqrt(pi * (1 - pi) / (100 * 500))
    pi_ok = abs(pi_hat - pi) <= 3 * se_pi

    ok = sigma_ok and pi_ok
    report(7, ok, f"sigma_hat bias {draws.mean() - target:+.2e} (3SE={3*se:.2e}); "
                  f"pi_hat={pi_hat:.4f} vs {pi} (3SE={3*se_pi:.4f})")
    assert ok


# -- criterion 8: exact reductions -------------------------------------------

def test_criterion_8_reductions_bitwise():
    # (a) the delta = 0 run in the harness is the Dantzig selector on Z;
    # tau chosen large enough that the tiny-scale solves stay feasible
    cfg = SimConfig(seed=31, n=40, p=24, s_list=(1,), delta_list=(0.0,),
                    reps=5, estimators=("MU", "Dantzig"),
                    tau_rule={"kind": "noise-calibrated", "mult": 2.0,
                              "eps": 0.05})
    rows, raw = run_experiment(cfg, workers=1, collect_raw=True)
    rows = {r.estimator: r for r in rows}
    per_rep = {}
    for rec in raw:
        per_rep.setdefault(rec["rep"], {})[rec["estimator"]] = rec
    delta0_ok = rows["MU"].failed == rows["Dantzig"].failed
    for rep, by_est in per_rep.items():
        a, b = by_est["MU"], by_est["Dantzig"]
        delta0_ok &= all(a[k] == b[k] for k in a if k != "estimator")
    delta0_ok &= any(r["status"] == "optimal" for r in raw)
    fields = ("err1_mean", "err1_std", "err2_mean", "err2_std", "nb1_mean",
              "nb1_std", "nb2_mean", "nb2_std", "exact_count")
    delta0_ok &= all(getattr(rows["MU"], f) == getattr(rows["Dantzig"], f)
                     for f in fields)

    # (b) with no design noise and zero compensation the three selectors
    # coincide bitwise
    rng = np.random.default_rng(17)
    X = normalize_design(rng.standard_normal((30, 12)))
    theta = np.zeros(12)
    theta[3] = 0.5
    y = X @ theta + 0.01 * rng.standard_normal(30)
    tau = 0.05
    dz = solve_dantzig(X, y, tau)
    mu_est = solve_mu_selector(X, y, SelectorConfig(mu=0.0, tau=tau))
    cmu_est = solve_compensated_mu(X, y, SelectorConfig(
        mu=0.0, tau=tau, compensation=np.zeros(12)))
    triple_ok = (np.array_equal(dz.theta, mu_est.theta)
                 and np.array_equal(dz.theta, cmu_est.theta))

    ok = delta0_ok and triple_ok
    report(8, ok, f"delta=0 equals Dantzig bitwise: {delta0_ok}; "
                  f"noiseless CMU=MU=Dantzig bitwise: {triple_ok}")
    assert ok


# -- reduced preset: soft runtime budget and byte determinism -----------------

def test_reduced_preset_budget_and_determinism(tmp_path):
    import time
    from click.testing import CliRunner
    from musel.cli import cli

    runner = CliRunner()
    blobs = []
    t0 = time.perf_counter()
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = runner.invoke(cli, ["simulate", "--preset", "reduced",
                                  "--seed", "7", "--out", str(out)])
        assert res.exit_code == 0, res.output
        blobs.append(out.read_bytes())
    wall = time.perf_counter() - t0
    ok = blobs[0] == blobs[1] and wall / 2 < 600
    report("reduced-preset", ok,
           f"byte-identical reruns: {blobs[0] == blobs[1]}; "
           f"{wall/2:.0f}s per run (soft budget 600s)")
    assert blobs[0] == blobs[1]
    assert wall / 2 < 600


# -- criterion 9: byte-level determinism --------------------------------------

def test_criterion_9_determinism(tmp_path, monkeypatch):
    import json as _json
    from click.testing import CliRunner
    from musel.cli import cli

    cfg = {"n": 24, "p": 12, "s_list": [1], "delta_list": [0.0, 0.1],
           "reps": 3, "estimators": ["MU", "CMU"]}
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(_json.dumps(cfg))
    runner = CliRunner()
    blobs = []
    for run, workers in enumerate(("1", "2", "1")):
        monkeypatch.setenv("MUSEL_THREADS", workers)
        out = tmp_path / f"r{run}.csv"
        res = runner.invoke(cli, ["simulate", "--config", str(cfg_path),
                                  "--seed", "99", "--out", str(out), "--raw"])
        assert res.exit_code == 0, res.output
        blobs.append(out.read_bytes() + (tmp_path / f"r{run}.csv.raw.json").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report(9, ok, "simulate output byte-identical across reruns and worker "
                  f"counts: {ok}")
    assert ok
