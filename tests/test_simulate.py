"""Monte Carlo harness: generators, metrics, determinism, reductions."""

import functools
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from musel.core import gram
from musel.estimators import (selector_gram, solve_compensated_mu,
                               solve_dantzig, solve_mu_selector)
from musel.missing import sigma_hat, apply_mask
from musel.simulate import (SimConfig, config_from_preset, gen_design,
                            gen_response, gen_theta, metrics, rows_to_csv,
                            rows_to_markdown, run_experiment)


class TestGenDesign:
    def test_normalized(self):
        X = gen_design(30, 6, np.random.default_rng(0))
        assert np.allclose(X.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(np.diag(gram(X)), 1.0, atol=1e-10)

    def test_reproducible(self):
        a = gen_design(10, 4, np.random.default_rng(5))
        b = gen_design(10, 4, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_coherence_range_full_scale(self):
        from musel.core import coherence
        rhos = []
        for seed in range(20):
            X = gen_design(100, 500, np.random.default_rng(seed))
            rhos.append(coherence(gram(X)))
        rhos = np.array(rhos)
        assert np.all(rhos > 0.2) and np.all(rhos < 0.6)


class TestGenTheta:
    def test_s_zero(self):
        assert np.all(gen_theta(5, 0, 0.5, np.random.default_rng(0)) == 0.0)

    def test_s_equals_p(self):
        th = gen_theta(4, 4, 0.5, np.random.default_rng(0))
        assert np.all(th == 0.5)

    def test_uniform_position_frequency(self):
        p, draws = 10, 10_000
        rng = np.random.default_rng(3)
        counts = np.zeros(p)
        for _ in range(draws):
            counts += gen_theta(p, 1, 1.0, rng) != 0
        freq = counts / draws
        se = np.sqrt(0.1 * 0.9 / draws)
        assert np.all(np.abs(freq - 0.1) <= 3 * se + 1e-12)


class TestGenResponse:
    def test_noiseless(self, rng):
        X = rng.standard_normal((6, 3))
        th = np.array([1.0, 0.0, 2.0])
        y = gen_response(X, th, 0.0, np.random.default_rng(0))
        assert np.array_equal(y, X @ th)

    def test_noise_sd(self):
        n = 10_000
        X = np.zeros((n, 1))
        y = gen_response(X, np.zeros(1), 0.7, np.random.default_rng(1))
        sd = y.std(ddof=1)
        assert abs(sd - 0.7) <= 3 * 0.7 / np.sqrt(2 * n)

    def test_reproducible(self, rng):
        X = rng.standard_normal((5, 2))
        th = np.ones(2)
        a = gen_response(X, th, 0.1, np.random.default_rng(9))
        b = gen_response(X, th, 0.1, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestMetrics:
    def test_perfect_recovery(self, rng):
        X = rng.standard_normal((8, 4))
        th = np.array([0.5, 0.0, 0.0, 0.3])
        m = metrics(th, th, X)
        assert m.err1 == 0.0 and m.err2 == 0.0
        assert m.exact and m.nb1 == m.nb2 == 2

    def test_zero_estimate(self, rng):
        X = rng.standard_normal((6, 5))
        th = np.zeros(5)
        th[2] = 0.5
        m = metrics(np.zeros(5), th, X)
        assert m.err1 == pytest.approx(0.25)
        assert m.nb1 == 0 and m.nb2 == 0 and not m.exact

    def test_against_recomputation_oracle(self, rng):
        X = rng.standard_normal((7, 4))
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        m = metrics(a, b, X)
        err1 = sum((a[j] - b[j]) ** 2 for j in range(4))
        v = X @ (a - b)
        err2 = sum(vi ** 2 for vi in v)
        assert m.err1 == pytest.approx(err1, rel=1e-12)
        assert m.err2 == pytest.approx(err2, rel=1e-12)
        assert m.err2_over_n == pytest.approx(err2 / 7, rel=1e-12)

    def test_support_count_invariants(self, rng):
        for seed in range(10):
            r = np.random.default_rng(seed)
            th_hat = np.where(r.random(6) < 0.5, r.standard_normal(6), 0.0)
            th = np.where(r.random(6) < 0.3, 0.5, 0.0)
            m = metrics(th_hat, th, np.eye(6))
            s = int(np.sum(th != 0))
            assert m.nb2 <= min(m.nb1, s)
            if m.exact:
                assert m.nb1 == m.nb2 == s


class TestRunExperiment:
    def test_smoke_and_compensation_difference(self):
        cfg = SimConfig(seed=3, n=20, p=10, s_list=(1,), delta_list=(0.0,),
                        reps=2, estimators=("MU", "CMU"))
        rows = run_experiment(cfg, workers=1)
        assert len(rows) == 2
        # completes, with any infeasible replications counted rather than lost
        assert all(0 <= r.failed <= cfg.reps for r in rows)
        # the two selectors differ exactly by the compensation diagonal
        from musel.simulate import _design_for
        from musel.missing import rescale
        X = _design_for(cfg, 1, 0.0, 0)
        Z_tilde = apply_mask(X, cfg.pi_star, 11)
        Z = rescale(Z_tilde, cfg.pi_star)
        dhat = sigma_hat(Z_tilde, cfg.pi_star)
        G_mu, _ = selector_gram(Z, np.zeros(20))
        G_cmu, _ = selector_gram(Z, np.zeros(20), dhat)
        diff = G_mu - G_cmu
        assert np.allclose(np.diag(diff), dhat)
        assert np.allclose(diff - np.diag(np.diag(diff)), 0.0)

    def test_delta_zero_equals_dantzig(self):
        cfg = SimConfig(seed=5, n=20, p=10, s_list=(1,), delta_list=(0.0,),
                        reps=3, estimators=("MU", "Dantzig"))
        rows = run_experiment(cfg, workers=1)
        mu_row = next(r for r in rows if r.estimator == "MU")
        dz_row = next(r for r in rows if r.estimator == "Dantzig")
        for f in ("err1_mean", "err1_std", "err2_mean", "err2_std",
                  "nb1_mean", "nb2_mean", "exact_count"):
            assert getattr(mu_row, f) == getattr(dz_row, f)

    def test_determinism_across_workers(self):
        cfg = SimConfig(seed=11, n=16, p=8, s_list=(1, 2), delta_list=(0.05,),
                        reps=4)
        csv1 = rows_to_csv(run_experiment(cfg, workers=1))
        csv2 = rows_to_csv(run_experiment(cfg, workers=3))
        assert csv1 == csv2

    def test_raw_records_and_failure_accounting(self):
        # seed 2 at this tiny scale yields one infeasible replication: it
        # must be counted in `failed` and excluded from the aggregates
        cfg = SimConfig(seed=2, n=16, p=8, s_list=(1,), delta_list=(0.0,),
                        reps=2, estimators=("CMU",))
        rows, raw = run_experiment(cfg, workers=1, collect_raw=True)
        assert len(raw) == 2
        assert {r["rep"] for r in raw} == {0, 1}
        n_bad = sum(r["status"] != "optimal" for r in raw)
        assert rows[0].failed == n_bad
        ok = [r for r in raw if r["status"] == "optimal"]
        if ok:
            assert rows[0].err1_mean == pytest.approx(
                np.mean([r["err1"] for r in ok]), rel=1e-12)

    def test_estimated_pi_mode_runs(self):
        cfg = SimConfig(seed=4, n=20, p=10, s_list=(1,), delta_list=(0.05,),
                        reps=2, pi_mode="estimated")
        rows = run_experiment(cfg, workers=1)
        assert all(r.failed == 0 for r in rows)

    def test_fresh_design_differs(self):
        base = dict(seed=8, n=16, p=8, s_list=(1,), delta_list=(0.0,), reps=2,
                    estimators=("MU",))
        fixed = run_experiment(SimConfig(**base), workers=1)
        fresh = run_experiment(SimConfig(fresh_design=True, **base), workers=1)
        assert rows_to_csv(fixed) != rows_to_csv(fresh)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="unknown estimators"):
            SimConfig(seed=1, estimators=("Lasso",))


class TestReplicationSchedule:
    """Each replication builds one Gram, runs in the caller through the
    module-global ``_run_cell_rep``, and solves what the public selectors
    solve."""

    @staticmethod
    def _spy(monkeypatch, module, attr, calls):
        real = getattr(module, attr)

        def spy(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append((args, res))
            return res
        monkeypatch.setattr(module, attr, spy)

    def test_one_gram_per_replication(self, monkeypatch):
        import musel.estimators as est
        import musel.simulate as sim
        from musel.missing import rescale
        cfg = SimConfig(seed=6, n=20, p=10, s_list=(1, 2),
                        delta_list=(0.0, 0.05), reps=2,
                        estimators=("MU", "CMU", "Dantzig"))
        grams, solves, masks, responses = [], [], [], []
        self._spy(monkeypatch, est, "selector_gram", grams)
        self._spy(monkeypatch, est, "_solve_from_gram", solves)
        self._spy(monkeypatch, sim, "apply_mask", masks)
        self._spy(monkeypatch, sim, "gen_response", responses)
        run_experiment(cfg, workers=1)
        monkeypatch.undo()

        n_reps = len(cfg.s_list) * len(cfg.delta_list) * cfg.reps
        assert len(grams) == n_reps
        assert len(solves) == 3 * n_reps
        for r in range(n_reps):
            Z_tilde, y = masks[r][1], responses[r][1]
            Z = rescale(Z_tilde, cfg.pi_star)
            dhat = sigma_hat(Z_tilde, cfg.pi_star)
            (_, _, mu_cfg), mu_est = solves[3 * r]
            (_, _, cmu_cfg), cmu_est = solves[3 * r + 1]
            (_, _, dz_cfg), dz_est = solves[3 * r + 2]
            assert np.array_equal(cmu_cfg.compensation, dhat)
            assert dz_cfg.mu == 0.0 and dz_cfg.tau == mu_cfg.tau
            for got, want in (
                    (mu_est, solve_mu_selector(Z, y, mu_cfg)),
                    (cmu_est, solve_compensated_mu(Z, y, cmu_cfg)),
                    (dz_est, solve_dantzig(Z, y, dz_cfg.tau))):
                assert got.status is want.status
                assert np.array_equal(got.theta, want.theta)
                assert got.residual == want.residual

    @pytest.mark.parametrize("pi_mode", ["known", "estimated"])
    @pytest.mark.parametrize("rule", [0.03, 1])
    def test_fixed_tau_reaches_every_selector(self, monkeypatch, pi_mode, rule):
        import musel.estimators as est
        cfg = SimConfig(seed=3, n=20, p=10, s_list=(1,), delta_list=(0.05,),
                        reps=2, tau_rule=rule, pi_mode=pi_mode,
                        estimators=("MU", "CMU", "Dantzig"))
        solves = []
        self._spy(monkeypatch, est, "_solve_from_gram", solves)
        run_experiment(cfg)
        assert len(solves) == 3 * cfg.reps
        for (_, _, solve_cfg), _ in solves:
            assert type(solve_cfg.tau) is float and solve_cfg.tau == rule

    def test_estimated_pi_shares_the_gram(self, monkeypatch):
        import musel.estimators as est
        cfg = SimConfig(seed=4, n=20, p=10, s_list=(1,), delta_list=(0.05,),
                        reps=3, pi_mode="estimated",
                        estimators=("MU", "CMU", "Dantzig"))
        grams = []
        self._spy(monkeypatch, est, "selector_gram", grams)
        run_experiment(cfg, workers=1)
        assert len(grams) == cfg.reps

    @pytest.mark.parametrize("workers", [1, 3])
    def test_wrapped_replication_sees_every_call(self, monkeypatch, workers):
        import musel.simulate as sim
        cfg = SimConfig(seed=11, n=16, p=8, s_list=(1, 2),
                        delta_list=(0.0, 0.05), reps=3)
        real, seen = sim._run_cell_rep, []

        @functools.wraps(real, updated=())
        def rep(*args, **kwargs):
            seen.append((args[2:], threading.get_ident()))
            return real(*args, **kwargs)
        monkeypatch.setattr(sim, "_run_cell_rep", rep)
        run_experiment(cfg, workers=workers)
        order = [(s, d, r) for s in cfg.s_list for d in cfg.delta_list
                 for r in range(cfg.reps)]
        assert [key for key, _ in seen] == order
        assert {tid for _, tid in seen} == {threading.get_ident()}

    def test_import_loads_no_thread_pool(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        code = ("import musel.simulate, sys; "
                "print('concurrent.futures' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"


class TestRendering:
    def test_csv_columns_and_shape(self):
        cfg = SimConfig(seed=1, n=16, p=8, s_list=(1,),
                        delta_list=(0.0, 0.05), reps=2)
        rows = run_experiment(cfg, workers=1)
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("estimator,s,delta,err1_mean")
        assert len(lines) == 1 + len(cfg.delta_list) * len(cfg.estimators)

    def test_markdown_layout(self):
        cfg = SimConfig(seed=1, n=16, p=8, s_list=(1,), delta_list=(0.0,),
                        reps=2, estimators=("MU",))
        md = rows_to_markdown(run_experiment(cfg, workers=1))
        assert md.startswith("| estimator |")
        assert "(" in md.split("\n")[2]       # mean (std) cells


def test_presets():
    cfg = config_from_preset("reduced", seed=3)
    assert cfg.n == 40 and cfg.p == 120 and cfg.reps == 30
    cfg = config_from_preset("table1", seed=3)
    assert cfg.s_list == (1,) and cfg.n == 100 and cfg.p == 500
    with pytest.raises(ValueError, match="unknown preset"):
        config_from_preset("table9", seed=1)
