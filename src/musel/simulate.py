"""Monte Carlo benchmark harness for the selectors on masked designs.

Pipeline per replication: take the normalized Gaussian design of its s
(drawn once per s, or afresh for each replication when
``SimConfig.fresh_design`` is set, which ``musel simulate`` reads from
``--config``), draw a sparse coefficient vector and Gaussian response
noise, mask the design entrywise, rescale by the keep probability 1 - pi
(pi known, or estimated from the zero frequency), estimate the
compensation diagonal, and solve each configured selector with
mu = (1+delta)*delta.
The selectors of one replication share one Gram Z'Z/n: the compensated
selector solves on a copy with diag(Dhat) subtracted.  Replications
aggregate into per-(s, delta, estimator) table rows with means, standard
deviations, and exact-support-recovery counts.

Replications run one after another in the calling thread: the simplex
pivots hold the GIL, so threads cannot overlap them.

Determinism: every random draw derives from the experiment seed and the
cell coordinates (s, delta, rep) through SeedSequence, so results are
byte-identical across runs, and adding estimators never perturbs other
cells.  Neither the core count nor ``OPENBLAS_NUM_THREADS`` changes them:
importing musel holds numpy's bundled OpenBLAS at one thread for the whole
process (``musel._accel``), where two threads would give the Gram Z'Z and
the p x p Gram products other last bits.
"""

import math
from dataclasses import dataclass, field, fields, asdict, replace
from numbers import Integral, Real

import numpy as np

from . import estimators
from .core import normalize_design
from .estimators import SelectorConfig
# unused here, but perfbench/probes.py wraps these names on this module
from .estimators import (solve_compensated_mu, solve_missing_data_cmu,  # noqa: F401
                         solve_mu_selector)
from .missing import apply_mask, estimate_pi, rescale, sigma_hat

_DESIGN_STREAM = 101
_DATA_STREAM = 202

KNOWN_ESTIMATORS = ("MU", "CMU", "Dantzig")

# tau = mult * noise_sd * sqrt(2 * m2_hat * log(2p/eps) / n).  The shape is
# the response-noise deviation threshold computed from observables; the
# multiplier is calibrated against the published full-scale benchmark
# (support-recovery counts are very sensitive to tau, and the original
# study's tau rule is not recoverable).  Override via SimConfig.tau_rule.
DEFAULT_TAU_RULE = {"kind": "noise-calibrated", "mult": 0.4, "eps": 0.05}


@dataclass(frozen=True)
class SimConfig:
    """Experiment description.

    tau_rule is either a number >= 0 (fixed tau) or a dict
    {"kind": "noise-calibrated", "mult": m, "eps": e} giving
    tau = m * noise_sd * sqrt(2 * m2_hat * log(2p/e) / n) with m2_hat the
    largest column mean-square of the observed (rescaled) design; a
    missing m or e takes DEFAULT_TAU_RULE's.  The rule is a documented
    artifact default, exposed precisely because it is a knob; any other
    tau_rule is rejected with ValueError.  pi_mode chooses only the pi
    every selector uses: "known" takes pi_star, "estimated" the pooled
    zero frequency of each masked design.  n must be an integer >= 2, p
    and reps integers >= 1, noise_sd and theta_value finite with
    noise_sd >= 0, pi_star in [0, 1);
    s_list, delta_list and estimators are lists (stored as tuples), every
    s an integer in [0, p] and every delta finite and >= 0; fresh_design
    is a bool.  The constructor raises ValueError otherwise.  The support
    of an estimate is fixed by ``estimators.NONZERO_THRESHOLD``.
    """

    seed: int
    n: int = 100
    p: int = 500
    s_list: tuple = (1, 2, 3, 5, 10)
    theta_value: float = 0.5
    noise_sd: float = 0.05 / 1.96
    pi_star: float = 0.1
    delta_list: tuple = (0.0, 0.01, 0.05, 0.075, 0.1)
    tau_rule: object = field(default_factory=lambda: dict(DEFAULT_TAU_RULE))
    reps: int = 100
    estimators: tuple = ("MU", "CMU")
    fresh_design: bool = False
    pi_mode: str = "known"

    def __post_init__(self):
        for name, least in (("n", 2), ("p", 1), ("reps", 1)):
            v = getattr(self, name)
            if not (_integer(v) and v >= least):
                raise ValueError(f"{name} must be an integer >= {least}, "
                                 f"got {v!r}")
        for name in ("s_list", "delta_list", "estimators"):
            v = getattr(self, name)
            if not isinstance(v, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {v!r}")
            object.__setattr__(self, name, tuple(v))
        if not (_finite(self.noise_sd) and self.noise_sd >= 0):
            raise ValueError(f"noise_sd must be finite and >= 0, "
                             f"got {self.noise_sd!r}")
        if not _finite(self.theta_value):
            raise ValueError(f"theta_value must be finite, "
                             f"got {self.theta_value!r}")
        if not all(_finite(d) and d >= 0 for d in self.delta_list):
            raise ValueError(f"every delta must be finite and >= 0, "
                             f"got {self.delta_list!r}")
        if not (_finite(self.pi_star) and 0 <= self.pi_star < 1):
            raise ValueError(f"pi_star must lie in [0,1), got {self.pi_star!r}")
        if not all(_integer(s) and 0 <= s <= self.p for s in self.s_list):
            raise ValueError(f"every s must be an integer with 0 <= s <= p, "
                             f"got {self.s_list!r}")
        bad = [e for e in self.estimators if e not in KNOWN_ESTIMATORS]
        if bad:
            raise ValueError(f"unknown estimators {bad}; "
                             f"choose from {KNOWN_ESTIMATORS}")
        if self.pi_mode not in ("known", "estimated"):
            raise ValueError(f"pi_mode must be 'known' or 'estimated', "
                             f"got {self.pi_mode!r}")
        if not isinstance(self.fresh_design, bool):
            raise ValueError(f"fresh_design must be true or false, "
                             f"got {self.fresh_design!r}")
        object.__setattr__(self, "tau_rule", _check_tau_rule(self.tau_rule))


@dataclass
class RunMetrics:
    """Per-replication error and support-recovery measures."""

    err1: float
    err2: float
    err2_over_n: float
    nb1: int
    nb2: int
    exact: bool
    status: str = "optimal"


@dataclass
class TableRow:
    """Aggregate of one (estimator, s, delta) cell."""

    estimator: str
    s: int
    delta: float
    err1_mean: float
    err1_std: float
    err2_mean: float
    err2_std: float
    nb1_mean: float
    nb1_std: float
    nb2_mean: float
    nb2_std: float
    exact_count: int
    failed: int
    reps: int


def gen_design(n, p, rng):
    """Normalized design: iid standard Gaussian entries, then each column
    centered and scaled to unit Gram diagonal."""
    if n < 2:
        raise ValueError("need n >= 2 to center and scale columns")
    return normalize_design(rng.standard_normal((n, p)))


def gen_theta(p, s, value, rng):
    """s-sparse coefficient vector: s uniformly chosen positions set to value."""
    if s > p:
        raise ValueError(f"s={s} exceeds p={p}")
    theta = np.zeros(p)
    if s > 0:
        theta[rng.choice(p, size=s, replace=False)] = value
    return theta


def gen_response(X, theta_star, noise_sd, rng):
    """y = X theta* + xi with iid Gaussian noise of sd noise_sd."""
    n = X.shape[0]
    return X @ theta_star + noise_sd * rng.standard_normal(n)


def metrics(theta_hat, theta_star, X):
    """Errors and support counts of an estimate against the truth.

    err2 is the unnormalized |X(theta_hat - theta*)|_2^2; the 1/n-scaled
    version is also reported as err2_over_n.  The estimated support is
    |theta_hat_j| > estimators.NONZERO_THRESHOLD.
    """
    diff = theta_hat - theta_star
    err1 = float(diff @ diff)
    Xd = X @ diff
    err2 = float(Xd @ Xd)
    sup_hat = np.abs(theta_hat) > estimators.NONZERO_THRESHOLD
    sup_true = theta_star != 0.0
    nb1 = int(np.sum(sup_hat))
    nb2 = int(np.sum(sup_hat & sup_true))
    exact = bool(np.array_equal(sup_hat, sup_true))
    return RunMetrics(err1=err1, err2=err2, err2_over_n=err2 / X.shape[0],
                      nb1=nb1, nb2=nb2, exact=exact)


def _delta_key(delta):
    return int(round(delta * 10 ** 9))


def _finite(v):
    """Whether v is a finite real number (bools excluded)."""
    return isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v)


def _integer(v):
    """Whether v is an integer (bools excluded)."""
    return isinstance(v, Integral) and not isinstance(v, bool)


def _check_tau_rule(rule):
    """tau_rule as _tau_from_rule reads it: a fixed tau >= 0 as a float, or
    the noise-calibrated dict with DEFAULT_TAU_RULE's mult and eps filling
    in missing keys, as floats with mult >= 0 and eps > 0."""
    if isinstance(rule, dict):
        full = {**DEFAULT_TAU_RULE, **rule}
        mult, eps = full["mult"], full["eps"]
        if (full.keys() == DEFAULT_TAU_RULE.keys()
                and rule.get("kind") == DEFAULT_TAU_RULE["kind"]
                and _finite(mult) and _finite(eps) and mult >= 0 and eps > 0):
            return {"kind": full["kind"], "mult": float(mult),
                    "eps": float(eps)}
    elif _finite(rule) and rule >= 0:
        return float(rule)
    raise ValueError(f"tau_rule must be a number >= 0 or "
                     f"{{\"kind\": \"noise-calibrated\", \"mult\": m >= 0, "
                     f"\"eps\": e > 0}}, got {rule!r}")


def _tau_from_rule(rule, Z, noise_sd):
    if not isinstance(rule, dict):
        return rule
    n, p = Z.shape
    m2 = float(np.max((Z ** 2).mean(axis=0)))
    return rule["mult"] * noise_sd * np.sqrt(
        2.0 * m2 * np.log(2.0 * p / rule["eps"]) / n)


def _design_for(config, s, delta, rep):
    if config.fresh_design:
        ss = np.random.SeedSequence((config.seed, _DESIGN_STREAM, s,
                                     _delta_key(delta), rep))
    else:
        ss = np.random.SeedSequence((config.seed, _DESIGN_STREAM, s))
    return gen_design(config.n, config.p, np.random.default_rng(ss))


def _run_cell_rep(config, X, s, delta, rep):
    """One replication: simulate data, run every configured estimator.

    pi is pi_star, or in estimated mode the pooled zero frequency of
    Z_tilde.  MU and Dantzig solve on G, c = Z'Z/n, Z'y/n of
    Z = Z_tilde/(1-pi); CMU on a copy of G minus diag(sigma_hat(Z_tilde,
    pi)), bitwise core.gram(Z, Dhat), or it fails as "dead_column" where a
    fully masked column leaves Dhat undefined.  A mask that hides every
    entry (estimated pi of 1) fails every estimator as "all_masked".
    """
    ss = np.random.SeedSequence((config.seed, _DATA_STREAM, s,
                                 _delta_key(delta), rep))
    c_theta, c_resp, c_mask = ss.spawn(3)
    theta_star = gen_theta(config.p, s, config.theta_value,
                           np.random.default_rng(c_theta))
    y = gen_response(X, theta_star, config.noise_sd,
                     np.random.default_rng(c_resp))
    Z_tilde = apply_mask(X, config.pi_star, c_mask)

    pi = (config.pi_star if config.pi_mode == "known"
          else estimate_pi(Z_tilde, mode="pooled"))
    if pi == 1.0:
        # the mask hid every entry: no selector has data to rescale
        failed = replace(metrics(np.zeros(config.p), theta_star, X),
                         status="all_masked")
        return {name: failed for name in config.estimators}
    Z = rescale(Z_tilde, pi)
    tau = _tau_from_rule(config.tau_rule, Z, config.noise_sd)
    base = SelectorConfig(mu=(1.0 + delta) * delta, tau=tau)
    G, c = estimators.selector_gram(Z, y)
    results = {}
    for name in config.estimators:
        if name == "CMU" and not np.all(np.any(Z_tilde, axis=0)):
            theta, status = np.zeros(config.p), "dead_column"
        else:
            cfg, G_est = base, G
            if name == "CMU":
                cfg = replace(base, compensation=sigma_hat(Z_tilde, pi))
                G_est = G.copy()
                G_est[np.diag_indices_from(G_est)] -= cfg.compensation
            elif name == "Dantzig":  # mu = 0 regardless of delta
                cfg = replace(base, mu=0.0)
            est = estimators._solve_from_gram(G_est, c, cfg)
            theta, status = est.theta, est.status.value
        results[name] = replace(metrics(theta, theta_star, X), status=status)
    return results


def run_experiment(config, workers=None, collect_raw=False):
    """Run the full grid and aggregate TableRows.

    Replications run in the calling thread, in (s, delta, rep) order, each
    through ``_run_cell_rep``; aggregation is an ordered reduction over
    replication index.  ``workers`` is ignored: nothing reads it, and it
    stays only because perfbench's sim-reduced workload passes it.  Failed
    replications (solver status not optimal) are excluded from the
    aggregates and counted in the ``failed`` column.
    """
    rows = []
    raw = []
    for s in config.s_list:
        design_cache = None if config.fresh_design else _design_for(config, s, 0.0, 0)
        for delta in config.delta_list:
            cell = []
            for rep in range(config.reps):
                X = (design_cache if design_cache is not None
                     else _design_for(config, s, delta, rep))
                cell.append(_run_cell_rep(config, X, s, delta, rep))

            for name in config.estimators:
                ms = [cell[rep][name] for rep in range(config.reps)]
                if collect_raw:
                    for rep, m in enumerate(ms):
                        raw.append({"estimator": name, "s": s, "delta": delta,
                                    "rep": rep, **asdict(m)})
                ok = [m for m in ms if m.status == "optimal"]
                failed = len(ms) - len(ok)
                if ok:
                    def agg(key):
                        vals = np.array([getattr(m, key) for m in ok], dtype=float)
                        sd = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
                        return float(vals.mean()), sd
                    e1m, e1s = agg("err1")
                    e2m, e2s = agg("err2")
                    n1m, n1s = agg("nb1")
                    n2m, n2s = agg("nb2")
                    exact = sum(m.exact for m in ok)
                else:
                    e1m = e1s = e2m = e2s = n1m = n1s = n2m = n2s = float("nan")
                    exact = 0
                rows.append(TableRow(
                    estimator=name, s=s, delta=delta,
                    err1_mean=e1m, err1_std=e1s, err2_mean=e2m, err2_std=e2s,
                    nb1_mean=n1m, nb1_std=n1s, nb2_mean=n2m, nb2_std=n2s,
                    exact_count=int(exact), failed=failed, reps=config.reps))
    if collect_raw:
        return rows, raw
    return rows


_CSV_COLUMNS = tuple(f.name for f in fields(TableRow))


def rows_to_csv(rows):
    """Render TableRows as CSV text (17 significant digits, byte-stable)."""
    out = [",".join(_CSV_COLUMNS)]
    for r in rows:
        vals = []
        for col in _CSV_COLUMNS:
            v = getattr(r, col)
            vals.append(f"{v:.17g}" if isinstance(v, float) else str(v))
        out.append(",".join(vals))
    return "\n".join(out) + "\n"


def rows_to_markdown(rows):
    """Render TableRows in the mean-(std) table layout."""
    lines = ["| estimator | s | delta | Err1 | Err2 | Nb1 | Nb2 | Exact | failed |",
             "|---|---|---|---|---|---|---|---|---|"]
    for r in rows:
        def cell(mean, std):
            return f"{mean:.4g} ({std:.4g})"
        lines.append(
            f"| {r.estimator} | {r.s} | {r.delta:g} "
            f"| {cell(r.err1_mean, r.err1_std)} | {cell(r.err2_mean, r.err2_std)} "
            f"| {cell(r.nb1_mean, r.nb1_std)} | {cell(r.nb2_mean, r.nb2_std)} "
            f"| {r.exact_count} | {r.failed} |")
    return "\n".join(lines) + "\n"


PRESETS = {
    "table1": {"s_list": (1,)},
    "table2": {"s_list": (2,)},
    "table3": {"s_list": (3,)},
    "table4": {"s_list": (5,)},
    "table5": {"s_list": (10,)},
    "reduced": {"n": 40, "p": 120, "s_list": (1, 2), "reps": 30},
}


def config_from_preset(name, seed, **overrides):
    """SimConfig for a named preset, with explicit overrides on top."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; "
                         f"choose from {sorted(PRESETS)}")
    kw = dict(PRESETS[name])
    kw.update(overrides)
    return SimConfig(seed=seed, **kw)
