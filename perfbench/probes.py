"""Which musel names the benchmark wraps, and what each wrapper records.

Two kinds of wrapper:

* ``install_lp`` wraps every ``solve_lp`` name a solver path calls with an
  ``LpCheck``, on every run, traced or not: each OPTIMAL solution is
  checked against its program with ``musel.lp.check_solution``, any
  ITERATION_LIMIT solution is a check failure, every INFEASIBLE or
  UNBOUNDED one is kept for the HiGHS comparison, and while ``capture`` is
  on all (program, solution) pairs are kept for it too.
* ``install_tracing`` records one span per call at each module boundary.
  It is installed only for ``--trace 1`` runs.
"""

import os

import numpy as np
from musel.lp import LpStatus, check_solution

# Names callers look up at call time, grouped by the layer they enter.
# (module whose global is replaced, attribute, span name)
ESTIMATOR_ENTRIES = [
    (mod, attr, "estimators.call")
    for mod, attrs in (
        ("musel.simulate", ("solve_compensated_mu", "solve_mu_selector",
                            "solve_missing_data_cmu")),
        ("musel.cli", ("solve_compensated_mu", "solve_dantzig",
                       "solve_missing_data_cmu", "solve_mu_selector")),
        ("musel.estimators", ("solve_compensated_mu", "solve_mu_selector",
                              "solve_missing_data_cmu", "solve_dantzig")),
    )
    for attr in attrs
]
MISSING_ENTRIES = [
    (mod, attr, "missing.call")
    for mod, attrs in (
        ("musel.simulate", ("apply_mask", "rescale", "sigma_hat", "estimate_pi")),
        ("musel.estimators", ("rescale", "sigma_hat", "estimate_pi",
                              "check_no_dead_columns")),
        ("musel.cli", ("rescale", "sigma_hat", "estimate_pi")),
    )
    for attr in attrs
]
OTHER_ENTRIES = [
    ("musel.estimators", "selector_gram", "estimators.gram"),
    ("musel.estimators", "LinearProgram", "lp.build"),
    ("musel.sensitivity", "LinearProgram", "lp.build"),
    ("musel.sensitivity", "kappa_inf_exact", "sensitivity.call"),
    ("musel.sensitivity", "kappa_lower_bound", "sensitivity.call"),
    ("musel.simulate", "_run_cell_rep", "simulate.rep"),
    ("musel.simulate", "gen_design", "simulate.datagen"),
    ("musel.simulate", "gen_theta", "simulate.datagen"),
    ("musel.simulate", "gen_response", "simulate.datagen"),
    ("musel.simulate", "metrics", "simulate.metrics"),
    ("musel.io", "read_matrix", "io.read"),
    ("musel.io", "read_vector", "io.read"),
    ("musel.io", "atomic_write_text", "io.write"),
]
LP_SOLVE_NAMES = [("musel.estimators", "solve_lp"), ("musel.sensitivity", "solve_lp")]


class LpCheck:
    """Checks each LP solution; keeps (lp, solution) pairs on request.

    An OPTIMAL solution must satisfy its program within the tolerance the
    solver itself promises, ``feas_tol * (1 + max|b|)`` with ``feas_tol`` as
    passed to ``solve_lp``.  An ITERATION_LIMIT solution is an error: the
    sensitivity routines skip every LP that is not OPTIMAL, so one that
    stopped early would give a wrong kappa that no other check sees.  An
    INFEASIBLE or UNBOUNDED verdict is kept in ``rejected``, to be confirmed
    by HiGHS after timing.
    """

    def __init__(self):
        self.tracer = None      # set to a Tracer to record lp.solve spans
        self.capture = False
        self.captured = []
        self.rejected = []
        self.errors = []

    def after(self, lp, sol, feas_tol):
        if sol.status is LpStatus.OPTIMAL:
            b = max(np.max(np.abs(lp.b_ub), initial=0.0),
                    np.max(np.abs(lp.b_eq), initial=0.0))
            tol = feas_tol * (1.0 + b)
            viol = check_solution(lp, sol)
            if not viol <= tol:
                self.errors.append(f"OPTIMAL LP violates its constraints by "
                                   f"{viol:.3e} > {tol:.3e}")
        elif sol.status is LpStatus.ITERATION_LIMIT:
            self.errors.append(f"LP of {lp.n_constraints} rows stopped at its "
                               f"iteration limit after {sol.iterations} pivots")
        else:
            self.rejected.append((lp, sol))
        if self.capture:
            self.captured.append((lp, sol))


def install_lp(patcher, lpcheck):
    """Wrap every solver-path ``solve_lp`` with the check (and a span while
    ``lpcheck.tracer`` is set)."""
    def factory(orig):
        def solve(lp, *args, **kwargs):
            tracer = lpcheck.tracer
            sp = tracer.open("lp.solve") if tracer is not None else None
            try:
                sol = orig(lp, *args, **kwargs)
            finally:
                if sp is not None:
                    tracer.close(sp)
            if sp is not None:
                sp.attrs.update(pivots=int(sol.iterations),
                                rows=int(lp.n_constraints),
                                status=sol.status.value)
            lpcheck.after(lp, sol, kwargs.get("feas_tol", 1e-9))
            return sol
        return solve

    for mod, attr in LP_SOLVE_NAMES:
        patcher.wrap(mod, attr, factory)


def _estimate_attrs(sp, args, kwargs, est):
    sp.attrs.update(status=est.status.value, pivots=int(est.iterations),
                    fp_rounds=est.fp_rounds)


def _sensitivity_attrs(sp, args, kwargs, res):
    sp.attrs["lp_count"] = int(res.lp_count)


def _rep_attrs(sp, args, kwargs, res):
    sp.attrs["failed"] = any(m.status != "optimal" for m in res.values())


def _read_attrs(sp, args, kwargs, res):
    sp.attrs["bytes"] = os.path.getsize(args[0])


ATTRS = {
    "estimators.call": _estimate_attrs,
    "sensitivity.call": _sensitivity_attrs,
    "simulate.rep": _rep_attrs,
    "io.read": _read_attrs,
}


def install_tracing(patcher, tracer):
    """Record a span at every module boundary listed above."""
    for mod, attr, name in ESTIMATOR_ENTRIES + MISSING_ENTRIES + OTHER_ENTRIES:
        patcher.wrap(mod, attr,
                     lambda orig, _n=name: tracer.wrapper(_n, orig, ATTRS.get(_n)))

