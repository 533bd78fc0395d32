"""HiGHS as an outside reference: objective agreement and time per solve.

scipy's ``linprog(method="highs-ds")`` (HiGHS dual simplex) solves the same
programs musel solves.  Objectives must agree within ``OBJ_RTOL`` relative
to ``max(1, |objective|)``; a program musel calls INFEASIBLE or UNBOUNDED
must not have an optimum in HiGHS.  ITERATION_LIMIT results are not
compared: ``probes.LpCheck`` records each of them as a check failure.  HiGHS is a yardstick only: its time is
reported per layer and never gated.
"""

import time

import numpy as np

OBJ_RTOL = 1e-6


def version():
    """scipy's version, or None when scipy does not import."""
    try:
        import scipy
        import scipy.optimize  # noqa: F401
    except ImportError:
        return None
    return scipy.__version__


def solve(c, A_ub, b_ub, A_eq=None, b_eq=None, lower=None, upper=None):
    """(scipy OptimizeResult, seconds) for min c@x over the given program."""
    from scipy.optimize import linprog
    n = len(c)
    lo = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    up = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    if A_eq is not None and len(A_eq) == 0:
        A_eq = b_eq = None
    t0 = time.perf_counter()
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=np.column_stack([lo, up]), method="highs-ds")
    return res, time.perf_counter() - t0


def compare(status, objective, res):
    """Error text when musel's (status, objective) disagrees with HiGHS."""
    if status == "optimal":
        if res.status != 0:
            return f"musel OPTIMAL, HiGHS status {res.status} ({res.message})"
        gap = abs(objective - res.fun)
        if gap > OBJ_RTOL * max(1.0, abs(res.fun)):
            return (f"objective {objective!r} differs from HiGHS {res.fun!r} "
                    f"by {gap:.3e}")
    elif status in ("infeasible", "unbounded") and res.status == 0:
        return f"musel {status.upper()}, HiGHS finds optimum {res.fun!r}"
    return None


def sample(items, limit):
    """At most ``limit`` items, evenly spaced, first and last included."""
    if len(items) <= limit:
        return list(items)
    idx = np.linspace(0, len(items) - 1, limit).round().astype(int)
    return [items[i] for i in sorted(set(idx))]


def check_pairs(pairs, limit=None):
    """Compare (LinearProgram, LpSolution) pairs against HiGHS: all of
    them, or at most ``limit`` evenly spaced ones.

    Returns (errors, seconds per HiGHS solve).
    """
    errors, times = [], []
    for lp, sol in (pairs if limit is None else sample(pairs, limit)):
        res, dt = solve(lp.c, lp.A_ub, lp.b_ub, lp.A_eq, lp.b_eq,
                        lp.lower, lp.upper)
        times.append(dt)
        err = compare(sol.status.value, sol.objective_value, res)
        if err:
            errors.append(err)
    return errors, times
