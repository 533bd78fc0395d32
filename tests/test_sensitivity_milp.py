"""kappa_inf and kappa_one against one mixed-integer program each.

scipy's ``milp`` (HiGHS's branch and cut) is a test-only oracle that shares
no code with musel's enumeration: no support or sign pattern is listed, no
anchor bound prunes and no paired optimum is branched on.  Over
z = (a, b, t, x, w, v), with delta = a - b and a, b in [0, 1]^p:

- binary x_i marks the support J, sum(x) = s;
- binary w_i is the sign of delta_i: a_i <= w_i and b_i <= 1 - w_i, so
  a_i + b_i = |delta_i|;
- v_i = x_i (a_i + b_i) by McCormick's inequalities, exact for a binary x_i
  and a_i + b_i in [0, 1];
- the cone row sum(a + b) - 2 sum(v) <= 0, the rows +-Psi(a - b) <= t,
  and min t;
- for kappa_one the unit mass sum(a + b) = 1; for kappa_inf a binary anchor
  y with sum(y) = 1 and a_i >= y_i (delta -> -delta makes the anchor +1).

Where HiGHS proves its optimum, musel's exact value agrees within 1e-7
relative, HiGHS's own tolerance; where its time limit stops it, musel's
value lies between HiGHS's dual bound and its incumbent.
"""

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.optimize import Bounds, LinearConstraint, milp

from musel.sensitivity import kappa_inf_exact, kappa_one

from conftest import normalized_gram
from test_sensitivity import masked_gram

TOL = 1e-7
TIME_LIMIT = 1.0


def milp_kappa(psi, s, q):
    """(status, incumbent, dual bound) of the MILP of kappa_q(s), q in
    {1, inf}; status 0 is proven optimal, 1 a time or node limit."""
    p = psi.shape[0]
    anchored = q == np.inf
    blocks = ["a", "b", "t", "x", "w", "v"] + (["y"] if anchored else [])
    size = {name: 1 if name == "t" else p for name in blocks}
    start = dict(zip(blocks, np.cumsum([0] + [size[n] for n in blocks])))
    n = start[blocks[-1]] + size[blocks[-1]]
    rows, lo, hi = [], [], []

    def row(terms, lower, upper):
        """Rows lower <= sum coef * z[block][i] <= upper, one per i in 0..m-1
        for terms {block: coef}, a coef a scalar or an (m, p) matrix."""
        m = max((np.shape(c)[0] for c in terms.values() if np.ndim(c) == 2),
                default=1)
        A = np.zeros((m, n))
        for name, coef in terms.items():
            cols = slice(start[name], start[name] + size[name])
            A[:, cols] += coef
        rows.append(A)
        lo.append(np.full(m, lower))
        hi.append(np.full(m, upper))

    eye, ones = np.eye(p), np.ones((1, p))
    row({"x": ones}, s, s)                                   # |J| = s
    row({"a": eye, "w": -eye}, -np.inf, 0.0)                 # a_i <= w_i
    row({"b": eye, "w": eye}, -np.inf, 1.0)                  # b_i <= 1 - w_i
    row({"v": eye, "x": -eye}, -np.inf, 0.0)                 # v <= x
    row({"v": eye, "a": -eye, "b": -eye}, -np.inf, 0.0)      # v <= a + b
    row({"v": eye, "a": -eye, "b": -eye, "x": -eye}, -1.0, np.inf)
    row({"a": ones, "b": ones, "v": -2 * ones}, -np.inf, 0.0)   # the cone
    row({"a": psi, "b": -psi, "t": -np.ones((p, 1))}, -np.inf, 0.0)
    row({"a": -psi, "b": psi, "t": -np.ones((p, 1))}, -np.inf, 0.0)
    if anchored:
        row({"y": ones}, 1.0, 1.0)
        row({"a": eye, "y": -eye}, 0.0, np.inf)              # a_i >= y_i
    else:
        row({"a": ones, "b": ones}, 1.0, 1.0)                # unit mass
    integer = np.zeros(n)
    upper = np.ones(n)
    for name in blocks:
        if name in ("x", "w", "y"):
            integer[start[name]:start[name] + p] = 1
    upper[start["t"]] = np.inf
    cost = np.zeros(n)
    cost[start["t"]] = 1.0
    res = milp(cost, integrality=integer, bounds=Bounds(np.zeros(n), upper),
               constraints=LinearConstraint(np.vstack(rows),
                                            np.concatenate(lo),
                                            np.concatenate(hi)),
               options={"time_limit": TIME_LIMIT, "mip_rel_gap": 1e-9})
    assert res.status in (0, 1), res.message
    incumbent = np.inf if res.fun is None else res.fun
    return res.status, incumbent, res.mip_dual_bound


def assert_agrees(psi, s, q):
    r = (kappa_inf_exact if q == np.inf else kappa_one)(psi, s)
    assert r.kind == "exact"
    status, incumbent, dual = milp_kappa(psi, s, q)
    slack = TOL * max(1.0, abs(r.value))
    if status == 0:
        assert abs(r.value - incumbent) <= TOL * max(1.0, abs(incumbent))
    else:
        assert dual - slack <= r.value <= incumbent + slack


def gram(kind, p, seed):
    return (normalized_gram(p, 30, seed) if kind == "normalized"
            else masked_gram(p, seed))


@pytest.mark.parametrize("kind, p, s, seed", [
    ("normalized", 10, 1, 1), ("normalized", 10, 3, 3), ("masked", 10, 2, 4),
    ("masked", 12, 3, 5), ("normalized", 14, 2, 6), ("masked", 16, 1, 7),
    ("normalized", 16, 2, 8)])
def test_kappa_inf(kind, p, s, seed):
    assert_agrees(gram(kind, p, seed), s, np.inf)


# normalized_gram(5, 30, 0) at s = 2 and 3, and masked_gram(10, 0) at s = 2,
# have root optima that pair, so kappa_one branches on them
@pytest.mark.parametrize("kind, p, s, seed", [
    ("normalized", 5, 2, 0), ("normalized", 5, 3, 0), ("masked", 10, 2, 0),
    ("normalized", 12, 1, 1), ("masked", 16, 1, 2), ("normalized", 9, 2, 4),
    ("masked", 9, 3, 5), ("normalized", 10, 3, 6)])
def test_kappa_one(kind, p, s, seed):
    assert_agrees(gram(kind, p, seed), s, 1.0)
