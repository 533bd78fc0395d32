"""Dense bounded-variable linear programming by the dual simplex method.

:func:`solve_lp` takes LPs whose costs are >= 0 and whose lower bounds are
finite, as every selector and sensitivity LP is.  Every row gets a slack,
``[0, inf)`` for ``<=`` rows and ``[0, 0]`` for ``==`` rows, so the
constraints read ``A x + s = b``.  The solve starts from the all-slack basis
with every structural variable at its lower bound.  Costs >= 0 make that
basis dual feasible, so the dual simplex starts at once, and ``c @ lower``
bounds the objective below, so a solve ends OPTIMAL, INFEASIBLE or at its
iteration limit.  A reduced cost of the wrong sign with no bound to flip to
can then only come from rounding; when a fresh factor shows one, the solve
starts again from the all-slack basis.

A basis is the set S of basic structural columns plus the equal-sized set R
of rows whose slacks are nonbasic; only the k x k block ``A[R, S]`` is
inverted, so nothing m x m is ever built.  A pivot changes that block by one
column, one row, or one of each, so its inverse, the primal values and the
reduced costs are updated in place in O(k^2 + (m + n) k), by a rank-one or
bordered step on the explicit inverse (the product-form update of Forrest &
Tomlin 1972).  The block is inverted afresh, and x and d recomputed from
it, every 64 updates, after a pivot whose element the entering column and
the pivot row disagree on, and before OPTIMAL, INFEASIBLE or any other
verdict is returned, so every result comes from a fresh factor.  A singular
block is repaired by swapping a dependent column for its row's slack.

After a pivot that moved the dual objective, the leaving row is priced by
dual steepest edge (Forrest & Goldfarb 1992) among the 32 most infeasible
rows.  After a degenerate pivot, one whose dual step had length zero, the
steepest-edge ratio rates a gain per unit of a step that did not happen, so
the most infeasible row leaves instead, and no weight is computed.  A dual
Bland rule takes over after a run of 50 + 2m degenerate pivots.  Entering
columns are chosen by a bound-flipping ratio test with Harris's tolerance.
Ties break toward the lowest variable index, so repeated solves of the same
problem are bitwise reproducible.

Every solve uses the same tolerances, 1e-9 on bound violations
(``DEFAULT_FEAS_TOL``) and on reduced costs (``DEFAULT_OPT_TOL``); the
iteration limit is the only setting a caller passes.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

DEFAULT_FEAS_TOL = 1e-9
DEFAULT_OPT_TOL = 1e-9

_PIV_TOL = 1e-9
_DEGEN_EPS = 1e-11
_MAX_COND = 1e12
_PRICE_TOP = 32
_REFACTOR_EVERY = 64
# Bland's rule picks the pivots after a run of _BLAND_AFTER + 2m degenerate ones
_BLAND_AFTER = 50
# largest relative gap between the pivot element from the entering column
# and from the pivot row that an in-place update accepts
_UPDATE_TOL = 1e-9


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"


@dataclass(frozen=True)
class LinearProgram:
    """min c@x  s.t.  A_ub@x <= b_ub,  A_eq@x == b_eq,  lower <= x <= upper.

    ``lower`` defaults to 0 and ``upper`` to +inf; bounds may be +-inf.
    All other data must be finite; NaN anywhere is rejected at
    construction.  :func:`solve_lp` further needs c >= 0 and finite lower
    bounds.
    """

    c: np.ndarray
    A_ub: np.ndarray = None
    b_ub: np.ndarray = None
    A_eq: np.ndarray = None
    b_eq: np.ndarray = None
    lower: np.ndarray = None
    upper: np.ndarray = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        n = c.shape[0]
        if n == 0:
            raise ValueError("linear program needs at least one variable")

        def rows(A, b, name):
            if A is None:
                return np.zeros((0, n)), np.zeros(0)
            A = np.atleast_2d(np.asarray(A, dtype=float))
            b = np.atleast_1d(np.asarray(b, dtype=float))
            if A.shape[1] != n or A.shape[0] != b.shape[0]:
                raise ValueError(f"{name}: shape mismatch "
                                 f"(A {A.shape}, b {b.shape}, n={n})")
            if not (np.isfinite(A).all() and np.isfinite(b).all()):
                raise ValueError(f"{name}: non-finite coefficients rejected")
            return A, b

        A_ub, b_ub = rows(self.A_ub, self.b_ub, "A_ub")
        A_eq, b_eq = rows(self.A_eq, self.b_eq, "A_eq")
        lower = (np.zeros(n) if self.lower is None
                 else np.broadcast_to(np.asarray(self.lower, dtype=float), (n,)).copy())
        upper = (np.full(n, np.inf) if self.upper is None
                 else np.broadcast_to(np.asarray(self.upper, dtype=float), (n,)).copy())
        if not np.isfinite(c).all():
            raise ValueError("objective: non-finite coefficients rejected")
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ValueError("bounds: NaN rejected")
        if np.any(lower == np.inf) or np.any(upper == -np.inf):
            raise ValueError("bounds: lower=+inf / upper=-inf rejected")
        if np.any(lower > upper):
            j = int(np.argmax(lower > upper))
            raise ValueError(f"variable {j}: lower bound exceeds upper bound")
        for name, val in (("c", c), ("A_ub", A_ub), ("b_ub", b_ub),
                          ("A_eq", A_eq), ("b_eq", b_eq),
                          ("lower", lower), ("upper", upper)):
            object.__setattr__(self, name, val)

    @property
    def n_vars(self):
        return self.c.shape[0]

    @property
    def n_constraints(self):
        return self.A_ub.shape[0] + self.A_eq.shape[0]


@dataclass
class LpSolution:
    status: LpStatus
    x: np.ndarray
    objective_value: float
    iterations: int
    farkas_y: np.ndarray = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def optimal(self):
        return self.status is LpStatus.OPTIMAL


class _DualSimplex:
    """Basis state of ``A x + s = b`` and the dual simplex loop over it.

    Variables 0..n-1 are structural, n+i is the slack of row i.  The basis
    (which variables are basic, which nonbasic ones sit at their upper
    bound) starts all-slack; costs, right-hand side and bounds are passed
    to :meth:`run`.

    Between pivots the engine also keeps the block: the basic structural
    columns ``S`` and the rows ``R`` with nonbasic slacks, in block order
    (``pos`` maps a variable to its place), the inverse ``Kinv`` of
    ``K = A[R, S]``, the rows ``A[R]`` and the columns ``A[:, S]``
    (transposed), together with the primal values ``x`` and the reduced
    costs ``d``; the block arrays live in buffers sized by the largest k so
    far.  A pivot updates all of it in place (:meth:`_update`);
    :meth:`_recompute` rebuilds it from the basis every ``_REFACTOR_EVERY``
    updates, after a pivot whose element the entering column and the pivot
    row disagree on, and before any verdict is returned.
    """

    def __init__(self, A, max_iters):
        self.A = A
        self.m, self.n = A.shape
        self.max_iters = max_iters
        self.a_max = max(A.max(initial=0.0), -A.min(initial=0.0))
        self.is_basic = np.zeros(self.n + self.m, dtype=bool)
        self.is_basic[self.n:] = True
        self.at_upper = np.zeros(self.n + self.m, dtype=bool)
        self.iters = 0
        self.repairs = 0
        self.refactors = 0
        self.updates = 0
        self.restarts = 0
        self.degenerate = 0
        self.bland = 0
        self.pos = np.zeros(self.n + self.m, dtype=np.intp)
        self._S = self._R = np.empty(0, dtype=np.intp)
        self._K = np.empty((0, 0))
        self._AR = np.empty((0, self.n))
        self._AST = np.empty((0, self.m))
        self.x = None
        self.d = None
        self.farkas = None
        self.violation = 0.0

    def _resize(self, k):
        """Point S, R and Kinv at the first k entries of their buffers.  A
        buffer that k outgrows is replaced by one of max(2k, 16) rows, capped
        at n and below m unless the block spans every row, so nothing m x m
        is allocated for a smaller block."""
        old = self._S.size
        if k > old:
            cap = min(max(2 * k, 16), self.n, max(k, self.m - 1))
            S, R = np.empty(cap, dtype=np.intp), np.empty(cap, dtype=np.intp)
            K = np.empty((cap, cap))
            AR, AST = np.empty((cap, self.n)), np.empty((cap, self.m))
            S[:old], R[:old], K[:old, :old] = self._S, self._R, self._K
            AR[:old], AST[:old] = self._AR, self._AST
            self._S, self._R, self._K, self._AR, self._AST = S, R, K, AR, AST
        self.S, self.R, self.Kinv = self._S[:k], self._R[:k], self._K[:k, :k]

    def _factor(self):
        """(S, R, inverse of A[R, S]) for the current basis, S and R sorted,
        swapping dependent columns for slacks until the block is well
        conditioned.  S, R and Kinv are also copied into the block buffers."""
        A, n = self.A, self.n
        while True:
            S = self.is_basic[:n].nonzero()[0]
            R = (~self.is_basic[n:]).nonzero()[0]
            K = A[R[:, None], S]
            self.refactors += 1
            if not S.size:
                Kinv = K
                break
            try:
                Kinv = np.linalg.inv(K)
                # cheap estimate of the 1-norm condition number of K
                if np.abs(Kinv).max() * self.a_max * S.size < _MAX_COND:
                    break
            except np.linalg.LinAlgError:
                pass
            # the singular vectors of the smallest singular value name a
            # column and a row whose deletion leaves a nonsingular minor
            U, _, Vt = np.linalg.svd(K)
            self.is_basic[S[np.argmax(np.abs(Vt[-1]))]] = False
            self.is_basic[n + R[np.argmax(np.abs(U[:, -1]))]] = True
            self.repairs += 1
        self._resize(S.size)
        self.S[:], self.R[:], self.Kinv[:] = S, R, Kinv
        self.pos[S] = self.pos[n + R] = np.arange(S.size)
        return S, R, Kinv

    def _flips(self, inf_up):
        """Nonbasic variables whose reduced cost favours their other bound,
        or None when one of them has no bound there: only a variable at its
        lower bound can lack one, as every lower bound is finite."""
        d = np.where(self.at_upper, self.d, -self.d)
        flip = (d > DEFAULT_OPT_TOL).nonzero()[0]
        if flip.size and np.any(inf_up[flip]):
            return None
        return flip

    def _recompute(self, c, b, lo, up, inf_up):
        """Refactor, then d and x from the fresh factor; False when a
        reduced cost has the wrong sign and no bound to flip to."""
        A, n = self.A, self.n
        S, R, Kinv = self._factor()
        AR, AS = A[R], A[:, S]
        self._AR[:S.size] = AR
        self._AST[:S.size] = AS.T
        y = c[S] @ Kinv
        d = c.copy()
        d[:n] -= y @ AR
        d[n + R] -= y
        d[S] = 0.0
        self.d = d

        # a nonbasic variable sits at the bound its reduced cost favours
        flip = self._flips(inf_up)
        if flip is None:
            return False
        self.at_upper[flip] = ~self.at_upper[flip]

        x = np.where(self.at_upper, up, lo)
        x[self.is_basic] = 0.0
        v = b - x[n:]
        nz = x[:n].nonzero()[0]
        if nz.size:
            v -= A[:, nz] @ x[nz]
        if S.size:
            x[S] = Kinv @ v[R]
            v -= AS @ x[S]
        basic_rows = self.is_basic[n:]
        x[n:][basic_rows] = v[basic_rows]
        self.x = x
        return True

    def _solve_rows(self, v):
        """B^-1 v: (its entries on S, its entries on the basic slacks by row,
        zero on R)."""
        wS = self.Kinv @ v[self.R]
        ws = v - wS @ self._AST[:self.S.size]
        ws[self.R] = 0.0
        return wS, ws

    def _move(self, idx, vals):
        """Put nonbasic variables idx at vals and shift the basic ones so
        that ``A x + s = b`` still holds: one solve with the block."""
        n, x = self.n, self.x
        delta = vals - x[idx]
        x[idx] = vals
        structural = idx < n
        v = -(self.A[:, idx[structural]] @ delta[structural])
        v[idx[~structural] - n] -= delta[~structural]
        wS, ws = self._solve_rows(v)
        x[self.S] += wS
        x[n:] += ws

    def _update(self, q, r, sigma, target, a, rho):
        """Swap q into the basis for r, which leaves at ``target``.

        ``a`` is the pivot row, sigma times row r of B^-1 [A I], and ``rho``
        row r of B^-1 on R.  Kinv takes one O(k^2) step: a structural for a
        structural replaces a column of K, a slack for a structural deletes
        a row and a column, a structural for a slack borders K with one of
        each, a slack for a slack replaces a row.  d moves along ``a``, x
        along q's column.  Returns False, with nothing changed, when the
        pivot element from q's column disagrees with ``a``.
        """
        A, n, k, pos, Kinv = self.A, self.n, self.S.size, self.pos, self.Kinv
        if q < n:
            col = A[:, q]
        else:
            col = np.zeros(self.m)
            col[q - n] = 1.0
        wS, ws = self._solve_rows(col)
        piv = wS[pos[r]] if r < n else ws[r - n]
        if not abs(piv - sigma * a[q]) <= _UPDATE_TOL * abs(a[q]):
            return False

        x = self.x
        step = (x[r] - target) / piv
        x[self.S] -= step * wS
        x[n:] -= step * ws
        x[q] += step
        x[r] = target
        d = self.d
        theta = d[q] / a[q]
        d -= theta * a
        d[q] = 0.0
        d[r] = -sigma * theta

        if r < n and q < n:
            p = pos[r]
            row = Kinv[p] / piv
            Kinv -= wS[:, None] * row
            Kinv[p] = row
            self.S[p] = q
            pos[q] = p
            self._AST[p] = col
        elif r < n:
            p, t = pos[r], pos[q]
            Kinv -= wS[:, None] * (Kinv[p] / piv)
            # drop row p and column t: the last ones fill the holes
            k -= 1
            S, R = self.S, self.R
            Kinv[p], S[p], self._AST[p] = Kinv[k], S[k], self._AST[k]
            Kinv[:, t], R[t], self._AR[t] = Kinv[:, k], R[k], self._AR[k]
            pos[S[p]], pos[n + R[t]] = p, t
            self._resize(k)
        elif q < n:
            zs = rho / piv              # -A[i, S] Kinv / piv
            self._resize(k + 1)
            K = self.Kinv
            K[:k, :k] -= wS[:, None] * zs
            K[:k, k] = -wS / piv
            K[k, :k] = zs
            K[k, k] = 1.0 / piv
            self.S[k], self.R[k] = q, r - n
            pos[q] = pos[r] = k
            self._AST[k] = col
            self._AR[k] = A[r - n]
        else:
            t = pos[q]
            col_t = -wS / piv
            Kinv += col_t[:, None] * rho
            Kinv[:, t] = col_t
            self.R[t] = r - n
            pos[r] = t
            self._AR[t] = A[r - n]
        self.is_basic[q] = True
        self.is_basic[r] = False
        self.at_upper[r] = sigma < 0
        self.updates += 1
        return True

    def run(self, c, b, lo, up):
        """Pivot until OPTIMAL, INFEASIBLE or ITERATION_LIMIT, with c >= 0
        and lo finite.  Every verdict is read off a fresh factor."""
        A, n = self.A, self.n
        inf_up = np.isinf(up)
        fixed = (up == lo).nonzero()[0]
        span = up - lo
        # boxed: both bounds finite and apart; fixed variables never enter
        boxed = np.isfinite(span) & (span > 0.0)
        any_boxed = bool(boxed.any())
        bland_after = _BLAND_AFTER + 2 * self.m
        degenerate_run = 0
        updated = None          # updates since the last factor; None: refactor
        while True:
            if updated is None:
                if not self._recompute(c, b, lo, up, inf_up):
                    # rounding broke dual feasibility: start again from the
                    # all-slack basis, where the reduced costs are c >= 0
                    self.is_basic[:n] = False
                    self.is_basic[n:] = True
                    self.at_upper[:] = False
                    self.restarts += 1
                    continue
                updated = 0
            x, d, S, R, Kinv = self.x, self.d, self.S, self.R, self.Kinv

            # nonbasic variables sit on a bound, so only basic ones violate
            viol = np.maximum(lo - x, x - up)
            cand = (viol > DEFAULT_FEAS_TOL).nonzero()[0]
            if not cand.size or self.iters >= self.max_iters:
                if updated:
                    updated = None
                    continue
                return LpStatus.ITERATION_LIMIT if cand.size else LpStatus.OPTIMAL

            bland = degenerate_run > bland_after
            if bland:
                cand = cand[:1]
            elif degenerate_run:
                # the last step did not move the dual objective, so the
                # steepest-edge ratio rates a gain that did not happen:
                # take the most infeasible row (lowest index on ties)
                cand = cand[np.argmax(viol[cand])][None]
            elif cand.size > _PRICE_TOP:
                # price only the most infeasible rows: weights cost k^2 each
                top = np.argsort(-viol[cand], kind="stable")[:_PRICE_TOP]
                cand = np.sort(cand[top])
            # rows of B^-1 for the candidates, restricted to R (a basic
            # slack's own row adds a unit entry); squared norms are the
            # dual steepest-edge weights
            split = int(np.searchsorted(cand, n))
            P = np.empty((cand.size, S.size))
            if split:
                P[:split] = Kinv[self.pos[cand[:split]]]
            if split < cand.size:
                P[split:] = -(self._AST[:S.size, cand[split:] - n].T @ Kinv)
            pick = 0
            if cand.size > 1:
                weight = np.einsum("ij,ij->i", P, P)
                weight[split:] += 1.0
                pick = int(np.argmax(viol[cand] ** 2 / weight))
            r = int(cand[pick])
            sigma = 1.0 if x[r] < lo[r] else -1.0
            rho = P[pick]
            a = np.zeros(n + self.m)
            a[:n] = (sigma * rho) @ self._AR[:S.size]
            if r >= n:
                a[:n] += sigma * A[r - n]
            a[n:][R] = sigma * rho
            a[S] = 0.0
            a[r] = 0.0

            # x_r moves to its violated bound; a nonbasic variable can take
            # its place when it can move off its bound in the matching way
            toward = np.where(self.at_upper, a, -a)
            if fixed.size:
                toward[fixed] = 0.0
            J = (toward > _PIV_TOL).nonzero()[0]
            if not J.size:
                if updated:
                    updated = None
                    continue
                # no bound of the nonbasic variables lets x_r reach its
                # bound: sigma times row r of B^-1 is a Farkas certificate
                row = np.zeros(self.m)
                row[R] = rho
                if r >= n:
                    row[r - n] = 1.0
                self.farkas = sigma * row
                self.violation = float(viol[r])
                return LpStatus.INFEASIBLE
            abs_a = np.abs(a[J])
            slack_d = -d[J] * np.sign(a[J])
            ratio = slack_d / abs_a
            if bland:
                within = np.argmax(ratio <= ratio.min(), keepdims=True)
            elif any_boxed and boxed[J].any():
                # bound flipping: the step may pass the breakpoints of
                # boxed variables (they change bound below) while x_r
                # stays beyond its bound; J ascends, so a stable sort on
                # the ratio breaks ties toward the lowest index
                order = np.argsort(ratio, kind="stable")
                reach = np.cumsum(abs_a[order] * span[J[order]])
                rest = order[min(int(np.searchsorted(reach, viol[r])), order.size - 1):]
                # Harris: the largest pivot among steps within the relaxed bound
                bound = np.min((slack_d[rest] + 0.5 * DEFAULT_OPT_TOL) / abs_a[rest])
                within = np.sort(rest[ratio[rest] <= bound])
            else:
                # Harris over every eligible variable
                bound = np.min((slack_d + 0.5 * DEFAULT_OPT_TOL) / abs_a)
                within = (ratio <= bound).nonzero()[0]
            big = abs_a[within]  # ties within 1e-12 (relative): lowest index
            pos = int(within[np.argmax(big >= (1.0 - 1e-12) * big.max())])
            q = int(J[pos])
            self.iters += 1
            self.bland += bland
            if ratio[pos] <= _DEGEN_EPS:
                self.degenerate += 1
                degenerate_run += 1
            else:
                degenerate_run = 0

            target = lo[r] if sigma > 0 else up[r]
            if updated < _REFACTOR_EVERY and self._update(q, r, sigma, target, a, rho):
                updated += 1
                flip = self._flips(inf_up)
                if flip is None:
                    updated = None
                elif flip.size:
                    self.at_upper[flip] = ~self.at_upper[flip]
                    self._move(flip, np.where(self.at_upper[flip], up[flip], lo[flip]))
            else:
                self.is_basic[q] = True
                self.is_basic[r] = False
                self.at_upper[r] = sigma < 0
                updated = None


def solve_lp(lp, max_iters=None):
    """Solve a :class:`LinearProgram` with costs >= 0 and finite lower bounds.

    Raises ValueError naming the first variable with ``c_j < 0`` or
    ``lower_j = -inf``.  The tolerances are fixed: ``DEFAULT_FEAS_TOL`` on
    bounds, ``DEFAULT_OPT_TOL`` on reduced costs.  Deterministic: identical
    input yields a bitwise-identical solution.  ``max_iters`` defaults to
    ``50 * (n_vars + n_constraints)`` and counts every pivot, those before
    a restart included.  INFEASIBLE carries a Farkas vector ``farkas_y``
    over the rows (``<=`` rows first) and, in
    ``diagnostics["infeasibility"]``, the bound violation of the row that
    proved it.  Every status reports, in ``diagnostics``, the block
    factorizations (``refactors``, the terminal one and each repair attempt
    included), the in-place block ``updates``, the singular-block
    ``repairs``, the ``restarts`` from the all-slack basis, the
    ``degenerate`` pivots (dual step of length at most ``_DEGEN_EPS``) and
    the ``bland`` pivots, those whose leaving row Bland's rule chose.
    """
    if not isinstance(lp, LinearProgram):
        raise TypeError("solve_lp expects a LinearProgram")
    bad = (lp.c < 0.0) | (lp.lower == -np.inf)
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(f"variable {j}: solve_lp needs c_j >= 0 and a finite "
                         f"lower bound, got c_j = {lp.c[j]!r}, "
                         f"lower_j = {lp.lower[j]!r}")

    n = lp.n_vars
    m1 = lp.A_ub.shape[0]
    m = m1 + lp.A_eq.shape[0]
    if max_iters is None:
        max_iters = 50 * (n + m)
    # the callers' matrices are C-ordered already: stack only to append
    # equality rows
    A = (np.vstack([lp.A_ub, lp.A_eq]) if lp.A_eq.shape[0]
         else np.ascontiguousarray(lp.A_ub))
    b = np.concatenate([lp.b_ub, lp.b_eq])
    c = np.concatenate([lp.c, np.zeros(m)])
    lo = np.concatenate([lp.lower, np.zeros(m)])
    up = np.concatenate([lp.upper, np.full(m1, np.inf), np.zeros(m - m1)])

    eng = _DualSimplex(A, max_iters)
    with np.errstate(all="ignore"):
        status = eng.run(c, b, lo, up)

    x = eng.x[:n].copy()
    diagnostics = {"refactors": eng.refactors, "updates": eng.updates,
                   "repairs": eng.repairs, "restarts": eng.restarts,
                   "degenerate": eng.degenerate, "bland": eng.bland}
    if status is LpStatus.INFEASIBLE:
        diagnostics["infeasibility"] = eng.violation
        return LpSolution(status, x, np.nan, eng.iters, farkas_y=eng.farkas,
                          diagnostics=diagnostics)
    return LpSolution(status, x, float(lp.c @ x), eng.iters,
                      diagnostics=diagnostics)


def check_solution(lp, sol):
    """Max constraint/bound violation of an LpSolution against its program."""
    x = sol.x
    viol = 0.0
    if lp.A_ub.shape[0]:
        viol = max(viol, float(np.max(lp.A_ub @ x - lp.b_ub)))
    if lp.A_eq.shape[0]:
        viol = max(viol, float(np.max(np.abs(lp.A_eq @ x - lp.b_eq))))
    lo_v = lp.lower - x
    up_v = x - lp.upper
    viol = max(viol, float(np.max(np.where(np.isfinite(lo_v), lo_v, -np.inf))))
    viol = max(viol, float(np.max(np.where(np.isfinite(up_v), up_v, -np.inf))))
    return viol
