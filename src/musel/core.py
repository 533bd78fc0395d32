"""Core numeric operations: Gram matrices, design normalization, coherence,
diagnostic error matrices, and a small-instance restricted-eigenvalue oracle.

Matrices are plain dense float64 ``numpy`` arrays in row-major order.  The
validation helpers reject non-finite entries at the boundary so that all
downstream arithmetic can assume clean data.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

DEFAULT_DIM_CAP = 2000


def as_matrix(a, name="matrix", dim_cap=DEFAULT_DIM_CAP):
    """Validate and return a 2-D float64 array with finite entries.

    dim_cap limits the column count p (dense storage stays cheap); the row
    count is unconstrained.
    """
    M = np.asarray(a, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D array, got ndim={M.ndim}")
    if M.shape[0] == 0 or M.shape[1] == 0:
        raise ValueError(f"{name}: zero-sized dimension {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name}: non-finite entries rejected")
    if M.shape[1] > dim_cap:
        raise ValueError(f"{name}: {M.shape[1]} columns exceed cap {dim_cap}")
    return M


def as_vector(a, name="vector"):
    """Validate and return a 1-D float64 array with finite entries."""
    v = np.asarray(a, dtype=float)
    if v.ndim == 2 and v.shape[1] == 1:
        v = v[:, 0]
    if v.ndim != 1:
        raise ValueError(f"{name}: expected a 1-D array, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name}: non-finite entries rejected")
    return v


def check_gram(psi, sym_rtol=1e-12, name="psi"):
    """Validate a symmetric p x p Gram matrix."""
    psi = as_matrix(psi, name)
    if psi.shape[0] != psi.shape[1]:
        raise ValueError(f"{name}: must be square, got {psi.shape}")
    scale = max(1.0, float(np.max(np.abs(psi))))
    if np.max(np.abs(psi - psi.T)) > sym_rtol * scale:
        raise ValueError(f"{name}: not symmetric within rtol {sym_rtol}")
    return psi


@dataclass(frozen=True)
class ErrorMatrices:
    """Diagnostic cross-products between design, design noise and response noise.

    M1 = X'Xi/n, M2 = X'xi/n, M3 = Xi'xi/n, M4 = off-diagonal part of
    Xi'Xi/n, M5 = diagonal part of Xi'Xi/n minus the diagonal D of expected
    column second moments.  M4 has an exactly zero diagonal; M5 is diagonal.
    """

    M1: np.ndarray
    M2: np.ndarray
    M3: np.ndarray
    M4: np.ndarray
    M5: np.ndarray

    def __post_init__(self):
        if np.any(np.diag(self.M4) != 0.0):
            raise ValueError("M4 must have an exactly zero diagonal")
        if np.any(self.M5 != np.diag(np.diag(self.M5))):
            raise ValueError("M5 must be diagonal")


def gram(X, diag=None):
    """Gram matrix X'X/n of a design with n >= 1 rows, minus diag(diag)
    when a length-p diagonal is given."""
    X = as_matrix(X, "X")
    n = X.shape[0]
    G = X.T @ X / n
    if diag is not None:
        G[np.diag_indices_from(G)] -= diag
    return G


def normalize_design(X, tol=1e-12):
    """Center each column and scale it so the Gram diagonal equals 1.

    Raises on constant columns (zero variance), naming the first offending
    column index.
    """
    X = as_matrix(X, "X")
    centered = X - X.mean(axis=0)
    scale = np.sqrt((centered ** 2).mean(axis=0))
    bad = np.nonzero(scale <= tol)[0]
    if bad.size:
        raise ValueError(f"column {bad[0]} is constant and cannot be normalized")
    return centered / scale


def coherence(psi, diag_tol=1e-8):
    """Largest absolute off-diagonal Gram entry.

    Requires a unit diagonal (within diag_tol), since the coherence bound is
    only meaningful for normalized designs.
    """
    psi = check_gram(psi)
    d = np.diag(psi)
    if np.max(np.abs(d - 1.0)) > diag_tol:
        j = int(np.argmax(np.abs(d - 1.0)))
        raise ValueError(f"coherence requires unit diagonal; psi[{j},{j}]={d[j]!r}")
    p = psi.shape[0]
    if p == 1:
        return 0.0
    off = psi - np.diag(d)
    return float(np.max(np.abs(off)))


def error_matrices(X, Xi, xi, D):
    """Compute M1..M5 from the design, the two noises, and the diagonal D.

    D is given as the length-p vector of expected column second moments of
    the design noise.
    """
    X = as_matrix(X, "X")
    Xi_m = as_matrix(Xi, "Xi")
    xi_v = as_vector(xi, "xi")
    d = as_vector(D, "D")
    n, p = X.shape
    if Xi_m.shape != (n, p):
        raise ValueError(f"Xi shape {Xi_m.shape} != X shape {(n, p)}")
    if xi_v.shape[0] != n:
        raise ValueError(f"xi length {xi_v.shape[0]} != n={n}")
    if d.shape[0] != p:
        raise ValueError(f"D length {d.shape[0]} != p={p}")
    M1 = X.T @ Xi_m / n
    M2 = X.T @ xi_v / n
    M3 = Xi_m.T @ xi_v / n
    XiXi = Xi_m.T @ Xi_m / n
    diag = np.diag(XiXi).copy()
    M4 = XiXi - np.diag(diag)
    np.fill_diagonal(M4, 0.0)
    M5 = np.diag(diag - d)
    return ErrorMatrices(M1=M1, M2=M2, M3=M3, M4=M4, M5=M5)


def _project_to_cone(delta, J_mask):
    """Scale the off-J block so the cone inequality holds exactly if violated."""
    d = delta.copy()
    mass_J = np.sum(np.abs(d[J_mask]))
    mass_Jc = np.sum(np.abs(d[~J_mask]))
    if mass_Jc > mass_J:
        d[~J_mask] *= 0.0 if mass_Jc == 0 else mass_J / mass_Jc
    return d


def pattern_search_min(fun, x0, project=None, step0=0.25, shrink=0.5,
                       min_step=1e-7, max_rounds=200):
    """Deterministic coordinate pattern search with optional feasibility projection.

    Minimizes ``fun`` starting from x0; each round tries +-step moves along
    every coordinate (projected when a projection is given) and keeps the
    best improvement, halving the step when no move improves.  Returns
    (x_best, f_best).  Used by the brute-force oracles; the found value is
    an upper bound on the true minimum.
    """
    x = x0 if project is None else project(x0)
    f = fun(x)
    step = step0
    p = x.shape[0]
    for _ in range(max_rounds):
        improved = False
        best_x, best_f = x, f
        for k in range(p):
            for sgn in (1.0, -1.0):
                cand = x.copy()
                cand[k] += sgn * step
                if project is not None:
                    cand = project(cand)
                fc = fun(cand)
                if fc < best_f - 1e-15:
                    best_x, best_f = cand, fc
                    improved = True
        if improved:
            x, f = best_x, best_f
        else:
            step *= shrink
            if step < min_step:
                break
    return x, f


def re_constant_bruteforce(psi, s, grid_resolution=50, p_cap=8, seed=0):
    """Approximate the restricted-eigenvalue constant by enumeration and search.

    Minimizes |delta' Psi delta| / |delta_J|_2^2 over all supports J of size
    s and directions delta in the cone C_J, by sampling ``grid_resolution``
    random cone directions per support and polishing the best with a pattern
    search.  The result is an upper bound on the true constant that tightens
    as the resolution grows.  Intended as a test oracle for small problems
    (p <= p_cap), not a production feature.
    """
    psi = check_gram(psi)
    p = psi.shape[0]
    if p > p_cap:
        raise ValueError(f"re_constant_bruteforce is limited to p <= {p_cap}")
    if not 1 <= s <= p:
        raise ValueError(f"s must be in [1, {p}], got {s}")

    rng = np.random.default_rng(seed)
    best = np.inf
    for J in combinations(range(p), s):
        J_mask = np.zeros(p, dtype=bool)
        J_mask[list(J)] = True

        def ratio(d, _mask=J_mask):
            dj = d[_mask]
            denom = float(dj @ dj)
            if denom < 1e-14:
                return np.inf
            return abs(float(d @ psi @ d)) / denom

        def project(d, _mask=J_mask):
            return _project_to_cone(d, _mask)

        starts = [np.eye(p)[j] for j in J]
        for _ in range(grid_resolution):
            d = rng.standard_normal(p)
            d /= np.linalg.norm(d)
            starts.append(project(d))
        cand = min(starts, key=ratio)
        _, val = pattern_search_min(ratio, cand, project=project)
        best = min(best, val)
    return float(best)
