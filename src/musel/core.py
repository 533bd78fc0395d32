"""Core numeric operations: Gram matrices, design normalization, coherence
and diagnostic error matrices.

Matrices are plain dense float64 ``numpy`` arrays in row-major order.  The
validation helpers reject non-finite entries at the boundary so that all
downstream arithmetic can assume clean data.
"""

from dataclasses import dataclass

import numpy as np

DIM_CAP = 2000          # most columns a matrix may have
SYM_RTOL = 1e-12        # Gram asymmetry allowed, relative to max(1, |psi|)
CONSTANT_TOL = 1e-12    # column standard deviation of a constant column
UNIT_DIAG_TOL = 1e-8    # |psi_jj - 1| that coherence accepts as unit


def as_matrix(a, name="matrix"):
    """Validate and return a 2-D float64 array with finite entries.

    At most DIM_CAP columns (dense storage stays cheap); the row count is
    unconstrained.
    """
    M = np.asarray(a, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D array, got ndim={M.ndim}")
    if M.shape[0] == 0 or M.shape[1] == 0:
        raise ValueError(f"{name}: zero-sized dimension {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name}: non-finite entries rejected")
    if M.shape[1] > DIM_CAP:
        raise ValueError(f"{name}: {M.shape[1]} columns exceed cap {DIM_CAP}")
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


def check_gram(psi, name="psi"):
    """Validate a p x p Gram matrix, symmetric within SYM_RTOL."""
    psi = as_matrix(psi, name)
    if psi.shape[0] != psi.shape[1]:
        raise ValueError(f"{name}: must be square, got {psi.shape}")
    scale = max(1.0, float(np.max(np.abs(psi))))
    if np.max(np.abs(psi - psi.T)) > SYM_RTOL * scale:
        raise ValueError(f"{name}: not symmetric within rtol {SYM_RTOL}")
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
    when a diagonal is given; it must be finite and of length p."""
    X = as_matrix(X, "X")
    n, p = X.shape
    G = X.T @ X / n
    if diag is not None:
        diag = as_vector(diag, "diag")
        if diag.shape[0] != p:
            raise ValueError(f"diag length {diag.shape[0]} != p={p}")
        G[np.diag_indices_from(G)] -= diag
    return G


def normalize_design(X):
    """Center each column and scale it so the Gram diagonal equals 1.

    Raises on constant columns (standard deviation <= CONSTANT_TOL), naming
    the first offending column index.
    """
    X = as_matrix(X, "X")
    centered = X - X.mean(axis=0)
    scale = np.sqrt((centered ** 2).mean(axis=0))
    bad = np.nonzero(scale <= CONSTANT_TOL)[0]
    if bad.size:
        raise ValueError(f"column {bad[0]} is constant and cannot be normalized")
    return centered / scale


def coherence(psi):
    """Largest absolute off-diagonal Gram entry.

    Requires a unit diagonal (within UNIT_DIAG_TOL), since the coherence
    bound is only meaningful for normalized designs.
    """
    psi = check_gram(psi)
    d = np.diag(psi)
    if np.max(np.abs(d - 1.0)) > UNIT_DIAG_TOL:
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
