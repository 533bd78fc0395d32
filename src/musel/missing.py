"""Missing-at-random design pipeline: masking, rescaling, and estimation of
the missingness rate and the compensation diagonal.

Every function takes the masked design ``Z_tilde`` as an array, and pi
(scalar or per-column) as an explicit argument, and returns arrays.
Missing entries are encoded as exact 0.0 (the mask is multiplicative), so a
true zero in the design is indistinguishable from a missing value and the
zero-frequency estimator of pi is biased upward when the design contains
exact zeros.  The designs targeted here (continuous, e.g. normalized
Gaussian) have none almost surely.
"""

import numpy as np

from .core import as_matrix


def _pi_per_column(pi, p):
    pi_arr = np.broadcast_to(np.asarray(pi, dtype=float), (p,)).copy()
    bad = ~((pi_arr >= 0) & (pi_arr < 1))
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ValueError(f"pi[{j}]={pi_arr[j]!r} outside [0, 1)")
    return pi_arr


def apply_mask(X, pi, rng_seed):
    """The masked design Z_tilde: each entry of X is kept independently,
    in column j with probability 1 - pi_j, and set to 0.0 otherwise.
    Deterministic given rng_seed."""
    X = as_matrix(X, "X")
    n, p = X.shape
    pi_arr = _pi_per_column(pi, p)
    rng = np.random.default_rng(rng_seed)
    return X * (rng.random((n, p)) >= pi_arr)


def rescale(Z_tilde, pi):
    """Inverse-probability rescale Z = Z_tilde / (1 - pi), entrywise per column.

    Turns the multiplicative mask into additive zero-mean design noise."""
    Z_tilde = as_matrix(Z_tilde, "Z_tilde")
    return Z_tilde / (1.0 - _pi_per_column(pi, Z_tilde.shape[1]))


def estimate_pi(Z_tilde, mode="pooled"):
    """Empirical frequency of exact zeros in the masked design.

    mode="pooled" returns a single scalar (all columns share one rate);
    mode="per-column" returns a length-p array.
    """
    zeros = as_matrix(Z_tilde, "Z_tilde") == 0.0
    if mode == "pooled":
        return float(zeros.mean())
    if mode == "per-column":
        return zeros.mean(axis=0)
    raise ValueError(f"mode must be 'pooled' or 'per-column', got {mode!r}")


def check_no_dead_columns(Z_tilde):
    """Reject designs with a fully missing column, naming the first one."""
    dead = np.nonzero(np.all(as_matrix(Z_tilde, "Z_tilde") == 0.0, axis=0))[0]
    if dead.size:
        raise ValueError(f"column {dead[0]} has all entries missing")


def sigma_hat(Z_tilde, pi):
    """Compensation diagonal, the length-p vector
    sigma_hat_j^2 = mean_i(Z_tilde_ij^2) * pi_j/(1-pi_j)^2.

    Unbiased for the noise second moment sigma_j^2 under the Bernoulli mask.
    """
    Z_tilde = as_matrix(Z_tilde, "Z_tilde")
    pi_arr = _pi_per_column(pi, Z_tilde.shape[1])
    if np.any(pi_arr > 0):
        check_no_dead_columns(Z_tilde)
    return (Z_tilde ** 2).mean(axis=0) * pi_arr / (1.0 - pi_arr) ** 2


def sigma_true(X, pi):
    """Exact noise second moments sigma_j^2 = mean_i(X_ij^2) * pi_j/(1-pi_j),
    computable only with the unmasked design (simulation diagnostics)."""
    X = as_matrix(X, "X")
    pi_arr = _pi_per_column(pi, X.shape[1])
    return (X ** 2).mean(axis=0) * pi_arr / (1.0 - pi_arr)
