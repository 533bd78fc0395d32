"""musel: l1-minimization selectors for sparse regression with noisy designs.

Estimates a sparse coefficient vector from a response ``y`` and a design
matrix observed with additive noise or missing-at-random entries, using
Dantzig-type linear programs with a bias-compensation diagonal, plus the
associated threshold calculus, sensitivity bounds, confidence intervals,
and a Monte Carlo benchmark harness.
"""

import importlib

from . import _accel

# one BLAS thread for the whole process, so that the output bytes do not
# depend on the core count (see musel._accel)
_accel.single_blas_thread()

from .core import (
    ErrorMatrices,
    gram,
    normalize_design,
    coherence,
    error_matrices,
)
from .lp import LinearProgram, LpSolution, LpStatus, solve_lp
from .estimators import (
    SelectorConfig,
    Estimate,
    solve_compensated_mu,
    solve_mu_selector,
    solve_dantzig,
    solve_missing_data_cmu,
    feasibility_check,
)
from .missing import apply_mask, rescale, estimate_pi, sigma_hat, sigma_true

# Modules that `musel estimate` never needs load on first use (PEP 562),
# as do the names exported from them.
_LAZY = {
    "thresholds": ("NoiseParams", "Thresholds", "delta_bar",
                   "subgaussian_deltas", "b_missing", "nu_bound"),
    "sensitivity": ("SensitivityResult", "in_cone", "kappa_inf_exact",
                    "kappa_one", "kappa_q_from_inf", "kappa_star",
                    "kappa_lower_bound", "theorem1_bounds", "theorem2_bounds",
                    "theorem3_ci"),
    "simulate": ("SimConfig", "RunMetrics", "TableRow", "run_experiment"),
}
_LAZY_HOME = {name: mod for mod, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY_HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY_HOME[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY_HOME))


__version__ = "0.1.0"

__all__ = [
    "ErrorMatrices", "gram", "normalize_design", "coherence",
    "error_matrices",
    "LinearProgram", "LpSolution", "LpStatus", "solve_lp",
    "SelectorConfig", "Estimate",
    "solve_compensated_mu", "solve_mu_selector", "solve_dantzig",
    "solve_missing_data_cmu", "feasibility_check",
    "apply_mask", "rescale", "estimate_pi", "sigma_hat", "sigma_true",
    *_LAZY_HOME,
]
