"""musel: l1-minimization selectors for sparse regression with noisy designs.

Estimates a sparse coefficient vector from a response ``y`` and a design
matrix observed with additive noise or missing-at-random entries, using
Dantzig-type linear programs with a bias-compensation diagonal, plus the
associated threshold calculus, sensitivity bounds, confidence intervals,
and a Monte Carlo benchmark harness.
"""

from .core import (
    ErrorMatrices,
    gram,
    normalize_design,
    coherence,
    re_constant_bruteforce,
    error_matrices,
)
from .lp import LinearProgram, LpSolution, LpStatus, solve_lp
from .estimators import (
    SelectorConfig,
    Estimate,
    build_cmu_lp,
    build_cmu_lp_direct,
    solve_compensated_mu,
    solve_mu_selector,
    solve_dantzig,
    solve_missing_data_cmu,
    feasibility_check,
    lift_to_pair,
)
from .thresholds import (
    NoiseParams,
    Thresholds,
    delta_bar,
    subgaussian_deltas,
    b_missing,
    assemble_thresholds,
    nu_bound,
)
from .missing import (
    MaskedDesign,
    CompensationDiagonal,
    apply_mask,
    rescale,
    estimate_pi,
    sigma_hat,
    sigma_true,
)
from .sensitivity import (
    SensitivityResult,
    in_cone,
    kappa_inf_exact,
    kappa_one,
    kappa_q_from_inf,
    kappa_star,
    kappa_lower_bound,
    empirical_gram,
    theorem1_bounds,
    theorem2_bounds,
    theorem3_ci,
)
from .simulate import SimConfig, RunMetrics, TableRow, run_experiment

__version__ = "0.1.0"

__all__ = [
    "ErrorMatrices", "gram", "normalize_design", "coherence",
    "re_constant_bruteforce", "error_matrices",
    "LinearProgram", "LpSolution", "LpStatus", "solve_lp",
    "SelectorConfig", "Estimate", "build_cmu_lp", "build_cmu_lp_direct",
    "solve_compensated_mu", "solve_mu_selector", "solve_dantzig",
    "solve_missing_data_cmu", "feasibility_check", "lift_to_pair",
    "NoiseParams", "Thresholds", "delta_bar", "subgaussian_deltas",
    "b_missing", "assemble_thresholds", "nu_bound",
    "MaskedDesign", "CompensationDiagonal", "apply_mask", "rescale",
    "estimate_pi", "sigma_hat", "sigma_true",
    "SensitivityResult", "in_cone", "kappa_inf_exact", "kappa_one",
    "kappa_q_from_inf", "kappa_star", "kappa_lower_bound", "empirical_gram",
    "theorem1_bounds", "theorem2_bounds", "theorem3_ci",
    "SimConfig", "RunMetrics", "TableRow", "run_experiment",
]
