"""A restricted-eigenvalue oracle for small Gram matrices, for the tests.

re_constant_bruteforce bounds the restricted-eigenvalue constant from above
by random cone directions polished with a coordinate pattern search; the
sensitivity and acceptance tests check the paper's inequalities between it
and the cone sensitivities.
"""

from itertools import combinations

import numpy as np

from musel.core import check_gram


def project_to_cone(delta, J_mask):
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
    (x_best, f_best); the found value is an upper bound on the true
    minimum.
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
    as the resolution grows.  Limited to small problems (p <= p_cap).
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
            return project_to_cone(d, _mask)

        starts = [np.eye(p)[j] for j in J]
        for _ in range(grid_resolution):
            d = rng.standard_normal(p)
            d /= np.linalg.norm(d)
            starts.append(project(d))
        cand = min(starts, key=ratio)
        _, val = pattern_search_min(ratio, cand, project=project)
        best = min(best, val)
    return float(best)
