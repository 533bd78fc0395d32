"""Threshold calculus for the stochastic error terms.

Computes the five deviation thresholds delta_1..delta_5 for subgaussian
design/response noise, the compensation threshold b for the missing-data
model, and the derived selector constants mu(eps) = d1+d4+d5+b and
tau(eps) = d2+d3, together with the error-bound radius nu(eps).

Natural logarithms throughout.
"""

import json
import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class NoiseParams:
    """Inputs to the threshold formulas.

    gamma_xi / gamma_Xi are the subgaussian constants of the response and
    design noises; m2 and m4 are the max column second / fourth moments of
    the unobserved design; gamma0 and t0 are the subexponential constants
    for noise products (derived from the gammas when omitted).  All six
    must be finite when given.
    """

    gamma_xi: float
    gamma_Xi: float
    epsilon: float
    n: int
    p: int
    m2: float = 1.0
    m4: float = 1.0
    gamma0: float = None
    t0: float = None

    def __post_init__(self):
        for name in ("gamma_xi", "gamma_Xi", "m2", "m4", "gamma0", "t0"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if not (self.gamma_xi > 0 and self.gamma_Xi > 0):
            raise ValueError("gamma_xi and gamma_Xi must be positive")
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be positive")
        if self.m2 < 0 or self.m4 < 0:
            raise ValueError("m2 and m4 must be nonnegative")
        # The product of centered gamma_Xi- and gamma_xi-subgaussian
        # variables is subexponential; the exact constants are not pinned
        # down by theory, so the defaults are a conservative standard shape.
        top = max(self.gamma_Xi, self.gamma_xi)
        if self.gamma0 is None:
            object.__setattr__(self, "gamma0", 4.0 * self.gamma_Xi * top)
        if self.t0 is None:
            object.__setattr__(self, "t0", 1.0 / (4.0 * self.gamma_Xi * top))
        if not (self.gamma0 > 0 and self.t0 > 0):
            raise ValueError("gamma0 and t0 must be positive")


@dataclass(frozen=True)
class Thresholds:
    """The five deviation thresholds, the compensation threshold b, and the
    selector constants mu_eps / tau_eps they induce."""

    delta: tuple
    b: float
    mu_eps: float = field(init=False)
    tau_eps: float = field(init=False)

    def __post_init__(self):
        d = tuple(float(v) for v in self.delta)
        b = float(self.b)
        if len(d) != 5:
            raise ValueError("expected exactly five delta thresholds")
        if any(v < 0 for v in d) or b < 0:
            raise ValueError("thresholds must be nonnegative")
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "mu_eps", d[0] + d[3] + d[4] + b)
        object.__setattr__(self, "tau_eps", d[1] + d[2])

    def to_dict(self, inputs=None):
        out = {
            "delta1": self.delta[0], "delta2": self.delta[1],
            "delta3": self.delta[2], "delta4": self.delta[3],
            "delta5": self.delta[4], "b": self.b,
            "mu_eps": self.mu_eps, "tau_eps": self.tau_eps,
        }
        if inputs is not None:
            out["inputs"] = dict(inputs)
        return out

    def to_json(self, inputs=None):
        return json.dumps(self.to_dict(inputs), indent=2, sort_keys=True)


def delta_bar(epsilon, N, gamma0, t0, n):
    """Deviation threshold for an average of n subexponential terms,
    max(gamma0*sqrt(2*log(N/eps)/n), 2*log(N/eps)/(t0*n))."""
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    L = math.log(N / epsilon)
    return max(gamma0 * math.sqrt(2.0 * L / n), 2.0 * L / (t0 * n))


def subgaussian_deltas(params):
    """The five thresholds delta_1..delta_5 under subgaussian noise.

    delta_1 = gamma_Xi*sqrt(2*m2*log(2p^2/eps)/n) (design-noise/design term),
    delta_2 = gamma_xi*sqrt(2*m2*log(2p/eps)/n) (response-noise/design term),
    delta_3 = delta_5 = delta_bar(eps, 2p), delta_4 = delta_bar(eps, p(p-1)).
    For p = 1 there are no off-diagonal products, so delta_4 = 0.
    """
    q = params
    d1 = q.gamma_Xi * math.sqrt(2.0 * q.m2 * math.log(2.0 * q.p ** 2 / q.epsilon) / q.n)
    d2 = q.gamma_xi * math.sqrt(2.0 * q.m2 * math.log(2.0 * q.p / q.epsilon) / q.n)
    d3 = delta_bar(q.epsilon, 2 * q.p, q.gamma0, q.t0, q.n)
    d5 = d3
    d4 = 0.0 if q.p == 1 else delta_bar(q.epsilon, q.p * (q.p - 1), q.gamma0, q.t0, q.n)
    return (d1, d2, d3, d4, d5)


def b_missing(epsilon, pi_star, m4, n, p):
    """Compensation-accuracy threshold for the missing-data model:
    pi/(1-pi)^2 * sqrt(m4*log(2p/eps)/(2n))."""
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    if not 0 <= pi_star < 1:
        raise ValueError(f"pi_star must lie in [0,1), got {pi_star}")
    return pi_star / (1.0 - pi_star) ** 2 * math.sqrt(m4 * math.log(2.0 * p / epsilon) / (2.0 * n))


def nu_bound(thresholds, delta1, l1_theta_star):
    """Error-bound radius nu = 2*(mu_eps + delta_1)*|theta*|_1 + 2*tau_eps."""
    if l1_theta_star < 0:
        raise ValueError("l1_theta_star must be nonnegative")
    return 2.0 * (thresholds.mu_eps + delta1) * l1_theta_star + 2.0 * thresholds.tau_eps


def thresholds_for(params, pi_star=None):
    """Convenience: thresholds from NoiseParams, with the missing-data b
    when pi_star is given (b = 0 otherwise)."""
    b = 0.0 if pi_star is None else b_missing(params.epsilon, pi_star,
                                              params.m4, params.n, params.p)
    return Thresholds(delta=subgaussian_deltas(params), b=b)
