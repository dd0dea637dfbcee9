"""Model parameter types, admissibility validation, and the risk-neutral
drift correction mu in its exact-series, contour-integral, and first-order
approximate forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy  # subpackages load on first use: keep them off the import path

from .numerics import (_GL16, FracpriceError, NonConvergenceError,
                       _gauss_panels, log_gamma_series)

MU_TOLERANCE = 1e-12
# The moment series' term budget: MU_MAX_TERMS, extended where the terms are
# shrinking there (see _mu_term_budget), up to MU_TERM_CAP.
MU_MAX_TERMS = 64
MU_TERM_CAP = 4096


class ModelKind(Enum):
    BLACK_SCHOLES = "bs"
    FMLS = "fmls"
    DOUBLE_FRACTIONAL = "dfrac"


class ValidationError(FracpriceError):
    """Parameter rejection."""


@dataclass(frozen=True)
class ModelParams:
    """Stability alpha, time fractionality gamma, volatility sigma.

    The asymmetry theta is pinned to alpha - 2 (maximal negative skew), the
    only choice under which the exponential moment needed for pricing exists;
    it is derived, never supplied.  Construction validates the parameters, so
    every ModelParams is admissible.
    """
    kind: ModelKind
    alpha: float
    gamma: float
    sigma: float
    theta: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "theta", self.alpha - 2.0)
        validate(self)

    @staticmethod
    def black_scholes(sigma):
        return ModelParams(ModelKind.BLACK_SCHOLES, 2.0, 1.0, sigma)

    @staticmethod
    def fmls(alpha, sigma):
        return ModelParams(ModelKind.FMLS, alpha, 1.0, sigma)

    @staticmethod
    def double_fractional(alpha, gamma, sigma):
        return ModelParams(ModelKind.DOUBLE_FRACTIONAL, alpha, gamma, sigma)


def validate(params):
    """Return params unchanged if admissible, else raise ValidationError;
    ModelParams runs it on construction.

    Distinct codes: alpha_range, gamma_range, gamma_condition, sigma_finite,
    sigma_positive, kind_constraint.
    """
    a, g, s = params.alpha, params.gamma, params.sigma
    if not 1.0 < a <= 2.0:
        raise ValidationError("alpha_range", f"alpha={a} outside (1, 2]")
    if not 0.0 < g <= a:
        raise ValidationError("gamma_range", f"gamma={g} outside (0, alpha={a}]")
    if g <= 1.0 - 1.0 / a:
        raise ValidationError(
            "gamma_condition",
            f"gamma={g} <= 1 - 1/alpha = {1.0 - 1.0 / a:.6g}; "
            "drift correction is not negative there")
    if not math.isfinite(s):
        raise ValidationError("sigma_finite", f"sigma={s} must be finite")
    if not s > 0.0:
        raise ValidationError("sigma_positive", f"sigma={s} must be > 0")
    if params.kind is ModelKind.BLACK_SCHOLES and (a != 2.0 or g != 1.0):
        raise ValidationError(
            "kind_constraint", "BlackScholes requires alpha=2, gamma=1")
    if params.kind is ModelKind.FMLS and g != 1.0:
        raise ValidationError("kind_constraint", "FMLS requires gamma=1")
    return params


@dataclass(frozen=True)
class RiskNeutralParam:
    """The drift correction mu (< 0) and how it was obtained."""
    mu: float
    n_terms_used: int


def mu_levy(alpha, sigma):
    """(sigma/sqrt 2)^alpha / cos(pi alpha / 2); reduces to -sigma^2/2 at
    alpha=2.  A sigma whose power over- or underflows the float range has no
    usable drift and is rejected."""
    if not 1.0 < alpha <= 2.0:
        raise ValidationError("alpha_range", f"alpha={alpha} outside (1, 2]")
    if not sigma > 0.0:
        raise ValidationError("sigma_positive", f"sigma={sigma} must be > 0")
    try:
        mu = (-0.5 * sigma * sigma if alpha == 2.0   # cos(pi) = -1 exactly
              else (sigma / math.sqrt(2.0)) ** alpha
              / math.cos(math.pi * alpha / 2.0))
    except OverflowError:
        mu = -math.inf
    if not -math.inf < mu < 0.0:
        raise ValidationError(
            "sigma_float_range",
            f"(sigma/sqrt 2)^alpha leaves the float range at sigma={sigma}")
    return mu


def mu_gamma_series(params):
    """mu as -log of the exponential-moment series.

    The series sum_n Gamma(1+alpha n) q^n / (n! Gamma(1+gamma alpha n)) with
    q = -mu_levy has all-positive terms; numerics.log_gamma_series sums them
    in log space.  At gamma = 1 the sum is e^q, so mu = mu_levy (-sigma^2/2
    for Black-Scholes).  The accuracy is this module's, independent of any
    pricing truncation: the sum stops once three consecutive terms each
    contribute less than MU_TOLERANCE * partial sum, and NonConvergenceError
    is raised if that does not happen within _mu_term_budget terms.
    """
    result, = mu_gamma_series_rows([params])
    if isinstance(result, Exception):
        raise result
    return result


def mu_gamma_series_rows(params):
    """mu_gamma_series of each ModelParams of a sequence, their moment series
    summed by one log_gamma_series call: per params, its RiskNeutralParam
    or the FracpriceError refusing it."""
    out, rows = [], []
    for p in params:
        a, b = p.alpha, p.gamma * p.alpha
        try:
            q = -mu_levy(a, p.sigma)
        except FracpriceError as exc:
            out.append(exc.with_traceback(None))
            continue
        rows.append((len(out), q, a, b, _mu_term_budget(q, a, b)))
        out.append(None)
    if rows:
        at, q, a, b, budget = zip(*rows)
        for i, entry in zip(at, log_gamma_series(q, a, b, MU_TOLERANCE,
                                                 budget)):
            out[i] = (entry if isinstance(entry, Exception)
                      else RiskNeutralParam(-entry[0], entry[1]))
    return out


def _mu_term_budget(q, a, b):
    """Terms the moment series sum_n Gamma(1+a n) q^n / (n! Gamma(1+b n)) may
    use.  By Stirling, past n its terms shrink by a factor of about
    rho(n) = q a^a b^-b n^-(b-a+1) each, which falls with n since b > a - 1
    on the admissible set.  Where rho(MU_MAX_TERMS) < 1 the budget extends
    MU_MAX_TERMS by the terms that a decay at that rate needs to fall below
    MU_TOLERANCE (near gamma = 1 - 1/alpha, where b - a + 1 -> 0, the decay
    is slow but steady); where it is >= 1 the terms may still be growing and
    MU_MAX_TERMS stays the budget."""
    log_rho = (math.log(q) + a * math.log(a) - b * math.log(b)
               - (b - a + 1.0) * math.log(MU_MAX_TERMS))
    if log_rho >= 0.0:
        return MU_MAX_TERMS
    return MU_MAX_TERMS + min(math.ceil(math.log(MU_TOLERANCE) / log_rho),
                              MU_TERM_CAP - MU_MAX_TERMS)


def mu_gamma_mb(params):
    """mu via the contour-integral representation of the moment sum
    (Mainardi, Luchko & Pagnini 2001).

    The integrand Gamma(s) Gamma((1-s)/alpha) / Gamma(gamma s + 1 - gamma)
    decays too slowly (for gamma < 1, not at all) on a vertical line, so the
    line through s = 1/2 tilts both half-lines 60 degrees into the right
    half-plane, which restores superexponential decay without crossing poles.
    The half-lines are summed by 16-point Gauss panels to length 48 (3,200
    nodes in all), then to length 96 (6,400 nodes); if the two values differ
    by more than 1e-9 (relative), the integral has not converged on the line
    and NonConvergenceError is raised.
    """
    a, g = params.alpha, params.gamma
    q = -mu_levy(a, params.sigma)
    log_q = math.log(q)
    beta = math.pi / 2.0 - math.radians(60.0)
    eu = complex(math.cos(beta), math.sin(beta))     # upper-ray direction

    def line_integral(L, panels):
        """(1/2pi i) times the integral along the line, each half-line cut at
        length L into `panels` panels."""
        ts, ws = _gauss_panels(np.linspace(0.0, L, panels + 1), _GL16)
        rays = []
        for e in (eu, eu.conjugate()):
            s = 0.5 + ts * e
            rays.append(np.sum(np.exp(scipy.special.loggamma(s)
                                      + scipy.special.loggamma((1.0 - s) / a)
                                      - scipy.special.loggamma(g * s + 1.0 - g)
                                      + (s - 1.0) / a * log_q)
                               * np.cos(math.pi * (s - 1.0) / a) * ws) * e)
        # the lower ray is traversed from its far end up to 1/2: sign flips
        return (rays[0] - rays[1]) / (2j * math.pi)

    with np.errstate(over="ignore", invalid="ignore"):
        v1, v2 = line_integral(48.0, 100), line_integral(96.0, 200)
        if abs(v2 - v1) > 1e-9 * max(abs(v2), 1e-300):
            raise NonConvergenceError(
                "line_unstable",
                f"line integral unstable under doubling: {v1} vs {v2}")
        bracket = complex(v2) / a
    if not 0.0 < bracket.real < math.inf:
        raise NonConvergenceError("moment_float_range", f"moment integral "
                                  f"{bracket.real:.6g} is not finite and > 0")
    if abs(bracket.imag) > 1e-10:
        raise NonConvergenceError("imaginary_part", f"moment integral has "
                                  f"spurious imaginary part {bracket.imag:.2e}")
    return -math.log(bracket.real)


def mu_gamma_approx(params):
    """First-order approximation Gamma(1+alpha)/Gamma(1+gamma alpha) * mu_levy."""
    a, g = params.alpha, params.gamma
    m1 = mu_levy(a, params.sigma)
    return math.exp(scipy.special.gammaln(1.0 + a)
                    - scipy.special.gammaln(1.0 + g * a)) * m1


def risk_neutral(params):
    """The model's drift correction, as used by the pricers (price_grid
    takes it for many params at once from mu_gamma_series_rows)."""
    return mu_gamma_series(params)
