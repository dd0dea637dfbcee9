"""Model parameter types, admissibility validation, and the risk-neutral
drift correction mu in its exact-series, contour-integral, and first-order
approximate forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.special import gammaln, loggamma

from .numerics import (ContourSpec, NonConvergenceError, log_gamma_series,
                       mb_line_integral)

MU_TOLERANCE = 1e-12
MU_MAX_TERMS = 64
MU_CONTOUR = ContourSpec(abscissa=0.5, half_length=48.0, nodes=3200,
                         tilt_deg=60.0)


class ModelKind(Enum):
    BLACK_SCHOLES = "bs"
    FMLS = "fmls"
    DOUBLE_FRACTIONAL = "dfrac"


class ValidationError(ValueError):
    """Parameter rejection with a machine-readable code."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class ModelParams:
    """Stability alpha, time fractionality gamma, volatility sigma.

    The asymmetry theta is pinned to alpha - 2 (maximal negative skew), the
    only choice under which the exponential moment needed for pricing exists;
    it is derived, never supplied.
    """
    kind: ModelKind
    alpha: float
    gamma: float
    sigma: float
    theta: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "theta", self.alpha - 2.0)

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
    """Return params unchanged if admissible, else raise ValidationError.

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
    converged: bool


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
    is raised if that does not happen within MU_MAX_TERMS terms.
    """
    validate(params)
    a = params.alpha
    log_sum, n = log_gamma_series(-mu_levy(a, params.sigma), a,
                                  params.gamma * a, MU_TOLERANCE, MU_MAX_TERMS)
    return RiskNeutralParam(-log_sum, n, True)


def mu_gamma_mb(params):
    """mu via the contour-integral representation of the moment sum.

    The integrand Gamma(s) Gamma((1-s)/alpha) / Gamma(gamma s + 1 - gamma)
    decays too slowly (for gamma < 1, not at all) on a vertical line, so the
    contour MU_CONTOUR tilts both half-lines 60 degrees into the right
    half-plane, which restores superexponential decay without crossing poles.
    """
    validate(params)
    a, g = params.alpha, params.gamma
    q = -mu_levy(a, params.sigma)
    log_q = math.log(q)

    def integrand(s):
        return (np.exp(loggamma(s) + loggamma((1.0 - s) / a)
                       - loggamma(g * s + 1.0 - g) + (s - 1.0) / a * log_q)
                * np.cos(math.pi * (s - 1.0) / a))

    bracket = mb_line_integral(integrand, MU_CONTOUR) / a
    if abs(bracket.imag) > 1e-10:
        raise NonConvergenceError(
            f"moment integral has spurious imaginary part {bracket.imag:.2e}")
    return -math.log(bracket.real)


def mu_gamma_approx(params):
    """First-order approximation Gamma(1+alpha)/Gamma(1+gamma alpha) * mu_levy."""
    validate(params)
    a, g = params.alpha, params.gamma
    m1 = mu_levy(a, params.sigma)
    return math.exp(gammaln(1.0 + a) - gammaln(1.0 + g * a)) * m1


def risk_neutral(params):
    """The model's drift correction, as used by the pricers."""
    return mu_gamma_series(params)
