"""Fit model parameters to a quote chain by minimizing the aggregated
absolute pricing error (Nelder-Mead over the kind's free parameters).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelKind, ModelParams, ValidationError, validate
from .numerics import NumericsError
from .pricing import (PricingInputs, SeriesDivergenceError, ParityError,
                      price)


class CalibrationError(ValueError):
    pass


ALPHA_LO, ALPHA_HI = 1.0 + 1e-6, 2.0
SIGMA_LO, SIGMA_HI = 1e-4, 5.0
GAMMA_MARGIN = 1e-3


@dataclass(frozen=True)
class QuoteChain:
    """Market quotes (kind, strike, price) sharing one spot/rate/maturity."""
    spot: float
    rate: float
    tau: float
    quotes: tuple

    def __post_init__(self):
        object.__setattr__(self, "quotes", tuple(
            (str(getattr(k, "value", k)), float(s), float(p))
            for k, s, p in self.quotes))
        if not self.spot > 0.0:
            raise ValidationError("spot_positive", "spot must be > 0")
        if not self.tau > 0.0:
            raise ValidationError("tau_positive", "tau must be > 0")
        for k, s, p in self.quotes:
            if k not in ("call", "put"):
                raise ValidationError("kind_value", f"unknown quote kind {k!r}")
            if not s > 0.0:
                raise ValidationError("strike_positive", "strikes must be > 0")
            if p < 0.0:
                raise ValidationError("price_range", "prices must be >= 0")


@dataclass(frozen=True)
class CalibrationResult:
    params: ModelParams
    aggregated_error: float
    evaluations: int
    converged: bool
    per_quote_errors: tuple


def _quote_errors(params, chain):
    penalty = 10.0 * sum(p for _, _, p in chain.quotes)
    errs = []
    for kind, strike, market in chain.quotes:
        inputs = PricingInputs(chain.spot, strike, chain.rate, chain.tau, kind)
        try:
            model_price = price(params, inputs)
            err = abs(model_price - market)
            if not math.isfinite(err):
                err = penalty
        except (SeriesDivergenceError, ParityError, ValidationError,
                NumericsError, OverflowError):
            err = penalty
        errs.append(err)
    return errs


def aggregated_error(params, chain):
    """Sum of |model - market| over the chain; failed evaluations contribute
    a large finite penalty (10x the summed market prices) instead of raising."""
    if not chain.quotes:
        raise CalibrationError("empty quote chain")
    validate(params)
    return float(sum(_quote_errors(params, chain)))


def _free_params(kind):
    if kind is ModelKind.BLACK_SCHOLES:
        return ("sigma",)
    if kind is ModelKind.FMLS:
        return ("alpha", "sigma")
    return ("alpha", "gamma", "sigma")


def _default_seeds(kind):
    if kind is ModelKind.BLACK_SCHOLES:
        sigmas = (0.05, 0.1, 0.2, 0.35, 0.6)
        return tuple(ModelParams.black_scholes(s) for s in sigmas)
    if kind is ModelKind.FMLS:
        combos = ((1.9, 0.2), (1.5, 0.2), (1.7, 0.1), (1.3, 0.3), (1.95, 0.4))
        return tuple(ModelParams.fmls(a, s) for a, s in combos)
    combos = ((1.9, 1.0, 0.2), (1.5, 0.9, 0.2), (1.7, 0.8, 0.3),
              (1.6, 1.05, 0.1), (1.95, 1.0, 0.4))
    return tuple(ModelParams.double_fractional(a, g, s) for a, g, s in combos)


def _fold(x, lo, hi):
    """Reflect a coordinate once at each boundary, then clip; returns the
    folded value and the boundary violation distance."""
    v = 0.0
    if x < lo:
        v = lo - x
        x = lo + (lo - x)
    elif x > hi:
        v = x - hi
        x = hi - (x - hi)
    return float(np.clip(x, lo, hi)), v


def _vector_to_params(x, kind):
    free = _free_params(kind)
    d = dict(zip(free, x))
    viol = 0.0
    alpha, v = _fold(d.get("alpha", 2.0), ALPHA_LO, ALPHA_HI)
    viol += v
    glo = max(1.0 - 1.0 / alpha + GAMMA_MARGIN, GAMMA_MARGIN)
    gamma, v = _fold(d.get("gamma", 1.0), glo, alpha)
    viol += v
    sigma, v = _fold(d.get("sigma", 0.2), SIGMA_LO, SIGMA_HI)
    viol += v
    # the kind's fixed coordinates keep their defaults through the folding
    return ModelParams(kind, alpha, gamma, sigma), viol


def calibrate(chain, kind, seeds=None):
    """Nelder-Mead from each seed over the kind's free parameters; returns
    the best CalibrationResult across seeds.  Deterministic given seeds,
    which must be admissible.  Folding keeps every trial point admissible,
    so the objective prices each one and adds a penalty for how far the
    descent stepped outside the box."""
    from scipy.optimize import minimize  # deferred: slow to import
    if len(chain.quotes) < 3:
        raise CalibrationError(
            f"calibration needs at least 3 quotes, got {len(chain.quotes)}")
    kind = ModelKind(kind) if not isinstance(kind, ModelKind) else kind
    seeds = (tuple(validate(s) for s in seeds) if seeds is not None
             else _default_seeds(kind))
    free = _free_params(kind)
    penalty = 10.0 * sum(p for _, _, p in chain.quotes)

    def objective(x):
        params, viol = _vector_to_params(x, kind)
        return float(sum(_quote_errors(params, chain))) + penalty * viol

    best = None
    best_x = None
    evaluations = 0
    for seed in seeds:
        x0 = [getattr(seed, name) for name in free]
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"xatol": 1e-6, "fatol": 1e-10,
                                "maxiter": 400 * len(free) * 2})
        evaluations += int(res.nfev)
        if best is None or res.fun < best.fun:
            best, best_x = res, res.x
    params, viol = _vector_to_params(best_x, kind)
    errs = _quote_errors(params, chain)
    ae = float(sum(errs))
    if viol > 0.0 or ae >= penalty:
        raise CalibrationError(
            "every descent ended penalized; no admissible fit found")
    return CalibrationResult(
        params=params,
        aggregated_error=ae,
        evaluations=evaluations,
        converged=bool(best.success),
        per_quote_errors=tuple(errs),
    )
