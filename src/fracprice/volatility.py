"""Implied-volatility inversion, ATM-forward closed-form approximations, and
smile construction over a quote chain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import gammaln

from .model import ModelParams, mu_gamma_approx
from .pricing import (OptionKind, PricingInputs, SMILE_POLICY, bs_call,
                      dfrac_call_series, put_from_parity)


# implied_vol's search interval for sigma and its iteration budget
BRACKET = (1e-4, 5.0)
MAX_ITER = 100


class InversionError(ValueError):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class ImpliedVolResult:
    sigma_I: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class SmilePoint:
    """One strike of a smile; vols are None when the quote is not invertible."""
    strike: float
    market_price: float
    sigma_bs: float | None
    sigma_fbs: dict


def implied_vol(pricer, market_price, x0=None):
    """Invert a monotone price(sigma) function by bracketed Newton on BRACKET,
    to 1e-11 * max(1, market_price) in price.

    The derivative is a central finite difference with step 1e-4*sigma;
    whenever the Newton step leaves the bracket (or the slope degenerates)
    the step is replaced by bisection, so the bracket always shrinks.
    """
    lo, hi = BRACKET
    tol = 1e-11 * max(1.0, abs(market_price))

    def _endpoint(sig, factor):
        # Truncated-series pricers can fail near sigma=0 (vanishing scale
        # parameter); pull the endpoint inward until the pricer evaluates.
        for _ in range(8):
            try:
                return sig, pricer(sig) - market_price
            except (ArithmeticError, ValueError):
                sig *= factor
                if not BRACKET[0] <= sig <= BRACKET[1]:
                    break
        raise InversionError("pricer_failed",
                             "pricer not evaluable on the bracket")

    lo, f_lo = _endpoint(lo, 8.0)
    hi, f_hi = _endpoint(hi, 0.5)
    if not lo < hi:
        raise InversionError("pricer_failed",
                             "pricer not evaluable on the bracket")
    if f_lo > tol and f_hi > tol:
        raise InversionError("out_of_band",
                             f"price {market_price} below the model band")
    if f_lo < -tol and f_hi < -tol:
        raise InversionError("out_of_band",
                             f"price {market_price} above the model band")
    if abs(f_lo) <= tol:
        return ImpliedVolResult(lo, 0, abs(f_lo))
    if abs(f_hi) <= tol:
        return ImpliedVolResult(hi, 0, abs(f_hi))
    sig = x0 if (x0 is not None and lo < x0 < hi) else math.sqrt(lo * hi)
    for it in range(1, MAX_ITER + 1):
        f = pricer(sig) - market_price
        if abs(f) <= tol:
            return ImpliedVolResult(sig, it, abs(f))
        if f > 0:
            hi = sig
        else:
            lo = sig
        h = 1e-4 * sig
        try:
            vega = (pricer(sig + h) - pricer(sig - h)) / (2.0 * h)
        except (ArithmeticError, ValueError):
            vega = math.nan
        if vega > 0.0 and math.isfinite(vega):
            step = sig - f / vega
        else:
            step = math.nan
        sig = step if lo < step < hi else 0.5 * (lo + hi)
        if hi - lo < 1e-14 * max(1.0, sig):
            f = pricer(sig) - market_price
            return ImpliedVolResult(sig, it, abs(f))
    raise InversionError("max_iterations",
                         f"no convergence in {MAX_ITER} iterations")


def _check_atm_forward(spot, tau, strike, rate):
    if strike is not None and rate is not None:
        fwd_strike = strike * math.exp(-rate * tau)
        if abs(spot - fwd_strike) > 1e-6 * spot:
            raise InversionError(
                "not_atm_forward",
                f"spot {spot} != K e^(-r tau) = {fwd_strike}")


def atm_bs_implied(call_price, spot, tau, strike=None, rate=None):
    """ATM-forward first-order inversion: sigma = (C/S) sqrt(2 pi / tau)."""
    _check_atm_forward(spot, tau, strike, rate)
    if not 0.0 < call_price < spot:
        raise InversionError("out_of_band",
                             f"ATM call price {call_price} outside (0, spot)")
    return (call_price / spot) * math.sqrt(2.0 * math.pi / tau)


def atm_fbs_implied(call_price, spot, tau, gamma, strike=None, rate=None):
    """ATM-forward inversion of the time-fractional model at alpha=2:
    sigma = 2 (C/S) Gamma(1+gamma/2) sqrt(Gamma(1+2 gamma) / tau^gamma)."""
    if not 0.5 < gamma <= 2.0:
        raise InversionError("gamma_domain",
                             f"gamma={gamma} outside (1/2, 2]")
    _check_atm_forward(spot, tau, strike, rate)
    if not 0.0 < call_price < spot:
        raise InversionError("out_of_band",
                             f"ATM call price {call_price} outside (0, spot)")
    return (2.0 * (call_price / spot) * math.exp(gammaln(1.0 + 0.5 * gamma))
            * math.sqrt(math.exp(gammaln(1.0 + 2.0 * gamma)) / tau ** gamma))


def _fbs_pricer(inputs, gamma):
    """Price as a function of sigma under alpha=2, time fractionality gamma,
    with the first-order drift approximation (recomputed at each sigma) and
    the fixed SMILE_POLICY truncation."""
    def pricer(sigma):
        params = ModelParams.double_fractional(2.0, gamma, sigma)
        call, _ = dfrac_call_series(params, inputs, mu_gamma_approx(params),
                                    SMILE_POLICY)
        if inputs.kind is OptionKind.PUT:
            return put_from_parity(call, inputs)
        return call
    return pricer


def build_smile(chain, gammas):
    """Invert every quote of the chain under Black-Scholes and under the
    alpha=2 fractional model for each requested gamma.

    Per-point inversion failures are recorded as None vols, never raised.
    """
    points = []
    for kind, strike, market in chain.quotes:
        inputs = PricingInputs(chain.spot, strike, chain.rate, chain.tau, kind)
        guess = None
        try:
            anchor = market if inputs.kind is OptionKind.CALL else (
                market + chain.spot - strike * math.exp(-chain.rate * chain.tau))
            if 0.0 < anchor < chain.spot:
                guess = atm_bs_implied(anchor, chain.spot, chain.tau)
        except InversionError:
            guess = None

        def bs_pricer(sigma, inputs=inputs):
            call = bs_call(inputs, sigma)
            if inputs.kind is OptionKind.PUT:
                return put_from_parity(call, inputs)
            return call

        try:
            sigma_bs = implied_vol(bs_pricer, market, x0=guess).sigma_I
        except (InversionError, ValueError):
            sigma_bs = None
        sigma_fbs = {}
        for g in gammas:
            try:
                res = implied_vol(_fbs_pricer(inputs, g), market, x0=guess)
                sigma_fbs[g] = res.sigma_I
            except (InversionError, ValueError):
                sigma_fbs[g] = None
        points.append(SmilePoint(strike, market, sigma_bs, sigma_fbs))
    return points
