"""Implied-volatility inversion, ATM-forward closed-form approximations, and
smile construction over a quote chain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy  # subpackages load on first use: keep them off the import path

from .model import ModelParams, mu_gamma_approx
from .numerics import FracpriceError, green_scale, reciprocal_gamma
from .pricing import (OptionKind, SeriesDivergenceError, bs_call,
                      put_from_parity)


# implied_vol's search interval for sigma and its iteration budget
BRACKET = (1e-4, 5.0)
MAX_ITER = 100


class InversionError(FracpriceError):
    """A quote whose implied volatility cannot be found."""


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
    to 1e-11 * max(1, market_price) in price; a market price that is not
    finite is refused, and so is a pricer value that is not finite or a
    bracket that collapses on no root (a pricer that jumps over the price).

    The derivative is a central finite difference with step 1e-4*sigma;
    whenever the Newton step leaves the bracket (or the slope degenerates)
    the step is replaced by bisection, so the bracket always shrinks.
    """
    if not math.isfinite(market_price):
        raise InversionError("price_finite",
                             f"market price {market_price} must be finite")
    lo, hi = BRACKET
    tol = 1e-11 * max(1.0, abs(market_price))

    def _endpoint(sig, factor):
        # Truncated-series pricers can fail near sigma=0 (vanishing scale
        # parameter); pull the endpoint inward until the pricer evaluates
        # to a finite value.
        for _ in range(8):
            try:
                f = pricer(sig) - market_price
            except (ArithmeticError, ValueError):
                f = math.nan
            if math.isfinite(f):
                return sig, f
            sig *= factor
            if not BRACKET[0] <= sig <= BRACKET[1]:
                break
        raise InversionError("pricer_failed",
                             "pricer not evaluable on the bracket")

    def _residual(sig):
        f = pricer(sig) - market_price
        if not math.isfinite(f):
            raise InversionError("pricer_value",
                                 f"pricer value not finite at sigma={sig}")
        return f

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
        f = _residual(sig)
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
            f = _residual(sig)
            if abs(f) <= tol:
                return ImpliedVolResult(sig, it, abs(f))
            raise InversionError(
                "no_root", f"bracket collapsed at sigma={sig} on a price "
                f"residual of {f:.3g}: the pricer has no root there")
    raise InversionError("max_iterations",
                         f"no convergence in {MAX_ITER} iterations")


def _check_atm_quote(call_price, spot, tau, strike, rate):
    """Refuse a quote that is not ATM-forward or priced outside (0, spot),
    and a tau or spot that is not finite and positive."""
    if not 0.0 < tau < math.inf:
        raise InversionError("tau_range", f"tau={tau} must be finite and > 0")
    if not 0.0 < spot < math.inf:
        raise InversionError("spot_range", f"spot={spot} must be finite and > 0")
    if strike is not None and rate is not None:
        try:
            fwd_strike = strike * math.exp(-rate * tau)
        except OverflowError:
            raise InversionError(
                "discount_float_range",
                f"discount factor e^(-r*tau) overflows at r*tau = "
                f"{rate * tau:.6g}") from None
        if not abs(spot - fwd_strike) <= 1e-6 * spot:
            raise InversionError(
                "not_atm_forward",
                f"spot {spot} != K e^(-r tau) = {fwd_strike}")
    if not 0.0 < call_price < spot:
        raise InversionError("out_of_band",
                             f"ATM call price {call_price} outside (0, spot)")


def atm_bs_implied(call_price, spot, tau, strike=None, rate=None):
    """ATM-forward first-order inversion: sigma = (C/S) sqrt(2 pi / tau)."""
    _check_atm_quote(call_price, spot, tau, strike, rate)
    sigma = (call_price / spot) * math.sqrt(2.0 * math.pi / tau)
    if not sigma < math.inf:                    # 2 pi / tau overflows
        raise InversionError("tau_float_range",
                             f"2 pi / tau leaves the float range at tau={tau}")
    return sigma


def atm_fbs_implied(call_price, spot, tau, gamma, strike=None, rate=None):
    """ATM-forward inversion of the time-fractional model at alpha=2:
    sigma = 2 (C/S) Gamma(1+gamma/2) sqrt(Gamma(1+2 gamma) / tau^gamma)."""
    if not 0.5 < gamma <= 2.0:
        raise InversionError("gamma_domain",
                             f"gamma={gamma} outside (1/2, 2]")
    _check_atm_quote(call_price, spot, tau, strike, rate)
    try:
        sigma = (2.0 * (call_price / spot)
                 * math.exp(scipy.special.gammaln(1.0 + 0.5 * gamma))
                 * math.sqrt(math.exp(scipy.special.gammaln(1.0 + 2.0 * gamma))
                             / tau ** gamma))
    except (OverflowError, ZeroDivisionError):          # tau^gamma is inf or 0
        sigma = math.inf
    if not sigma < math.inf:
        raise InversionError("tau_float_range",
                             f"tau^gamma leaves the float range at tau={tau}")
    return sigma


# the f-BS smile's fixed truncation of the residue series: n = 0..4, m = 1..4;
# _INV_FACT is exp(-gammaln(_N + 1.0)) written out, bit for bit
_N, _M = np.arange(5), np.arange(1, 5)[:, None]
_SIGN = (-1.0) ** _N
_INV_FACT = np.array([1.0, 1.0, 0.5, 0.16666666666666669,
                      0.041666666666666664])


def _fbs_call(inputs, gamma, sigma):
    """The f-BS smile's call: pricing._series_block's terms at alpha = 2 under
    the first-order drift mu_gamma_approx, summed over n in each slice of
    the fixed block, then over the slices.  Not certified; its one refusal,
    a slice not finite or beyond 1e4 (S + K), raises SeriesDivergenceError
    so that implied_vol pulls its bracket endpoint in."""
    mu = mu_gamma_approx(ModelParams.double_fractional(2.0, gamma, sigma))
    tau = inputs.tau
    A = -inputs.log_fwd - mu * tau
    with np.errstate(over="ignore", invalid="ignore"):
        coef = _SIGN * np.where(_N == 0, 1.0, A ** _N) * _INV_FACT  # 0^0 := 1
        slices = (inputs.strike * inputs.discount / 2.0 * coef
                  * reciprocal_gamma(1.0 - gamma * (_N - _M) / 2.0)
                  * np.exp(((_M - _N) / 2.0)
                           * math.log(green_scale(mu, tau, gamma)))
                  ).sum(axis=1)
    if not (np.abs(slices) <= 1e4 * (inputs.spot + inputs.strike)).all():
        raise SeriesDivergenceError(
            "blowup", "f-BS series slice beyond any arbitrage bound")
    return float(np.cumsum(slices)[-1])


def _vol_or_none(inputs, call, market, guess):
    """implied_vol of the quote from call(sigma), a put's price by parity;
    None where the inversion fails."""
    put = inputs.kind is OptionKind.PUT

    def pricer(sigma):
        value = call(sigma)
        return put_from_parity(value, inputs) if put else value
    try:
        return implied_vol(pricer, market, x0=guess).sigma_I
    except ValueError:
        return None


def build_smile(chain, gammas):
    """Invert every quote of the chain under Black-Scholes and under the
    alpha=2 fractional model for each requested gamma (_fbs_call).

    Per-point inversion failures are recorded as None vols, never raised.
    """
    points = []
    for (_, strike, market), inputs in zip(chain.quotes, chain.inputs):
        anchor = market if inputs.kind is OptionKind.CALL else (
            market + chain.spot - strike * inputs.discount)
        guess = (atm_bs_implied(anchor, chain.spot, chain.tau)
                 if 0.0 < anchor < chain.spot else None)
        sigma_bs = _vol_or_none(inputs, partial(bs_call, inputs), market,
                                guess)
        sigma_fbs = {g: _vol_or_none(inputs, partial(_fbs_call, inputs, g),
                                     market, guess) for g in gammas}
        points.append(SmilePoint(strike, market, sigma_bs, sigma_fbs))
    return points
