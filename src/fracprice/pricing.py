"""Series pricing engine: Black-Scholes closed form, the double-fractional
residue series with truncation control and partial-sum diagnostics, and puts
via parity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.special import gammaln

from . import numerics
from .model import ModelKind, ValidationError, risk_neutral, validate
from .numerics import normal_cdf, reciprocal_gamma


class SeriesDivergenceError(ValueError):
    """The residue series is outside its numerical domain of validity."""


class ParityError(ValueError):
    """A call price violates the parity lower bound beyond tolerance."""


class OptionKind(Enum):
    CALL = "call"
    PUT = "put"


class TruncationMode(Enum):
    FIXED = "fixed"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class PricingInputs:
    """Contract terms; kind is coerced to OptionKind and log_fwd =
    log(S/K) + r*tau is derived on construction."""
    spot: float
    strike: float
    rate: float
    tau: float
    kind: OptionKind = OptionKind.CALL
    log_fwd: float = field(init=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", OptionKind(self.kind))
        except ValueError:
            raise ValidationError("kind_value",
                                  f"unknown option kind {self.kind!r}") from None
        if not self.spot > 0.0:
            raise ValidationError("spot_positive", f"spot={self.spot} must be > 0")
        if self.strike < 0.0:
            raise ValidationError("strike_range", f"strike={self.strike} must be >= 0")
        if not self.tau > 0.0:
            raise ValidationError("tau_positive", f"tau={self.tau} must be > 0")
        lf = math.inf if self.strike == 0.0 else (
            math.log(self.spot / self.strike) + self.rate * self.tau)
        object.__setattr__(self, "log_fwd", lf)


@dataclass(frozen=True)
class TruncationPolicy:
    n_max: int = 60
    m_max: int = 60
    tolerance: float = 1e-12
    mode: TruncationMode = TruncationMode.ADAPTIVE

    def __post_init__(self):
        if self.n_max < 0:
            raise ValidationError("n_max_range", "n_max must be >= 0")
        if self.m_max < 1:
            raise ValidationError("m_max_range", "m_max must be >= 1")
        if not self.tolerance > 0.0:
            raise ValidationError("tolerance_positive", "tolerance must be > 0")


DEFAULT_POLICY = TruncationPolicy()
SMILE_POLICY = TruncationPolicy(n_max=4, m_max=4, mode=TruncationMode.FIXED)

# An adaptive evaluation that cannot vouch for this relative accuracy is
# rejected as divergent (extreme moneyness/short maturity corners where the
# alternating terms dwarf their sum).
ACCURACY_FLOOR = 1e-9


@dataclass(frozen=True)
class SeriesDiagnostics:
    """Partial sums after each m-slice / n-slice, for convergence plots."""
    partial_sums_m: tuple
    partial_sums_n: tuple
    terms_used: int
    converged: bool


def bs_call(inputs, sigma):
    """Black-Scholes call price S N(d+) - K e^{-r tau} N(d-)."""
    if not sigma > 0.0:
        raise ValidationError("sigma_positive", f"sigma={sigma} must be > 0")
    S, K, r, tau = inputs.spot, inputs.strike, inputs.rate, inputs.tau
    if K == 0.0:
        return S
    st = sigma * math.sqrt(tau)
    d_plus = inputs.log_fwd / st + 0.5 * st
    return float(S * normal_cdf(d_plus)
                 - K * math.exp(-r * tau) * normal_cdf(d_plus - st))


def _band_bounds(params, inputs, mu):
    """Hard bounds on the true call value: the discounted expectation of
    (S_T - K)+ lies in [max(S X - K e^{-r tau}, 0), S X] where
    X = e^{mu tau} E_gamma(-mu tau^gamma) is the (non-martingale) mean factor
    of the exponentiated log-price; X = 1 exactly at gamma = 1.  The
    Mittag-Leffler argument is -mu tau^gamma -- the same combination that
    scales the density -- which reproduces the quadrature mean to rounding.
    A mean factor beyond the float range bounds nothing the series could be
    trusted with, so it is reported as a divergence."""
    log_x = mu * inputs.tau + numerics.log_mittag_leffler(
        -mu * inputs.tau ** params.gamma, params.gamma)
    try:
        upper = inputs.spot * math.exp(log_x)
    except OverflowError:
        upper = math.inf
    if not math.isfinite(upper):
        raise SeriesDivergenceError(
            f"mean factor e^{log_x:.6g} of the log-price overflows; the "
            "series is outside its validity domain")
    lower = max(upper - inputs.strike * math.exp(-inputs.rate * inputs.tau),
                0.0)
    return lower, upper


def dfrac_call_series(params, inputs, mu=None, policy=None):
    """Residue-series call price; returns (price, SeriesDiagnostics).

    V = (K e^{-r tau}/alpha) * sum_{n>=0, m>=1}
        (-1)^n / (n! Gamma(1 - gamma (n-m)/alpha)) * A^n * B^{(m-n)/alpha}
    with A = -log_fwd - mu*tau and B = -mu*tau^gamma > 0, where the float mu
    defaults to the model's risk_neutral(params).mu.  Terms whose Gamma
    argument sits on a pole contribute exactly 0; 0^0 is taken as 1 so the
    n=0 terms survive at ATM-forward (A=0).

    m is the outer loop (the monotone direction); in adaptive mode the sum
    stops after three consecutive m-slices each below tolerance*|sum| and a
    divergence error is raised on sustained slice growth or a magnitude
    blowup beyond any arbitrage bound.
    """
    validate(params)
    if inputs.strike <= 0.0:
        raise ValidationError("strike_positive",
                              "series price requires strike > 0")
    policy = policy or DEFAULT_POLICY
    if mu is None:
        mu = risk_neutral(params).mu
    a, g = params.alpha, params.gamma
    tau = inputs.tau
    A = -inputs.log_fwd - mu * tau
    B = -mu * tau ** g
    log_B = math.log(B)
    pref = inputs.strike * math.exp(-inputs.rate * tau) / a

    n = np.arange(policy.n_max + 1)
    a_pow = np.where(n == 0, 1.0, A ** n)               # 0^0 := 1
    coef_n = (-1.0) ** n * a_pow * np.exp(-gammaln(n + 1.0))

    adaptive = policy.mode is TruncationMode.ADAPTIVE
    blowup = 1e4 * (inputs.spot + inputs.strike)
    total = 0.0
    per_n = np.zeros_like(coef_n)
    sums_m = []
    small = grow = 0
    prev_abs = math.inf
    m_used = 0
    converged = False
    peak_term = 0.0
    n_tail = 0.0
    for m in range(1, policy.m_max + 1):
        rg = reciprocal_gamma(1.0 - g * (n - m) / a)
        col = pref * coef_n * rg * np.exp(((m - n) / a) * log_B)
        peak_term = max(peak_term, float(np.abs(col).max()))
        n_tail += abs(float(col[-1]))
        s = float(col.sum())
        if not math.isfinite(s) or abs(s) > blowup:
            raise SeriesDivergenceError(
                f"series slice magnitude {s:.3g} at m={m} exceeds any "
                "arbitrage bound; the series is outside its validity domain")
        total += s
        per_n += col
        sums_m.append(total)
        m_used = m
        if adaptive:
            ref = max(abs(total), 1e-300)
            if abs(s) < policy.tolerance * ref:
                small += 1
                if small >= 3:
                    converged = True
                    break
            else:
                small = 0
            if abs(s) > prev_abs:
                grow += 1
                if grow >= 5:
                    raise SeriesDivergenceError(
                        f"series slices grew for {grow} consecutive m "
                        f"(last |slice|={abs(s):.3g}); no convergence")
            else:
                grow = 0
        prev_abs = abs(s)
    if not adaptive:
        converged = (len(sums_m) > 0
                     and abs(sums_m[-1] - (sums_m[-2] if len(sums_m) > 1 else 0.0))
                     < policy.tolerance * max(abs(total), 1e-300))
    elif converged:
        # A converged m-recursion still leaves two silent failure modes:
        # alternating terms much larger than the sum (float cancellation eats
        # the result) and an n direction that had not decayed by n_max.
        # Reject the value unless roundoff and the dropped n-tail are both
        # provably below ACCURACY_FLOOR of it.
        floor = ACCURACY_FLOOR * max(abs(total), 1e-300)
        noise = 2e-14 * peak_term
        if noise > floor or n_tail > floor:
            raise SeriesDivergenceError(
                f"series sum {total:.6g} is not certifiable to "
                f"{ACCURACY_FLOOR:g} relative accuracy (cancellation noise "
                f"~{noise:.2g}, dropped n-tail ~{n_tail:.2g})")
        # The series can converge to a spurious branch outside its validity
        # region (e.g. when the effective log-moneyness A turns negative at
        # gamma != 1).  A converged value outside the hard arbitrage band is
        # therefore rejected rather than returned.
        lower, upper = _band_bounds(params, inputs, mu)
        pad = 1e-6 * (inputs.spot + inputs.strike)
        if not lower - pad <= total <= upper + pad:
            raise SeriesDivergenceError(
                f"converged series value {total:.6g} lies outside the "
                f"arbitrage band [{lower:.6g}, {upper:.6g}]; the "
                "series is outside its validity domain")
    diag = SeriesDiagnostics(
        partial_sums_m=tuple(sums_m),
        partial_sums_n=tuple(np.cumsum(per_n)),
        terms_used=(policy.n_max + 1) * m_used,
        converged=converged,
    )
    return total, diag


def put_from_parity(call, inputs):
    """P = C - S + K e^{-r tau}, floored at 0; rejects inconsistent calls."""
    p = call - inputs.spot + inputs.strike * math.exp(-inputs.rate * inputs.tau)
    if p < -1e-8 * inputs.spot:
        raise ParityError(
            f"call {call} below parity bound by {p:.3g}")
    return max(p, 0.0)


def price(params, inputs, policy=None, fallback=False):
    """Dispatch to the closed form or the series by model kind.

    Puts are priced from the call via parity.  With fallback=True a series
    divergence is resolved by the quadrature reference pricer instead of
    raising.
    """
    validate(params)
    if params.kind is ModelKind.BLACK_SCHOLES:
        call = bs_call(inputs, params.sigma)
    else:
        mu = risk_neutral(params).mu
        call_inputs = PricingInputs(inputs.spot, inputs.strike, inputs.rate,
                                    inputs.tau, OptionKind.CALL)
        if inputs.strike == 0.0:
            # the series representation needs K > 0; integrate the payoff
            call = numerics.reference_price(params, call_inputs, mu=mu)
        else:
            try:
                call, _ = dfrac_call_series(params, inputs, mu, policy)
            except SeriesDivergenceError:
                if not fallback:
                    raise
                call = numerics.reference_price(params, call_inputs, mu=mu)
    if inputs.kind is OptionKind.PUT:
        return put_from_parity(call, inputs)
    return call


def partial_sum_table(params, inputs, mu=None, policy=None):
    """SeriesDiagnostics for the partial-sum convergence plots."""
    _, diag = dfrac_call_series(params, inputs, mu, policy)
    return diag
