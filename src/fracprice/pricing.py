"""Series pricing engine: Black-Scholes closed form, the double-fractional
residue series with its truncation and partial-sum diagnostics, and puts via
parity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np
import scipy  # subpackages load on first use: keep them off the import path

from . import numerics
from .model import ModelKind, ValidationError, risk_neutral
from .numerics import FracpriceError, normal_cdf, reciprocal_gamma


class SeriesDivergenceError(FracpriceError):
    """The residue series is outside its numerical domain of validity."""


class ParityError(FracpriceError):
    """A put price violates the parity lower bound beyond tolerance."""


class OptionKind(Enum):
    CALL = "call"
    PUT = "put"


@dataclass(frozen=True)
class PricingInputs:
    """Contract terms; kind is coerced to OptionKind, and log_fwd =
    log(S/K) + r*tau (inf at K = 0) and discount = e^{-r tau} are derived on
    construction.  Every number must be finite, log_fwd too when K > 0, and
    the discount factor must not overflow."""
    spot: float
    strike: float
    rate: float
    tau: float
    kind: OptionKind = OptionKind.CALL
    log_fwd: float = field(init=False)
    discount: float = field(init=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", OptionKind(self.kind))
        except ValueError:
            raise ValidationError("kind_value",
                                  f"unknown option kind {self.kind!r}") from None
        for name in ("spot", "strike", "rate", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name}_finite",
                                      f"{name}={getattr(self, name)} must be finite")
        if not self.spot > 0.0:
            raise ValidationError("spot_positive", f"spot={self.spot} must be > 0")
        if self.strike < 0.0:
            raise ValidationError("strike_range", f"strike={self.strike} must be >= 0")
        if not self.tau > 0.0:
            raise ValidationError("tau_positive", f"tau={self.tau} must be > 0")
        lf = math.inf
        if self.strike > 0.0:
            q = self.spot / self.strike
            lf = (math.log(q) if q > 0.0 else -math.inf) + self.rate * self.tau
            if not math.isfinite(lf):
                raise ValidationError("log_fwd_finite",
                                      f"log(S/K) + r*tau = {lf} is not finite")
        object.__setattr__(self, "log_fwd", lf)
        try:
            disc = math.exp(-self.rate * self.tau)
        except OverflowError:
            raise ValidationError(
                "discount_float_range",
                f"discount factor e^(-r*tau) overflows at r*tau = "
                f"{self.rate * self.tau:.6g}") from None
        object.__setattr__(self, "discount", disc)


# The residue series' truncation: n = 0..SERIES_N_MAX, m = 1..SERIES_M_MAX.
SERIES_N_MAX = 60
SERIES_M_MAX = 60

# The series stops after three consecutive m-slices each below this fraction
# of the partial sum.
SERIES_TOLERANCE = 1e-12
# A series value that cannot be vouched for to this relative accuracy is
# rejected as divergent (extreme moneyness/short maturity corners where the
# alternating terms dwarf their sum).
ACCURACY_FLOOR = 1e-9


@dataclass(frozen=True)
class SeriesDiagnostics:
    """Partial sums after each m-slice / n-slice, for convergence plots.
    converged is always True: a sum that does not converge raises."""
    partial_sums_m: tuple
    partial_sums_n: tuple
    terms_used: int
    converged: bool


def _erfcx_drop(a, h):
    """erfcx(a) - erfcx(a + h) for a >= 0 and 0 < h < 0.01, without the
    subtraction: its Taylor series in h, the derivatives of f = erfcx from
    f' = 2 a f - 2/sqrt(pi) and f^(n+1) = 2 a f^(n) + 2 n f^(n-1).  Forming
    f' cancels by a factor ~2 a^2 for large a, so the relative error grows
    as ~2 a^2 ulp."""
    prev = float(scipy.special.erfcx(a))
    cur = 2.0 * a * prev - 2.0 / math.sqrt(math.pi)
    drop, power = 0.0, 1.0
    for n in range(1, 40):
        power *= h / n
        term = cur * power
        drop -= term
        if abs(term) <= 1e-17 * abs(drop):
            break
        prev, cur = cur, 2.0 * a * cur + 2.0 * n * prev
    return drop


def bs_call(inputs, sigma):
    """Black-Scholes call price S N(d+) - K e^{-r tau} N(d-).

    Where d+ > 0 the two terms cancel as sigma sqrt(tau) -> 0 (at the
    forward the price is S erf(sigma sqrt(tau) / 2 sqrt 2)), so there it is
    S (N(d+) - N(d-)) + (S - K e^{-r tau}) N(d-): the CDF difference is a
    difference of two erfs, exact where d+ and d- are small (a sum where
    they differ in sign), and S - K e^{-r tau} is taken as
    (S - K) - K expm1(-r tau), which keeps the gap of a quote near the
    forward accurate to its own rounding.

    Where d+ <= 0 the subtraction loses ~|d-| / (sigma sqrt(tau)) ulp.
    Below sigma sqrt(tau) = 0.01 it is taken without one: N(d) is
    erfcx(-d / sqrt 2) e^{-d^2/2} / 2, and K e^{-r tau} e^{-d-^2/2} is
    S e^{-d+^2/2} (d+^2 - d-^2 = 2 log_fwd), so the price is
    S e^{-d+^2/2} (erfcx(a) - erfcx(a + h)) / 2 with a = -d+ / sqrt 2 and
    h = sigma sqrt(tau) / sqrt 2, the difference a Taylor series in h
    (_erfcx_drop)."""
    if not sigma > 0.0:
        raise ValidationError("sigma_positive", f"sigma={sigma} must be > 0")
    S, K = inputs.spot, inputs.strike
    if K == 0.0:
        return S
    st = sigma * math.sqrt(inputs.tau)
    if st == 0.0:           # sigma sqrt(tau) underflows: the no-spread limit
        return max(S - K * inputs.discount, 0.0)
    d_plus = inputs.log_fwd / st + 0.5 * st
    d_minus = d_plus - st
    if d_plus > 0.0:
        r2 = math.sqrt(2.0)
        gap = (S - K) - K * math.expm1(-inputs.rate * inputs.tau)
        return (S * 0.5 * (math.erf(d_plus / r2) - math.erf(d_minus / r2))
                + gap * float(normal_cdf(d_minus)))
    if st < 0.01:
        head = S * math.exp(-0.5 * d_plus * d_plus)
        if head == 0.0:
            return 0.0
        r2 = math.sqrt(2.0)
        return 0.5 * head * _erfcx_drop(-d_plus / r2, st / r2)
    return float(S * normal_cdf(d_plus)
                 - K * inputs.discount * normal_cdf(d_minus))


def _band_bounds(params, inputs, mu):
    """Hard bounds on the true call value: the discounted expectation of
    (S_T - K)+ lies in [max(S X - K e^{-r tau}, 0), S X] where
    X is the (non-martingale) mean factor of numerics.log_mean_factor.  A
    mean factor beyond the float range bounds nothing the series could be
    trusted with, so it is reported as a divergence."""
    log_x = numerics.log_mean_factor(mu, inputs.tau, params.gamma)
    try:
        upper = inputs.spot * math.exp(log_x)
    except OverflowError:
        upper = math.inf
    if not math.isfinite(upper):
        raise SeriesDivergenceError(
            "mean_factor_overflow",
            f"mean factor e^{log_x:.6g} of the log-price overflows; the "
            "series is outside its validity domain")
    return _band_lower(upper, inputs), upper


def _band_lower(upper, inputs):
    """The band's lower edge max(S X - K e^{-r tau}, 0), the one part of it
    that depends on the strike."""
    return max(upper - inputs.strike * inputs.discount, 0.0)


def _attempt(fn, *args):
    """fn(*args), or the FracpriceError it raised: what one quote's
    evaluation may raise while the rest of its chain is still priced."""
    try:
        return fn(*args)
    except FracpriceError as exc:
        return exc


def _each(count, fn, *args):
    """Iterator over the count entries of the list fn(*args) returns, or
    over count copies of the FracpriceError it raised."""
    out = _attempt(fn, *args)
    return iter([out] * count if isinstance(out, Exception) else out)


def _series_chain(params, mu, chain):
    """Residue-series calls for PricingInputs with K > 0 sharing spot, rate
    and tau: per strike, (price, a function returning its SeriesDiagnostics)
    or the exception that refuses it.

    V = (K e^{-r tau}/alpha) * sum_{n>=0, m>=1}
        (-1)^n / (n! Gamma(1 - gamma (n-m)/alpha)) * A^n * B^{(m-n)/alpha}
    with A = -log_fwd - mu*tau and B = -mu*tau^gamma > 0.  Terms whose Gamma
    argument sits on a pole contribute exactly 0; 0^0 is taken as 1 so the
    n=0 terms survive at ATM-forward (A=0).  A strike enters only through
    the prefactor and A^n; the Gamma and B-power factors are computed once
    per chain on the diagonals n - m, and so is the band's mean factor.

    The terms are evaluated as (strike, m, n) blocks of the first m-slices,
    m being the monotone direction.  The block doubles from 16 slices up to
    m_max = SERIES_M_MAX, computing only the added slices, until every strike
    has had its first event, the earliest in m (ties in this order): a slice
    beyond any arbitrage bound raises, three consecutive slices each below
    SERIES_TOLERANCE*|sum| stop the sum, five growing ones raise.  A sum
    with no event within m_max raises too.  Slices past a strike's first
    event may overflow and decide nothing for it.
    """
    if not chain:
        return []
    a, g = params.alpha, params.gamma
    spot, tau = chain[0].spot, chain[0].tau
    log_B = math.log(numerics.green_scale(mu, tau, g))
    A, pref, blowup = np.array(
        [(-inp.log_fwd - mu * tau, inp.strike * inp.discount / a,
          1e4 * (spot + inp.strike)) for inp in chain]).T

    size, m_max = min(16, SERIES_M_MAX), SERIES_M_MAX
    n = np.arange(SERIES_N_MAX + 1)
    d = np.arange(-m_max, SERIES_N_MAX)                 # the diagonals n - m
    sign, inv_fact = (-1.0) ** n, np.exp(-scipy.special.gammaln(n + 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        rg, bp = reciprocal_gamma(1.0 - g * d / a), np.exp(((-d) / a) * log_B)
        a_pow = np.where(n == 0, 1.0, A[:, None] ** n)     # 0^0 := 1
        coef = sign * a_pow * inv_fact
        pc = (pref[:, None] * coef)[:, None, :]
        terms = np.empty((len(chain), 0, n.size))
        while True:
            idx = n - np.arange(terms.shape[1] + 1, size + 1)[:, None] + m_max
            block = pc * rg[idx] * bp[idx]      # the added slices' terms
            terms = np.concatenate((terms, block), 1) if terms.size else block
            s = terms.sum(axis=2)
            sums = np.cumsum(s, axis=1)
            abs_s = np.abs(s)
            # per strike, one past the event's slice; size + 1 for none
            blow = numerics._run_end(~(abs_s <= blowup[:, None]), 1)
            small = abs_s < SERIES_TOLERANCE * np.maximum(np.abs(sums), 1e-300)
            stop = numerics._run_end(small, 3)
            # slice j + 1 grows past slice j
            grow = numerics._run_end(abs_s[:, 1:] > abs_s[:, :-1], 5) + 1
            first = np.minimum(np.minimum(blow, stop), grow)
            if size == m_max or first.max() <= size:
                break
            size = min(2 * size, m_max)
        mk = np.minimum(first, size)
        at = (np.arange(len(chain)), mk - 1)        # each strike's last slice
        noise = 2e-14 * np.maximum.accumulate(np.abs(terms).max(axis=2), 1)
        n_tail = np.cumsum(np.abs(terms[:, :, -1]), axis=1)
        total, noise, n_tail = (x[at].tolist() for x in (sums, noise, n_tail))
        events = np.vstack((blow, stop, grow, mk)).T.tolist()

    results, band = [], None
    for k, (inp, (blow, stop, grow, mk)) in enumerate(zip(chain, events)):
        try:
            if mk == blow:
                if not np.isfinite(coef[k]).all():
                    raise SeriesDivergenceError("coef_overflow", (
                        f"series coefficients A^n/n! overflow at |A|="
                        f"{abs(A[k]):.3g}; the series is outside its "
                        "validity domain"))
                raise SeriesDivergenceError("blowup", (
                    f"series slice magnitude {s[k, blow - 1]:.3g} at m={blow} "
                    "exceeds any arbitrage bound; the series is outside its "
                    "validity domain"))
            if min(stop, grow) > size:
                raise SeriesDivergenceError("unsettled", (
                    f"series slices did not settle within m_max={size}"))
            if mk != stop:
                raise SeriesDivergenceError("growth", (
                    f"series slices grew for 5 consecutive m (last |slice|="
                    f"{abs_s[k, grow - 1]:.3g}); no convergence"))
            # A converged m-recursion still leaves two silent failure modes:
            # alternating terms much larger than the sum (float cancellation
            # eats the result) and an n direction that had not decayed by
            # SERIES_N_MAX.  Reject the value unless roundoff and the dropped
            # n-tail are both provably below ACCURACY_FLOOR of it.
            floor = ACCURACY_FLOOR * max(abs(total[k]), 1e-300)
            if noise[k] > floor or n_tail[k] > floor:
                raise SeriesDivergenceError("uncertified", (
                    f"series sum {total[k]:.6g} is not certifiable to "
                    f"{ACCURACY_FLOOR:g} relative accuracy (cancellation "
                    f"noise ~{noise[k]:.2g}, dropped n-tail ~{n_tail[k]:.2g})"))
            # The series can converge to a spurious branch outside its
            # validity region (e.g. when the effective log-moneyness A turns
            # negative at gamma != 1).  A converged value outside the hard
            # arbitrage band is therefore rejected rather than returned.  The
            # band's upper edge, or its error, is shared by the chain.
            band = band or _attempt(_band_bounds, params, inp, mu)
            if isinstance(band, Exception):
                raise band
            lower, upper = _band_lower(band[1], inp), band[1]
            pad = 1e-6 * (spot + inp.strike)
            if not lower - pad <= total[k] <= upper + pad:
                raise SeriesDivergenceError("band", (
                    f"converged series value {total[k]:.6g} lies outside the "
                    f"arbitrage band [{lower:.6g}, {upper:.6g}]; the "
                    "series is outside its validity domain"))
        except FracpriceError as exc:
            # without its traceback, which holds this frame and its blocks
            results.append(exc.with_traceback(None))
            continue
        results.append((total[k], partial(_diagnostics, sums, terms, k, mk)))
    return results


def _diagnostics(sums, terms, k, mk):
    """SeriesDiagnostics of strike k's sum over its first mk m-slices, from
    the chain's partial sums over m and its (strike, m, n) terms."""
    used = terms[k, :mk]
    # rows and slice sums are added in sequence, as the series runs in m
    return SeriesDiagnostics(
        partial_sums_m=tuple(sums[k, :mk].tolist()),
        partial_sums_n=tuple(np.cumsum(np.cumsum(used, axis=0)[-1])),
        terms_used=used.size, converged=True)


def dfrac_call_series(params, inputs):
    """Residue-series call price under the model's drift
    risk_neutral(params).mu; returns (price, SeriesDiagnostics).

    The series kernel (see _series_chain) on a chain of one.
    """
    if inputs.strike <= 0.0:
        raise ValidationError("strike_positive",
                              "series price requires strike > 0")
    result, = _series_chain(params, risk_neutral(params).mu, [inputs])
    if isinstance(result, Exception):
        raise result
    value, diagnostics = result
    return value, diagnostics()


def _floor_put(put, inputs):
    """A put value floored at 0; one below -1e-8 S is refused."""
    if put < -1e-8 * inputs.spot:
        raise ParityError("parity_bound",
                          f"put {put:.3g} below the parity bound 0")
    return max(put, 0.0)


def put_from_parity(call, inputs):
    """P = C - S + K e^{-r tau}, floored at 0; rejects inconsistent calls."""
    return _floor_put(call - inputs.spot + inputs.strike * inputs.discount,
                      inputs)


def price_chain(params, chain, fallback=False):
    """Price PricingInputs sharing (spot, rate, tau): the closed form or the
    residue series by model kind.
    Inputs that do not share them raise ValidationError (code chain_terms).

    Returns one entry per input: its price, or the FracpriceError refusing
    it (any other exception propagates).  A quote the model refuses leaves
    the rest of the chain priced; an error of the whole chain (a drift that
    does not converge) fills every entry.  The drift mu, the residue
    series' strike-independent factors and the band's mean factor are
    computed once for the chain's series; the quadrature takes mu from the
    model per quote.

    Puts are priced by parity, P = C - S + K e^{-r tau}, floored at 0.
    The series needs K > 0: a quote at K = 0 is priced by the quadrature
    reference pricer, and with fallback=True so is a quote the series
    refuses with SeriesDivergenceError; that pricer prices the put itself.
    """
    terms = {(inp.spot, inp.rate, inp.tau) for inp in chain}
    if len(terms) > 1:
        raise ValidationError(
            "chain_terms", f"chain inputs must share (spot, rate, tau); "
            f"got {len(terms)} different")
    bs = params.kind is ModelKind.BLACK_SCHOLES
    if not bs:
        series = [inp for inp in chain if inp.strike > 0.0]
        found = _each(len(series), lambda: _series_chain(
            params, risk_neutral(params).mu, series))
    values = []
    for inp in chain:
        value = (_attempt(bs_call, inp, params.sigma) if bs
                 else next(found) if inp.strike > 0.0 else None)
        floor = put_from_parity
        if isinstance(value, tuple):
            value = value[0]
        elif value is None or (fallback and
                               isinstance(value, SeriesDivergenceError)):
            value = _attempt(numerics.reference_price, params, inp)
            floor = _floor_put
        if inp.kind is OptionKind.PUT and not isinstance(value, Exception):
            value = _attempt(floor, value, inp)
        values.append(value)
    return values


def price(params, inputs, fallback=False):
    """The price of one quote: price_chain of a chain of one, its refusal
    raised."""
    value, = price_chain(params, [inputs], fallback)
    if isinstance(value, Exception):
        raise value
    return value
