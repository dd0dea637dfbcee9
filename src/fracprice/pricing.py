"""Series pricing engine: the Black-Scholes closed form, the double-fractional
residue series with its truncation and partial-sum diagnostics, and puts via
parity (an out-of-the-money Black-Scholes put via put-call symmetry).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy  # subpackages load on first use: keep them off the import path

from . import numerics
from .model import ValidationError, mu_gamma_series_rows
from .numerics import (ACCURACY_FLOOR, FracpriceError, normal_cdf,
                       reciprocal_gamma)


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


@dataclass(frozen=True)
class SeriesDiagnostics:
    """Partial sums (floats) after each m-slice / n-slice, for convergence
    plots; only dfrac_call_series builds them, from its block's sums and
    terms.  converged is always True: a sum that does not converge raises."""
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
    if sigma == math.inf:
        raise ValidationError("sigma_finite", f"sigma={sigma} must be finite")
    S, K = inputs.spot, inputs.strike
    if K == 0.0:
        return S
    st = sigma * math.sqrt(inputs.tau)
    if st == 0.0:           # sigma sqrt(tau) underflows: the no-spread limit
        return max(S - K * inputs.discount, 0.0)
    if st == math.inf:      # it overflows: the infinite-spread limit
        return S
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


def _band_bounds(mu, tau, gamma):
    """The arbitrage band's mean factor X per row of the sequences mu, tau
    and gamma, as (log X, X): the discounted expectation of (S_T - K)+ lies
    in [max(S X - K e^{-r tau}, 0), S X], X the (non-martingale) mean factor
    of numerics.log_mean_factor.  X is inf where it leaves the float range,
    which bounds nothing the series could be trusted with."""
    bands = []
    for log_x in numerics.log_mean_factor(mu, tau, gamma):
        try:
            bands.append((log_x, math.exp(log_x)))
        except OverflowError:
            bands.append((log_x, math.inf))
    return bands


def _attempt(fn, *args):
    """fn(*args), or the FracpriceError it raised: what one quote's
    evaluation may raise while the rest of its grid is still priced."""
    try:
        return fn(*args)
    except FracpriceError as exc:
        return exc


def _series_grid(cells):
    """Residue-series calls for (ModelParams, PricingInputs) cells with
    K > 0: returns (entries, last), per cell its price or the FracpriceError
    refusing it, and the (sums, terms, mk) of the last block _series_block
    summed: for a grid of one, the cell's own.

    V = (K e^{-r tau}/alpha) * sum_{n>=0, m>=1}
        (-1)^n / (n! Gamma(1 - gamma (n-m)/alpha)) * A^n * B^{(m-n)/alpha}
    with A = -log_fwd - mu*tau and B = -mu*tau^gamma > 0, mu the drift of
    model.mu_gamma_series.  Terms whose Gamma argument sits on a pole
    contribute exactly 0; 0^0 is taken as 1 so the n=0 terms survive at
    ATM-forward (A=0).  A cell enters only through the prefactor and A^n:
    mu is computed once per distinct params, all of them in one call, and
    the Gamma and B-power factors on the diagonals n - m (as (group,
    diagonal) tables) and the band's mean factor once per (params, tau)
    group, 16 groups at a time (one _band_bounds call).  A drift or scale
    that fails refuses its whole group; a chain is one group.  Each entry
    is what the cell gives alone.
    """
    entries, last = [None] * len(cells), (None, None, None)
    groups, params = {}, {}   # the series sees (alpha, gamma, sigma) only
    for k, (p, inp) in enumerate(cells):
        params[p.alpha, p.gamma, p.sigma] = p
        groups.setdefault((p.alpha, p.gamma, p.sigma, inp.tau), []).append(k)
    drift = dict(zip(params, mu_gamma_series_rows(list(params.values()))))
    live = []
    for (a, g, s, tau), group in groups.items():
        try:
            mu = drift[a, g, s]
            if isinstance(mu, Exception):
                raise mu
            live.append((a, g, mu.mu, tau, math.log(
                numerics.green_scale(mu.mu, tau, g)), group))
        except FracpriceError as exc:
            for k in group:
                entries[k] = exc.with_traceback(None)

    for g0 in range(0, len(live), 16):
        n = np.arange(SERIES_N_MAX + 1)
        coef_n = (-1.0) ** n * np.exp(-scipy.special.gammaln(n + 1.0))
        d = np.arange(-SERIES_M_MAX, SERIES_N_MAX)      # the diagonals n - m
        a, g, mu, tau, log_B, chunk = zip(*live[g0:g0 + 16])
        band = _band_bounds(mu, tau, g)
        rows = [(k, j, cells[k][1]) for j, group in enumerate(chunk)
                for k in group]
        with np.errstate(over="ignore", invalid="ignore"):
            ca, cg, cb = np.array([a, g, log_B])[:, :, None]
            rg, bp = (_diagonals(reciprocal_gamma(1.0 - cg * d / ca)),
                      _diagonals(np.exp(((-d) / ca) * cb)))
        for r0 in range(0, len(rows), 16):
            last = None     # freed before the next block is summed
            last = _series_block(rows[r0:r0 + 16], entries, a, mu, band,
                                 coef_n, rg, bp)
    return entries, last


def _diagonals(table):
    """The (group, m - 1, n) view table[:, n - m + SERIES_M_MAX] of a
    C-contiguous (group, diagonal) table, m = 1..SERIES_M_MAX and
    n = 0..SERIES_N_MAX: an m-slice is a window of the diagonals, read
    without a copy."""
    size = table.itemsize
    return np.ndarray((len(table), SERIES_M_MAX, SERIES_N_MAX + 1),
                      table.dtype, table, (SERIES_M_MAX - 1) * size,
                      (table.strides[0], -size, size))


@np.errstate(over="ignore", invalid="ignore")
def _series_block(rows, entries, alpha, mu, band, coef_n, rg, bp):
    """The series of up to 16 cells, rows of (k, j, inputs) of cells k in
    groups j with their alpha[j], mu[j], band[j] (see _band_bounds) and
    Gamma and B-power factors rg[j] and bp[j] (_diagonals views); coef_n
    holds (-1)^n / n!.  Sets entries[k] to the cell's price or the
    SeriesDivergenceError refusing it, and returns (sums, terms, mk): the
    block's (row, m, n) terms and their partial sums over m, and per row
    the count mk of m-slices its sum took.

    The terms are (row, m, n) arrays of the first m-slices, m being the
    monotone direction.  They double from 16 slices up to
    m_max = SERIES_M_MAX, computing only the added slices, until every row
    has had its first event, the earliest in m (ties in this order): a
    slice beyond any arbitrage bound raises, three consecutive slices each
    below SERIES_TOLERANCE*|sum| stop the sum, five growing ones raise.  A
    sum with no event within m_max raises too.  Slices past a row's first
    event may overflow and decide nothing for it.  A stop goes to _certify.
    """
    A, pref, blowup = np.array(
        [(-inp.log_fwd - mu[j] * inp.tau, inp.strike * inp.discount / alpha[j],
          1e4 * (inp.spot + inp.strike)) for _, j, inp in rows]).T
    # one group's factors broadcast over its rows (which come group by
    # group); several are gathered
    group = (rows[0][1] if rows[0][1] == rows[-1][1]
             else np.array([row[1] for row in rows]))
    size, m_max = min(16, SERIES_M_MAX), SERIES_M_MAX
    n = np.arange(SERIES_N_MAX + 1)
    # (-1)^n A^n / n!, 0^0 := 1; the sign flips are exact
    coef = np.where(n == 0, 1.0, A[:, None] ** n) * coef_n
    pc = (pref[:, None] * coef)[:, None, :]
    terms = np.empty((len(rows), 0, n.size))
    while True:
        added = slice(terms.shape[1], size)
        block = pc * rg[group, added] * bp[group, added]
        terms = np.concatenate((terms, block), 1) if terms.size else block
        # ufunc reductions, not ndarray methods: on arrays this small the
        # methods' Python wrappers cost more than the sums
        s = np.add.reduce(terms, 2)
        sums = np.add.accumulate(s, 1)
        abs_s = np.abs(s)
        # per row, one past the event's slice; size + 1 for none
        blow = numerics._run_end(~(abs_s <= blowup[:, None]), 1)
        small = abs_s < SERIES_TOLERANCE * np.maximum(np.abs(sums), 1e-300)
        stop = numerics._run_end(small, 3)
        # slice i + 1 grows past slice i
        grow = numerics._run_end(abs_s[:, 1:] > abs_s[:, :-1], 5) + 1
        first = np.minimum(np.minimum(blow, stop), grow)
        if size == m_max or np.maximum.reduce(first) <= size:
            break
        size = min(2 * size, m_max)
    mk = np.minimum(first, size)
    last = (np.arange(len(rows)), mk - 1)           # each row's last slice
    abs_t = np.abs(terms)
    noise = 2e-14 * np.maximum.accumulate(np.maximum.reduce(abs_t, 2), 1)
    n_tail = np.add.accumulate(abs_t[:, :, -1], 1)
    total, noise, n_tail = (x[last].tolist() for x in (sums, noise, n_tail))

    for i, ((k, j, inp), (blow, stop, grow, count)) in enumerate(
            zip(rows, zip(*(x.tolist() for x in (blow, stop, grow, mk))))):
        if count == blow and not np.isfinite(coef[i]).all():
            entries[k] = SeriesDivergenceError("coef_overflow", (
                f"series coefficients A^n/n! overflow at |A|={abs(A[i]):.3g}; "
                "the series is outside its validity domain"))
        elif count == blow:
            entries[k] = SeriesDivergenceError("blowup", (
                f"series slice magnitude {s[i, blow - 1]:.3g} at m={blow} "
                "exceeds any arbitrage bound; the series is outside its "
                "validity domain"))
        elif min(stop, grow) > size:
            entries[k] = SeriesDivergenceError("unsettled", (
                f"series slices did not settle within m_max={size}"))
        elif count != stop:
            entries[k] = SeriesDivergenceError("growth", (
                f"series slices grew for 5 consecutive m (last |slice|="
                f"{abs_s[i, grow - 1]:.3g}); no convergence"))
        else:
            entries[k] = _certify(inp, band[j], total[i], noise[i], n_tail[i])
    return sums, terms, mk


def _certify(inp, band, total, noise, n_tail):
    """A settled series sum total of the call inp, or its refusal: noise is
    2e-14 times the largest |term| summed, n_tail the |terms| of the n-tail
    it dropped and band the call's (log X, X) (see _band_bounds).

    A converged m-recursion still leaves two silent failure modes:
    alternating terms much larger than the sum (float cancellation eats the
    result) and an n direction that had not decayed by SERIES_N_MAX.  The
    value is refused unless roundoff and the dropped n-tail are both
    provably below ACCURACY_FLOOR of it.

    The series can converge to a spurious branch outside its validity
    region (e.g. when the effective log-moneyness A turns negative at
    gamma != 1), so a value outside the hard arbitrage band is refused.
    """
    floor = ACCURACY_FLOOR * max(abs(total), 1e-300)
    if noise > floor or n_tail > floor:
        return SeriesDivergenceError("uncertified", (
            f"series sum {total:.6g} is not certifiable to "
            f"{ACCURACY_FLOOR:g} relative accuracy (cancellation "
            f"noise ~{noise:.2g}, dropped n-tail ~{n_tail:.2g})"))
    log_x, x = band
    upper = inp.spot * x
    if not math.isfinite(upper):
        return SeriesDivergenceError("mean_factor_overflow", (
            f"mean factor e^{log_x:.6g} of the log-price overflows; the "
            "series is outside its validity domain"))
    lower = max(upper - inp.strike * inp.discount, 0.0)
    pad = 1e-6 * (inp.spot + inp.strike)
    if not lower - pad <= total <= upper + pad:
        return SeriesDivergenceError("band", (
            f"converged series value {total:.6g} lies outside the "
            f"arbitrage band [{lower:.6g}, {upper:.6g}]; the series is "
            "outside its validity domain"))
    return total


def dfrac_call_series(params, inputs):
    """Residue-series call price under the model's drift
    risk_neutral(params).mu; returns (price, SeriesDiagnostics).

    The series kernel (see _series_grid) on a grid of one.
    """
    if inputs.strike <= 0.0:
        raise ValidationError("strike_positive",
                              "series price requires strike > 0")
    (value,), (sums, terms, mk) = _series_grid([(params, inputs)])
    if isinstance(value, Exception):
        raise value
    used = terms[0, :mk[0]]
    # rows and slice sums are added in sequence, as the series runs in m
    return value, SeriesDiagnostics(
        partial_sums_m=tuple(sums[0, :mk[0]].tolist()),
        partial_sums_n=tuple(np.cumsum(np.cumsum(used, axis=0)[-1]).tolist()),
        terms_used=used.size, converged=True)


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


def _bs_put(inputs, sigma):
    """An out-of-the-money Black-Scholes put by put-call symmetry: the call
    on spot K e^{-r tau} struck at S, at rate 0.  Parity would take it as a
    difference of numbers of order S and lose it to 0 deep out of the money;
    this keeps its relative accuracy."""
    return bs_call(PricingInputs(inputs.strike * inputs.discount, inputs.spot,
                                 0.0, inputs.tau), sigma)


def _fallback(params, inputs):
    """A quote the series refused or cannot take (K = 0): on the moment line
    at gamma = 1, by the quadrature where the line refuses it (at K = 0
    too) or gamma != 1."""
    if params.gamma == 1.0:
        try:
            return numerics.moment_line_price(params, inputs)[0]
        except numerics.NumericsError:
            pass
    return numerics.reference_price(params, inputs)


def price_grid(cells, fallback=False):
    """Price (ModelParams, PricingInputs) cells, each with its own parameters
    and contract: the closed form where the law is Black-Scholes
    (alpha = 2, gamma = 1, of any model kind), the residue series
    elsewhere.

    Returns one entry per cell: its price, or the FracpriceError refusing
    it (any other exception propagates).  A cell the model refuses leaves
    the rest of the grid priced; an error of a parameter group (a drift
    that does not converge) fills that group's entries.  The residue series
    of all cells is one kernel run (_series_grid): the drift mu once per
    distinct params, the strike-independent factors and the band's mean
    factor once per (params, tau) group.  The quadrature takes mu from the
    model per cell.  Every entry is the price of its cell alone.

    Puts are priced by parity, P = C - S + K e^{-r tau}, floored at 0,
    except an out-of-the-money Black-Scholes put (log_fwd > 0), which is
    priced by symmetry (_bs_put) where K e^{-r tau} / S does not underflow.
    The series needs K > 0: a series cell at K = 0 is priced by the
    quadrature reference pricer.  With fallback=True a cell the series
    refuses with SeriesDivergenceError goes, at gamma = 1 (alpha < 2), to
    the moment line (numerics.moment_line_price), and where the line
    refuses it with a coded NumericsError (line_length, line_uncertified,
    line_float_range), or at gamma != 1, to the quadrature; each of these
    pricers prices the put itself, floored here (_fallback).
    """
    cells = list(cells)
    put = OptionKind.PUT
    gauss = [p.alpha == 2.0 and p.gamma == 1.0 for p, _ in cells]
    series = [k for k, (p, inp) in enumerate(cells)
              if not gauss[k] and inp.strike > 0.0]
    entries = dict(zip(series, _series_grid([cells[k] for k in series])[0]))
    values = []
    for k, (params, inp) in enumerate(cells):
        floor = put_from_parity
        if not gauss[k]:
            value = entries.get(k)
        elif (inp.kind is put and inp.log_fwd > 0.0
              and inp.strike * inp.discount / inp.spot > 0.0):
            value, floor = _attempt(_bs_put, inp, params.sigma), _floor_put
        else:
            value = _attempt(bs_call, inp, params.sigma)
        if value is None or (fallback and
                             isinstance(value, SeriesDivergenceError)):
            value, floor = _attempt(_fallback, params, inp), _floor_put
        if inp.kind is put and not isinstance(value, Exception):
            value = _attempt(floor, value, inp)
        values.append(value)
    return values


def price(params, inputs, fallback=False):
    """The price of one quote: price_grid of a grid of one, its refusal
    raised."""
    value, = price_grid([(params, inputs)], fallback)
    if isinstance(value, Exception):
        raise value
    return value
