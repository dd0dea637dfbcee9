import math
from decimal import Decimal
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from fracprice import numerics, pricing, sampledata
from fracprice.model import (ModelKind, ModelParams, ValidationError,
                             risk_neutral)
from fracprice.pricing import (OptionKind, ParityError, PricingInputs,
                               SeriesDivergenceError, _band_bounds, bs_call,
                               dfrac_call_series, price, price_grid,
                               put_from_parity)

FIG3_INPUTS = PricingInputs(3800.0, 4000.0, 0.01, 1.0)
FIG3_PARAMS = ModelParams.double_fractional(1.7, 0.9, 0.2)


def test_bs_call_atm_frozen():
    inp = PricingInputs(100.0, 100.0, 0.0, 1.0)
    assert bs_call(inp, 0.2) == pytest.approx(7.965567455405754, rel=1e-12)


@pytest.mark.parametrize("tau", [1.0, 0.01, 1e-8, 1e-14, 1e-20, 1e-40,
                                 1e-100, 1e-200, 1e-300])
def test_bs_call_at_the_forward(tau):
    """At K = S e^{r tau} the price is S erf(sigma sqrt(tau) / 2 sqrt 2).
    S N(d+) - K N(d-) cancelled: 9.7e-9 off at tau 1e-14, 6.5e-6 at 1e-20
    and 0.0 at 1e-40."""
    value = bs_call(PricingInputs(100.0, 100.0, 0.0, tau), 0.2)
    exact = 100.0 * math.erf(0.2 * math.sqrt(tau) / (2.0 * math.sqrt(2.0)))
    assert abs(value - exact) <= 1e-14 * exact


# Black-Scholes at S = K = 100, r = 0.03, sigma = 0.2, where d- > 0 by
# (r - sigma^2 / 2) sqrt(tau) / sigma: tau and the call to 21 of its 60
# digits (mpmath at 400 digits on the float inputs)
BS_AT_SPOT = [(1e-12, 7.97884710802861070270e-06),
              (1e-16, 7.97884562302865391400e-08),
              (1e-20, 7.97884560817865378291e-10),
              (1e-40, 7.97884560802865371965e-20),
              (1e-80, 7.97884560802865384782e-40),
              (1e-160, 7.97884560802865395638e-80),
              (1e-300, 7.97884560802865410169e-150)]


@pytest.mark.parametrize("tau, exact", BS_AT_SPOT)
def test_bs_call_at_the_spot_with_positive_rate(tau, exact):
    """With 0 <= d- the subtraction S N(d+) - K e^{-r tau} N(d-) cancelled
    too: 4.0e-11 off at tau 1e-12, 6.5e-6 at 1e-20 and 0.0 from 1e-40."""
    value = bs_call(PricingInputs(100.0, 100.0, 0.03, tau), 0.2)
    assert abs(value - exact) <= 1e-14 * exact


# Black-Scholes out of the money (d+ <= 0) at K = 128, sigma = 0.2 and
# S = 128 e^{-k sigma sqrt(tau)} as a float, so S/K is exact and log_fwd
# carries no quotient rounding: tau, k, r, S and the call to 20 of its 60
# digits (mpmath at 60 digits on the float inputs)
BS_OUT_OF_THE_MONEY = [
    (1e-10, 2.0, 0.0, 127.999488001024, 2.1736155228228009147e-6),
    (1e-14, 2.0, 0.0, 127.9999948800001, 2.173619825914845249e-8),
    (1e-20, 2.0, 0.0, 127.99999999488, 2.1736189058667120394e-11),
    (1e-12, 5.0, 0.05, 127.999872000064, 1.3686195275044507312e-12),
    (1e-6, 0.5, 0.0, 127.98720063997867, 0.0050633386832983136029)]


@pytest.mark.parametrize("tau, k, rate, spot, exact", BS_OUT_OF_THE_MONEY)
def test_bs_call_out_of_the_money_small_spread(tau, k, rate, spot, exact):
    """Where d+ <= 0 the subtraction S N(d+) - K e^{-r tau} N(d-) cancelled
    as sigma sqrt(tau) -> 0: 2.7e-10 off at tau 1e-10 and k = 2, 4.5e-8 at
    1e-14 and 1.1e-4 at 1e-20."""
    value = bs_call(PricingInputs(spot, 128.0, rate, tau), 0.2)
    assert abs(value - exact) <= 1e-13 * exact


@pytest.mark.parametrize("params", [
    ModelParams.double_fractional(2.0, 1.0, 0.2), ModelParams.fmls(1.7, 0.2),
    ModelParams.double_fractional(1.7, 0.9, 0.2)])
def test_fallback_near_the_money_at_tiny_scale(params):
    """At K = S, r = 0 the fallback gave 0.0 from tau 1e-200 on and raised a
    bare ValueError at 1e-250: the payoff fwd e^y - K cancelled, the tilted
    tail ran for a quote within one scale of the money, and a tail it could
    not resolve left the cancelled body standing.  Now each quote is a
    positive price, at (2, 1) within 1e-12 of S erf(sigma sqrt(tau) /
    2 sqrt 2) (the Gaussian limit), or a coded NumericsError.  price takes
    the closed form at (2, 1), so there the quadrature is the oracle's."""
    pricers = [lambda inp: price(params, inp, fallback=True)]
    if params.alpha == 2.0:
        pricers.append(lambda inp: numerics.reference_price(params, inp))
    for e in range(20, 301, 10):
        tau = 10.0 ** -e
        for pricer in pricers:
            try:
                value = pricer(PricingInputs(100.0, 100.0, 0.0, tau))
            except numerics.NumericsError as exc:
                assert exc.code
                continue
            assert value > 0.0
            if params.alpha == 2.0:
                exact = 100.0 * math.erf(0.2 * math.sqrt(tau)
                                         / (2.0 * math.sqrt(2.0)))
                assert abs(value - exact) <= 1e-12 * exact


def test_bs_call_zero_strike():
    inp = PricingInputs(100.0, 0.0, 0.05, 2.0)
    assert bs_call(inp, 0.2) == 100.0


def test_bs_call_rejects_bad_sigma():
    with pytest.raises(ValidationError):
        bs_call(PricingInputs(100.0, 100.0, 0.0, 1.0), 0.0)


@pytest.mark.parametrize("strike, rate, kind, value", [
    (100.0, 0.0, "call", 0.0), (100.0, 0.0, "put", 0.0),
    (90.0, 0.0, "call", 10.0), (90.0, 0.0, "put", 0.0),
    (110.0, 0.05, "put", 10.0)])
def test_bs_price_where_sigma_sqrt_tau_underflows(strike, rate, kind, value):
    """sigma sqrt(tau) = 1e-300 * 1e-150 underflows to 0: the price is the
    limit max(S - K e^{-r tau}, 0) (a put by parity), not a
    ZeroDivisionError."""
    inp = PricingInputs(100.0, strike, rate, 1e-300, kind)
    assert price(ModelParams.black_scholes(1e-300), inp) == value


@pytest.mark.parametrize("rate, kind, value", [
    (0.0, "call", 100.0), (0.0, "put", 100.0),
    (1e-302, "put", 100.0 * math.exp(-1e-302 * 1e300))])
def test_bs_price_where_sigma_sqrt_tau_overflows(rate, kind, value):
    """sigma sqrt(tau) = 1e200 * 1e150 overflows to inf: the price is the
    infinite-spread limit S (a put K e^{-r tau} by parity), not the NaN of
    d- = inf - inf."""
    inp = PricingInputs(100.0, 100.0, rate, 1e300, kind)
    assert price(ModelParams.black_scholes(1e200), inp) == value


def test_bs_call_rejects_infinite_sigma():
    with pytest.raises(ValidationError) as exc:
        bs_call(PricingInputs(100.0, 100.0, 0.0, 1.0), math.inf)
    assert exc.value.code == "sigma_finite"


def test_pricing_inputs_validation():
    with pytest.raises(ValidationError):
        PricingInputs(0.0, 100.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        PricingInputs(100.0, -5.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        PricingInputs(100.0, 100.0, 0.0, 0.0)


def test_series_reduces_to_black_scholes():
    """alpha=2, gamma=1 collapses the series onto the lognormal price."""
    params = ModelParams.double_fractional(2.0, 1.0, 0.2)
    for ratio in (0.8, 1.0, 1.25):
        inp = PricingInputs(100.0 * ratio, 100.0, 0.03, 0.5)
        val, diag = dfrac_call_series(params, inp)
        assert diag.converged
        assert val == pytest.approx(bs_call(inp, 0.2), rel=1e-9)


def test_series_fig3_value_against_quadrature_frozen():
    val, diag = dfrac_call_series(FIG3_PARAMS, FIG3_INPUTS)
    assert diag.converged
    assert val == pytest.approx(290.128688083696, rel=1e-10)


def test_series_partial_sum_shapes():
    _, diag = dfrac_call_series(FIG3_PARAMS, FIG3_INPUTS)
    assert len(diag.partial_sums_n) == pricing.SERIES_N_MAX + 1
    assert 1 <= len(diag.partial_sums_m) <= pricing.SERIES_M_MAX
    assert diag.partial_sums_m[-1] == pytest.approx(290.128688083696,
                                                    rel=1e-10)


def test_series_partial_sums_are_plain_floats():
    """Both partial-sum tuples hold Python floats, not numpy scalars."""
    _, diag = dfrac_call_series(FIG3_PARAMS, FIG3_INPUTS)
    assert all(type(x) is float for x in diag.partial_sums_m)
    assert all(type(x) is float for x in diag.partial_sums_n)


def test_series_m_sums_monotone_n_sums_oscillate():
    _, diag = dfrac_call_series(FIG3_PARAMS, FIG3_INPUTS)
    ms = np.array(diag.partial_sums_m)
    assert np.all(np.diff(ms) >= 0.0)
    # the n-direction approaches the limit from alternating sides (damped
    # oscillation): several sign changes among the corrections, not monotone
    d = np.diff(np.array(diag.partial_sums_n[:12]))
    flips = np.sum(d[:-1] * d[1:] < 0.0)
    assert flips >= 3


def test_series_atm_forward_zero_power():
    """log_fwd = 0 exercises the 0^0 := 1 convention (n = 0 survives)."""
    tau, r = 1.0, 0.02
    strike = 100.0 * math.exp(r * tau)
    inp = PricingInputs(100.0, strike, r, tau)
    assert inp.log_fwd == pytest.approx(0.0, abs=1e-15)
    val, _ = dfrac_call_series(FIG3_PARAMS, inp)
    assert val > 0.0


def test_series_deep_otm_magnitude_guard():
    params = ModelParams.double_fractional(1.8, 1.0, 0.2)
    inp = PricingInputs(100.0, 10000.0, 0.0, 0.1)
    with pytest.raises(SeriesDivergenceError):
        dfrac_call_series(params, inp)
    v = price(params, inp, fallback=True)
    assert 0.0 <= v < 1e-3


def test_series_wrong_branch_detected_by_band():
    # gamma/alpha = 1 resonance: the series converges to a negative value,
    # which the arbitrage-band check turns into an error
    params = ModelParams.double_fractional(1.1, 1.1, 0.2)
    with pytest.raises(SeriesDivergenceError):
        dfrac_call_series(params, FIG3_INPUTS)


def test_price_fallback_opt_in():
    params = ModelParams.double_fractional(1.8, 1.0, 0.2)
    inp = PricingInputs(100.0, 10000.0, 0.0, 0.1)
    with pytest.raises(SeriesDivergenceError):
        price(params, inp)


def test_price_zero_strike():
    # gamma = 1: the exponential moment is exactly risk neutral, C = S
    params = ModelParams.double_fractional(1.7, 1.0, 0.2)
    inp = PricingInputs(3800.0, 0.0, 0.01, 1.0)
    assert price(params, inp) == pytest.approx(3800.0, rel=1e-9)


def test_price_zero_strike_gamma_ne_1_mean_factor():
    # at gamma != 1 the exponentiated process is not a martingale; the
    # discounted K=0 call picks up the Mittag-Leffler mean factor (~1.002)
    inp = PricingInputs(3800.0, 0.0, 0.01, 1.0)
    v = price(FIG3_PARAMS, inp)
    assert v / 3800.0 == pytest.approx(1.001954454, abs=1e-6)
    assert v > 3800.0


def test_put_from_parity_and_floor():
    inp = PricingInputs(100.0, 80.0, 0.05, 1.0, OptionKind.PUT)
    k_disc = 80.0 * math.exp(-0.05)
    assert put_from_parity(30.0, inp) == pytest.approx(30.0 - 100.0 + k_disc)
    assert put_from_parity(100.0 - k_disc, inp) == 0.0
    with pytest.raises(ParityError):
        put_from_parity(10.0, inp)


def test_price_put_call_parity_gamma1():
    params = ModelParams.double_fractional(1.6, 1.0, 0.25)
    call_in = PricingInputs(100.0, 105.0, 0.02, 1.0, OptionKind.CALL)
    put_in = PricingInputs(100.0, 105.0, 0.02, 1.0, OptionKind.PUT)
    c, p = price(params, call_in), price(params, put_in)
    assert c - p == pytest.approx(100.0 - 105.0 * math.exp(-0.02), abs=1e-9)


def test_price_dispatches_bs():
    params = ModelParams.black_scholes(0.2)
    inp = PricingInputs(100.0, 100.0, 0.0, 1.0)
    assert price(params, inp) == bs_call(inp, 0.2)


@pytest.mark.parametrize("params", [
    ModelParams.double_fractional(2.0, 1.0, 0.2), ModelParams.fmls(2.0, 0.2)])
def test_black_scholes_law_takes_the_closed_form(params):
    """alpha = 2, gamma = 1 is the Black-Scholes law whatever the model
    kind.  A tau = 0.02 chain whose wings the series refuses is priced
    without the fallback: each quote positive and as the Black-Scholes kind
    prices it, each call bitwise bs_call."""
    with pytest.raises(SeriesDivergenceError) as exc:
        dfrac_call_series(params, PricingInputs(100.0, 70.0, 0.01, 0.02))
    assert exc.value.code == "blowup"
    chain = [PricingInputs(100.0, strike, 0.01, 0.02, kind)
             for strike in (70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0,
                            140.0) for kind in OptionKind]
    values = price_grid([(params, inp) for inp in chain])
    bs = ModelParams.black_scholes(0.2)
    for value, inp in zip(values, chain):
        assert value > 0.0
        assert value == price(bs, inp)
        if inp.kind is OptionKind.CALL:
            assert value == bs_call(inp, 0.2)


@pytest.mark.parametrize("params, strike, tau, exact", [
    (ModelParams.double_fractional(2.0, 1.0, 0.2), 60.0, 0.02,
     3.463061293587930857701097e-74),
    (ModelParams.double_fractional(2.0, 1.0, 0.199), 70.0, 0.0199,
     4.591384566306055507675053e-38),
    (ModelParams.black_scholes(0.2), 60.0, 0.02,
     3.463061293587930857701097e-74)])
def test_black_scholes_deep_put_keeps_relative_accuracy(params, strike, tau,
                                                        exact):
    """A deep out-of-the-money put at alpha = 2, gamma = 1 is the call of
    the symmetric contract, within 1e-10 relative of its value in 60-digit
    arithmetic at these float inputs (S 100, r 0.01).  Parity from the call
    read the Black-Scholes kind's K = 60 put as 0.0; the quadrature
    fallback read the first two as 4.15e-44 and 3.11e-38."""
    inp = PricingInputs(100.0, strike, 0.01, tau, OptionKind.PUT)
    assert abs(price(params, inp) - exact) <= 1e-10 * exact


@settings(max_examples=40, deadline=None)
@given(st.floats(80.0, 120.0), st.floats(0.1, 0.5), st.floats(0.1, 2.0))
def test_bs_call_inside_arbitrage_band(spot, sigma, tau):
    inp = PricingInputs(spot, 100.0, 0.02, tau)
    c = bs_call(inp, sigma)
    assert max(spot - 100.0 * math.exp(-0.02 * tau), 0.0) - 1e-12 <= c
    assert c <= spot


@settings(max_examples=15, deadline=None)
@given(st.floats(-0.25, 0.0), st.floats(0.1, 0.35))
def test_series_price_within_band_gamma09(x, sigma):
    """Series values on the valid side (A >= 0) respect no-arbitrage."""
    params = ModelParams.double_fractional(1.7, 0.9, sigma)
    inp = PricingInputs(100.0 * math.exp(x), 100.0, 0.01, 1.0)
    val, _ = dfrac_call_series(params, inp)
    assert val >= -1e-9
    assert val <= inp.spot * 1.01


def test_option_kind_coerced():
    params = ModelParams.black_scholes(0.2)
    as_text = PricingInputs(100.0, 110.0, 0.0, 1.0, "put")
    assert as_text.kind is OptionKind.PUT
    assert price(params, as_text) == price(
        params, PricingInputs(100.0, 110.0, 0.0, 1.0, OptionKind.PUT))
    assert price(params, as_text) == pytest.approx(14.292, abs=1e-3)
    with pytest.raises(ValidationError) as err:
        PricingInputs(100.0, 110.0, 0.0, 1.0, "straddle")
    assert err.value.code == "kind_value"


def _band(params, inputs, mu):
    """The band [lower, upper] of one quote from _band_bounds; a mean factor
    beyond the float range raises."""
    (log_x, x), = _band_bounds([mu], [inputs.tau], [params.gamma])
    upper = inputs.spot * x
    if not math.isfinite(upper):
        raise SeriesDivergenceError("mean_factor_overflow", f"e^{log_x}")
    return max(upper - inputs.strike * inputs.discount, 0.0), upper


def test_band_bounds_deep_mittag_leffler_argument():
    """-mu tau^gamma = 31 at gamma = 0.6 is past the summed range of the
    Mittag-Leffler series; the bounds then use its leading asymptotic."""
    params = ModelParams.double_fractional(1.7, 0.6, 1.0)
    mu = risk_neutral(params).mu
    inp = PricingInputs(100.0, 100.0, 0.01, 100.0)
    z = -mu * inp.tau ** 0.6
    assert z >= 25.0
    lower, upper = _band(params, inp, mu)
    assert 0.0 <= lower <= upper < math.inf
    assert math.log(upper / inp.spot) == pytest.approx(
        mu * inp.tau + z ** (1.0 / 0.6) - math.log(0.6), rel=1e-12)
    # a mean factor beyond the float range is a divergence, not an overflow
    with pytest.raises(SeriesDivergenceError):
        _band(params, PricingInputs(100.0, 100.0, 0.01, 1000.0), mu)


def test_price_short_n_truncation_fails_n_tail_check(monkeypatch):
    """SERIES_N_MAX bounds the series only: mu keeps its own term budget,
    and the short n range is rejected by the dropped-n-tail
    certification."""
    monkeypatch.setattr(pricing, "SERIES_N_MAX", 5)
    with pytest.raises(SeriesDivergenceError, match="dropped n-tail"):
        price(FIG3_PARAMS, FIG3_INPUTS)


def test_mu_does_not_depend_on_pricing_truncation(monkeypatch):
    """price() uses the model's mu whatever the series' truncation."""
    used = []
    real = pricing.mu_gamma_series_rows

    def spy(params):
        drifts = real(params)
        used.extend(d.mu for d in drifts)
        return drifts

    monkeypatch.setattr(pricing, "mu_gamma_series_rows", spy)
    monkeypatch.setattr(pricing, "SERIES_N_MAX", 5)
    with pytest.raises(SeriesDivergenceError):
        price(FIG3_PARAMS, FIG3_INPUTS)
    assert used == [risk_neutral(FIG3_PARAMS).mu]



def _series_loop(params, inputs, mu, n_max, m_max):
    """The residue series summed one m-slice at a time: the reference for the
    block evaluation in dfrac_call_series.  Returns (value, diagnostics); a
    sum that runs out of m_max returns its partial sum unconverged."""
    a, g = params.alpha, params.gamma
    tau = inputs.tau
    A = -inputs.log_fwd - mu * tau
    log_B = math.log(-mu * tau ** g)
    pref = inputs.strike * math.exp(-inputs.rate * tau) / a
    n = np.arange(n_max + 1)
    a_pow = np.where(n == 0, 1.0, A ** n)
    coef_n = (-1.0) ** n * a_pow * np.exp(-gammaln(n + 1.0))
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
    for m in range(1, m_max + 1):
        rg = pricing.reciprocal_gamma(1.0 - g * (n - m) / a)
        col = pref * coef_n * rg * np.exp(((m - n) / a) * log_B)
        peak_term = max(peak_term, float(np.abs(col).max()))
        n_tail += abs(float(col[-1]))
        s = float(col.sum())
        if not math.isfinite(s) or abs(s) > blowup:
            raise SeriesDivergenceError("blowup", "blow-up")
        total += s
        per_n += col
        sums_m.append(total)
        m_used = m
        if abs(s) < pricing.SERIES_TOLERANCE * max(abs(total), 1e-300):
            small += 1
            if small >= 3:
                converged = True
                break
        else:
            small = 0
        if abs(s) > prev_abs:
            grow += 1
            if grow >= 5:
                raise SeriesDivergenceError("growth", "growth")
        else:
            grow = 0
        prev_abs = abs(s)
    if converged:
        floor = pricing.ACCURACY_FLOOR * max(abs(total), 1e-300)
        if 2e-14 * peak_term > floor or n_tail > floor:
            raise SeriesDivergenceError("uncertified", "not certifiable")
        lower, upper = _band(params, inputs, mu)
        pad = 1e-6 * (inputs.spot + inputs.strike)
        if not lower - pad <= total <= upper + pad:
            raise SeriesDivergenceError("band", "outside band")
    return total, pricing.SeriesDiagnostics(
        tuple(sums_m), tuple(np.cumsum(per_n)),
        (n_max + 1) * m_used, converged)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (SeriesDivergenceError, ValidationError) as exc:
        return type(exc)


@pytest.mark.parametrize("m_max", [pricing.SERIES_M_MAX, 20],
                         ids=["default", "m_max_20"])
def test_series_blocks_match_slice_loop(monkeypatch, m_max):
    """Block evaluation reproduces the slice loop bitwise; the one change is
    that a sum with no stop within m_max raises."""
    monkeypatch.setattr(pricing, "SERIES_M_MAX", m_max)
    n_max = pricing.SERIES_N_MAX
    for a in (1.2, 1.5, 1.7, 2.0):
        for g in (0.3, 0.6, 0.9, 1.0, 1.2):
            if not 1.0 - 1.0 / a < g <= a:
                continue
            for s in (0.1, 0.3, 0.8):
                params = ModelParams.double_fractional(a, g, s)
                try:
                    mu = risk_neutral(params).mu
                except numerics.NonConvergenceError:
                    continue
                for k in (70.0, 95.0, 100.0, 110.0, 160.0):
                    for tau in (0.1, 1.0, 3.0):
                        inp = PricingInputs(100.0, k, 0.02, tau)
                        ref = _outcome(_series_loop, params, inp, mu, n_max,
                                       m_max)
                        got = _outcome(dfrac_call_series, params, inp)
                        if got is SeriesDivergenceError and ref is not got:
                            assert not ref[1].converged    # m_max exhausted
                        elif isinstance(ref, tuple):
                            assert got[0] == ref[0]
                            d, e = got[1], ref[1]
                            assert d.partial_sums_m == e.partial_sums_m
                            assert d.partial_sums_n == e.partial_sums_n
                            assert d.terms_used == e.terms_used
                            assert d.converged == e.converged
                        else:
                            assert got is ref


# One quote (spot 100, rate 0.01) per refusal of the series kernel
REFUSALS = [
    (ModelParams.fmls(1.7, 1e6), 100.0, 1.0, "coef_overflow",
     "series coefficients"),
    (ModelParams.double_fractional(1.82, 1.31, 0.24), 157.5, 0.05, "blowup",
     "exceeds any arbitrage bound"),
    (ModelParams.double_fractional(1.15, 0.22, 0.25), 69.4, 0.16,
     "unsettled", "did not settle within m_max=60"),
    (ModelParams.double_fractional(1.16, 0.54, 1.29), 132.8, 0.18, "growth",
     "grew for 5 consecutive m"),
    (ModelParams.double_fractional(1.94, 1.07, 0.08), 129.3, 0.71,
     "uncertified", "not certifiable"),
    # refused for its cancellation noise alone: the largest |term| of all
    # the slices summed, not of the last one
    (ModelParams.double_fractional(1.94, 0.55, 0.07), 128.7, 0.09,
     "uncertified", "noise ~2.7e-12, dropped n-tail ~5.1e-18"),
    (ModelParams.double_fractional(1.11, 1.11, 1.33), 140.1, 0.5, "band",
     "outside the arbitrage band"),
    # unsettled as the quote at K 69.4 (A = -0.155), but at A = 2.07 > 0
    (ModelParams.double_fractional(1.25, 0.42, 0.42), 93.2, 1.83,
     "unsettled", "m_max=60"),
]

# the full message of each REFUSALS quote, by (strike, tau)
REFUSAL_MESSAGES = {
    (100.0, 1.0): "series coefficients A^n/n! overflow at |A|=9.87e+09; the "
                  "series is outside its validity domain",
    (157.5, 0.05): "series slice magnitude 1.42e+57 at m=1 exceeds any "
                   "arbitrage bound; the series is outside its validity "
                   "domain",
    (69.4, 0.16): "series slices did not settle within m_max=60",
    (132.8, 0.18): "series slices grew for 5 consecutive m (last "
                   "|slice|=4.02e+05); no convergence",
    (129.3, 0.71): "series sum 0.00361154 is not certifiable to 1e-09 "
                   "relative accuracy (cancellation noise ~1.2e-11, "
                   "dropped n-tail ~0.019)",
    (128.7, 0.09): "series sum 0.000379316 is not certifiable to 1e-09 "
                   "relative accuracy (cancellation noise ~2.7e-12, "
                   "dropped n-tail ~5.1e-18)",
    (140.1, 0.5): "converged series value -58.5842 lies outside the "
                  "arbitrage band [0, 67.3097]; the series is outside its "
                  "validity domain",
    (93.2, 1.83): "series slices did not settle within m_max=60",
}


@pytest.mark.parametrize("params, strike, tau, code, reason", REFUSALS)
def test_series_refusal_codes(params, strike, tau, code, reason):
    """Every refusal of the series kernel carries its reason as a code, in
    the chain entry as in the scalar price, and its message in full."""
    inp = PricingInputs(100.0, strike, 0.01, tau)
    with pytest.raises(SeriesDivergenceError, match=reason) as exc:
        dfrac_call_series(params, inp)
    assert exc.value.code == code
    assert str(exc.value) == REFUSAL_MESSAGES[strike, tau]
    entry, = price_grid([(params, inp)])
    assert _entry(entry) == _entry(exc.value)


def test_band_mean_factor_overflow_code(monkeypatch):
    # the mean factor e^773 of the band's upper edge overflows
    params = ModelParams.double_fractional(1.7, 0.6, 1.0)
    (log_x, x), = _band_bounds([risk_neutral(params).mu], [700.0], [0.6])
    assert log_x > 709.0 and x == math.inf
    # a converged series value with such a band is refused by code
    monkeypatch.setattr(pricing, "_band_bounds",
                        lambda mu, tau, gamma: [(log_x, x)] * len(mu))
    with pytest.raises(SeriesDivergenceError, match="mean factor") as exc:
        dfrac_call_series(FIG3_PARAMS, FIG3_INPUTS)
    assert exc.value.code == "mean_factor_overflow"


def test_series_diagonal_factors_once_per_chain(monkeypatch):
    """The kernel evaluates 1/Gamma once per chain, on its m_max + n_max
    diagonals n - m (not per (m, n) term of each block), and each chain
    row's price and the partial sums of its block's row equal its chain of
    one's.  The fixture chain is one block, its rows in chain order."""
    chain = list(sampledata.fixture_chain().inputs)
    assert len(chain) <= 16
    sizes = []
    real = pricing.reciprocal_gamma

    def spy(x):
        sizes.append(np.size(x))
        return real(x)

    monkeypatch.setattr(pricing, "reciprocal_gamma", spy)
    bound = pricing.SERIES_M_MAX + pricing.SERIES_N_MAX + 1
    for params in (ModelParams.double_fractional(1.7, 0.8, 0.3),
                   ModelParams.double_fractional(1.52, 1.07, 0.59),
                   ModelParams.fmls(1.51, 0.46)):
        sizes.clear()
        values = price_grid([(params, inp) for inp in chain])
        assert sizes and max(sizes) <= bound
        entries, (sums, terms, mk) = pricing._series_grid(
            [(params, inp) for inp in chain])
        rows = [(entries[k], sums[k, :mk[k]], terms[k, :mk[k]])
                for k in range(len(chain))]
        assert any(isinstance(e, float) for e, _, _ in rows)
        for value, (entry, sums, terms), inp in zip(values, rows, chain):
            if isinstance(entry, Exception):
                assert _entry(entry) == _entry(value)
                continue
            price_alone, alone = dfrac_call_series(params, inp)
            assert entry == price_alone
            assert tuple(sums.tolist()) == alone.partial_sums_m
            assert (tuple(np.cumsum(np.cumsum(terms, axis=0)[-1]).tolist())
                    == alone.partial_sums_n)
            assert terms.size == alone.terms_used


def test_series_exhausted_m_max_raises(monkeypatch, capsys):
    from fracprice.cli import main
    monkeypatch.setattr(pricing, "SERIES_M_MAX", 5)
    with pytest.raises(SeriesDivergenceError, match="m_max=5"):
        dfrac_call_series(FIG3_PARAMS, FIG3_INPUTS)
    argv = ["price", "--model", "dfrac", "--spot", "3800", "--strike", "4000",
            "--rate", "0.01", "--sigma", "0.2", "--alpha", "1.7",
            "--gamma", "0.9", "--tau", "1"]
    assert main(argv) == 2
    assert "m_max=5" in capsys.readouterr().err


def test_unsettled_default_series_falls_back_to_quadrature():
    """A point whose slices neither settle nor grow within the default 60
    slices: the partial sum is refused, and the fallback prices it by
    quadrature."""
    params = ModelParams.double_fractional(1.7026, 0.5163, 0.8)
    inp = PricingInputs(100.0, 97.372, 0.0477, 1.0)
    with pytest.raises(SeriesDivergenceError, match="did not settle"):
        price(params, inp)
    value = price(params, inp, fallback=True)
    assert value == pytest.approx(numerics.reference_price(params, inp),
                                  rel=1e-9)


def test_discount_overflow_is_typed():
    """e^{-r tau} beyond the float range is an input error, derived once."""
    with pytest.raises(ValidationError) as err:
        PricingInputs(100.0, 100.0, -1000.0, 1.0)
    assert err.value.code == "discount_float_range"
    inp = PricingInputs(100.0, 90.0, 0.03, 0.7)
    assert inp.discount == math.exp(-0.03 * 0.7)


# (SERIES_N_MAX, SERIES_M_MAX): the default and two short truncations
TRUNCATIONS = [(pricing.SERIES_N_MAX, pricing.SERIES_M_MAX), (5, 60), (60, 20)]


@st.composite
def chain_params(draw):
    kind = draw(st.sampled_from(["bs", "fmls", "dfrac"]))
    sigma = draw(st.floats(0.03, 0.9))
    if kind == "bs":
        return ModelParams.black_scholes(sigma)
    alpha = draw(st.floats(1.1, 2.0))
    if kind == "fmls":
        return ModelParams.fmls(alpha, sigma)
    lo, hi = max(1.0 - 1.0 / alpha, 0.05) + 1e-3, min(alpha, 1.4)
    # the clamp keeps a rounded-up draw at 1.0 from passing gamma = alpha
    return ModelParams.double_fractional(
        alpha, min(lo + draw(st.floats(0.0, 1.0)) * (hi - lo), hi), sigma)


def _entry(value):
    if isinstance(value, Exception):
        return type(value), getattr(value, "code", None), str(value)
    return value


def _alone(params, inputs, fallback=False):
    try:
        return price(params, inputs, fallback)
    except numerics.FracpriceError as exc:
        return exc


@settings(max_examples=150, deadline=None)
@given(params=chain_params(), spot=st.floats(50.0, 150.0),
       rate=st.floats(-0.05, 0.12), tau=st.floats(0.02, 2.0),
       quotes=st.lists(st.tuples(st.sampled_from(["call", "put"]),
                                 st.floats(-0.6, 0.6)),
                       min_size=1, max_size=12),
       truncation=st.sampled_from(TRUNCATIONS))
def test_price_chain_equals_chains_of_one(params, spot, rate, tau, quotes,
                                          truncation):
    """Every entry of a chain is bitwise the price of that quote alone, or
    the same exception class with the same message, under the default and
    two short truncations of the series."""
    quotes = [(kind, spot * math.exp(x)) for kind, x in quotes]
    inputs = [PricingInputs(spot, strike, rate, tau, kind)
              for kind, strike in quotes]
    n_max, m_max = truncation
    with patch.multiple(pricing, SERIES_N_MAX=n_max, SERIES_M_MAX=m_max):
        chain = price_grid([(params, inp) for inp in inputs])
        assert len(chain) == len(quotes)
        for got, inp in zip(chain, inputs):
            assert _entry(got) == _entry(_alone(params, inp))


def test_price_chain_per_quote_routes():
    """Entries of one chain may take different routes: a zero-strike
    quadrature, a quadrature fallback, a put by parity."""
    params = ModelParams.double_fractional(1.7026, 0.5163, 0.8)
    quotes = [("call", 97.372), ("call", 0.0), ("put", 97.372),
              ("call", 110.0)]
    inputs = [PricingInputs(100.0, strike, 0.0477, 1.0, kind)
              for kind, strike in quotes]
    chain = price_grid([(params, inp) for inp in inputs])
    assert isinstance(chain[0], SeriesDivergenceError)
    assert "did not settle" in str(chain[0])
    assert ([_entry(v) for v in chain]
            == [_entry(_alone(params, inp)) for inp in inputs])
    # with the quadrature fallback the unsettled call and its put are priced
    routed = price_grid([(params, inp) for inp in inputs], fallback=True)
    assert all(isinstance(v, float) for v in routed)
    assert routed == [price(params, inp, fallback=True) for inp in inputs]
    assert routed[1] == chain[1]
    # inadmissible parameters cannot be built; an error of the whole
    # chain (a drift that does not converge) fills every entry
    with pytest.raises(ValidationError):
        ModelParams(params.kind, params.alpha, params.gamma, -1.0)
    bad = ModelParams.double_fractional(1.2, 0.6, 5.0)
    assert all(isinstance(v, numerics.NonConvergenceError)
               for v in price_grid([(bad, inp) for inp in inputs]))


# gamma = 1 just off the Black-Scholes point: the series refuses these
# short-maturity wings, which at (2, 1) itself take the closed form
WINGS_1_99 = ModelParams.fmls(1.99, 0.199)


def test_fallback_otm_put_is_integrated_directly():
    """A fallback put out of the money keeps its relative accuracy: parity
    from the quadrature call cancelled it (1.2e-6 relative off at K = 85,
    0.0 at K = 80.016, under dfrac(2, 1, 0.199)).  At alpha = 1.99 the
    series refuses both puts; the quadrature's direct put holds them, and
    the fallback now prices them on the moment line's put side, within
    1e-10 of it.  At (2, 1) the oracle's direct put and the closed form's
    put by symmetry both hold the value."""
    params = WINGS_1_99
    gauss = ModelParams.double_fractional(2.0, 1.0, 0.199)
    for strike in (85.0, 80.016):
        inp = PricingInputs(100.0, strike, 0.01, 0.0199, OptionKind.PUT)
        with pytest.raises(SeriesDivergenceError):
            price(params, inp)
        line, err = numerics.moment_line_price(params, inp)
        assert price(params, inp, fallback=True) == line
        ref = numerics.reference_price(params, inp)
        assert abs(line - ref) <= 1e-10 * ref
        assert err <= pricing.ACCURACY_FLOOR * line
    inp = PricingInputs(100.0, 85.0, 0.01, 0.0199, OptionKind.PUT)
    # the Black-Scholes put, evaluated in 50-digit arithmetic
    for value in (numerics.reference_price(gauss, inp), price(gauss, inp)):
        assert value == pytest.approx(1.43368872199e-09,
                                      rel=pricing.ACCURACY_FLOOR)
    # an in-the-money put keeps parity from the out-of-the-money call: the
    # oracle's own put is parity from its call, the fallback's parity from
    # the line's call, and at (2, 1) price takes parity from bs_call
    itm = PricingInputs(100.0, 110.0, 0.01, 0.0199, OptionKind.PUT)
    itm_call = PricingInputs(100.0, 110.0, 0.01, 0.0199)
    for p in (params, gauss):
        call = numerics.reference_price(p, itm_call)
        assert numerics.reference_price(p, itm) == put_from_parity(call, itm)
    line, _ = numerics.moment_line_price(params, itm_call)
    assert price(params, itm, fallback=True) == put_from_parity(line, itm)
    assert price(gauss, itm) == put_from_parity(bs_call(itm_call, 0.199), itm)


def test_fallback_otm_put_parity_value_off_gamma_1():
    """At gamma != 1 the direct put plus S (X - 1) is parity's value."""
    params = ModelParams.double_fractional(1.9, 0.9, 0.2)
    for strike in (60.0, 80.0, 85.0):
        inp = PricingInputs(100.0, strike, 0.01, 0.02, OptionKind.PUT)
        call = numerics.reference_price(
            params, PricingInputs(100.0, strike, 0.01, 0.02))
        assert price(params, inp, fallback=True) == pytest.approx(
            put_from_parity(call, inp), rel=1e-12)


def test_fallback_otm_put_mean_factor_overflow_is_typed():
    # the forward e^30.6 S is finite, the mean factor e^773 is not
    params = ModelParams.double_fractional(1.7, 0.6, 1.0)
    inp = PricingInputs(100.0, 100.0, 2.0, 700.0, OptionKind.PUT)
    with pytest.raises(numerics.NumericsError, match="mean factor"):
        price(params, inp, fallback=True)


def test_fallback_forward_overflow_is_typed():
    # the mean factor overflows too; the forward is checked first
    params = ModelParams.double_fractional(1.7, 0.6, 1.0)
    for kind in OptionKind:
        inp = PricingInputs(100.0, 100.0, 10.0, 1000.0, kind)
        with pytest.raises(numerics.NumericsError,
                           match="forward .* overflows"):
            price(params, inp, fallback=True)


@pytest.mark.parametrize("kind", ["call", "put"])
def test_fallback_payoff_overflow_is_typed(kind):
    """A call payoff S e^{(r + mu) tau + y} that overflows on the quadrature
    nodes is refused, not integrated to NaN; a put, by parity from that call,
    too."""
    inp = PricingInputs(100.0, 100.0, 1.5, 30.0, kind)
    with pytest.raises(numerics.NumericsError,
                       match="overflows on the quadrature nodes"):
        price(ModelParams.double_fractional(1.7, 0.6, 1.0), inp,
              fallback=True)


@pytest.mark.parametrize("params, tau", [
    (ModelParams.fmls(1.7, 5.0), 100.0),
    (ModelParams.double_fractional(1.7, 0.6, 1.0), 1000.0),
])
@pytest.mark.parametrize("kind", ["call", "put"])
def test_fallback_forward_underflow_is_typed(params, tau, kind):
    """A forward S e^{(r + mu) tau} that underflows to 0 is refused by the
    quadrature, not divided by.  At gamma = 1 the fallback prices the quote
    on the moment line first, which works in logs and needs no forward:
    at B = 960 nearly all of the law's mass is far below the money, so
    the call is S and the put K, both to rounding."""
    inp = PricingInputs(100.0, 100.0, 0.0, tau, kind)
    with pytest.raises(numerics.NumericsError, match="forward .* underflows"):
        numerics.reference_price(params, inp)
    if params.gamma != 1.0:
        with pytest.raises(numerics.NumericsError,
                           match="forward .* underflows"):
            price(params, inp, fallback=True)
    else:
        value = price(params, inp, fallback=True)
        assert value == numerics.moment_line_price(params, inp)[0]
        assert value == pytest.approx(100.0, rel=1e-12)


@pytest.mark.parametrize("params, tau, strikes", [
    # gamma = 1: the series refuses these short-maturity wings
    (WINGS_1_99, 0.0199, (0.0, 80.016, 85.0, 110.0, 120.0)),
    (ModelParams.fmls(1.6, 0.25), 0.02, (0.0, 80.0, 125.0)),
    # gamma != 1, both sides of y* = 0 (y* = 0 near K = 100 here)
    (ModelParams.double_fractional(2.0, 0.8, 0.2), 0.02,
     (0.0, 60.0, 70.0, 130.0, 140.0)),
    (ModelParams.double_fractional(1.9, 0.9, 0.2), 0.02,
     (0.0, 60.0, 85.0, 115.0, 130.0)),
    (ModelParams.double_fractional(1.7, 1.1, 0.3), 0.05,
     (0.0, 80.0, 90.0, 110.0, 120.0)),
    # X < 1 puts the parity value P + S (X - 1) below zero
    (ModelParams.double_fractional(1.8, 1.15, 0.2), 0.02,
     (0.0, 85.0, 95.0, 110.0, 118.0)),
])
def test_fallback_put_is_the_floored_reference_put(params, tau, strikes):
    """A put the series refuses (or cannot take, at K = 0) is
    max(reference_price(put), 0.0), bitwise, or a ParityError where the
    reference put is below -1e-8 S: one floor for both routes.  At
    gamma = 1 a refused put with K > 0 is the moment line's put, bitwise,
    and within 1e-10 of the reference put."""
    for strike in strikes:
        inp = PricingInputs(100.0, strike, 0.01, tau, OptionKind.PUT)
        if strike > 0.0:
            with pytest.raises(SeriesDivergenceError):
                price(params, inp)
        ref = numerics.reference_price(params, inp)
        if params.gamma == 1.0 and strike > 0.0:
            line, _ = numerics.moment_line_price(params, inp)
            assert abs(line - ref) <= 1e-10 * ref
            assert price(params, inp, fallback=True) == line
        elif ref < -1e-8 * inp.spot:
            with pytest.raises(ParityError, match="below the parity bound 0"):
                price(params, inp, fallback=True)
        else:
            assert price(params, inp, fallback=True) == max(ref, 0.0)


@pytest.mark.parametrize("alpha, gamma, sigma, tau, strike, call_size", [
    (2.0, 1.0, 0.2, 0.02, 120.0, 2.8e-11),
    (2.0, 1.0, 0.2, 0.02, 130.0, 3.2e-21),
    (2.0, 1.0, 0.2, 0.05, 140.0, 2.0e-14),
    (1.6, 1.0, 0.25, 0.05, 120.0, 4.5e-11),
    (1.6, 1.0, 0.25, 0.02, 125.0, 1.4e-70),
    (1.8, 1.15, 0.2, 0.05, 110.0, 4.4e-9),
    (1.8, 1.15, 0.2, 0.02, 118.0, 3.9e-155),
])
def test_fallback_itm_put_skips_only_invisible_tail(monkeypatch, alpha, gamma,
                                                    sigma, tau, strike,
                                                    call_size):
    """An in-the-money put the series refuses is parity from the quadrature
    call.  Where that call is below ulp(S)/4, C - S rounds to -S whatever
    it is, so the put skips the call's deep-tail integral (its cutoff
    search takes tail probabilities one point at a time); elsewhere it
    does the call's work.
    Either way the put is bitwise parity from reference_price's call.  At
    gamma = 1 price takes parity from bs_call at (2, 1) and from the moment
    line's call (within 1e-10 of the quadrature's) below alpha 2, so there
    the put checked is reference_price's own."""
    params = (ModelParams.fmls(alpha, sigma) if gamma == 1.0 and alpha < 2.0
              else ModelParams.double_fractional(alpha, gamma, sigma))
    gauss = alpha == 2.0 and gamma == 1.0
    put = PricingInputs(100.0, strike, 0.01, tau, OptionKind.PUT)
    call = PricingInputs(100.0, strike, 0.01, tau)
    with pytest.raises(SeriesDivergenceError):
        dfrac_call_series(params, call)
    sizes = []
    tail_masses = numerics._tail_masses

    def spy(Ys, *args):
        sizes.append(len(Ys))
        return tail_masses(Ys, *args)

    monkeypatch.setattr(numerics, "_tail_masses", spy)
    value = (numerics.reference_price(params, put) if gamma == 1.0
             else price(params, put, fallback=True))
    put_sizes, sizes[:] = sizes[:], []
    c = numerics.reference_price(params, call)
    assert c == pytest.approx(call_size, rel=0.05)
    assert max(sizes) > 1                   # the call is integrated
    # the put takes the call's single probes only, or all of its work
    skipped = max(put_sizes) == 1
    assert skipped == (c < math.ulp(100.0) / 4.0)
    assert skipped or put_sizes == sizes
    assert value == put_from_parity(c, put)
    if gauss:
        assert (price(params, put, fallback=True)
                == put_from_parity(bs_call(call, sigma), put))
    elif gamma == 1.0:
        line, _ = numerics.moment_line_price(params, call)
        assert abs(line - c) <= 1e-10 * c
        assert (price(params, put, fallback=True)
                == put_from_parity(line, put))


# gamma = 1 quotes (S = 100) and their values to 32 digits: the moment
# line's integral in 45-digit arithmetic (mpmath, offline) at two abscissae,
# the package's and one moved by 7%, which agree to 1e-30 or better; mu is
# (sigma/sqrt 2)^alpha / cos(pi alpha / 2) at the float inputs.  Deep out-of-the-money calls, out-of-the-money puts, in-the-money
# calls and puts (parity from the other side's line), an underflow.
FMLS_WINGS = ModelParams.fmls(1.600381, 0.24914865858249546)
LINE_VALUES = [
    (ModelParams.fmls(1.6, 0.25), 125.0, 0.01, 0.02, "call",
     "1.4477903884153203721081835359423e-70"),
    (ModelParams.fmls(1.6, 0.25), 126.0, 0.01, 0.02, "call",
     "3.8125465398608035365358631406351e-77"),
    (ModelParams.fmls(1.6, 0.25), 127.0, 0.01, 0.02, "call",
     "4.7356246715454745898242680164274e-84"),
    (WINGS_1_99, 120.0, 0.01, 0.0199, "call",
     "8.7998568788382714005714360108255e-12"),
    (ModelParams.double_fractional(1.3, 1.0, 0.3), 115.0, 0.01, 0.05, "call",
     "3.2473852047359428285045639941578e-19"),
    (ModelParams.double_fractional(1.75, 1.0, 0.3), 140.0, 0.01, 0.02, "call",
     "3.1069458220121156457146797839281e-46"),
    (FMLS_WINGS, 129.91982022734524, 0.00921277931716658, 0.0502884287034284,
     "call", "2.3946266482805422019510184658783e-25"),
    (FMLS_WINGS, 84.93778708853202, 0.00921277931716658, 0.0502884287034284,
     "put", "0.26412906577546303284341606572297"),
    (ModelParams.fmls(1.3, 0.2), 70.0, 0.01, 0.1, "put",
     "0.34526362493609650171147240207454"),
    (ModelParams.double_fractional(1.8, 1.0, 0.3), 90.0, 0.01, 0.05, "put",
     "0.37541317215772184716167704079838"),
    (ModelParams.fmls(1.6, 0.25), 75.0, 0.01, 0.05, "call",
     "25.174373863602703631745749509957"),
    (ModelParams.double_fractional(1.5, 1.0, 0.2), 90.0, 0.01, 0.1, "call",
     "10.795705817105889886355037978559"),
    (ModelParams.fmls(1.6, 0.25), 125.0, 0.01, 0.02, "put",
     "24.975002499833341665292718504543"),
    (ModelParams.fmls(1.7, 0.2), 110.0, 0.01, 0.05, "put",
     "9.9459360155497963814884250608203"),
    # the test_series_deep_otm_magnitude_guard quote: its value underflows,
    # the line returns 0.0 with a 0.0 bound, and the true error rounds to 0
    (ModelParams.double_fractional(1.8, 1.0, 0.2), 10000.0, 0.0, 0.1, "call",
     "1.8306651941870424014942465362307e-3925"),
]


def _line_error(params, strike, rate, tau, kind, literal):
    """The moment line's value at the quote, its own error bound, and its
    true error against the literal."""
    value, err = numerics.moment_line_price(
        params, PricingInputs(100.0, strike, rate, tau, kind))
    return value, err, float(abs(Decimal(value) - Decimal(literal)))


@pytest.mark.parametrize("params, strike, rate, tau, kind, literal",
                         LINE_VALUES)
def test_moment_line_certificate_is_honest(params, strike, rate, tau, kind,
                                           literal):
    """The line's value is within 1e-11 of the quote's 32-digit value, and
    its true error is inside the line's own bound, which certifies it
    (ACCURACY_FLOOR of the value)."""
    value, err, true = _line_error(params, strike, rate, tau, kind, literal)
    assert true <= 1e-11 * float(literal)
    assert true <= err <= pricing.ACCURACY_FLOOR * value


def test_moment_line_put_side_cancels_to_the_strike_rounding():
    """A put is K e^{-r tau} + S e^{mu tau} I with I ~ -k, so a deep put
    keeps ~ulp(K) absolute: at alpha 1.99, K 80.016 (put/K ~ 1e-5) it is
    1.5e-11 relative off, inside its bound, which still certifies it."""
    value, err, true = _line_error(
        WINGS_1_99, 80.016, 0.01, 0.0199, "put",
        "0.00099518422931100839775712147138254")
    assert true <= 2.0 * math.ulp(80.016)
    assert true <= err <= pricing.ACCURACY_FLOOR * value


def test_moment_line_underflow_is_proved_by_its_envelope():
    """The test_series_deep_otm_magnitude_guard quote: the call's whole
    envelope on its line, S e^{mu tau} exp(psi(a)) (2/pi) sqrt(a (a - 1)),
    is far below the smallest double, so the line returns 0.0 with a 0.0
    bound (the call is 1.8306651941870424e-3925 in 45-digit arithmetic);
    the price is 0.0 on every route."""
    params = ModelParams.double_fractional(1.8, 1.0, 0.2)
    call = PricingInputs(100.0, 10000.0, 0.0, 0.1)
    assert numerics.moment_line_price(params, call) == (0.0, 0.0)
    assert price(params, call, fallback=True) == 0.0
    assert numerics.reference_price(params, call) == 0.0
    put = PricingInputs(100.0, 10000.0, 0.0, 0.1, OptionKind.PUT)
    assert price(params, put, fallback=True) == 9900.0


def test_moment_line_refuses_near_the_money_at_tiny_scale():
    """At K = S, r = 0 and tau 1e-250 the quote sits on the put side, whose
    line near a = 1/2 cancels (k + I with I ~ -k and a put ~1e-147 S): a
    coded refusal, and the fallback then takes reference_price's value,
    bitwise."""
    params = ModelParams.fmls(1.7, 0.2)
    inp = PricingInputs(100.0, 100.0, 0.0, 1e-250)
    with pytest.raises(numerics.NumericsError) as exc:
        numerics.moment_line_price(params, inp)
    assert exc.value.code == "line_uncertified"
    assert (price(params, inp, fallback=True)
            == numerics.reference_price(params, inp))


def test_moment_line_refusal_codes():
    """The line prices the gamma = 1, alpha < 2 law only, at K > 0; a line
    too long for its panel budget is refused (a tiny scale far from the
    money on the put side)."""
    inp = PricingInputs(100.0, 100.0, 0.01, 0.1)
    for params in (ModelParams.double_fractional(1.7, 0.9, 0.2),
                   ModelParams.double_fractional(2.0, 1.0, 0.2)):
        with pytest.raises(numerics.NumericsError) as exc:
            numerics.moment_line_price(params, inp)
        assert exc.value.code == "line_law"
    with pytest.raises(numerics.NumericsError) as exc:
        numerics.moment_line_price(ModelParams.fmls(1.7, 0.2),
                                   PricingInputs(100.0, 0.0, 0.01, 0.1))
    assert exc.value.code == "line_strike"
    with pytest.raises(numerics.NumericsError) as exc:
        numerics.moment_line_price(ModelParams.fmls(1.2, 0.1),
                                   PricingInputs(100.0, 70.0, 0.01, 1e-6,
                                                 OptionKind.PUT))
    assert exc.value.code == "line_length"


def test_moment_line_fallback_property():
    """200 seeded gamma = 1 quotes that the series refuses (alpha
    U(1.2, 1.98), sigma U(0.1, 0.5), tau log-uniform on [1e-9, 0.1],
    K = 100 e^U(-0.4, 0.4), r 0.01, calls and puts, fmls and dfrac kinds):
    where the line certifies a value, the fallback is that value, within
    1e-10 relative of reference_price; where it refuses, the fallback is
    reference_price's value, floored, bitwise, as before the line."""
    rng = np.random.default_rng(30)
    cells = []
    while len(cells) < 200:
        alpha = float(rng.uniform(1.2, 1.98))
        sigma = float(rng.uniform(0.1, 0.5))
        params = ModelParams(ModelKind.FMLS if rng.random() < 0.5
                             else ModelKind.DOUBLE_FRACTIONAL,
                             alpha, 1.0, sigma)
        inp = PricingInputs(100.0, 100.0 * math.exp(rng.uniform(-0.4, 0.4)),
                            0.01, float(10.0 ** rng.uniform(-9.0, -1.0)),
                            "put" if rng.random() < 0.5 else "call")
        if isinstance(price_grid([(params, inp)])[0], SeriesDivergenceError):
            cells.append((params, inp))
    refused = 0
    for (params, inp), value in zip(cells, price_grid(cells, fallback=True)):
        ref = numerics.reference_price(params, inp)
        try:
            line, _ = numerics.moment_line_price(params, inp)
        except numerics.NumericsError as exc:
            assert exc.code
            refused += 1
            assert value == max(ref, 0.0)
            continue
        assert value == line
        assert abs(line - ref) <= 1e-10 * abs(ref)
    assert 20 <= refused <= 100


SCALE_PARAMS = ModelParams.double_fractional(1.7, 1.5, 0.2)


def _chain_entry(inputs):
    """The quote's entry in a grid of one, raised if it is an exception; the
    grid itself must return."""
    entry, = price_grid([(SCALE_PARAMS, inputs)])
    if isinstance(entry, Exception):
        raise entry
    return entry


def _density(tau):
    mu = risk_neutral(SCALE_PARAMS).mu
    return numerics.green_density(1.7, 1.5, mu, 0.1, tau)


@pytest.mark.parametrize("tau", [1e300, 1e-300])
@pytest.mark.parametrize("entry", [
    lambda tau: price(SCALE_PARAMS, PricingInputs(100.0, 100.0, 0.0, tau)),
    lambda tau: price(SCALE_PARAMS, PricingInputs(100.0, 100.0, 0.0, tau),
                      fallback=True),
    lambda tau: _chain_entry(PricingInputs(100.0, 100.0, 0.0, tau)),
    # K 110 is on the call side of y*, K 90 on the put side
    lambda tau: numerics.reference_price(
        SCALE_PARAMS, PricingInputs(100.0, 110.0, 0.0, tau)),
    lambda tau: numerics.reference_price(
        SCALE_PARAMS, PricingInputs(100.0, 90.0, 0.0, tau)),
    _density,
], ids=["price", "price_fallback", "price_chain", "reference_call_side",
        "reference_put_side", "green_density"])
def test_green_scale_float_range_is_typed(entry, tau):
    """A Green-function scale -mu tau^gamma that overflows, or underflows to
    0, is refused with its code on every route."""
    with pytest.raises(numerics.FracpriceError) as exc:
        entry(tau)
    assert exc.value.code == "scale_float_range"


def _random_params(rng):
    """Black-Scholes, FMLS or double-fractional params, a fifth of the
    latter at gamma = 1."""
    kind, sigma = rng.integers(3), float(rng.uniform(0.05, 0.8))
    if kind == 0:
        return ModelParams.black_scholes(sigma)
    alpha = float(rng.uniform(1.1, 2.0))
    if kind == 1:
        return ModelParams.fmls(alpha, sigma)
    lo, hi = 1.0 - 1.0 / alpha + 1e-3, min(alpha, 1.4)
    gamma = 1.0 if rng.random() < 0.2 else float(rng.uniform(lo, hi))
    return ModelParams.double_fractional(alpha, gamma, sigma)


def test_price_grid_is_per_cell_pricing():
    """Every entry of a grid is bitwise its cell priced alone (value, or
    exception class, code and message), with and without the fallback: a
    seeded grid of all three kinds, K = 0, puts, gamma = 1, cells sharing
    params across spots, rates and maturities, every refusal of the series,
    a drift that does not converge and a scale beyond the float range.  An
    empty grid prices to an empty list."""
    assert price_grid([]) == []
    rng = np.random.default_rng(22)
    params = [_random_params(rng) for _ in range(24)]
    cells = []
    for p in params:
        for _ in range(int(rng.integers(1, 4))):
            spot = float(rng.choice([80.0, 100.0, 130.0]))
            strike = (0.0 if rng.random() < 0.1
                      else spot * math.exp(rng.uniform(-0.4, 0.4)))
            cells.append((p, PricingInputs(
                spot, strike, float(rng.choice([-0.02, 0.0, 0.01, 0.05])),
                float(rng.choice([0.1, 0.5, 1.0])),
                "put" if rng.random() < 0.4 else "call")))
    cells += [(p, PricingInputs(100.0, k, 0.01, tau))
              for p, k, tau, _, _ in REFUSALS]
    cells += [(ModelParams.double_fractional(1.2, 0.72, 5.0),
               PricingInputs(100.0, 100.0, 0.01, 1.0)),       # mu refused
              (SCALE_PARAMS, PricingInputs(100.0, 100.0, 0.0, 1e300))]
    cells = [cells[i] for i in rng.permutation(len(cells))]
    for fallback in (False, True):
        grid = price_grid(cells, fallback)
        assert len(grid) == len(cells)
        for got, (p, inp) in zip(grid, cells):
            assert _entry(got) == _entry(_alone(p, inp, fallback))
        if not fallback:
            codes = {v.code for v in grid if isinstance(v, Exception)}
    assert {code for *_, code, _ in REFUSALS} | {
        "series_terms", "scale_float_range"} <= codes


@pytest.mark.parametrize("params", [
    ModelParams.double_fractional(1.519828230876886, 1.0692022034847368,
                                  0.592376222348078),
    ModelParams.double_fractional(1.7, 0.8, 0.3)])
def test_price_chain_is_one_parameter_group(monkeypatch, params):
    """On the fixture chain, price_grid evaluates mu, the Gamma and B-power
    tables and the band's mean factor once each, for one group: what every
    objective evaluation of a fit costs."""
    calls = []

    def spy(module, name, rows):
        real = getattr(module, name)

        def counted(*args):
            calls.append((name, rows(*args)))
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    spy(pricing, "mu_gamma_series_rows", len)
    spy(numerics, "log_mean_factor", lambda mu, tau, gamma: len(mu))
    spy(pricing, "reciprocal_gamma", np.shape)
    spy(pricing, "_diagonals", np.shape)     # the Gamma and B-power tables
    values = price_grid([(params, inp)
                         for inp in sampledata.fixture_chain().inputs])
    assert any(isinstance(v, float) for v in values)
    table = (1, pricing.SERIES_M_MAX + pricing.SERIES_N_MAX)
    assert calls == [("mu_gamma_series_rows", 1), ("log_mean_factor", 1),
                     ("reciprocal_gamma", table), ("_diagonals", table),
                     ("_diagonals", table)]
