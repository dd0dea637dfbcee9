import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracprice import pricing
from fracprice.model import ModelParams, ValidationError, risk_neutral
from fracprice.pricing import (DEFAULT_POLICY, SMILE_POLICY, OptionKind,
                               ParityError, PricingInputs,
                               SeriesDivergenceError, TruncationMode,
                               TruncationPolicy, _band_bounds, bs_call,
                               dfrac_call_series, partial_sum_table, price,
                               put_from_parity)

FIG3_INPUTS = PricingInputs(3800.0, 4000.0, 0.01, 1.0)
FIG3_PARAMS = ModelParams.double_fractional(1.7, 0.9, 0.2)


def test_bs_call_atm_frozen():
    inp = PricingInputs(100.0, 100.0, 0.0, 1.0)
    assert bs_call(inp, 0.2) == pytest.approx(7.965567455405754, rel=1e-12)


def test_bs_call_zero_strike():
    inp = PricingInputs(100.0, 0.0, 0.05, 2.0)
    assert bs_call(inp, 0.2) == 100.0


def test_bs_call_rejects_bad_sigma():
    with pytest.raises(ValidationError):
        bs_call(PricingInputs(100.0, 100.0, 0.0, 1.0), 0.0)


def test_pricing_inputs_validation():
    with pytest.raises(ValidationError):
        PricingInputs(0.0, 100.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        PricingInputs(100.0, -5.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        PricingInputs(100.0, 100.0, 0.0, 0.0)


def test_truncation_policy_validation():
    with pytest.raises(ValidationError):
        TruncationPolicy(n_max=-1)
    with pytest.raises(ValidationError):
        TruncationPolicy(m_max=0)
    with pytest.raises(ValidationError):
        TruncationPolicy(tolerance=0.0)
    # n_max=0 is a legal degenerate truncation: only the n=0 column.
    assert TruncationPolicy(n_max=0).n_max == 0
    assert SMILE_POLICY.mode is TruncationMode.FIXED
    assert SMILE_POLICY.n_max == 4 and SMILE_POLICY.m_max == 4


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


def test_series_fixed_4x4_value():
    val, diag = dfrac_call_series(FIG3_PARAMS, FIG3_INPUTS,
                                  policy=SMILE_POLICY)
    assert val == pytest.approx(290.105447344322, rel=1e-10)
    assert diag.terms_used == 5 * 4   # (n_max+1) * m_max


def test_series_partial_sum_shapes():
    diag = partial_sum_table(FIG3_PARAMS, FIG3_INPUTS)
    assert len(diag.partial_sums_n) == DEFAULT_POLICY.n_max + 1
    assert 1 <= len(diag.partial_sums_m) <= DEFAULT_POLICY.m_max
    assert diag.partial_sums_m[-1] == pytest.approx(290.128688083696,
                                                    rel=1e-10)


def test_series_m_sums_monotone_n_sums_oscillate():
    diag = partial_sum_table(FIG3_PARAMS, FIG3_INPUTS)
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


def test_band_bounds_deep_mittag_leffler_argument():
    """-mu tau^gamma = 31 at gamma = 0.6 is past the summed range of the
    Mittag-Leffler series; the bounds then use its leading asymptotic."""
    params = ModelParams.double_fractional(1.7, 0.6, 1.0)
    mu = risk_neutral(params).mu
    inp = PricingInputs(100.0, 100.0, 0.01, 100.0)
    z = -mu * inp.tau ** 0.6
    assert z >= 25.0
    lower, upper = _band_bounds(params, inp, mu)
    assert 0.0 <= lower <= upper < math.inf
    assert math.log(upper / inp.spot) == pytest.approx(
        mu * inp.tau + z ** (1.0 / 0.6) - math.log(0.6), rel=1e-12)
    # a mean factor beyond the float range is a divergence, not an overflow
    with pytest.raises(SeriesDivergenceError):
        _band_bounds(params, PricingInputs(100.0, 100.0, 0.01, 1000.0), mu)


def test_price_short_n_truncation_fails_n_tail_check():
    """n_max bounds the series only: mu keeps its own term budget, and the
    short n range is rejected by the dropped-n-tail certification."""
    with pytest.raises(SeriesDivergenceError, match="dropped n-tail"):
        price(FIG3_PARAMS, FIG3_INPUTS, TruncationPolicy(n_max=5))


def test_mu_does_not_depend_on_pricing_truncation(monkeypatch):
    """price() uses the model's mu whatever TruncationPolicy it is given."""
    used = []
    real = pricing.dfrac_call_series

    def spy(params, inputs, mu=None, policy=None):
        used.append(mu)
        return real(params, inputs, mu, policy)

    monkeypatch.setattr(pricing, "dfrac_call_series", spy)
    price(FIG3_PARAMS, FIG3_INPUTS, TruncationPolicy(tolerance=1e-4))
    assert used == [risk_neutral(FIG3_PARAMS).mu]

