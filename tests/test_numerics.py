import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, loggamma

from fracprice.numerics import (ContourSpec, GreenDensityQuery,
                                NonConvergenceError, NumericsError, PoleError,
                                _density_batch, _run_end, green_density,
                                log_gamma, log_gamma_series, log_mittag_leffler,
                                mb_line_integral, normal_cdf,
                                reciprocal_gamma, reference_price)
from fracprice.model import ModelParams, risk_neutral
from fracprice.pricing import PricingInputs, OptionKind, bs_call


def test_log_gamma_values():
    lg, sign = log_gamma(11.0)
    assert sign == 1.0
    assert abs(lg - 15.104412573075516) < 1e-12   # log(10!)
    lg, sign = log_gamma(0.5)
    assert abs(lg - 0.5 * math.log(math.pi)) < 1e-14
    # Gamma(-1.5) = 4 sqrt(pi) / 3 > 0, Gamma(-0.5) = -2 sqrt(pi) < 0
    lg, sign = log_gamma(-1.5)
    assert sign == 1.0 and abs(math.exp(lg) - 4 * math.sqrt(math.pi) / 3) < 1e-12
    lg, sign = log_gamma(-0.5)
    assert sign == -1.0 and abs(math.exp(lg) - 2 * math.sqrt(math.pi)) < 1e-12


@pytest.mark.parametrize("x", [0.0, -1.0, -7.0, -42.0])
def test_log_gamma_poles(x):
    with pytest.raises(PoleError):
        log_gamma(x)


def test_reciprocal_gamma_total():
    assert reciprocal_gamma(4.0) == pytest.approx(1.0 / 6.0, rel=1e-14)
    # exact zeros at the poles, no exception
    assert reciprocal_gamma(0.0) == 0.0
    assert reciprocal_gamma(-3.0) == 0.0
    assert reciprocal_gamma(-120.0) == 0.0


def test_normal_cdf_values():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-16)
    assert normal_cdf(0.1) == pytest.approx(0.5398278372770290, rel=1e-13)


@given(st.floats(-6.0, 6.0))
def test_normal_cdf_symmetry(x):
    assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)


def test_contour_spec_validation():
    with pytest.raises(NumericsError):
        ContourSpec(abscissa=0.5, half_length=0.0)
    with pytest.raises(NumericsError):
        ContourSpec(abscissa=0.5, nodes=8)
    with pytest.raises(NumericsError):
        ContourSpec(abscissa=0.5, tilt_deg=90.0)


@pytest.mark.parametrize("x", [1.0, 2.5])
def test_mb_cahen_mellin(x):
    """(1/2pi i) int Gamma(s) x^-s ds = e^-x on any abscissa c > 0."""
    spec = ContourSpec(abscissa=0.75, half_length=40.0, nodes=1024)
    v = mb_line_integral(lambda s: np.exp(loggamma(s) - s * math.log(x)), spec)
    assert abs(v.imag) < 1e-12
    assert v.real == pytest.approx(math.exp(-x), rel=1e-10)


@pytest.mark.parametrize("tilt", [0.0, 60.0])
def test_mb_beta_kernel_wedge(tilt):
    """inverse Mellin of pi/sin(pi s) at x=1/2 is 1/(1+x) = 2/3, and the
    value is path-independent across tilted contours that stay in the strip
    of decay."""
    x = 0.5
    spec = ContourSpec(abscissa=0.5, half_length=25.0, nodes=2048,
                       tilt_deg=tilt)
    v = mb_line_integral(
        lambda s: np.exp(loggamma(s) + loggamma(1.0 - s) - s * math.log(x)),
        spec)
    assert abs(v.imag) < 1e-11
    assert v.real == pytest.approx(2.0 / 3.0, rel=1e-10)


def test_mb_non_convergence():
    # a non-decaying integrand changes when the line is lengthened
    spec = ContourSpec(abscissa=0.5, half_length=10.0, nodes=256)
    with pytest.raises(NonConvergenceError):
        mb_line_integral(lambda s: np.ones_like(s), spec)


def test_green_density_gaussian_limit():
    """At alpha=2, gamma=1 the density is N(0, 2 q tau) with q = -mu."""
    mu, tau = -0.02, 1.0
    var = 2.0 * (-mu) * tau
    for x in (0.05, 0.1, 0.3, -0.7, 1.0):
        g = green_density(GreenDensityQuery(2.0, 1.0, mu, x, tau))
        ref = math.exp(-x * x / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
        assert g == pytest.approx(ref, rel=1e-9)


def test_green_density_frozen_point():
    g = green_density(GreenDensityQuery(2.0, 1.0, -0.02, 0.1, 1.0))
    assert g == pytest.approx(1.7603266338214987, rel=1e-10)


def test_green_density_query_validation():
    with pytest.raises(NumericsError):
        GreenDensityQuery(2.5, 1.0, -0.02, 0.1, 1.0)
    with pytest.raises(NumericsError):
        GreenDensityQuery(1.5, 1.6, -0.02, 0.1, 1.0)   # gamma > alpha
    with pytest.raises(NumericsError):
        GreenDensityQuery(1.5, 1.0, 0.02, 0.1, 1.0)    # mu must be < 0
    with pytest.raises(NumericsError):
        GreenDensityQuery(1.5, 1.0, -0.02, 0.1, -1.0)  # tau must be > 0


def test_green_density_rejects_gamma_near_alpha():
    # the thin-side contour stops decaying as gamma -> alpha
    with pytest.raises(NonConvergenceError):
        green_density(GreenDensityQuery(1.5, 1.5, -0.05, 0.3, 1.0))


def test_density_batch_norm():
    """Coarse normalization sanity; the tight check lives in acceptance."""
    for alpha, gamma in ((1.7, 0.9), (1.3, 1.1)):
        ys = np.concatenate([np.linspace(-25, -1e-3, 4000),
                             np.linspace(1e-3, 25, 4000)])
        g = _density_batch(ys, alpha, gamma, 0.2)
        assert np.trapezoid(g, ys) == pytest.approx(1.0, abs=2e-3)


def test_reference_price_matches_black_scholes():
    params = ModelParams.double_fractional(2.0, 1.0, 0.25)
    for strike in (80.0, 100.0, 125.0):
        inputs = PricingInputs(100.0, strike, 0.03, 0.75)
        ref = reference_price(params, inputs)
        assert ref == pytest.approx(bs_call(inputs, 0.25), rel=1e-8)


def test_reference_price_put_parity():
    params = ModelParams.double_fractional(1.7, 1.0, 0.2)
    call_in = PricingInputs(100.0, 110.0, 0.02, 0.5, OptionKind.CALL)
    put_in = PricingInputs(100.0, 110.0, 0.02, 0.5, OptionKind.PUT)
    c = reference_price(params, call_in)
    p = reference_price(params, put_in)
    k_disc = 110.0 * math.exp(-0.02 * 0.5)
    assert c - p == pytest.approx(100.0 - k_disc, abs=1e-7)


def test_reference_price_zero_strike_gamma1():
    params = ModelParams.double_fractional(1.6, 1.0, 0.3)
    inputs = PricingInputs(250.0, 0.0, 0.02, 1.5, OptionKind.CALL)
    assert reference_price(params, inputs) == pytest.approx(250.0, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 2.0), st.floats(-3.0, 3.0))
def test_green_density_positive_in_bulk(tau, x):
    if abs(x) < 1e-6:
        return
    params = ModelParams.double_fractional(1.8, 0.9, 0.25)
    mu = risk_neutral(params).mu
    g = green_density(GreenDensityQuery(1.8, 0.9, mu, x, tau))
    assert g >= 0.0


@pytest.mark.parametrize("gamma, closed_form", [
    (1.0, lambda z: z),
    (2.0, lambda z: math.log(math.cosh(math.sqrt(z)))),
    (0.5, lambda z: z * z + math.log(erfc(-z))),
])
def test_log_mittag_leffler_closed_forms(gamma, closed_form):
    """E_1 = e^z, E_2 = cosh sqrt z, E_1/2 = e^{z^2} erfc(-z), across the
    summed range and into the asymptotic one (E_1/2 needs ~2000 terms at 30)."""
    for z in np.linspace(0.0, 30.0, 121):
        assert log_mittag_leffler(float(z), gamma) == pytest.approx(
            closed_form(float(z)), rel=1e-13, abs=1e-300)


def test_log_gamma_series_budget():
    # e^z at a == b; terms that never turn over within the budget raise
    assert log_gamma_series(3.5, 1.7, 1.7, 1e-12, 64) == (3.5, 1)
    assert log_gamma_series(0.0, 1.7, 1.2, 1e-12, 64) == (0.0, 0)
    with pytest.raises(NonConvergenceError):
        log_gamma_series(50.0, 1.0, 0.5, 1e-12, 64)


@pytest.mark.parametrize("mask,k,end", [
    ([1, 1, 1, 0, 0], 3, 3),          # run at the start
    ([0, 1, 1, 1, 0, 1, 1, 1], 3, 4),  # first of two runs, in the middle
    ([0, 0, 1, 0, 1, 1, 1], 3, 7),    # run at the end
    ([1, 1, 0, 1, 1, 0], 3, None),    # no run long enough
    ([], 3, None),
    ([1, 1], 3, None),                # shorter than k
    ([0, 0, 1, 0], 1, 3),             # k = 1: first True
    ([0, 0, 0], 1, None),
])
def test_run_end(mask, k, end):
    assert _run_end(np.array(mask, bool), k) == end
