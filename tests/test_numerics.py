import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, gammaln

from fracprice import model, numerics, quadrature
from fracprice.numerics import (_GL24, NonConvergenceError, NumericsError,
                                _gauss_panels, _run_end, green_density,
                                green_scale, log_gamma_series,
                                log_mean_factor, log_mittag_leffler,
                                normal_cdf, reciprocal_gamma, reference_price)
from fracprice.quadrature import (_analytic_strip, _density_batch,
                                  _GreenContext, _line_set, _line_sums,
                                  _mellin_log_ratio, _mellin_log_slope,
                                  _payoff_upper_cutoff, _saddle_scans,
                                  _tail_masses)
from fracprice.model import ModelParams, RiskNeutralParam, risk_neutral
from fracprice.pricing import PricingInputs, OptionKind, bs_call, price_grid

_GL32 = np.polynomial.legendre.leggauss(32)


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


def test_mb_non_convergence():
    """Near gamma = 1 - 1/alpha the contour drift's integrand decays too
    slowly on its line for the value to survive doubling the line's length
    and nodes, and it is refused; the series still sums."""
    p = ModelParams.double_fractional(1.1, 0.2, 0.2)
    with pytest.raises(NonConvergenceError) as exc:
        model.mu_gamma_mb(p)
    assert exc.value.code == "line_unstable"
    assert repr(model.mu_gamma_series(p).mu) == "-1.9580355229566428"


def test_green_density_gaussian_limit():
    """At alpha=2, gamma=1 the density is N(0, 2 q tau) with q = -mu."""
    mu, tau = -0.02, 1.0
    var = 2.0 * (-mu) * tau
    for x in (0.05, 0.1, 0.3, -0.7, 1.0):
        g = green_density(2.0, 1.0, mu, x, tau)
        ref = math.exp(-x * x / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
        assert g == pytest.approx(ref, rel=1e-9)


def test_green_density_frozen_point():
    g = green_density(2.0, 1.0, -0.02, 0.1, 1.0)
    assert g == pytest.approx(1.7603266338214987, rel=1e-10)


def test_green_density_query_validation():
    """The arguments are checked in order, each before the point's own
    refusals (x = 0 is density_origin once the arguments pass)."""
    for args, code in (((2.5, 1.0, -0.02, 0.1, 1.0), "alpha_range"),
                       ((1.5, 1.6, -0.02, 0.1, 1.0), "gamma_range"),
                       ((1.5, 1.0, 0.02, 0.1, 1.0), "mu_negative"),
                       ((1.5, 1.0, -0.02, 0.1, -1.0), "tau_positive"),
                       ((2.5, 1.6, 0.02, 0.0, -1.0), "alpha_range"),
                       ((1.5, 1.0, 0.02, math.nan, -1.0), "mu_negative"),
                       ((1.5, 1.0, -0.02, 0.0, -1.0), "tau_positive"),
                       ((1.5, 1.0, -0.02, 0.0, 1.0), "density_origin")):
        with pytest.raises(NumericsError) as exc:
            green_density(*args)
        assert exc.value.code == code


def test_green_density_rejects_gamma_near_alpha():
    # the thin-side contour stops decaying as gamma -> alpha
    with pytest.raises(NonConvergenceError):
        green_density(1.5, 1.5, -0.05, 0.3, 1.0)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_green_density_query_refuses_non_finite_x(x):
    """x = +-inf raised a bare ValueError inside the batch, and x = nan
    returned 0.0."""
    with pytest.raises(NumericsError) as exc:
        green_density(2.0, 1.0, -0.1, x, 1.0)
    assert exc.value.code == "x_finite"


ELL_01 = math.sqrt(0.1)      # the scale at mu = -0.1, tau = 1, alpha = 2


@pytest.mark.parametrize("x", [0.999e-12 * ELL_01, 1e-20 * ELL_01, 1e-40,
                               1e-100 * ELL_01, 5e-324])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_green_density_refuses_points_near_the_origin(x, sign):
    """At (2, 1), mu = -0.1, tau = 1 the true density near 0 is 0.8921; the
    line at Re t = 0.6 cancelled to 9231.77 at x = 1e-40, 0.0 at
    1e-100 ell and 1.1e160 at 5e-324.  Below |x| = 1e-12 ell it is
    refused."""
    with pytest.raises(NumericsError) as exc:
        green_density(2.0, 1.0, -0.1, sign * x, 1.0)
    assert exc.value.code == "density_near_origin"


def test_green_scale_refuses_a_negative_tau():
    """tau^gamma is complex at tau < 0 and non-integer gamma, and real and
    positive at an even integer gamma: both refused as a scale outside
    (0, inf), with one message; at tau > 0 the scale is -mu tau^gamma to
    the bit."""
    for g in (0.9, 2.0):
        with pytest.raises(NumericsError) as exc:
            green_scale(-0.1, -1.0, g)
        assert exc.value.code == "scale_float_range"
        assert str(exc.value) == ("Green-function scale leaves the float "
                                  "range at tau=-1")
    for t, g in ((1.3, 0.9), (0.02, 1.07), (3e5, 1.6)):
        assert green_scale(-0.1, t, g) == 0.1 * t ** g


def test_green_density_refuses_x_over_scale_overflow():
    """|x| / ell overflows at x = 1e308 (ell = 0.17): refused, where the
    density batch raised a bare ValueError from a NaN abscissa."""
    with pytest.raises(NumericsError) as exc:
        green_density(1.7, 0.9, -0.05, 1e308)
    assert exc.value.code == "x_float_range"


@pytest.mark.parametrize("ratio", [1.000001e-12, 2e-12, 1e-10, 1e-8])
def test_green_density_near_the_origin_is_accurate(ratio):
    """Down to |x| = 1e-12 ell the Gaussian limit holds to 5e-10 (3.3e-10
    measured at the threshold itself)."""
    for x in (ratio * ELL_01, -ratio * ELL_01):
        g = green_density(2.0, 1.0, -0.1, x, 1.0)
        ref = math.exp(-x * x / 0.4) / math.sqrt(2.0 * math.pi * 0.2)
        assert abs(g - ref) <= 5e-10 * ref


def test_density_batch_norm():
    """Coarse normalization sanity; the tight check lives in acceptance."""
    for alpha, gamma in ((1.7, 0.9), (1.3, 1.1)):
        ys = np.concatenate([np.linspace(-25, -1e-3, 4000),
                             np.linspace(1e-3, 25, 4000)])
        g = _density_batch(ys, _GreenContext(alpha, gamma), 0.2)
        mass = float(0.5 * ((g[1:] + g[:-1]) * np.diff(ys)).sum())
        assert mass == pytest.approx(1.0, abs=2e-3)


def test_reference_price_matches_black_scholes():
    params = ModelParams.double_fractional(2.0, 1.0, 0.25)
    for strike in (80.0, 100.0, 125.0):
        inputs = PricingInputs(100.0, strike, 0.03, 0.75)
        ref = reference_price(params, inputs)
        assert ref == pytest.approx(bs_call(inputs, 0.25), rel=1e-8)


def test_reference_price_put_parity():
    """A put is the package's parity P = C - S + K e^{-r tau} at every
    gamma, on both sides of y* = 0 (y* = 0 near K = 103 here) and at
    K = 0; the direct put integral differs from it by S (1 - X)."""
    for gamma in (0.8, 0.9, 1.0, 1.1, 1.2):
        params = ModelParams.double_fractional(1.7, gamma, 0.2)
        for strike in (0.0, 70.0, 90.0, 110.0, 130.0):
            call_in = PricingInputs(100.0, strike, 0.02, 0.5, OptionKind.CALL)
            put_in = PricingInputs(100.0, strike, 0.02, 0.5, OptionKind.PUT)
            c = reference_price(params, call_in)
            p = reference_price(params, put_in)
            k_disc = strike * math.exp(-0.02 * 0.5)
            assert abs(c - p - (100.0 - k_disc)) <= 1e-12 * 100.0


def test_reference_price_zero_strike_gamma1():
    params = ModelParams.double_fractional(1.6, 1.0, 0.3)
    inputs = PricingInputs(250.0, 0.0, 0.02, 1.5, OptionKind.CALL)
    assert reference_price(params, inputs) == pytest.approx(250.0, rel=1e-9)


@pytest.mark.parametrize("params,tau", [
    (ModelParams.black_scholes(0.2), 1e-150),
    (ModelParams.black_scholes(0.2), 1e-318),
    (ModelParams.double_fractional(1.3, 1.2, 0.5), 100.0),
])
def test_reference_price_zero_strike_is_mean_factor(params, tau):
    """At K = 0 the call is S X and the put S (X - 1) exactly, also where a
    payoff integral goes wrong: at tau 1e-150 its nodes span ~200 units of
    log X (it gave 161 S), at tau 100 e^y moves the payoff's mass deep into
    the thin tail (it gave 1.4e-7 above S X)."""
    mu = risk_neutral(params).mu
    log_x, = log_mean_factor([mu], [tau], [params.gamma])
    for kind, value in (("call", 100.0 * math.exp(log_x)),
                        ("put", 100.0 * float(np.expm1(log_x)))):
        inputs = PricingInputs(100.0, 0.0, 0.0, tau, kind)
        assert reference_price(params, inputs) == value


@pytest.mark.parametrize("kind", ["call", "put"])
def test_reference_price_outside_band_is_refused(kind):
    """Where e^y amplifies density noise deep in the thin tail (ell ~ 320,
    y* ~ 454 here) the call integral is 9.7e72 against S X = 4.4e29; a value
    outside the arbitrage band is refused, not returned."""
    params = ModelParams.double_fractional(1.3, 1.2, 0.5)
    with pytest.raises(NumericsError) as exc:
        reference_price(params, PricingInputs(100.0, 50.0, 0.0, 1000.0, kind))
    assert exc.value.code == "band"


def _fine_ladder(a, b, scale):
    """GL32 on [a, b], its edges 0 and +-scale 1e-8 1.05^k: a grid of its
    own, far finer than reference_price's payoff grid."""
    n = math.ceil(math.log(max(abs(a), abs(b)) / (scale * 1e-8))
                  / math.log(1.05))
    d = scale * 1e-8 * 1.05 ** np.arange(n + 1)
    edges = {a, b, 0.0} | set(d.tolist()) | set((-d).tolist())
    return _gauss_panels(sorted(e for e in edges if a <= e <= b), _GL32)


def _direct_call(params, inputs, mu):
    """The call payoff integrated against the density from y* up, the way
    reference_price integrates an out-of-the-money call, on a fine ladder
    of its own."""
    alpha, gamma = params.alpha, params.gamma
    ctx = _GreenContext(alpha, gamma)
    S, K, r, tau = inputs.spot, inputs.strike, inputs.rate, inputs.tau
    ell = (-mu * tau ** gamma) ** (1.0 / alpha)
    fwd = S * math.exp((r + mu) * tau)
    ystar = -(math.log(S / K) + r * tau) - mu * tau
    assert ystar < 0.0                      # in the money
    yhi = _payoff_upper_cutoff(ystar, ctx, ell,
                               math.log(1e-15 * max(K, fwd) / fwd))
    ys, ws = _fine_ladder(ystar, yhi, ell)
    g = _density_batch(ys, ctx, ell)
    return inputs.discount * float(((fwd * np.exp(ys) - K) * g) @ ws)


@pytest.mark.parametrize("alpha, gamma", [(1.5, 1.0), (1.7, 0.9),
                                          (1.9, 1.1), (2.0, 1.0)])
def test_in_the_money_call_matches_direct_integral(alpha, gamma):
    """An in-the-money call is priced as the out-of-the-money put plus
    parity under the mean factor; it agrees with the call integral."""
    params = ModelParams.double_fractional(alpha, gamma, 0.2)
    mu = risk_neutral(params).mu
    for strike, tau in ((80.0, 0.25), (90.0, 1.0)):
        inputs = PricingInputs(100.0, strike, 0.01, tau)
        assert reference_price(params, inputs) == pytest.approx(
            _direct_call(params, inputs, mu), rel=1e-12)


@pytest.mark.parametrize("strike", [70.0, 80.0])
def test_deep_in_the_money_short_maturity_call(strike):
    inputs = PricingInputs(100.0, strike, 0.01, 0.02)
    params = ModelParams.double_fractional(2.0, 1.0, 0.2)
    assert reference_price(params, inputs) == pytest.approx(
        bs_call(inputs, 0.2), rel=1e-10)


def test_in_the_money_call_mean_factor_overflow(monkeypatch):
    # E_0.4(15.07) ~ exp(882): the mean factor S X is beyond the float range
    params = ModelParams.double_fractional(1.5, 0.4, 0.3)
    inputs = PricingInputs(100.0, 90.0, 0.01, 1e-4)
    monkeypatch.setattr(model, "risk_neutral",
                        lambda params: RiskNeutralParam(-600.0, 0))
    with pytest.raises(NumericsError, match="mean factor"):
        reference_price(params, inputs)


def test_tilted_tail_that_rises_is_typed():
    """At mu tau = -528 the call's y* = 526 is 15 scales out, but the thin
    tail falls slower than e^-y up to y ~ 3000: the tilted tail integrand
    e^y P[y' > y] rises from y* by ~e^1800, and its fine rule overflowed
    with a RuntimeWarning.  The mean factor is beyond the float range too,
    so the quote is refused with that code, also as a fallback entry."""
    params = ModelParams.double_fractional(
        1.4228651307780038, 0.594792461728685, 2.1207875403860674)
    inputs = PricingInputs(18.55856168028587, 0.00715234694251475,
                           -0.26646206264592764, 21.70401036298845)
    with pytest.raises(NumericsError) as exc:
        reference_price(params, inputs)
    assert exc.value.code == "mean_factor_overflow"
    entry, = price_grid([(params, inputs)], fallback=True)
    assert entry.code == "mean_factor_overflow"


def test_tilted_tail_that_rises_is_not_negligible():
    """The same quote's tilted tail, asked whether it is below 1.0.  At y*
    the integrand is e^489, and twice that times the search's distance,
    times scale (7e-229), is far below 1.0; but the integrand rises by
    ~e^1800 past y*, so the bound takes the largest value the cutoff
    search probed, and the rule runs (to inf) where the tail used to be
    dropped as 0.0."""
    params = ModelParams.double_fractional(
        1.4228651307780038, 0.594792461728685, 2.1207875403860674)
    inputs = PricingInputs(18.55856168028587, 0.00715234694251475,
                           -0.26646206264592764, 21.70401036298845)
    mu, tau = risk_neutral(params).mu, inputs.tau
    ell = green_scale(mu, tau, params.gamma) ** (1.0 / params.alpha)
    scale = inputs.discount * inputs.spot * math.exp((inputs.rate + mu) * tau)
    tail = quadrature._tilted_tail_call(
        -inputs.log_fwd - mu * tau, _GreenContext(params.alpha, params.gamma),
        ell, scale, 1.0)
    assert tail == math.inf


WINGS_1 = ModelParams.double_fractional(1.797601, 1.153399,
                                        0.20003798352608604)


@pytest.mark.parametrize("params, inputs, pin", [
    # seed-1 wings quotes whose calls run through _tilted_tail_call
    (WINGS_1, PricingInputs(100.0, 115.04215598838073, 0.011012120830808712,
                            0.05001088888446653), "0x1.395de0d9452a3p-75"),
    (WINGS_1, PricingInputs(100.0, 129.91982022734524, 0.011012120830808712,
                            0.05001088888446653), "0x1.ad2603fea547cp-392"),
    # y* < 0: the heavy-side put integral and its tail mass
    (ModelParams.double_fractional(1.7, 0.9, 0.2),
     PricingInputs(100.0, 90.0, 0.02, 0.5, OptionKind.PUT),
     "0x1.984329c2a95d8p+1"),
    (ModelParams.double_fractional(2.0, 1.0, 0.25),
     PricingInputs(100.0, 125.0, 0.03, 0.75), "0x1.23d8decb907dcp+1"),
    (ModelParams.fmls(1.6, 0.25), PricingInputs(100.0, 102.0, 0.01, 0.05),
     "0x1.00eaa6c5388afp+0"),
    # the wings workload's fault call at gamma != 1, A < 0
    (ModelParams.double_fractional(2.0, 0.8, 0.2),
     PricingInputs(100.0, 80.0, 0.01, 0.02), "0x1.4179b1874c798p+4"),
])
def test_reference_price_pins(params, inputs, pin):
    """Bitwise pins, one quote per quadrature branch, as priced with the
    density lines spaced by the Gamma ratio's curvature and the payoffs as
    K expm1(y - y*)."""
    assert reference_price(params, inputs).hex() == pin


@pytest.mark.parametrize("params, inputs, lines, nodes", [
    (WINGS_1, PricingInputs(100.0, 129.91982022734524, 0.011012120830808712,
                            0.05001088888446653), 33, 21891),
    (WINGS_1, PricingInputs(100.0, 115.04215598838073, 0.011012120830808712,
                            0.05001088888446653), 17, 10786),
    (ModelParams.double_fractional(1.7, 0.9, 0.2),
     PricingInputs(100.0, 90.0, 0.02, 0.5, OptionKind.PUT), 3, 2430),
    (ModelParams.double_fractional(2.0, 1.0, 0.25),
     PricingInputs(100.0, 125.0, 0.03, 0.75), 4, 2918),
    (ModelParams.fmls(1.6, 0.25), PricingInputs(100.0, 102.0, 0.01, 0.05),
     4, 3302)])
def test_reference_price_work(monkeypatch, params, inputs, lines, nodes):
    """Work guard: the contour lines summed and the Gamma-ratio nodes
    evaluated (scan windows, line set-up and line nodes) in one
    reference_price call.  The two seed-1 wings calls run through tail
    masses alone, one line per distinct saddle, as before (33 lines and
    21,891 nodes; 17 and 10,786).  The other three quotes take density
    batches: with lines spaced by the Gamma ratio's curvature they summed
    7, 37 and 42 lines and evaluated 4,106, 19,709 and 24,888 nodes."""
    ratio, sums = quadrature._mellin_log_ratio, quadrature._line_sums
    seen = {"lines": 0, "nodes": 0}

    def spy_ratio(t, *args):
        seen["nodes"] += np.size(t)
        return ratio(t, *args)

    def spy_sums(*args):
        seen["lines"] += 1
        return sums(*args)

    monkeypatch.setattr(quadrature, "_mellin_log_ratio", spy_ratio)
    monkeypatch.setattr(quadrature, "_line_sums", spy_sums)
    reference_price(params, inputs)
    assert seen["lines"] <= lines and seen["nodes"] <= nodes


@pytest.mark.parametrize("params, inputs, points", [
    (ModelParams.double_fractional(1.7, 0.9, 0.2),
     PricingInputs(100.0, 90.0, 0.02, 0.5, OptionKind.PUT), 408),
    (ModelParams.double_fractional(2.0, 1.0, 0.25),
     PricingInputs(100.0, 125.0, 0.03, 0.75), 144),
    (ModelParams.fmls(1.6, 0.25), PricingInputs(100.0, 102.0, 0.01, 0.05),
     168)])
def test_reference_price_density_points(monkeypatch, params, inputs,
                                        points):
    """Work guard on the payoff grid: the points one reference_price call
    passes to density batches, for the three density-batch quotes of
    test_reference_price_work.  On 1.18-graded GL32 payoff panels they
    passed 1,280, 448 and 512."""
    batch, seen = quadrature._density_batch, []

    def spy_batch(xs, *args):
        seen.append(np.size(xs))
        return batch(xs, *args)

    monkeypatch.setattr(quadrature, "_density_batch", spy_batch)
    reference_price(params, inputs)
    assert sum(seen) <= points


def test_quadrature_calls_through_numerics_names(monkeypatch):
    """The quadrature looks up its density batch, green_scale and
    log_mean_factor on the numerics module at each call: the attributes
    that bench/tracing.py wraps to count density points and numerics
    calls, which would otherwise read fewer calls than are made."""
    seen = []
    for name in ("_density_batch", "green_scale", "log_mean_factor"):
        def spy(*args, _fn=getattr(numerics, name), _name=name):
            seen.append(_name)
            return _fn(*args)
        monkeypatch.setattr(numerics, name, spy)
    reference_price(ModelParams.fmls(1.6, 0.25),
                    PricingInputs(100.0, 102.0, 0.01, 0.05))
    assert set(seen) == {"_density_batch", "green_scale", "log_mean_factor"}
    seen.clear()
    green_density(1.7, 0.9, -0.05, 0.1)
    assert sorted(seen) == ["_density_batch", "green_scale"]


def test_density_batch_and_tail_masses_pins():
    """Bitwise pins of a mixed-sign density batch and of tail masses on
    both sides, at (alpha, gamma) = (1.7, 0.9), ell = 0.1."""
    xs = 0.1 * np.array([-30.0, -4.0, -1.0, -0.2, -0.01,
                         0.01, 0.2, 1.0, 4.0, 12.0])
    Ys = 0.1 * np.array([0.5, 3.0, 20.0])
    ctx = _GreenContext(1.7, 0.9)
    g = _density_batch(xs, ctx, 0.1)
    assert [float(v).hex() for v in g] == [
        "0x1.c3b7a59291d07p-12", "0x1.0851e72dd3655p-3",
        "0x1.7dae229673549p+0", "0x1.551f6f7213f20p+1",
        "0x1.89bf9be88f4e4p+1", "0x1.907ef434d8959p+1",
        "0x1.946735f85bf63p+1", "0x1.532363bc41b0bp+1",
        "0x1.7114f474ea316p-5", "0x1.a937fafac7457p-64"]
    thin = _tail_masses(Ys, ctx, 0.1, False)
    assert [float(v).hex() for v in thin] == [
        "0x1.b999bfe7144fbp-2", "0x1.12b8224a3c350p-6",
        "0x1.a9f21b212a3bfp-199"]
    heavy = _tail_masses(Ys, ctx, 0.1, True)
    assert [float(v).hex() for v in heavy] == [
        "0x1.20ebd2aaa5879p-2", "0x1.7d9eb5f7a7f26p-5",
        "0x1.8d071d92f4c37p-10"]


@pytest.mark.parametrize("params, inputs", [
    (WINGS_1, PricingInputs(100.0, 129.91982022734524, 0.011012120830808712,
                            0.05001088888446653)),
    (ModelParams.double_fractional(1.7, 0.9, 0.2),
     PricingInputs(100.0, 90.0, 0.02, 0.5, OptionKind.PUT)),
    (ModelParams.double_fractional(2.0, 1.0, 0.25),
     PricingInputs(100.0, 125.0, 0.03, 0.75))])
def test_reference_price_scans_each_window_once(monkeypatch, params, inputs):
    """The call's saddle scans (the payoff cutoff's, each density batch's,
    each tail-mass batch's) share one Gamma-ratio evaluation per scan
    window: no window is evaluated twice, and scans did run."""
    ratio, windows = quadrature._mellin_log_ratio, []

    def spy(t, *args):
        t = np.asarray(t)
        if t.size == 321 and np.all(t.imag == 0.5):
            windows.append((t.real.tobytes(), args))
        return ratio(t, *args)

    monkeypatch.setattr(quadrature, "_mellin_log_ratio", spy)
    reference_price(params, inputs)
    assert windows and len(set(windows)) == len(windows)


def _scan_loop(logX, alpha, gamma, heavy, deep):
    """Reference: one saddle scan, its strip evaluated for this point alone."""
    lo, hi = _analytic_strip(alpha, heavy)
    while True:
        cs = np.linspace(lo, hi, 321)
        obj = _mellin_log_ratio(cs + 0.5j, alpha, gamma, heavy).real + cs * logX
        i = int(np.argmin(obj))
        if (heavy and alpha < 2.0) or not deep or i > 4 or lo < -1e5:
            return float(cs[i]), float(obj[i])
        lo *= 4.0


@pytest.mark.parametrize("heavy, deep", [(False, False), (False, True),
                                         (True, False), (True, True)])
def test_saddle_scans_match_scalar_scan(heavy, deep):
    """Bitwise: only the shared strip evaluation moved out of the loop.
    Thin-side points deep in the tail widen the window several times."""
    logX = np.concatenate([np.linspace(-4.0, 9.0, 150), [2.5, 2.5]])
    for alpha, gamma in ((1.7, 0.9), (2.0, 1.0), (1.3, 1.1)):
        c, env = _saddle_scans(logX, _GreenContext(alpha, gamma), heavy,
                               deep)
        ref = [_scan_loop(float(x), alpha, gamma, heavy, deep) for x in logX]
        assert c.tolist() == [r[0] for r in ref]
        assert env.tolist() == [r[1] for r in ref]


def _line(c, alpha, gamma, heavy, env_cap, logX):
    """One line through c, set up as a set of one."""
    return _line_set([c], _GreenContext(alpha, gamma), heavy, [env_cap],
                     [np.min(logX)], [np.max(logX)])[0]


def _line_sums_loop(logX, t, v):
    """Reference: the line sum node by node, one rotation e^(i y_k log X)
    per node and point."""
    y = t.imag
    return np.array([float(v.real @ np.cos(y * x) - v.imag @ np.sin(y * x))
                     for x in logX])


@pytest.mark.parametrize("alpha, gamma", [(1.7, 0.9), (2.0, 1.0),
                                          (1.8, 1.15)])
@pytest.mark.parametrize("heavy, c", [(False, -4.0), (True, -1.0)])
@pytest.mark.parametrize("osc", [0.5, 4.0, 20.0])
def test_line_sums_match_node_by_node(alpha, gamma, heavy, c, osc):
    """The factored sum (panel phases times offset phases on the uniform
    panels) is the node-by-node sum to rounding, on lines with a graded head
    and a uniform run, from one point to 600 spread over +-osc."""
    t, w, panels = _line(c, alpha, gamma, heavy, -40.0,
                         np.array([-osc, osc]))
    mids, half, head = panels
    assert 0 < head < len(mids) and t.size == 24 * len(mids)
    lr = _mellin_log_ratio(t, alpha, gamma, heavy)
    v = w * np.exp(lr - lr.real.max())
    for n in (1, 37, 600):
        logX = np.linspace(-osc, osc, n) if n > 1 else np.array([osc])
        got = _line_sums(logX, t, v, panels)
        ref = _line_sums_loop(logX, t, v)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(v).sum())


def _finer(line, n=8):
    """The same line (nodes, weights, panels) with every panel cut into n
    equal GL24 panels."""
    t, w, (mids, half, head) = line
    xg, wg = _GL24
    hp = w.reshape(-1, 24)[:, 0] / wg[0]           # each panel's half-width
    mids = (mids[:, None]
            + hp[:, None] * ((2.0 * np.arange(n) + 1.0) / n - 1.0)).ravel()
    hp = np.repeat(hp / n, n)
    ys = (mids[:, None] + hp[:, None] * xg).ravel()
    return (t.real[0] + 1j * ys, (hp[:, None] * wg).ravel(),
            (mids, half / n, n * head))


def _same_line(a, b):
    (t, w, (mids, half, head)), (u, v, (nids, malf, nead)) = a, b
    return (t.tobytes() == u.tobytes() and w.tobytes() == v.tobytes()
            and mids.tobytes() == nids.tobytes() and half == malf
            and head == nead)


@pytest.mark.parametrize("alpha, gamma, heavy, cs, env_caps, lx", [
    # deep thin (a wings tail-mass line), shallow thin, and at the strip edge
    (1.797601, 1.153399, False, [-1407.73, -4.0, -0.3, 0.6],
     [3519.92, -40.0, -30.0, -35.0], [(2.8828, 2.8828), (-1.0, 3.0),
                                      (-4.0, 0.5), (-8.0, -2.0)]),
    (2.0, 1.0, False, [-200.0, -12.5, -1.0], [500.0, -20.0, -38.0],
     [(8.0, 9.0), (0.5, 2.0), (-3.0, 1.0)]),
    # heavy lines, the first 0.2 off the Gamma(t/alpha) pole
    (1.7, 0.9, True, [-1.5, -1.0, -0.25, 0.5], [-36.0, -40.0, -34.0, -42.0],
     [(1.0, 1.5), (0.0, 1.0), (-2.0, 0.0), (-6.0, -5.0)])])
def test_line_set_is_each_line_set_up_alone(alpha, gamma, heavy, cs,
                                            env_caps, lx):
    """Bitwise: lines set up together are each the line set up as a set of
    one, however far apart their lengths, panel widths and heads are."""
    ctx = _GreenContext(alpha, gamma)
    lo, hi = zip(*lx)
    lines = _line_set(cs, ctx, heavy, env_caps, lo, hi)
    assert len({line[0].size for line in lines}) > 1
    for i, line in enumerate(lines):
        alone, = _line_set([cs[i]], ctx, heavy, [env_caps[i]], [lo[i]],
                           [hi[i]])
        assert _same_line(line, alone)


def test_line_set_refuses_if_any_line_does_not_decay():
    """A line whose envelope reaches its target only beyond its own cap
    (1500 at c = -4; the target is met at length 4 * 1.3^23 = 1670) refuses
    the whole set with envelope_decay, as it does alone, also beside a deep
    line whose longer cap reaches that length; the deep line is fine
    alone.  So is a line whose target is never met."""
    alpha, gamma = 1.797601, 1.153399
    ctx = _GreenContext(alpha, gamma)
    beyond = _mellin_log_ratio(complex(-4.0, 4.0 * 1.3 ** 23), alpha, gamma,
                               False).real + 1.0
    deep = _mellin_log_ratio(complex(-20000.0), alpha, gamma,
                             False).real - 34.0
    _line_set([-20000.0], ctx, False, [deep], [0.0], [1.0])
    for cs, caps in (([-4.0], [beyond]), ([-20000.0, -4.0], [deep, beyond]),
                     ([-4.0, -2.0], [-40.0, -1e4])):
        with pytest.raises(NonConvergenceError) as exc:
            _line_set(cs, ctx, False, caps, [0.0] * len(cs), [1.0] * len(cs))
        assert exc.value.code == "envelope_decay"


def test_deep_tail_mass_line_is_sized_by_its_slope():
    """A thin-side tail-mass line of a wings round (seed 1, the
    dfrac(1.7976, 1.1534) chain) through its point's deep saddle: the
    integrand is a slowly turning envelope there, so its panels are wide.
    Sized by |log X| alone it had 6864 nodes."""
    t, _, (_, half, _) = _line(-1407.73, 1.797601, 1.153399, False,
                               3519.92, np.array([2.8828]))
    assert t.size <= 6864 // 5 and 2.0 * half > 6.0


@pytest.mark.parametrize("alpha, gamma, heavy, c", [
    (1.797601, 1.153399, False, -400.0), (1.7, 0.9, False, -400.0),
    (2.0, 1.0, False, -200.0),                          # deep thin lines
    (1.7, 0.9, False, -4.0), (1.8, 1.15, False, -0.3),   # shallow thin
    # heavy lines 0.2 off the Gamma(t/alpha) pole
    (1.7, 0.9, True, -1.5), (1.6, 1.0, True, -1.4), (1.8, 1.15, True, -1.6)])
@pytest.mark.parametrize("osc", [0.5, 4.0, 20.0])
def test_slope_sized_panels_match_finer_panels(alpha, gamma, heavy, c, osc):
    """Panels sized from the integrand's slope resolve the line: its sums
    (density and tail-mass weights) at points spread +-osc around the log X
    whose saddle is c match the same line with panels 8x narrower, summed
    node by node."""
    x0 = -_mellin_log_slope(complex(c), alpha, gamma, heavy).real
    env_cap = _mellin_log_ratio(complex(c), alpha, gamma, heavy).real - 34.0
    logX = np.linspace(x0 - osc, x0 + osc, 37)
    line = _line(c, alpha, gamma, heavy, env_cap, logX)
    fine = _finer(line)
    lr = _mellin_log_ratio(line[0], alpha, gamma, heavy)
    lrf = _mellin_log_ratio(fine[0], alpha, gamma, heavy)
    for div in (False, True):
        v = line[1] * np.exp(lr - lr.real.max()) / (line[0] if div else 1.0)
        vf = fine[1] * np.exp(lrf - lr.real.max()) / (fine[0] if div else 1.0)
        got = _line_sums(logX, line[0], v, line[2])
        ref = _line_sums_loop(logX, fine[0], vf)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(v).sum())


def _tail_mass_loop(Y, alpha, gamma, ell, heavy):
    """Reference: one tail probability on a line of its own."""
    logX = math.log(Y / ell)
    c, sad = _scan_loop(logX, alpha, gamma, heavy, True)
    c = min(c, -0.3)
    t, w, _ = _line(c, alpha, gamma, heavy, sad - c * logX - 34.0,
                    np.array([logX]))
    lr = _mellin_log_ratio(t, alpha, gamma, heavy)
    off = lr.real.max() + c * logX
    ex = np.exp(lr + logX * (t - c) - (off - c * logX)) / t
    return -float((ex @ w).real) / math.pi / alpha * math.exp(off)


@pytest.mark.parametrize("alpha, gamma, heavy", [
    (1.7, 0.9, False), (2.0, 1.0, False), (1.8, 1.15, False),
    (1.7, 0.9, True), (1.8, 1.15, True)])
def test_tail_masses_match_per_point_lines(alpha, gamma, heavy):
    """Points whose saddles share an abscissa share a line; each value
    matches its own line's to rounding, from the bulk to the far tail, and
    underflows where it does."""
    ell = 0.1
    Ys = ell * np.concatenate([np.geomspace(0.3, 60.0, 70),
                               np.linspace(20.0, 21.0, 16)])
    got = _tail_masses(Ys, _GreenContext(alpha, gamma), ell, heavy)
    ref = np.array([_tail_mass_loop(Y, alpha, gamma, ell, heavy)
                    for Y in Ys])
    assert np.all(ref >= 0.0) and (ref > 1e-300).sum() >= 60
    assert np.all(np.abs(got - ref) <= 1e-13 * ref)


@pytest.mark.parametrize("heavy", [False, True])
def test_tail_masses_match_the_exact_gaussian(heavy):
    """At (2, 1) the tail mass is P[y > Y] = erfc(Y / 2 ell) / 2 on both
    sides.  On test_tail_masses_match_per_point_lines' grid it holds to
    6e-13 relative wherever that is above 1e-300 (5.5e-13 measured, at a
    mass of 3.5e-290), and the masses are 0.0 where it is not."""
    ell = 0.1
    Ys = ell * np.concatenate([np.geomspace(0.3, 60.0, 70),
                               np.linspace(20.0, 21.0, 16)])
    got = _tail_masses(Ys, _GreenContext(2.0, 1.0), ell, heavy)
    exact = 0.5 * erfc(Ys / (2.0 * ell))
    big = exact > 1e-300
    assert big.sum() >= 80
    assert np.all(np.abs(got - exact)[big] <= 6e-13 * exact[big])
    assert np.all(got[~big] == 0.0)


def test_heavy_tail_masses_at_alpha_2_are_the_thin_side():
    """At alpha = 2 the density is symmetric and the heavy ratio is the thin
    one, so the heavy scan widens as the thin one does: the far tail is
    resolved, not signed noise (down to -2.5e-40) from the fixed strip."""
    Ys = 0.1 * np.geomspace(0.3, 60.0, 40)
    ctx = _GreenContext(2.0, 1.0)
    heavy = _tail_masses(Ys, ctx, 0.1, True)
    assert np.all(heavy >= 0.0)
    assert heavy.tolist() == _tail_masses(Ys, ctx, 0.1, False).tolist()


def _tilted_tail_fine(ystar, ctx, ell, scale):
    """Reference: the deep-tail call integral on 48 geometric panels of GL32
    over the cutoff search's interval, y* to the first probe below the
    integrand's maximum less 40, zeros included."""
    def log_integrand(ys):
        ys = np.asarray(ys, float)
        t = _tail_masses(ys, ctx, ell, False)
        with np.errstate(divide="ignore"):
            return ys + np.log(np.maximum(t, 0.0))

    top = log_integrand([ystar])[0]
    ycut = ystar * 1.25 + 0.25 * ell
    while log_integrand([ycut])[0] >= top - 40.0:
        ycut = ycut * 1.25 + 0.25 * ell
    ys, ws = _gauss_panels(np.geomspace(ystar, ycut, 49), _GL32)
    return scale * float(np.exp(log_integrand(ys) - top) @ ws) * math.exp(top)


@pytest.mark.parametrize("params, inputs, certified", [
    (ModelParams.double_fractional(1.8, 1.15, 0.2),
     PricingInputs(100.0, K, 0.01, 0.05), True)
    for K in (110.0, 115.0, 130.0)] + [
    (ModelParams.double_fractional(1.795786, 1.154312, 0.2010512),
     PricingInputs(100.0, 140.048, 0.0087573, 0.049821), True),
    # the cutoff step overshoots to where every tail probability is 0, and
    # the interval's far end is subnormal: no interpolant settles there
    (ModelParams.double_fractional(1.95, 1.3, 0.2),
     PricingInputs(100.0, 300.0, 0.01, 0.5), False)])
def test_tilted_tail_matches_fine_rule(monkeypatch, params, inputs,
                                       certified):
    """A deep out-of-the-money call by parts over tail probabilities matches
    a fine rule on its interval to 1e-11.  A certified call takes at most
    31 tail probabilities besides the cutoff search's single probes (a
    Chebyshev set of 33 less its two ends, which the search has); the rest
    take the rule's 176."""
    tilted = quadrature._tilted_tail_call
    tail_masses = quadrature._tail_masses
    seen, sizes = [], []

    def spy_call(*args):
        seen.append((args, tilted(*args)))
        return seen[-1][1]

    def spy_masses(Ys, *args):
        sizes.append(len(Ys))
        return tail_masses(Ys, *args)

    monkeypatch.setattr(quadrature, "_tilted_tail_call", spy_call)
    monkeypatch.setattr(quadrature, "_tail_masses", spy_masses)
    c = reference_price(params, inputs)
    (args, value), = seen
    assert c == value > 0.0
    ystar, ctx, ell, scale, _ = args
    ref = _tilted_tail_fine(ystar, ctx, ell, scale)
    assert abs(value - ref) <= 1e-11 * ref
    batches = [n for n in sizes if n > 1]
    assert (sum(batches) <= 31) if certified else (batches[-1] == 176)


def _floor_margins(xs, alpha, gamma, ell):
    """Reference: each point's log-envelope as _density_batch assigns it
    (saddle scans at knots, interpolated), less the batch floor."""
    heavy = bool(xs[0] < 0.0)
    logX = np.log(np.abs(xs) / ell)
    lo_x, hi_x = logX.min() - 1e-9, logX.max() + 1e-9
    kn = np.linspace(lo_x, hi_x, max(min(33, 2 + len(logX)),
                                     math.ceil(hi_x - lo_x) + 1))
    ck, sk = _saddle_scans(kn, _GreenContext(alpha, gamma), heavy)
    cpt = np.clip(np.interp(logX, kn, ck), *_analytic_strip(alpha, heavy))
    sad = np.interp(logX, kn, sk - ck * kn) + cpt * logX
    return sad - (sad.max() - 42.0)


# Densities at ell = 0.1, at indices into xs.  Those 25 or more above the
# floor in log envelope (indices up to 60 at alpha 2, 64 at 1.7) are as
# computed before below-floor points were skipped.  Nearer the floor a value
# carries its line's truncation at the envelope target: those that moved by
# more than 1e-13 when the lines came to be shared under the envelope-rise
# budget (indices 63 on at alpha 2, 66 on at 1.7) are as computed so.
DENSITY_PINS = [
    (2.0, 1.0, -np.geomspace(0.01, 61.0, 120), {
        0: 2.8139043560650503, 20: 2.691947748937935, 40: 1.1743075262642528,
        56: 0.0003048425440020687, 58: 1.3611213962742867e-05,
        60: 2.1091257829877e-07, 62: 7.911051590791405e-10,
        63: 2.4619198682660996e-11, 64: 4.4317346847604424e-13,
        65: 4.232798658863778e-15, 66: 1.9409410877292008e-17,
        67: 3.8058736012168885e-20, 68: 2.7909289785852205e-23}),
    (1.7, 0.9, np.geomspace(0.01, 30.0, 120), {
        0: 3.1508260963738133, 20: 3.1308368022711526, 40: 2.008037460874019,
        60: 0.00038153431128569936, 62: 1.8482961696071146e-05,
        64: 3.278206844712765e-07, 66: 1.5264142710333991e-09,
        67: 5.5215832453046326e-11, 68: 1.198420792870145e-12,
        69: 1.4428198937357026e-14, 70: 8.801039794453175e-17,
        71: 2.450139964738974e-19, 72: 2.759456350465429e-22}),
]


@pytest.mark.parametrize("alpha, gamma, xs, pins", DENSITY_PINS)
def test_density_batch_is_zero_below_floor(monkeypatch, alpha, gamma, xs,
                                           pins):
    """A point enveloped below the batch floor (e^-42 of the batch's largest
    envelope) is exactly 0.0; before, lines built to that floor returned
    noise there (up to 3e-29), clipped at 0.  The points left keep their
    pins to 1e-13 relative, or 1e-30 of the batch's largest where cancelling
    terms within e^-8 of the floor round differently, and each matches the
    batch on the same lines with panels 8x narrower to the same tolerance."""
    g = _density_batch(xs, _GreenContext(alpha, gamma), 0.1)
    margin = _floor_margins(xs, alpha, gamma, 0.1)
    assert (margin < 0.0).sum() >= 40 and np.all(g[margin < 0.0] == 0.0)
    for i, v in pins.items():
        assert margin[i] >= 0.0
        assert abs(g[i] - v) <= 1e-13 * v + 1e-30 * g.max()
    line_set = quadrature._line_set
    monkeypatch.setattr(quadrature, "_line_set",
                        lambda *args: [_finer(l) for l in line_set(*args)])
    ref = _density_batch(xs, _GreenContext(alpha, gamma), 0.1)
    assert np.all(np.abs(g - ref) <= 1e-13 * ref + 1e-30 * g.max())


def test_density_batch_matches_the_exact_gaussian():
    """At (2, 1) the density is exp(-x^2 / 4 ell^2) / (2 ell sqrt(pi)).  On
    DENSITY_PINS' alpha-2 batch every live point is within 1e-14 relative or
    1e-21 of the batch's largest value, and within 1e-14 relative wherever
    it is 25 or more above the floor (9.7e-15 at most; 2.5e-13 at index 66,
    8.8 above it, and 6.0e-11 at index 68, 3.0 above it).  With lines
    spaced by the Gamma ratio's curvature the batch was 1.8e-14 off at
    index 60 (26.1 above the floor), 1.2e-9 at 66 and 1.2e-6 at 68; on the
    0.25 grid 7.1e-14, 2.8e-8 at 64 and 1.1e-2 at 68."""
    xs = DENSITY_PINS[0][2]
    g = _density_batch(xs, _GreenContext(2.0, 1.0), 0.1)
    ref = np.array([math.exp(-x * x / 0.04) / (0.2 * math.sqrt(math.pi))
                    for x in xs])
    margin = _floor_margins(xs, 2.0, 1.0, 0.1)
    live = margin >= 0.0
    assert live.sum() >= 60
    err = np.abs(g - ref)
    assert np.all(err[live] <= 1e-14 * ref[live] + 1e-21 * g.max())
    assert np.all(err[margin >= 25.0] <= 1e-14 * ref[margin >= 25.0])


def test_density_lines_share_within_the_envelope_budget(monkeypatch):
    """A thin-side call batch like the seed-1 wings call at (1.70, 0.85):
    its saddles run to the strip's -40 edge, where the Gamma ratio is ~56x
    flatter than at c = 0.  Each live point's envelope on its line is
    within 1 of its envelope at its own saddle (0.989 at most), and the
    224 points share 2 lines (19 when lines were spaced by the ratio's
    curvature, 102 on a fixed 0.25 grid)."""
    alpha, gamma, ell = 1.701235, 0.852767, 0.0673502
    xs = np.geomspace(0.3431, 0.9271, 224)
    sums, lines = quadrature._line_sums, []

    def spy(logX, t, v, panels):
        lines.append((t.real[0], logX))
        return sums(logX, t, v, panels)

    monkeypatch.setattr(quadrature, "_line_sums", spy)
    _density_batch(xs, _GreenContext(alpha, gamma), ell)
    assert len(lines) <= 2
    cs = np.linspace(-40.0, 0.6, 8001)
    f = _mellin_log_ratio(cs + 0.5j, alpha, gamma, False).real
    assert sum(lx.size for _, lx in lines) == xs.size
    for c, lx in lines:
        own = (f + cs * lx[:, None]).min(axis=1)
        on = _mellin_log_ratio(c + 0.5j, alpha, gamma, False).real + c * lx
        assert np.all(on - own <= 1.0)


@pytest.mark.parametrize("alpha, gamma", [(1.7, 0.9), (2.0, 1.0),
                                          (1.5, 1.0), (1.8, 1.15)])
def test_density_batch_over_210_units_of_log_x(alpha, gamma):
    """A batch spanning 210 units of log X (ell ~ 1e-38 at tau 1e-70) takes
    its saddles from one knot per unit; with 33 knots over the range (6.6
    units apart) points sat on lines off their saddles and came out up to
    2e-5 off their per-point values.  Compared where a point's own saddle
    lies inside the fixed strip: beyond its edge a value is limited by
    cancellation (~1e-10) whatever the batch."""
    mu, tau = -0.02, 1e-70
    ell = green_scale(mu, tau, gamma) ** (1.0 / alpha)
    logX = np.linspace(-9.0, 201.0, 120)
    xs = np.concatenate([-ell * np.exp(logX), ell * np.exp(logX)])
    ctx = _GreenContext(alpha, gamma)
    g = _density_batch(xs, ctx, ell)
    ref = np.array([green_density(alpha, gamma, mu, float(x), tau)
                    for x in xs])
    inside = np.concatenate([
        _saddle_scans(logX, ctx, heavy)[0]
        > _analytic_strip(alpha, heavy)[0] for heavy in (True, False)])
    keep = inside & (ref > 1e-300)
    assert keep.sum() >= 12
    assert np.all(np.abs(g - ref)[keep] <= 1e-12 * ref[keep])


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 2.0), st.floats(-3.0, 3.0))
def test_green_density_positive_in_bulk(tau, x):
    if abs(x) < 1e-6:
        return
    params = ModelParams.double_fractional(1.8, 0.9, 0.25)
    mu = risk_neutral(params).mu
    g = green_density(1.8, 0.9, mu, x, tau)
    assert g >= 0.0


@pytest.mark.parametrize("gamma, closed_form", [
    (1.0, lambda z: z),
    (2.0, lambda z: math.log(math.cosh(math.sqrt(z)))),
    (0.5, lambda z: z * z + math.log(erfc(-z))),
])
def test_log_mittag_leffler_closed_forms(gamma, closed_form):
    """E_1 = e^z, E_2 = cosh sqrt z, E_1/2 = e^{z^2} erfc(-z), across the
    summed range and into the asymptotic one (E_1/2 needs ~2000 terms at 30)."""
    zs = np.linspace(0.0, 30.0, 121).tolist()
    for z, value in zip(zs, log_mittag_leffler(zs, [gamma] * len(zs))):
        assert value == pytest.approx(closed_form(z), rel=1e-13, abs=1e-300)


def test_log_gamma_series_budget():
    # e^z at a == b; terms that never turn over within the budget raise
    assert log_gamma_series([3.5], [1.7], [1.7], 1e-12, [64]) == [(3.5, 1)]
    assert log_gamma_series([0.0], [1.7], [1.2], 1e-12, [64]) == [(0.0, 0)]
    refused, = log_gamma_series([50.0], [1.0], [0.5], 1e-12, [64])
    assert isinstance(refused, NonConvergenceError)
    assert refused.code == "series_terms"


def _gamma_series_loop(z, a, b, tol, max_terms):
    """One row of the Gamma-ratio series, its term range doubled from 16 and
    the stop found term by term: the reference for log_gamma_series."""
    if a == b:
        return z, 1
    if z == 0.0:
        return 0.0, 0
    size = min(16, max_terms)
    while True:
        n = np.arange(size + 1.0)
        lt = (gammaln(1.0 + a * n) + n * math.log(z) - gammaln(n + 1.0)
              - gammaln(1.0 + b * n))
        shift = lt.max()
        w = np.exp(lt - shift)
        partial = np.cumsum(w)
        small = 0
        for end in range(1, size + 1):
            small = small + 1 if w[end] < tol * partial[end] else 0
            if small == 3:
                return float(shift + math.log(partial[end])), end
        if size >= max_terms:
            return NonConvergenceError(
                "series_terms", f"Gamma-ratio series terms failed to decay "
                f"within {max_terms} terms (z={z:.4g})")
        size = min(2 * size, max_terms)


def _series_rows(rng, count):
    """Rows (z, a, b, tol, max_terms) of the moment series behind mu and of
    the Mittag-Leffler series, seeded, with a == b and z == 0 rows, rows
    that exhaust their budget and rows at the budget cap."""
    rows = []
    for _ in range(count):
        alpha = float(rng.uniform(1.05, 2.0))
        gamma = float(rng.uniform(1.0 - 1.0 / alpha + 1e-3, min(alpha, 1.6)))
        q = -model.mu_levy(alpha, float(rng.uniform(0.05, 3.0)))
        b = gamma * alpha
        rows.append((q, alpha, b, model.MU_TOLERANCE,
                     model._mu_term_budget(q, alpha, b)))
        rows.append((float(rng.uniform(0.0, 40.0)), 1.0,
                     float(rng.uniform(0.1, 2.0)), numerics._EPS,
                     numerics.ML_MAX_TERMS))
    rows += [(3.5, 1.7, 1.7, 1e-12, 64), (0.0, 1.7, 1.2, 1e-12, 64),
             (50.0, 1.0, 0.5, 1e-12, 64), (50.0, 1.0, 0.5, 1e-12, 16),
             (0.999 * 64 ** 0.2 / (1.5 ** 1.5 / 0.7 ** 0.7), 1.5, 0.7,
              model.MU_TOLERANCE, model.MU_TERM_CAP),
             (200.0, 1.0, 0.3, numerics._EPS, model.MU_TERM_CAP)]
    return rows


def _rows_call(rows, tol):
    z, a, b, _, budget = zip(*rows)
    return log_gamma_series(z, a, b, tol, budget)


def _outcome_of(entry):
    if isinstance(entry, Exception):
        return type(entry), entry.code, str(entry)
    return entry


def test_log_gamma_series_rows_match_scalar_loop():
    """Each row of a call is bitwise the scalar loop's sum and term count,
    or the same refusal, whichever rows share the call: all of them, a
    reordered subset, or the row alone."""
    rng = np.random.default_rng(2222)
    rows = _series_rows(rng, 400)
    for tol in (model.MU_TOLERANCE, numerics._EPS):
        batch = [r for r in rows if r[3] == tol]
        ref = [_outcome_of(_gamma_series_loop(*r)) for r in batch]
        got = [_outcome_of(e) for e in _rows_call(batch, tol)]
        assert got == ref
        assert {isinstance(e[0], type) for e in got} == {True, False}
        subset = rng.permutation(len(batch))[:len(batch) // 3]
        sub = [_outcome_of(e)
               for e in _rows_call([batch[i] for i in subset], tol)]
        assert sub == [ref[i] for i in subset]
        for i in subset[:20]:
            assert [_outcome_of(e) for e in _rows_call([batch[i]], tol)] == [
                ref[i]]
    # e^z at a == b, 0 at z == 0, budgets of 16 and 64 exhausted, a sum of
    # 222 terms under the cap, and the whole cap exhausted
    got = _rows_call(rows[-6:], model.MU_TOLERANCE)
    assert got[:2] == [(3.5, 1), (0.0, 0)]
    assert [e.code for e in got[2:4]] == ["series_terms"] * 2
    assert got[4][1] == 222
    assert "within 4096 terms" in str(got[5])


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
    # no run: one past the end of the mask
    assert _run_end(np.array(mask, bool), k) == (
        len(mask) + 1 if end is None else end)


def test_run_end_per_row():
    mask = np.array([[0, 1, 1, 1, 0], [1, 1, 0, 1, 1], [1, 1, 1, 1, 1]], bool)
    assert _run_end(mask, 3).tolist() == [4, 6, 3]
    assert _run_end(mask[:, :2], 3).tolist() == [3, 3, 3]
