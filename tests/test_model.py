import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracprice import cli
from fracprice.calibration import QuoteChain, calibrate
from fracprice.model import (MU_MAX_TERMS, MU_TERM_CAP, ModelKind,
                             ModelParams, ValidationError, _mu_term_budget,
                             mu_gamma_approx, mu_gamma_mb, mu_gamma_series,
                             mu_levy, risk_neutral, validate)
from fracprice.numerics import (FracpriceError, NonConvergenceError,
                                reference_price)
from fracprice.pricing import (ACCURACY_FLOOR, OptionKind, PricingInputs,
                               SeriesDivergenceError, _band_bounds, bs_call,
                               dfrac_call_series, price, price_grid)
from fracprice.volatility import (_fbs_call, atm_bs_implied, atm_fbs_implied,
                                  build_smile, implied_vol)


def dfrac(a, g, s):
    return ModelParams.double_fractional(a, g, s)


def test_constructors_and_theta():
    p = dfrac(1.7, 0.9, 0.2)
    assert p.kind is ModelKind.DOUBLE_FRACTIONAL
    assert p.theta == pytest.approx(1.7 - 2.0)
    assert ModelParams.black_scholes(0.3).alpha == 2.0
    assert ModelParams.black_scholes(0.3).gamma == 1.0
    assert ModelParams.fmls(1.5, 0.3).gamma == 1.0


@pytest.mark.parametrize("a,g,s,code", [
    (1.0, 0.9, 0.2, "alpha_range"),
    (2.2, 0.9, 0.2, "alpha_range"),
    (1.7, 0.0, 0.2, "gamma_range"),
    (1.7, 1.8, 0.2, "gamma_range"),      # gamma > alpha
    (1.8, 0.42, 0.2, "gamma_condition"),  # gamma <= 1 - 1/alpha
    (1.7, 0.9, 0.0, "sigma_positive"),
    (1.7, 0.9, -0.1, "sigma_positive"),
])
def test_validate_rejections(a, g, s, code):
    with pytest.raises(ValidationError) as exc:
        validate(dfrac(a, g, s))
    assert exc.value.code == code


def test_validate_kind_constraint():
    with pytest.raises(ValidationError) as exc:
        ModelParams(kind=ModelKind.BLACK_SCHOLES, alpha=1.7, gamma=1.0,
                    sigma=0.2)
    assert exc.value.code == "kind_constraint"


@pytest.mark.parametrize("a,g,code", [(2.5, 1.0, "alpha_range"),
                                      (1.5, 0.2, "gamma_condition")])
def test_inadmissible_params_cannot_be_built(a, g, code):
    """Admissibility is checked on construction, so no pricer can be handed
    parameters outside it (given a mu of -0.02, the quadrature priced both
    of these)."""
    with pytest.raises(ValidationError) as exc:
        dfrac(a, g, 0.2)
    assert exc.value.code == code


def test_mu_levy_values():
    # alpha = 2 reduces to the Black-Scholes drift -sigma^2/2
    assert mu_levy(2.0, 0.2) == pytest.approx(-0.02, abs=1e-16)
    assert mu_levy(1.5, 0.2) == pytest.approx(-0.0752120618617, abs=1e-12)


@given(st.floats(1.01, 2.0), st.floats(0.01, 1.5))
def test_mu_levy_negative(alpha, sigma):
    assert mu_levy(alpha, sigma) < 0.0


def test_mu_gamma_series_gamma1_collapse():
    # Gamma(1+alpha n) cancels against Gamma(1+gamma alpha n): mu == mu_levy
    for a, s in ((1.2, 0.1), (1.7, 0.2), (2.0, 0.4)):
        assert mu_gamma_series(dfrac(a, 1.0, s)).mu == mu_levy(a, s)


def test_mu_gamma_series_bs_point():
    r = mu_gamma_series(ModelParams.black_scholes(0.2))
    assert r.mu == pytest.approx(-0.02, abs=1e-16)


def test_mu_gamma_series_vs_contour():
    """The series and the tilted-contour integral are independent routes."""
    for a in (1.2, 1.5, 1.7, 2.0):
        for g in (0.6, 0.8, 1.2):
            if g <= 1.0 - 1.0 / a or g > a:
                continue
            for s in (0.1, 0.4):
                p = dfrac(a, g, s)
                assert mu_gamma_mb(p) == pytest.approx(
                    mu_gamma_series(p).mu, abs=1e-10)


@pytest.mark.parametrize("alpha,gamma,frozen", [
    (1.7, 0.9, "-0.04613473307653352"),
    (1.5, 0.4, "-0.1221213669404826"),
    (2.0, 1.8, "-0.002985423296615166"),
    (1.2, 0.3, "-0.49804161233480854"),
    (1.7, 1.5, "-0.017648413235948297"),
    (1.7, 1.0, "-0.04036403854693695")])
def test_mu_gamma_mb_frozen_bits(alpha, gamma, frozen):
    """The contour drift at sigma = 0.2, to the last bit: its line (the
    abscissa, tilt, lengths and nodes) and the order of its arithmetic are
    fixed."""
    assert repr(mu_gamma_mb(dfrac(alpha, gamma, 0.2))) == frozen


def test_mu_gamma_approx_frozen():
    assert mu_gamma_approx(dfrac(2.0, 0.9, 0.2)) == pytest.approx(
        -0.0238593616451, abs=1e-12)
    # at gamma = 1 the Gamma-ratio prefactor is 1
    assert mu_gamma_approx(dfrac(1.7, 1.0, 0.2)) == mu_levy(1.7, 0.2)


def test_mu_gamma_series_diagnostics():
    r = mu_gamma_series(dfrac(1.7, 0.9, 0.2))
    assert r.n_terms_used > 2
    assert r.mu == pytest.approx(-0.046134733076535, abs=1e-12)


def test_mu_gamma_series_non_convergence():
    # q ~ 14.7 needs ~175 terms to turn over; the 64-term budget cannot
    with pytest.raises(NonConvergenceError):
        mu_gamma_series(dfrac(1.2, 0.6, 5.0))


@pytest.mark.parametrize("alpha,gamma,sigma", [
    (1.7, 0.9, 1e5), (1.3, 1.2, 1e10), (1.7, 0.9, 1e150)])
def test_mu_gamma_mb_float_range(alpha, gamma, sigma):
    """A moment integral that leaves the float range is refused, not
    returned as NaN (the series route refuses these parameters too)."""
    with pytest.raises(NonConvergenceError) as exc:
        mu_gamma_mb(dfrac(alpha, gamma, sigma))
    assert exc.value.code == "moment_float_range"


def test_risk_neutral_dispatch():
    p = dfrac(1.7, 0.9, 0.2)
    assert risk_neutral(p).mu == mu_gamma_series(p).mu
    with pytest.raises(ValidationError):
        risk_neutral(dfrac(1.7, 0.2, 0.2))


@settings(max_examples=60, deadline=None)
@given(st.floats(1.2, 2.0), st.floats(0.45, 1.3), st.floats(0.05, 0.6))
def test_mu_gamma_negative_on_domain(a, g, s):
    """The drift correction is negative everywhere on the admissible set.

    alpha is kept away from 1 where q = -mu_levy blows up like 1/cos(pi a/2)
    and the 64-term budget stops being enough (that path raises instead).
    """
    if g <= 1.0 - 1.0 / a or g > a:
        return
    assert mu_gamma_series(dfrac(a, g, s)).mu < 0.0


def _mu_loop(a, g, s, tol=1e-12, max_terms=None):
    """Reference: the moment series summed term by term in plain floats,
    within the model's term budget unless max_terms is given."""
    q = -mu_levy(a, s)
    if max_terms is None:
        max_terms = _mu_term_budget(q, a, g * a)
    total, small = 1.0, 0
    for n in range(1, max_terms + 1):
        t = math.exp(math.lgamma(1.0 + a * n) + n * math.log(q)
                     - math.lgamma(n + 1.0) - math.lgamma(1.0 + g * a * n))
        total += t
        small = small + 1 if t < tol * total else 0
        if small == 3:
            return -math.log(total), n
    return None


def test_mu_gamma_series_matches_scalar_loop():
    """Same term count, the same parameters out of budget, and the same
    value up to the rounding of a sum of at most n terms in log S."""
    for a in np.round(np.arange(1.15, 2.0001, 0.05), 10):
        for g in np.round(np.arange(0.05, a + 1e-9, 0.05), 10):
            if g <= 1.0 - 1.0 / a:
                continue
            for s in (0.05, 0.2, 0.5):
                ref = _mu_loop(a, g, s)
                if ref is None:
                    with pytest.raises(NonConvergenceError):
                        mu_gamma_series(dfrac(a, g, s))
                    continue
                r = mu_gamma_series(dfrac(a, g, s))
                tol = max(64, ref[1]) * np.finfo(float).eps * max(1.0, -ref[0])
                assert abs(r.mu - ref[0]) <= tol
                assert r.n_terms_used == (1 if g == 1.0 else ref[1])


@pytest.mark.parametrize("a, g, s, n", [
    (1.5, 0.3343, 0.5, 94),    # just above gamma = 1 - 1/alpha
    (1.5, 0.35, 0.5, 72),
    (1.3, 0.3, 0.5, 121),
    (1.15, 0.3, 0.5, 210),
])
def test_mu_gamma_series_beyond_64_terms(a, g, s, n):
    """Where the terms shrink at the 64th but slowly, the budget sized from
    the asymptotic term ratio sums them to the loop's value and count."""
    ref = _mu_loop(a, g, s, max_terms=5000)
    r = mu_gamma_series(dfrac(a, g, s))
    assert r.n_terms_used == ref[1] == n
    assert abs(r.mu - ref[0]) <= n * np.finfo(float).eps * max(1.0, -ref[0])


def test_mu_term_budget():
    # growing at the 64th term: the budget stays 64 and the series is refused
    q = -mu_levy(1.2, 5.0)
    assert _mu_term_budget(q, 1.2, 0.72) == MU_MAX_TERMS
    # ratio ~0.77 at dfrac(1.5, 0.3343, 0.5): 64 + ceil(log 1e-12 / log 0.77)
    assert _mu_term_budget(-mu_levy(1.5, 0.5), 1.5, 1.5 * 0.3343) == 169
    # a ratio just below 1 is capped
    q = 0.999 * MU_MAX_TERMS ** 0.2 / (1.5 ** 1.5 / 0.7 ** 0.7)
    assert _mu_term_budget(q, 1.5, 0.7) == MU_TERM_CAP



# finite, non-finite and float-range edge values for the entry-point checks
EDGE_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300,
                     1e-300, -1e-300, 1.0, 100.0]),
    st.floats(allow_nan=True, allow_infinity=True))


def _typed_rejection(thunk):
    """thunk()'s result, or None if it raised a FracpriceError with a code."""
    try:
        return thunk()
    except FracpriceError as exc:
        assert isinstance(exc.code, str) and exc.code
        return None


@settings(max_examples=300, deadline=None)
@given(EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS)
def test_pricing_inputs_finite_or_typed_error(spot, strike, rate, tau):
    inp = _typed_rejection(lambda: PricingInputs(spot, strike, rate, tau))
    if inp is not None:
        assert all(map(math.isfinite, (inp.spot, inp.strike, inp.rate, inp.tau)))
        assert math.isfinite(inp.log_fwd) or inp.strike == 0.0


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(ModelKind)), EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS)
def test_validate_finite_or_typed_error(kind, alpha, gamma, sigma):
    p = _typed_rejection(lambda: validate(ModelParams(kind, alpha, gamma, sigma)))
    if p is not None:
        assert all(map(math.isfinite, (p.alpha, p.gamma, p.sigma)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from([1.5, 1.7, 2.0]), EDGE_FLOATS), EDGE_FLOATS)
def test_mu_levy_finite_or_typed_error(alpha, sigma):
    mu = _typed_rejection(lambda: mu_levy(alpha, sigma))
    if mu is not None:
        assert math.isfinite(mu) and mu < 0.0


@pytest.mark.parametrize("alpha,sigma,code", [
    (1.7, math.inf, "sigma_float_range"),
    (1.7, 1e200, "sigma_float_range"),
    (2.0, 1e200, "sigma_float_range"),
    (2.0, 1e-200, "sigma_float_range"),    # -sigma^2/2 underflows to -0
    (1.7, math.nan, "sigma_positive"),
])
def test_mu_levy_float_range(alpha, sigma, code):
    with pytest.raises(ValidationError) as exc:
        mu_levy(alpha, sigma)
    assert exc.value.code == code


@pytest.mark.parametrize("field,value", [
    ("spot", math.nan), ("strike", math.nan), ("rate", math.nan),
    ("tau", math.inf), ("spot", math.inf), ("rate", -math.inf),
])
def test_pricing_inputs_non_finite_codes(field, value):
    args = dict(spot=100.0, strike=100.0, rate=0.01, tau=1.0)
    args[field] = value
    with pytest.raises(ValidationError) as exc:
        PricingInputs(**args)
    assert exc.value.code == f"{field}_finite"


def test_pricing_inputs_log_fwd_out_of_range():
    for args in ((1e-300, 1e300, 0.0, 1.0), (1e300, 1e-300, 0.0, 1.0),
                 (100.0, 100.0, 1e300, 1e300)):
        with pytest.raises(ValidationError) as exc:
            PricingInputs(*args)
        assert exc.value.code == "log_fwd_finite"


def test_validate_sigma_finite():
    for sigma in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValidationError) as exc:
            validate(ModelParams.black_scholes(sigma))
        assert exc.value.code == "sigma_finite"


# The package's contract: every entry point returns a finite price inside
# the arbitrage band, or raises a FracpriceError with a code; the CLI exits
# 0, 2 or 3.  tau is drawn log-uniformly across the float range.
CONTRACT_PARAMS = [ModelParams.black_scholes(0.2), ModelParams.fmls(1.7, 0.2),
                   dfrac(1.7, 0.9, 0.2), dfrac(1.7, 1.5, 0.2),
                   dfrac(1.3, 1.2, 0.5)]
CONTRACT_TAUS = st.one_of(st.floats(-323.0, 308.0).map(lambda e: 10.0 ** e),
                          EDGE_FLOATS)


def _band_of(params, inputs):
    """The band [lower, upper] of one quote under the model's mu from
    _band_bounds; a mean factor beyond the float range raises."""
    (log_x, x), = _band_bounds([risk_neutral(params).mu], [inputs.tau],
                               [params.gamma])
    upper = inputs.spot * x
    if not math.isfinite(upper):
        raise SeriesDivergenceError("mean_factor_overflow", f"e^{log_x}")
    return max(upper - inputs.strike * inputs.discount, 0.0), upper


def _in_band(params, inputs, value, floor):
    """value is finite and inside _band_bounds, mapped to a put by parity
    and, where the put is floored at 0, floored too.  The pad is the series
    band guard's, plus the accuracy floor relative to the band's upper edge,
    which a quadrature value far above S needs.  Black-Scholes prices need
    no scale B, so at a tau where B underflows their band is refused."""
    assert math.isfinite(value)
    band = _typed_rejection(lambda: _band_of(params, inputs))
    if band is None:
        assert params.kind is ModelKind.BLACK_SCHOLES
        return
    lower, upper = band
    pad = 1e-6 * (inputs.spot + inputs.strike) + ACCURACY_FLOOR * upper
    if inputs.kind is OptionKind.PUT:
        shift = inputs.strike * inputs.discount - inputs.spot
        lower, upper = lower + shift, upper + shift
    if floor:
        lower, upper = max(lower, 0.0), max(upper, 0.0)
    assert lower - pad <= value <= upper + pad


def _contract(params, inputs, thunk, floor=True):
    value = _typed_rejection(thunk)
    if value is not None:
        _in_band(params, inputs, value, floor)


def _raised(entry):
    """A price_grid entry as price() gives it: the float, or raised."""
    if isinstance(entry, Exception):
        raise entry
    return entry


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(CONTRACT_PARAMS), CONTRACT_TAUS,
       st.sampled_from([0.0, 50.0, 90.0, 100.0, 110.0, 200.0]),
       st.sampled_from([0.0, 0.05, -0.05]),
       st.sampled_from(["call", "put"]), st.booleans())
def test_entry_points_price_in_band_or_typed_error(params, tau, strike, rate,
                                                  kind, fallback):
    argv = ["price", f"--model={params.kind.value}", f"--alpha={params.alpha}",
            f"--gamma={params.gamma}", f"--sigma={params.sigma}", "--spot=100",
            f"--strike={strike}", f"--rate={rate}", f"--tau={tau!r}",
            f"--kind={kind}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 2, 3)
    assert (rc == 0) == (err.getvalue() == "")
    inputs = _typed_rejection(
        lambda: PricingInputs(100.0, strike, rate, tau, kind))
    if inputs is None:
        return
    _contract(params, inputs, lambda: price(params, inputs, fallback=fallback))
    chain = [inputs, PricingInputs(100.0, 100.0, rate, tau)]
    for inp, entry in zip(chain, price_grid([(params, c) for c in chain])):
        _contract(params, inp, lambda: _raised(entry))
    if not fallback:        # price(fallback=True) integrates the refusals
        _contract(params, inputs, lambda: reference_price(params, inputs),
                  False)
    call = PricingInputs(100.0, strike, rate, tau)
    _contract(params, call, lambda: dfrac_call_series(params, call)[0])


def _vol_contract(thunk):
    """thunk() returns a finite vol, or raises a FracpriceError with a code."""
    sigma = _typed_rejection(thunk)
    if sigma is not None:
        assert math.isfinite(sigma)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS,
       st.sampled_from([None, 0.0, 0.05]), st.sampled_from([0.4, 0.8, 1.1]))
def test_atm_inversions_finite_or_typed_error(call, spot, tau, strike, rate,
                                               gamma):
    for strike_, rate_ in ((None, None), (strike, rate)):
        _vol_contract(lambda: atm_bs_implied(call, spot, tau, strike_, rate_))
        _vol_contract(lambda: atm_fbs_implied(call, spot, tau, gamma,
                                              strike_, rate_))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(CONTRACT_TAUS, EDGE_FLOATS,
       st.sampled_from([0.0, 50.0, 90.0, 100.0, 110.0, 200.0]),
       st.sampled_from([0.0, 0.05, -0.05]), st.sampled_from([None, 0.8, 1.1]))
def test_implied_vol_finite_or_typed_error(tau, market, strike, rate, gamma):
    """Black-Scholes (gamma None) and the f-BS smile's call as pricers."""
    inputs = _typed_rejection(lambda: PricingInputs(100.0, strike, rate, tau))
    if inputs is None:
        return
    if gamma is None:
        pricer = lambda sigma: bs_call(inputs, sigma)
    else:
        pricer = lambda sigma: _fbs_call(inputs, gamma, sigma)
    _vol_contract(lambda: implied_vol(pricer, market).sigma_I)


@pytest.mark.parametrize("tau", [1e300, 1e-300])
def test_chain_entry_points_at_tau_edges(tau):
    """At either end of the float range a smile's vols are finite or None,
    and a calibration returns a finite fit or raises a coded refusal."""
    chain = QuoteChain(100.0, 0.0, tau, (
        ("call", 90.0, 12.0), ("call", 110.0, 2.0), ("put", 95.0, 3.0)))
    for point in build_smile(chain, (0.8, 1.1)):
        for vol in [point.sigma_bs, *point.sigma_fbs.values()]:
            assert vol is None or math.isfinite(vol)
    for seed in CONTRACT_PARAMS[:4]:
        fit = _typed_rejection(lambda: calibrate(chain, seed.kind, (seed,)))
        if fit is not None:
            assert math.isfinite(fit.aggregated_error)
            assert all(":" in key or key == "non_finite"
                       for key in fit.penalties)
