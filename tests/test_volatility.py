import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from fracprice import sampledata
from fracprice.model import ModelParams, mu_gamma_approx
from fracprice.numerics import reciprocal_gamma
from fracprice.pricing import (OptionKind, ParityError, PricingInputs,
                               SeriesDivergenceError, bs_call, price,
                               put_from_parity)
from fracprice.volatility import (ImpliedVolResult, InversionError,
                                  _fbs_call, atm_bs_implied,
                                  atm_fbs_implied, build_smile, implied_vol)


def bs_pricer(inp):
    return lambda sigma: bs_call(inp, sigma)


def test_implied_vol_roundtrip_bs():
    inp = PricingInputs(100.0, 110.0, 0.02, 0.75)
    target = bs_call(inp, 0.2347)
    res = implied_vol(bs_pricer(inp), target)
    assert isinstance(res, ImpliedVolResult)
    assert res.sigma_I == pytest.approx(0.2347, abs=1e-9)
    assert res.residual <= 1e-9 * max(1.0, target)
    assert res.iterations >= 1


def test_implied_vol_honors_x0():
    inp = PricingInputs(100.0, 100.0, 0.0, 1.0)
    target = bs_call(inp, 0.4)
    res = implied_vol(bs_pricer(inp), target, x0=0.41)
    assert res.sigma_I == pytest.approx(0.4, abs=1e-9)


def test_implied_vol_out_of_band():
    inp = PricingInputs(100.0, 100.0, 0.0, 1.0)
    with pytest.raises(InversionError) as exc:
        implied_vol(bs_pricer(inp), 150.0)   # above any call value
    assert exc.value.code == "out_of_band"
    with pytest.raises(InversionError) as exc:
        implied_vol(bs_pricer(inp), -1.0)
    assert exc.value.code == "out_of_band"


@pytest.mark.parametrize("market", [math.nan, math.inf, -math.inf])
def test_implied_vol_refuses_non_finite_price(market):
    """A non-finite price is refused before the pricer runs: NaN had
    bisected to the bracket's edge and +-inf, whose tolerance is inf,
    returned the bracket's low end at iteration 0."""
    calls = []

    def pricer(sigma):
        calls.append(sigma)
        return bs_call(PricingInputs(100.0, 100.0, 0.0, 1.0), sigma)

    with pytest.raises(InversionError) as exc:
        implied_vol(pricer, market)
    assert exc.value.code == "price_finite"
    assert calls == []


def test_implied_vol_endpoint_nudging():
    """A pricer that fails near sigma=0 still inverts (endpoint pulled in)."""
    inp = PricingInputs(100.0, 100.0, 0.0, 1.0)

    def flaky(sigma):
        if sigma < 0.01:
            raise ValueError("not evaluable")
        return bs_call(inp, sigma)

    res = implied_vol(flaky, bs_call(inp, 0.3))
    assert res.sigma_I == pytest.approx(0.3, abs=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_implied_vol_endpoint_pulled_in_past_non_finite_values(bad):
    """A pricer value that is not finite at an endpoint pulls the endpoint
    in, as a pricer that raises does."""
    inp = PricingInputs(100.0, 100.0, 0.0, 1.0)
    target = bs_call(inp, 0.3)
    res = implied_vol(lambda s: bad if s < 0.01 else bs_call(inp, s), target)
    assert res.sigma_I == pytest.approx(0.3, abs=1e-9)
    assert res.residual <= 1e-11 * max(1.0, target)


_HOLED = PricingInputs(100.0, 100.0, 0.0, 1.0)


@pytest.mark.parametrize("pricer, market, code", [
    # nowhere finite: NaN had bisected to sigma_I = 5.0, residual NaN
    (lambda s: math.nan, 2.2, "pricer_failed"),
    (lambda s: math.inf, 2.2, "pricer_failed"),
    # not finite between finite endpoints: it had been bisected past
    (lambda s: (math.nan if 0.01 < s < 1.0 else bs_call(_HOLED, s)),
     bs_call(_HOLED, 0.3), "pricer_value"),
    # a jump over the price collapses the bracket on the jump, residual
    # 1.2: it had returned sigma_I = 0.3
    (lambda s: 1.0 if s < 0.3 else 3.0, 2.2, "no_root"),
], ids=["nan", "inf", "nan_inside", "jump"])
def test_implied_vol_refuses_a_vol_it_cannot_certify(pricer, market, code):
    with pytest.raises(InversionError) as exc:
        implied_vol(pricer, market)
    assert exc.value.code == code


def test_atm_bs_implied_frozen():
    # sigma = (C/S) sqrt(2 pi / tau)
    assert atm_bs_implied(10.0, 100.0, 1.0) == pytest.approx(
        0.2506628274631, abs=1e-12)


def test_atm_fbs_implied_frozen():
    assert atm_fbs_implied(10.0, 100.0, 1.0, 0.8) == pytest.approx(
        0.21217478322, abs=1e-10)


def test_atm_fbs_gamma1_is_bs():
    # 2 Gamma(3/2) sqrt(Gamma(3)) = sqrt(2 pi): identical inversions
    for c_over_s, tau in ((0.05, 0.5), (0.1, 1.0), (0.02, 2.0)):
        a = atm_bs_implied(c_over_s * 100.0, 100.0, tau)
        b = atm_fbs_implied(c_over_s * 100.0, 100.0, tau, 1.0)
        assert a == pytest.approx(b, abs=1e-14)


def test_atm_forward_guard():
    with pytest.raises(InversionError) as exc:
        atm_bs_implied(10.0, 100.0, 1.0, strike=120.0, rate=0.0)
    assert exc.value.code == "not_atm_forward"
    # consistent strike/rate pass
    v = atm_bs_implied(10.0, 100.0, 1.0, strike=100.0 * math.exp(0.02),
                       rate=0.02)
    assert v == pytest.approx(0.2506628274631, abs=1e-12)


def test_atm_fbs_gamma_domain():
    with pytest.raises(InversionError) as exc:
        atm_fbs_implied(10.0, 100.0, 1.0, 0.4)
    assert exc.value.code == "gamma_domain"


@pytest.mark.parametrize("tau,gamma,strike,rate,code", [
    (1e300, 1.5, None, None, "tau_float_range"),        # tau^gamma overflows
    (1e-300, 1.5, None, None, "tau_float_range"),       # ... underflows to 0
    (1.0, 1.0, 100.0, -1e3, "discount_float_range"),    # e^(-r tau) overflows
])
def test_atm_fbs_float_range(tau, gamma, strike, rate, code):
    with pytest.raises(InversionError) as exc:
        atm_fbs_implied(10.0, 100.0, tau, gamma, strike=strike, rate=rate)
    assert exc.value.code == code


@pytest.mark.parametrize("tau,strike,code", [
    (0.0, None, "tau_range"), (-1.0, None, "tau_range"),
    (math.nan, None, "tau_range"), (math.inf, None, "tau_range"),
    (1e-320, None, "tau_float_range"),  # 2 pi / tau overflows (it gave inf)
    (1.0, math.nan, "not_atm_forward"),  # a NaN forward strike is not ATM
])
def test_atm_bs_inputs_are_checked(tau, strike, code):
    with pytest.raises(InversionError) as exc:
        atm_bs_implied(10.0, 100.0, tau, strike=strike,
                       rate=None if strike is None else 0.0)
    assert exc.value.code == code


@pytest.mark.parametrize("spot", [math.inf, math.nan, 0.0, -100.0])
@pytest.mark.parametrize("atm", [
    lambda spot, **kw: atm_bs_implied(10.0, spot, 1.0, **kw),
    lambda spot, **kw: atm_fbs_implied(10.0, spot, 1.0, 0.8, **kw)],
    ids=["bs", "fbs"])
@pytest.mark.parametrize("forward", [{}, {"strike": math.inf, "rate": 0.0}],
                         ids=["spot_only", "atm_forward"])
def test_atm_spot_is_checked(atm, spot, forward):
    """At spot = inf both inversions returned sigma 0.0, with an infinite
    ATM-forward strike too (inf <= inf passed the forward check)."""
    with pytest.raises(InversionError) as exc:
        atm(spot, **forward)
    assert exc.value.code == "spot_range"


def test_atm_band_guard():
    with pytest.raises(InversionError):
        atm_bs_implied(120.0, 100.0, 1.0)   # call above spot


def test_build_smile_fixture_complete():
    chain = sampledata.fixture_chain()
    pts = build_smile(chain, (0.8, 0.9, 1.1))
    assert [p.strike for p in pts] == sorted(p.strike for p in pts)
    assert all(p.sigma_bs is not None for p in pts)
    assert all(p.sigma_fbs[g] is not None for p in pts for g in (0.8, 0.9, 1.1))
    # regression anchor for the recomputed column
    assert pts[-1].strike == 1280.0
    assert pts[-1].sigma_bs == pytest.approx(0.26517479976, abs=1e-8)


def test_build_smile_fbs_interior_minima():
    """The fractional columns dip in the middle of the strike ladder."""
    chain = sampledata.fixture_chain()
    pts = build_smile(chain, (0.8, 0.9, 1.1))
    strikes = [p.strike for p in pts]
    for g, k_min in ((0.8, 1150.0), (0.9, 1150.0), (1.1, 1220.0)):
        col = [p.sigma_fbs[g] for p in pts]
        assert strikes[col.index(min(col))] == k_min


def test_build_smile_bad_quote_gives_none():
    chain = sampledata.fixture_chain()
    quotes = list(chain.quotes)
    quotes[0] = ("call", quotes[0][1], 2000.0)   # impossible price
    from fracprice.calibration import QuoteChain
    bad = QuoteChain(chain.spot, chain.rate, chain.tau, tuple(quotes))
    pts = build_smile(bad, (0.9,))
    assert pts[0].sigma_bs is None
    assert pts[0].sigma_fbs[0.9] is None
    assert pts[1].sigma_bs is not None


@settings(max_examples=12, deadline=None)
@given(st.floats(0.08, 0.55))
def test_implied_vol_roundtrip_dfrac(sigma):
    """Round-trip through the adaptive series pricer at an OTM strike."""
    params = ModelParams.double_fractional(1.7, 0.9, sigma)
    inp = PricingInputs(100.0, 100.0 * math.exp(0.05), 0.01, 1.0)

    def pricer(s):
        return price(ModelParams.double_fractional(1.7, 0.9, s), inp)

    res = implied_vol(pricer, price(params, inp))
    assert res.sigma_I == pytest.approx(sigma, abs=1e-7)


def _fbs_loop(inputs, gamma, sigma):
    """The f-BS smile's call one (m, n) term at a time: the reference for
    the block evaluation in volatility._fbs_call."""
    params = ModelParams.double_fractional(2.0, gamma, sigma)
    mu = mu_gamma_approx(params)
    tau = inputs.tau
    A = -inputs.log_fwd - mu * tau
    log_B = math.log(-mu * tau ** gamma)
    pref = inputs.strike * inputs.discount / 2.0
    total = 0.0
    for m in range(1, 5):
        s = 0.0
        for n in range(5):
            with np.errstate(over="ignore", invalid="ignore"):
                # 0^0 := 1; numpy's elementwise pow, as the block evaluation
                # takes it (libm's pow, and numpy's own square for a scalar
                # exponent 2, can differ in the last bit)
                a_pow = 1.0 if n == 0 else np.power([A], [n])[0]
                s += (pref * ((-1.0) ** n * a_pow * np.exp(-gammaln(n + 1.0)))
                      * reciprocal_gamma(1.0 - gamma * (n - m) / 2.0)
                      * np.exp(((m - n) / 2.0) * log_B))
        if not abs(s) <= 1e4 * (inputs.spot + inputs.strike):
            raise SeriesDivergenceError("blowup", "blow-up")
        total += s
    return float(total)


def _fbs_outcome(call, inputs, gamma, sigma):
    """The quote's f-BS price from call, a put's by parity, or the class and
    code of the exception refusing it."""
    try:
        value = call(inputs, gamma, sigma)
        if inputs.kind is OptionKind.PUT:
            return put_from_parity(value, inputs)
        return value
    except (SeriesDivergenceError, ParityError) as exc:
        return type(exc), getattr(exc, "code", None)


def test_fbs_call_matches_term_loop():
    """The smile's fixed 4x4 block sum reproduces the term-by-term loop
    bitwise, refusals included, over gamma, sigma across the bracket,
    strikes and both kinds."""
    refused = priced = 0
    for g in (0.8, 0.9, 1.0, 1.1):
        for sigma in np.geomspace(1e-4, 5.0, 12):
            for k in (70.0, 85.0, 100.0, 115.0, 130.0, 160.0):
                for kind in ("call", "put"):
                    for tau, rate in ((0.05, 0.0), (0.5, 0.02), (2.0, 0.05)):
                        inp = PricingInputs(100.0, k, rate, tau, kind)
                        ref = _fbs_outcome(_fbs_loop, inp, g, float(sigma))
                        got = _fbs_outcome(_fbs_call, inp, g, float(sigma))
                        assert got == ref
                        refused += ref == (SeriesDivergenceError, "blowup")
                        priced += isinstance(ref, float)
    assert refused > 100 and priced > 500


# build_smile(fixture_chain(), (0.8, 0.9, 1.0, 1.1)) f-BS vols per strike, in
# gamma order.  The fixed 4x4 sum is uncertified: at gamma = 1 the column is
# off the Black-Scholes vol (0.442 against 0.265 at K = 1280); these pin the
# values, not their accuracy.
FIXTURE_FBS_VOLS = {
    900.0: (0.3090236613325844, 0.3824053085205392, 0.4809083677360799,
            0.6162725270123475),
    940.0: (0.3073864286450983, 0.3736617151218081, 0.46194888335990575,
            0.5818468949100031),
    980.0: (0.2982481314412133, 0.3602193889481587, 0.4421298302002675,
            0.5522383006447485),
    1020.0: (0.2832262704217486, 0.3417480616056965, 0.418836526027577,
             0.5219195521182063),
    1060.0: (0.26485209727355313, 0.3203664915611611, 0.3934770083039815,
             0.49111582140785115),
    1100.0: (0.24753768202104895, 0.30068483126230855, 0.37030679247022913,
             0.46291699499634026),
    1150.0: (0.23583717243155825, 0.28705836657847333, 0.35016861390280574,
             0.4281377374942123),
    1180.0: (0.24143160651143342, 0.29341505184095074, 0.35235995652558694,
             0.4099435769814756),
    1220.0: (0.2619963291066048, 0.3180542978864672, 0.3756940544642428,
             0.4008292651203405),
    1280.0: (0.3095598070521627, 0.37655900681475546, 0.442418179183177,
             0.4536513566736522),
}


def test_build_smile_fixture_fbs_vols_pinned():
    gammas = (0.8, 0.9, 1.0, 1.1)
    pts = build_smile(sampledata.fixture_chain(), gammas)
    assert [p.strike for p in pts] == list(FIXTURE_FBS_VOLS)
    for p in pts:
        assert [p.sigma_fbs[g] for g in gammas] == pytest.approx(
            FIXTURE_FBS_VOLS[p.strike], rel=1e-13)
