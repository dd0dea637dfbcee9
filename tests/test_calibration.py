import math
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import minimize

from fracprice.calibration import (CalibrationError, CalibrationResult,
                                   QuoteChain, _nelder_mead, _quote_errors,
                                   aggregated_error, calibrate)
from fracprice.model import ModelKind, ModelParams, ValidationError
from fracprice.pricing import OptionKind, PricingInputs, price


def synth_chain(params, spot=100.0, rate=0.01, tau=1.0,
                strikes=(102.0, 105.0, 108.0, 112.0, 116.0, 121.0, 127.0)):
    """OTM call quotes generated by the model itself (series-valid region)."""
    quotes = tuple(
        ("call", k, price(params, PricingInputs(spot, k, rate, tau)))
        for k in strikes)
    return QuoteChain(spot=spot, rate=rate, tau=tau, quotes=quotes)


def test_quote_chain_validation():
    with pytest.raises(ValidationError):
        QuoteChain(0.0, 0.0, 1.0, (("call", 100.0, 1.0),))
    with pytest.raises(ValidationError):
        QuoteChain(100.0, 0.0, 0.0, (("call", 100.0, 1.0),))
    with pytest.raises(ValidationError):
        QuoteChain(100.0, 0.0, 1.0, (("straddle", 100.0, 1.0),))
    with pytest.raises(ValidationError):
        QuoteChain(100.0, 0.0, 1.0, (("call", -100.0, 1.0),))
    with pytest.raises(ValidationError):
        QuoteChain(100.0, 0.0, 1.0, (("call", 100.0, -1.0),))


def test_quote_chain_accepts_kind_enum():
    c = QuoteChain(100.0, 0.0, 1.0, ((OptionKind.PUT, 90.0, 1.5),))
    assert c.quotes == (("put", 90.0, 1.5),)
    # the inputs the chain is priced with are built once, with it
    assert c.inputs == (PricingInputs(100.0, 90.0, 0.0, 1.0, OptionKind.PUT),)
    assert c == QuoteChain(100.0, 0.0, 1.0, (("put", 90.0, 1.5),))


def test_aggregated_error_zero_at_generator():
    params = ModelParams.black_scholes(0.3)
    chain = synth_chain(params)
    assert aggregated_error(params, chain) == pytest.approx(0.0, abs=1e-12)


def test_aggregated_error_positive_off_generator():
    chain = synth_chain(ModelParams.black_scholes(0.3))
    assert aggregated_error(ModelParams.black_scholes(0.35), chain) > 0.01


def test_aggregated_error_penalty_on_series_failure():
    # a strike so deep OTM that the series blows up draws the fixed penalty
    params = ModelParams.double_fractional(1.8, 1.0, 0.2)
    chain = QuoteChain(100.0, 0.0, 0.1, (
        ("call", 102.0, 1.0), ("call", 105.0, 0.5), ("call", 10000.0, 0.01)))
    penalty = 10.0 * (1.0 + 0.5 + 0.01)
    total = aggregated_error(params, chain)
    assert total >= penalty


def test_aggregated_error_empty_chain():
    with pytest.raises(CalibrationError):
        aggregated_error(ModelParams.black_scholes(0.2),
                         QuoteChain(100.0, 0.0, 1.0, ()))


def _rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


# (f, x0, xatol, fatol, maxiter): between them the descents reflect, expand,
# contract outside and inside, and shrink; the rippled bowl shrinks after a
# refused contraction of either kind, and the staircase's flat steps tie
# values at every comparison and, with fatol 0, in the stopping test (where
# < and <= part).  Rosenbrock at maxiter 30 is stopped by maxiter (57
# evaluations), and the 1-D start at 0 takes the 0.00025 vertex
NELDER_MEAD_CASES = {
    "rosenbrock": (_rosenbrock, [-1.2, 1.0], 1e-8, 1e-12, 5000),
    "rosenbrock_maxiter": (_rosenbrock, [-1.2, 1.0], 1e-8, 1e-12, 30),
    "quadratic_from_zero": (lambda x: float((x[0] - 0.3) ** 2), [0.0],
                            1e-10, 1e-14, 4000),
    "nonsmooth_3d": (lambda x: float(np.sum(np.abs(x - [0.5, -1.0, 2.0])
                                            * [1.0, 3.0, 0.5])),
                     [1.0, 1.0, 1.0], 1e-6, 1e-10, 2400),
    "rippled_bowl": (lambda x: float(np.sum(x ** 2)
                                     + 0.3 * np.sum(np.cos(40.0 * x))),
                     [1.0, 2.0], 1e-8, 1e-12, 4000),
    "staircase_3d": (lambda x: float(np.sum(np.floor(2.0 * x) ** 2)),
                     [1.0, 2.0, 3.0], 1e-8, 0.0, 4000),
}


@pytest.mark.parametrize("case", NELDER_MEAD_CASES)
def test_nelder_mead_takes_scipys_steps(case):
    """The package's descent evaluates the same points as scipy's
    Nelder-Mead, in the same order, and ends with the same x, minimum,
    evaluation count and success flag, all to the bit."""
    f, x0, xatol, fatol, maxiter = NELDER_MEAD_CASES[case]
    ours, theirs = [], []

    def logged(log):
        def g(x):
            log.append(x.tolist())
            return f(x)
        return g

    x, fun, nfev, converged = _nelder_mead(logged(ours), x0, xatol=xatol,
                                           fatol=fatol, maxiter=maxiter)
    ref = minimize(logged(theirs), x0, method="Nelder-Mead",
                   options={"xatol": xatol, "fatol": fatol,
                            "maxiter": maxiter})
    assert ours == theirs
    assert (x.tolist(), fun, nfev, converged) == (
        ref.x.tolist(), ref.fun, ref.nfev, ref.success)
    if case == "rosenbrock_maxiter":
        assert (nfev, converged) == (57, False)


def test_calibrate_needs_three_quotes():
    chain = QuoteChain(100.0, 0.0, 1.0, (
        ("call", 100.0, 8.0), ("call", 110.0, 4.0)))
    with pytest.raises(CalibrationError):
        calibrate(chain, ModelKind.BLACK_SCHOLES)


def test_calibrate_bs_recovery():
    truth = ModelParams.black_scholes(0.23)
    res = calibrate(synth_chain(truth), ModelKind.BLACK_SCHOLES)
    assert isinstance(res, CalibrationResult)
    assert res.converged
    assert res.params.sigma == pytest.approx(0.23, abs=1e-4)
    assert res.aggregated_error < 1e-6
    assert res.evaluations > 0
    assert len(res.per_quote_errors) == 7


def test_calibrate_fmls_recovery():
    truth = ModelParams.fmls(1.7, 0.25)
    res = calibrate(synth_chain(truth), ModelKind.FMLS)
    assert res.params.alpha == pytest.approx(1.7, abs=0.02)
    assert res.params.sigma == pytest.approx(0.25, abs=0.005)
    assert res.params.gamma == 1.0


def test_calibrate_result_params_validate():
    truth = ModelParams.black_scholes(0.4)
    res = calibrate(synth_chain(truth), ModelKind.BLACK_SCHOLES)
    # the returned parameters are inside the admissible set by construction
    from fracprice.model import validate
    validate(res.params)


# The fixture fits from the benchmark's single starts, frozen bitwise:
# (kind, seeds, evaluations, (alpha, gamma, sigma), per-quote errors,
# penalised quote evaluations by class)
FIXTURE_FITS = [
    ("bs", None, 226, (2.0, 1.0, 0.4021752929687501),
     (10.305558032592671, 8.751534732666371, 6.168571181024845,
      2.556379865461011, 1.2617733863548466, 4.115562463012708,
      5.8742822777375405, 5.8855917741649595, 5.280949048874945,
      3.5540348996861724), {}),
    ("fmls", (ModelParams.fmls(1.95, 0.4),), 221,
     (1.5121827526600016, 1.0, 0.46313029284689217),
     (1.5987386423272198, 3.7094025628903182e-09, 1.2044960067758268,
      1.379487500019252, 0.7278406230436083, 8.448708399555471e-11,
      0.7111541339241825, 0.8135282561656725, 0.8665263020020162,
      0.5630705169618755), {"SeriesDivergenceError:uncertified": 10}),
    ("dfrac", (ModelParams.double_fractional(1.7, 0.8, 0.3),), 506,
     (1.519828230876886, 1.0692022034847368, 0.592376222348078),
     (0.3701435638741657, 1.624016476853285e-10, 0.5026134197280498,
      0.47631540805894446, 2.267425287527658e-07, 0.36939622028792485,
      0.6641938642971787, 0.6203803198791933, 0.612532502493619,
      0.3883281800688396), {"SeriesDivergenceError:uncertified": 77}),
]


@pytest.mark.parametrize("kind,seeds,evaluations,params,errors,penalties",
                         FIXTURE_FITS, ids=[f[0] for f in FIXTURE_FITS])
def test_calibrate_fixture_frozen(monkeypatch, kind, seeds, evaluations,
                                  params, errors, penalties):
    """Pricing the chain in one call moves no fitted digit, and the
    penalties are the exceptions the pricer returned, by class and code.
    Each objective evaluation, and the final re-pricing, is one price_grid
    call over the whole chain."""
    from fracprice import calibration, sampledata
    returned = Counter()
    sizes = []
    real = calibration.price_grid

    def spy(*args):
        out = real(*args)
        sizes.append(len(out))
        returned.update(f"{type(v).__name__}:{v.code}" for v in out
                        if isinstance(v, Exception))
        return out

    monkeypatch.setattr(calibration, "price_grid", spy)
    chain = sampledata.fixture_chain()
    res = calibrate(chain, kind, seeds=seeds)
    assert res.evaluations == evaluations
    assert (res.params.alpha, res.params.gamma, res.params.sigma) == params
    assert res.per_quote_errors == errors
    assert res.aggregated_error == sum(errors)
    assert res.penalties == penalties == dict(returned)
    assert sizes == [len(chain.quotes)] * (evaluations + 1)


def test_penalties_keyed_by_code():
    """A quote refused for a coded reason is counted under class:code."""
    chain = QuoteChain(100.0, 0.0, 1.0, (
        ("call", 95.0, 8.0), ("call", 100.0, 5.0), ("call", 105.0, 3.0)))
    res = calibrate(chain, ModelKind.BLACK_SCHOLES,
                    seeds=(ModelParams.black_scholes(0.2),))
    assert res.penalties == {}
    counts = Counter()
    # inadmissible parameters cannot be built
    with pytest.raises(ValidationError) as err:
        ModelParams.double_fractional(1.5, 0.2, 0.2)
    assert err.value.code == "gamma_condition"
    # a refusal of the whole chain penalises every quote
    _quote_errors(ModelParams.double_fractional(1.2, 0.6, 5.0), chain, counts)
    assert counts == {"NonConvergenceError:series_terms": 3}


@pytest.mark.parametrize("seeds", [(), [], iter(())],
                         ids=["tuple", "list", "iterator"])
def test_calibrate_refuses_no_seeds(monkeypatch, seeds):
    """An empty seed sequence raised a bare AttributeError after the (empty)
    descent loop; it is refused before any descent runs."""
    from fracprice import calibration, sampledata
    monkeypatch.setattr(calibration, "price_grid", None)   # nothing is priced
    with pytest.raises(CalibrationError) as err:
        calibrate(sampledata.fixture_chain(), ModelKind.FMLS, seeds=seeds)
    assert err.value.code == "no_seeds"


@pytest.mark.parametrize("spot,rate,strike,code", [
    (100.0, math.nan, 100.0, "rate_finite"),
    (100.0, math.inf, 100.0, "rate_finite"),
    (math.inf, 0.0, 100.0, "spot_finite"),
    (100.0, 0.0, math.inf, "strike_finite"),
    (100.0, -1000.0, 100.0, "discount_float_range"),
])
def test_chain_input_errors_raise_before_the_fit(spot, rate, strike, code):
    """An input the pricer refuses for every parameter set raises its coded
    error instead of penalising every quote of every descent."""
    quotes = (("call", 95.0, 8.0), ("call", strike, 5.0), ("call", 105.0, 3.0))
    with pytest.raises(ValidationError) as err:
        calibrate(QuoteChain(spot, rate, 1.0, quotes), ModelKind.FMLS)
    assert err.value.code == code
