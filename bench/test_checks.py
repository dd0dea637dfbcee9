"""Each correctness check of the benchmark rejects a known-wrong output.

    python3 -m pytest -q bench
"""
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
from fracprice.model import ModelParams, mu_gamma_series  # noqa: E402
from fracprice.numerics import reference_price  # noqa: E402
from fracprice.pricing import PricingInputs, bs_call, price  # noqa: E402


def test_price_check_accepts_the_package_and_rejects_1e6_off():
    inputs = PricingInputs(100.0, 105.0, 0.01, 0.25)
    good = price(ModelParams.fmls(1.7, 0.2), inputs)
    oracle = oracles.fmls_call(100.0, 105.0, 0.01, 0.25, 1.7, 0.2)
    assert checks.price_matches(good, oracle, 100.0) is None
    assert checks.price_matches(good * (1 + 1e-6), oracle, 100.0)
    assert checks.price_matches(good * (1 - 1e-6), oracle, 100.0)


def test_price_check_rejects_the_named_gamma_ne_1_fault():
    params = ModelParams.double_fractional(2.0, 0.8, 0.2)
    inputs = PricingInputs(100.0, 80.0, 0.01, 0.02)
    assert checks.price_matches(price(params, inputs, fallback=True),
                                reference_price(params, inputs), 100.0)


def test_bs_oracle_matches_the_package_closed_form():
    inputs = PricingInputs(100.0, 90.0, 0.02, 0.5)
    assert checks.price_matches(
        bs_call(inputs, 0.3), oracles.bs_call(100.0, 90.0, 0.02, 0.5, 0.3),
        100.0) is None


def _bs_chain(strikes):
    return [oracles.bs_call(100.0, k, 0.01, 0.25, 0.2) for k in strikes]


def test_chain_shape_rejects_a_non_convex_chain():
    strikes = [80.0, 90.0, 100.0, 110.0, 120.0]
    calls = _bs_chain(strikes)
    assert checks.chain_shape(strikes, calls, 100.0, 0.01, 0.25) is None
    bent = list(calls)
    bent[2] = 0.5 * (calls[1] + calls[3]) + 1e-3   # above the chord
    assert "convex" in checks.chain_shape(strikes, bent, 100.0, 0.01, 0.25)


def test_chain_shape_rejects_a_rising_chain():
    strikes = [90.0, 100.0, 110.0]
    calls = _bs_chain(strikes)
    calls[2] = calls[1] + 1e-3
    assert checks.chain_shape(strikes, calls, 100.0, 0.01, 0.25)


def test_band_rejects_a_call_above_spot_times_mean_factor():
    X = oracles.mean_factor(1.7, 0.9, 0.2, 1.0)
    assert checks.call_in_band(50.0, 100.0, 60.0, 0.01, 1.0, X) is None
    assert checks.call_in_band(100.0 * X + 1e-3, 100.0, 60.0, 0.01, 1.0, X)
    assert checks.call_in_band(1e-3, 100.0, 60.0, 0.01, 1.0, X)


def test_vol_check_rejects_a_vol_1e6_off():
    assert checks.vol_matches(0.25, 0.25) is None
    assert checks.vol_matches(0.25 + 1e-6, 0.25)
    assert checks.vol_matches(None, 0.25)


def test_vol_reprice_rejects_a_vol_1e6_off():
    market = oracles.bs_call(100.0, 110.0, 0.01, 0.5, 0.3)
    assert checks.vol_reprices(0.3, market, 100.0, 110.0, 0.01, 0.5,
                               "call") is None
    assert checks.vol_reprices(0.3 + 1e-6, market, 100.0, 110.0, 0.01, 0.5,
                               "call")


def test_mu_check_rejects_a_mu_1e9_off():
    params = ModelParams.double_fractional(1.7, 0.9, 0.2)
    mu = mu_gamma_series(params).mu
    assert checks.mu_matches(mu, 1.7, 0.9, 0.2) is None
    assert checks.mu_matches(mu + 1e-9, 1.7, 0.9, 0.2)
    assert checks.mu_matches(mu - 1e-9, 1.7, 0.9, 0.2)


def test_fbs_gamma1_and_gamma_order():
    assert checks.fbs_matches_bs(0.2651, 0.2651) is None
    assert checks.fbs_matches_bs(0.442, 0.265)
    assert checks.increasing([0.1, None, 0.3]) is None
    assert checks.increasing([0.1, 0.3, 0.2])


def test_mean_factor_is_one_at_gamma_1_and_mu_series_is_levy_there():
    assert oracles.mean_factor(1.7, 1.0, 0.2, 0.5) == 1.0
    assert math.isclose(oracles.mu_series(1.7, 1.0, 0.2),
                        oracles.mu_levy(1.7, 0.2), rel_tol=1e-15)
