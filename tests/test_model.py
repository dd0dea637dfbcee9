import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracprice.model import (MU_MAX_TERMS, MU_TERM_CAP, ModelKind,
                             ModelParams, ValidationError, _mu_term_budget,
                             mu_gamma_approx, mu_gamma_mb, mu_gamma_series,
                             mu_levy, risk_neutral, validate)
from fracprice.numerics import NonConvergenceError
from fracprice.pricing import PricingInputs


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
    p = ModelParams(kind=ModelKind.BLACK_SCHOLES, alpha=1.7, gamma=1.0,
                    sigma=0.2)
    with pytest.raises(ValidationError) as exc:
        validate(p)
    assert exc.value.code == "kind_constraint"


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
    """thunk()'s result, or None if it raised a ValidationError with a code."""
    try:
        return thunk()
    except ValidationError as exc:
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
