"""Correctness predicates the workloads apply to the package's outputs.

Each returns None when the output passes and a one-line reason when it does
not.  The tolerances sit far above the package's own accuracy (~1e-12 against
these oracles where it is right) and far below the faults the benchmark
counts (>= 1e-4 relative), so a value either clearly passes or clearly fails.
"""
from __future__ import annotations

import math

import oracles

PRICE_RTOL = 1e-7        # price against an oracle, relative ...
PRICE_ATOL = 1e-10       # ... plus this share of spot (far-wing prices ~ 0)
SHAPE_ATOL = 1e-9        # slope/convexity/band slack, as a share of spot
MU_RTOL = 1e-10          # mu against the benchmark's own series
MU_MB_RTOL = 1e-8        # mu series against the contour route
VOL_ATOL = 1e-8          # implied vol against the generator's sigma
REPRICE_RTOL = 1e-9      # price at an implied vol against the quote
FBS_GAMMA1_RTOL = 1e-3   # f-BS vol at gamma = 1 against the BS vol


def price_matches(value, oracle, spot):
    if not math.isfinite(value):
        return f"non-finite price {value!r}"
    if abs(value - oracle) > PRICE_RTOL * abs(oracle) + PRICE_ATOL * spot:
        return (f"price {value:.12g} vs oracle {oracle:.12g} "
                f"(rel {abs(value - oracle) / max(abs(oracle), 1e-300):.2e})")
    return None


def call_in_band(call, spot, strike, rate, tau, mean_factor):
    """max(S X - K e^{-r tau}, 0) <= C <= S X."""
    upper = spot * mean_factor
    lower = max(upper - strike * math.exp(-rate * tau), 0.0)
    pad = SHAPE_ATOL * spot
    if not lower - pad <= call <= upper + pad:
        return f"call {call:.12g} outside band [{lower:.12g}, {upper:.12g}]"
    return None


def chain_shape(strikes, calls, spot, rate, tau):
    """Calls of one (params, rate, tau) must fall with strike, no faster than
    the discount factor, and be convex in strike."""
    pts = sorted(zip(strikes, calls))
    pad = SHAPE_ATOL * spot
    slopes = []
    for (k0, c0), (k1, c1) in zip(pts, pts[1:]):
        if k1 == k0:
            continue
        s = (c1 - c0) / (k1 - k0)
        if c1 > c0 + pad:
            return f"call rises from K={k0:g} to K={k1:g}"
        if s < -math.exp(-rate * tau) - pad / (k1 - k0):
            return f"call falls faster than the discount factor at K={k0:g}"
        slopes.append((s, k1 - k0, k0))
    for (s0, d0, k), (s1, d1, _) in zip(slopes, slopes[1:]):
        if s1 < s0 - pad / min(d0, d1):
            return f"calls not convex in strike around K={k:g}"
    return None


def mu_matches(mu, alpha, gamma, sigma, mu_mb=None):
    """The package's drift against the benchmark's own moment series and,
    when given, against the package's contour route."""
    own = oracles.mu_series(alpha, gamma, sigma)
    if abs(mu - own) > MU_RTOL * abs(own):
        return f"mu {mu!r} vs own series {own!r}"
    if mu_mb is not None and abs(mu - mu_mb) > MU_MB_RTOL * abs(mu_mb):
        return f"mu series {mu!r} vs contour {mu_mb!r}"
    return None


def vol_matches(vol, expected):
    if vol is None:
        return "no vol"
    if abs(vol - expected) > VOL_ATOL:
        return f"vol {vol!r} vs generator sigma {expected!r}"
    return None


def vol_reprices(vol, market, spot, strike, rate, tau, kind):
    """A Black-Scholes vol for a quote with no generator: the erfc formula at
    that vol must give the quote back."""
    if vol is None:
        return "no vol"
    call = oracles.bs_call(spot, strike, rate, tau, vol)
    model = call if kind == "call" else oracles.put_by_parity(
        call, spot, strike, rate, tau)
    if abs(model - market) > REPRICE_RTOL * max(market, 1e-6 * spot):
        return f"BS at vol {vol!r} gives {model!r}, quote {market!r}"
    return None


def fbs_matches_bs(fbs_vol, bs_vol):
    """At alpha = 2, gamma = 1 the fractional model is Black-Scholes."""
    if fbs_vol is None or bs_vol is None:
        return "no vol"
    if abs(fbs_vol - bs_vol) > FBS_GAMMA1_RTOL * bs_vol:
        return f"f-BS vol {fbs_vol:.6g} at gamma=1 vs BS vol {bs_vol:.6g}"
    return None


def increasing(values):
    """Strictly increasing over the entries that are not None."""
    vals = [v for v in values if v is not None]
    if any(b <= a for a, b in zip(vals, vals[1:])):
        return f"not increasing: {vals}"
    return None
