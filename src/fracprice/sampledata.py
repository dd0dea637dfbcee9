"""Embedded S&P 500 call-quote fixture (end-2008 chain, spot 966.3) and the
least-squares resolution of its (rate, maturity) pair.

The published vol columns for this chain are not jointly consistent with the
listed prices under any single (r, tau): an unconstrained least-squares fit
of (r, tau) to the BS column runs off along a shallow ridge toward
arbitrarily large rates, so the fit is performed on a bounded box and the
result recorded here.  The residual (rms ~0.051, worst row 0.146 at strike
1280) far exceeds quote rounding, which downstream checks must respect.
"""
from __future__ import annotations

import numpy as np

from .calibration import QuoteChain, _nelder_mead
from .numerics import FracpriceError
from .pricing import PricingInputs, bs_call
from .volatility import implied_vol

SPOT = 966.3
STRIKES = (900.0, 940.0, 980.0, 1020.0, 1060.0, 1100.0,
           1150.0, 1180.0, 1220.0, 1280.0)
CALL_PRICES = (118.9, 92.7, 69.5, 49.2, 32.3, 19.5, 8.9, 5.1, 2.0, 0.25)

# published implied-vol columns for the same chain
BS_VOLS = (0.4708, 0.4462, 0.4232, 0.3976, 0.3711, 0.3475,
           0.3279, 0.3301, 0.3514, 0.4110)
FBS_VOLS = {
    0.8: (0.3163, 0.3066, 0.2929, 0.2754, 0.2557, 0.2380,
          0.2269, 0.2324, 0.2514, 0.2949),
    0.9: (0.3827, 0.3670, 0.3493, 0.3284, 0.3058, 0.2857,
          0.2727, 0.2789, 0.3015, 0.3544),
    1.1: (0.5900, 0.5330, 0.5210, 0.4891, 0.4574, 0.4186,
          0.3938, 0.3764, 0.3692, 0.4166),
}

# frozen output of fit_rate_tau() below (rate pinned at the box edge)
FITTED_RATE = 0.1
FITTED_TAU = 0.162146124468
FIT_RMS = 0.050860477409
FIT_MAX_ABS = 0.145825200235

RATE_BOUNDS = (-0.05, 0.10)
TAU_BOUNDS = (1.0 / 24.0, 1.5)
FIT_SEEDS = ((0.0, 75.0 / 365.0), (0.01, 0.5), (0.03, 1.0),
             (0.05, 0.15), (0.0, 1.027))


def fixture_chain(rate=FITTED_RATE, tau=FITTED_TAU):
    return QuoteChain(spot=SPOT, rate=rate, tau=tau,
                      quotes=tuple(("call", k, p)
                                   for k, p in zip(STRIKES, CALL_PRICES)))


def _bs_vol(market, spot, strike, rate, tau):
    inputs = PricingInputs(spot, strike, rate, tau)
    return implied_vol(lambda s: bs_call(inputs, s), market).sigma_I


def fit_rate_tau():
    """Least-squares (rate, tau) of the sample chain against its published
    BS-vol column, within RATE_BOUNDS x TAU_BOUNDS from each of FIT_SEEDS.

    Returns (rate, tau, rms, max_abs) where the last two describe the
    residual between the recomputed and published vols at the optimum.
    """
    vols = np.asarray(BS_VOLS, float)

    def recompute(r, t):
        out = []
        for k, p in zip(STRIKES, CALL_PRICES):
            try:
                out.append(_bs_vol(p, SPOT, k, r, t))
            except FracpriceError:
                return None
        return np.array(out)

    def sse(x):
        r, t = x
        if not (RATE_BOUNDS[0] <= r <= RATE_BOUNDS[1]
                and TAU_BOUNDS[0] <= t <= TAU_BOUNDS[1]):
            return 1e6
        iv = recompute(r, t)
        if iv is None:
            return 1e6
        return float(np.sum((iv - vols) ** 2))

    best = min((_nelder_mead(sse, seed, xatol=1e-10, fatol=1e-14,
                             maxiter=4000)
                for seed in FIT_SEEDS), key=lambda res: res[1])
    r, t = (float(v) for v in best[0])
    iv = recompute(r, t)
    resid = iv - vols
    return r, t, float(np.sqrt(np.mean(resid ** 2))), float(np.abs(resid).max())
