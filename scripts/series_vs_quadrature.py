"""Cross-validate the residue-series pricer against the contour-quadrature
reference over a moneyness sweep, for a few (alpha, gamma) pairs.

The series is compared only where it is inside its validity region
(effective log-moneyness A = -log_fwd - mu*tau >= 0 when gamma != 1).
"""
import math

from fracprice.model import ModelParams, risk_neutral
from fracprice.numerics import reference_price
from fracprice.pricing import PricingInputs, dfrac_call_series

PAIRS = ((1.7, 0.9), (1.5, 1.0), (1.9, 1.1))
SIGMA, RATE, TAU, STRIKE = 0.2, 0.01, 1.0, 100.0

for alpha, gamma in PAIRS:
    params = ModelParams.double_fractional(alpha, gamma, SIGMA)
    mu = risk_neutral(params).mu
    print(f"alpha={alpha} gamma={gamma}  mu={mu:.12g}")
    for x in (-0.3, -0.15, 0.0, 0.15, 0.3):
        inputs = PricingInputs(STRIKE * math.exp(x), STRIKE, RATE, TAU)
        A = -inputs.log_fwd - mu * TAU
        if gamma != 1.0 and A < 0.0:
            print(f"  log-moneyness {x:+.2f}: skipped (A={A:.4f} < 0)")
            continue
        series, _ = dfrac_call_series(params, inputs)
        ref = reference_price(params, inputs)
        rel = abs(series - ref) / abs(ref)
        print(f"  log-moneyness {x:+.2f}: series={series:.10g} "
              f"quadrature={ref:.10g} rel={rel:.2e}")
