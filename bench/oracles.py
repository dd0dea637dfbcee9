"""Reference values the benchmark computes itself, without the residue series.

* Black-Scholes from ``math.erfc``.
* FMLS (``gamma = 1``, ``alpha < 2``): the payoff integrated against
  ``scipy.stats.levy_stable`` in parameterisation S1 with beta = -1, scale
  ``(sigma/sqrt 2) tau^(1/alpha)`` and forward ``S e^{(r+mu) tau}``.
* The drift correction ``mu`` as its own positive-term moment series, and the
  mean factor ``X = e^{mu tau} E_gamma(-mu tau^gamma)`` with the benchmark's
  own Mittag-Leffler sum; ``X`` bounds every call from above.

None of this is counted in a metric; ``pace.py`` times ``bs_call`` and
``mean_factor`` as its probe, apart from the operations.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, logsumexp


def bs_call(spot, strike, rate, tau, sigma):
    """Black-Scholes call with the normal CDF written through erfc."""
    st = sigma * math.sqrt(tau)
    d1 = (math.log(spot / strike) + rate * tau) / st + 0.5 * st
    d2 = d1 - st
    return (spot * 0.5 * math.erfc(-d1 / math.sqrt(2.0))
            - strike * math.exp(-rate * tau) * 0.5 * math.erfc(-d2 / math.sqrt(2.0)))


def put_by_parity(call, spot, strike, rate, tau):
    """The put the package quotes: C - S + K e^{-r tau}, floored at 0."""
    return max(call - spot + strike * math.exp(-rate * tau), 0.0)


def mu_levy(alpha, sigma):
    if alpha == 2.0:
        return -0.5 * sigma * sigma
    return (sigma / math.sqrt(2.0)) ** alpha / math.cos(math.pi * alpha / 2.0)


def mu_series(alpha, gamma, sigma, terms=200):
    """-log sum_n Gamma(1 + alpha n) q^n / (n! Gamma(1 + gamma alpha n)),
    q = -mu_levy; all terms are positive, summed in log space."""
    q = -mu_levy(alpha, sigma)
    if gamma == 1.0:
        return -q
    n = np.arange(terms, dtype=float)
    logs = (gammaln(1.0 + alpha * n) + n * math.log(q)
            - gammaln(n + 1.0) - gammaln(1.0 + gamma * alpha * n))
    return -float(logsumexp(logs))


def mean_factor(alpha, gamma, sigma, tau):
    """X = e^{mu tau} E_gamma(-mu tau^gamma); exactly 1 at gamma = 1."""
    if gamma == 1.0:
        return 1.0
    mu = mu_series(alpha, gamma, sigma)
    z = -mu * tau ** gamma
    n = np.arange(400, dtype=float)
    log_el = float(logsumexp(n * math.log(z) - gammaln(1.0 + gamma * n)))
    return math.exp(mu * tau + log_el)


def fmls_call(spot, strike, rate, tau, alpha, sigma):
    """FMLS call: the discounted payoff integrated against the maximally
    skewed alpha-stable law (S1, beta = -1).  alpha = 2 is Black-Scholes.

    The out-of-the-money side is integrated and the other side follows by
    parity (X = 1 at gamma = 1), so the small number is the one computed."""
    if alpha == 2.0:
        return bs_call(spot, strike, rate, tau, sigma)
    # imported here so that the benchmark's peak memory, taken before the
    # checks, does not carry scipy.stats
    from scipy import integrate
    from scipy.stats import levy_stable
    fwd = spot * math.exp((rate + mu_levy(alpha, sigma)) * tau)
    scale = sigma / math.sqrt(2.0) * tau ** (1.0 / alpha)
    levy_stable.parameterization = "S1"
    pdf = levy_stable(alpha, -1.0, loc=0.0, scale=scale).pdf
    ystar = math.log(strike / fwd)
    disc = math.exp(-rate * tau)
    if ystar >= 0.0:
        # beta = -1 makes the right tail decay faster than any exponential;
        # sixty scales past the strike it holds nothing a double can see
        val, _ = integrate.quad(lambda y: (fwd * math.exp(y) - strike) * pdf(y),
                                ystar, ystar + 60.0 * scale, epsabs=0.0,
                                epsrel=1e-12, limit=400)
        return disc * val
    val, _ = integrate.quad(lambda y: (strike - fwd * math.exp(y)) * pdf(y),
                            -math.inf, ystar, epsabs=0.0, epsrel=1e-12,
                            limit=400)
    return disc * val + spot - strike * disc
