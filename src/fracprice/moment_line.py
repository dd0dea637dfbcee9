"""The moment-line pricer of numerics.moment_line_price, the gamma = 1 law's
quotes priced from its closed moment function.  Only that function imports
this module, on its first call: a process that never prices on the line
does not compile it.

At gamma = 1 the Green function is the finite-moment log-stable law, whose
moment function is closed: E[e^{s y}] = exp(B s^alpha), B = -mu tau, for
Re s >= 0 (it does not exist left of 0).  With k = K / (S e^{(r + mu) tau})
and y* = log k, the payoff's transform (Lewis 2001; Lord & Kahl 2007) gives

  E[(e^y - k)^+] = (1/2 pi i) int_{a - i inf}^{a + i inf}
                       exp(B s^alpha) k^{1-s} / (s (s - 1)) ds,   a > 1,

and on a line 0 < a < 1 the same integral I is E[(e^y - k)^+] - 1 (the
pole at s = 1 is crossed), so that E[(k - e^y)^+] = k + I.
"""
from __future__ import annotations

import math

import numpy as np

from .model import risk_neutral
from .numerics import (_EPS, _GL24, ACCURACY_FLOOR, NumericsError,
                       _gauss_panels, green_scale)


def _abscissa(alpha, B, ystar, call):
    """(a, a - 1): the real point, in (1, inf) on the call side and in
    (0, 1) on the put side, where the integrand's modulus
    exp(psi(a)) = exp(B a^alpha - (a - 1) y*) / |a (a - 1)| is least.

    psi is convex on each side (psi'' = B alpha (alpha - 1) a^(alpha - 2)
    + 1/a^2 + 1/(a - 1)^2), and psi' runs from -inf to +inf across it, so
    its one zero is bisected: in t = log(a - 1) on the call side, in
    t = logit(a) on the put side, where a - 1 is kept exact.  A call-side
    zero beyond a = e^700 is not sought: psi falls all the way to
    a = 1 + e^700, which is returned."""
    def point(t):
        if call:
            return 1.0 + math.exp(t), math.exp(t)
        return 1.0 / (1.0 + math.exp(-t)), -1.0 / (1.0 + math.exp(t))

    def slope(t):
        a, d = point(t)
        return alpha * B * a ** (alpha - 1.0) - ystar - 1.0 / a - 1.0 / d

    lo, hi = -40.0, 0.0 if call else 40.0
    while call and slope(hi) < 0.0 and hi < 700.0:
        lo, hi = hi, min(2.0 * hi + 1.0, 700.0)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return point(0.5 * (lo + hi))


def price(params, inputs):
    """numerics.moment_line_price, which documents it."""
    alpha = params.alpha
    if not (params.gamma == 1.0 and alpha < 2.0):
        raise NumericsError("line_law", "the moment line prices the gamma = 1,"
                            " alpha < 2 law only")
    S, K, tau = inputs.spot, inputs.strike, inputs.tau
    if not K > 0.0:
        raise NumericsError("line_strike", "the moment line needs K > 0")
    mu = risk_neutral(params).mu
    B = green_scale(mu, tau, 1.0)
    ystar = -inputs.log_fwd - mu * tau
    call = inputs.log_fwd < 0.0                     # K above the forward
    fwd_k = K * inputs.discount
    try:
        with np.errstate(all="ignore"):
            value, err = _integral(alpha, B, ystar, call, S, mu * tau, fwd_k)
    except (OverflowError, ZeroDivisionError):
        value = err = math.nan
    if not (math.isfinite(value) and math.isfinite(err)):
        raise NumericsError(
            "line_float_range", "the moment line leaves the float range at "
            f"y* = {ystar:.6g}, B = {B:.6g}")
    if call != (inputs.kind.value == "call"):       # parity, X = 1
        # in reference_price's order of operations
        value = value - S + fwd_k if call else value + (S - fwd_k)
        err += 2.0 * _EPS * (S + fwd_k)
    if not (value >= 0.0 and err <= ACCURACY_FLOOR * value):
        raise NumericsError(
            "line_uncertified", f"moment-line value {value:.6g} is not "
            f"certifiable to {ACCURACY_FLOOR:g} relative accuracy (error "
            f"bound ~{err:.2g})")
    return value, err


def _integral(alpha, B, ystar, call, S, mu_tau, fwd_k):
    """(value, bound) of the out-of-the-money side: the call
    S e^{mu tau} E[(e^y - k)^+] or the put fwd_k + S e^{mu tau} I."""
    a, d = _abscissa(alpha, B, ystar, call)
    ad = a * abs(d)
    psi = B * a ** alpha - d * ystar - math.log(a) - math.log(abs(d))
    lead = mu_tau + psi
    if call and (math.log(S) + lead
                 + math.log(2.0 / math.pi * math.sqrt(ad)) < -745.2):
        return 0.0, 0.0              # the envelope rounds to 0.0
    sig = 1.0 / math.sqrt(B * alpha * (alpha - 1.0) * a ** (alpha - 2.0)
                          + 1.0 / (a * a) + 1.0 / (d * d))
    target = 1e-18 * min(sig, math.sqrt(ad))
    # beyond u ~ a the modulus falls like exp(B cos(pi alpha / 2) u^alpha)
    reach = ((B * a ** alpha + 60.0 + math.log(ad / target))
             / (-B * math.cos(math.pi * alpha / 2.0))) ** (1.0 / alpha)
    u = np.concatenate(([0.0], np.geomspace(
        0.01 * min(a, abs(d), sig), 2.0 * (a + reach), 256)))
    s, s1 = a + 1j * u, d + 1j * u
    bsa = B * np.exp(alpha * np.log(s))
    # panels per unit length: the log-derivative over 16, the poles' and
    # the branch point's share over 2
    dens = (np.abs(alpha * bsa / s - ystar) / 16.0
            + 0.5 / np.abs(s) + 0.5 / np.abs(s1))
    tail = np.exp(bsa.real - B * a ** alpha) * ad / u
    past = np.flatnonzero(tail[1:] <= target)
    if not past.size:
        raise NumericsError("line_length", "the moment line's envelope does "
                            f"not fall to its target within u = {u[-1]:.3g}")
    end = int(past[0]) + 2
    cum = np.concatenate(([0.0], np.cumsum(
        0.5 * (dens[1:end] + dens[:end - 1]) * np.diff(u[:end]))))
    if not cum[-1] <= 400.0:
        raise NumericsError("line_length", f"the moment line needs "
                            f"{cum[-1]:.4g} panels, more than 400")
    panels = max(math.ceil(cum[-1]), 1)
    edges = np.interp(np.linspace(0.0, cum[-1], panels + 1), cum, u[:end])
    halved = np.empty(2 * panels + 1)
    halved[0::2] = edges
    halved[1::2] = 0.5 * (edges[:-1] + edges[1:])
    t1, w1 = _gauss_panels(edges, _GL24)
    t2, w2 = _gauss_panels(halved, _GL24)
    t = np.concatenate((t1, t2))
    s, s1 = a + 1j * t, d + 1j * t
    log_s = np.log(s)
    bsa = B * np.exp(alpha * log_s)
    h = np.exp(bsa - s1 * ystar - log_s - np.log(s1) - psi)
    n1 = t1.size
    v1 = float((w1 @ h[:n1]).real) / math.pi
    v2 = float((w2 @ h[n1:]).real) / math.pi
    # rounding: each node's exponent to ~4 ulp of its terms' sizes (y* and
    # B carry their inputs' rounding), the sum to log2(n) ulp
    mag = np.abs(w2 * h[n1:])
    noise = _EPS / math.pi * float(mag @ (
        4.0 * (np.abs(bsa[n1:]) + np.abs(s1[n1:]) * (abs(ystar) + 1.0 + B)
               + abs(lead)) + math.log2(mag.size) + 8.0))
    bound = abs(v2 - v1) + noise + tail[end - 1] / math.pi
    if not call:
        scale = S * math.exp(lead)
        return fwd_k + scale * v2, scale * bound + 2.0 * _EPS * fwd_k
    if not v2 > 0.0:
        raise NumericsError("line_uncertified", f"moment-line call integral "
                            f"{v2:.3g} is not positive")
    # in logs: e^lead alone may leave the float range
    value = S * math.exp(lead + math.log(v2))
    return value, value * float(bound / v2)
