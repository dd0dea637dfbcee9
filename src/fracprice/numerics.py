"""Special functions, the positive-term Gamma-ratio series behind mu and the
Mittag-Leffler mean factor, composite Gauss-Legendre rules, the refusal
types, and the entry points of the two pricers that are compiled only when
a quote needs them: the Green-density quadrature (reference_price and
green_density, whose code is the quadrature module) and the gamma = 1
moment line (moment_line_price, whose code is the moment_line module).
Each module is imported at its entry point's first call.

Everything here is a pure function of its arguments; no shared mutable state.
"""
from __future__ import annotations

import math

import numpy as np
import scipy  # subpackages load on first use: keep them off the import path


class FracpriceError(ValueError):
    """A refusal: its class names the refusing layer, its code the reason."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class NumericsError(FracpriceError):
    pass


class NonConvergenceError(NumericsError):
    """A quadrature refinement check failed to stabilize."""


# A series or moment-line value that cannot be vouched for to this relative
# accuracy is refused (extreme moneyness/short maturity corners where the
# alternating terms, or the line's cancellation, dwarf the value).
ACCURACY_FLOOR = 1e-9


# ----------------------------------------------------------------------
# special functions
# ----------------------------------------------------------------------

def green_scale(mu, tau, gamma):
    """B = -mu tau^gamma, the scale of the Green function at maturity tau
    (its width is B^(1/alpha)); NumericsError unless tau > 0 and
    0 < B < inf."""
    try:
        # tau <= 0 is refused before the power, which is real and positive
        # for a negative tau at an even integer gamma
        scale = -mu * math.pow(tau, gamma) if tau > 0.0 else math.nan
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise NumericsError("scale_float_range", "Green-function scale "
                            f"leaves the float range at tau={tau:.6g}")
    return scale


def reciprocal_gamma(x):
    """1/Gamma(x) as a total function: exactly 0 at nonpositive integers."""
    return scipy.special.rgamma(x)


def normal_cdf(x):
    """Standard normal distribution function."""
    return 0.5 * scipy.special.erfc(-np.asarray(x, float) / math.sqrt(2.0))


# ----------------------------------------------------------------------
# positive-term Gamma-ratio series
# ----------------------------------------------------------------------

def _run_end(mask, k):
    """Index one past the first run of k consecutive True entries along the
    last axis of a boolean mask of length L; L + 1 where there is none."""
    # hit[..., j]: entries j..j+k-1 all True
    L = mask.shape[-1]
    w = L + 1 - k
    if w <= 0:
        return np.full(mask.shape[:-1], L + 1)
    hit = mask[..., :w]
    for i in range(1, k):
        hit = hit & mask[..., i:i + w]
    return np.where(np.logical_or.reduce(hit, -1), hit.argmax(axis=-1) + k,
                    L + 1)


def log_gamma_series(z, a, b, tol, max_terms):
    """(log S, n) for S = sum_{n>=0} Gamma(1 + a n) z^n / (n! Gamma(1 + b n))
    per row: z, a, b and max_terms are sequences of one value per row, tol
    is every row's.  Returns a list with one entry per row, (log S, n) or
    the NonConvergenceError refusing that row.

    Every term is positive for z >= 0.  At a == b the Gamma ratio cancels and
    S = e^z exactly (n = 1).  Otherwise the terms are summed in log space,
    shifted by their maximum; the sum stops at the first n where three
    consecutive terms each fall below tol times the partial sum, and that n
    is returned.  A row's term range doubles from 16 until this happens, and
    the row is refused if it has not within max_terms terms.  Up to 16 rows
    at the smallest open range are evaluated together, as (rows, terms)
    matrices, so a row's entry is the same whichever rows share its call.
    """
    out = [(zi, 1) if ai == bi else (0.0, 0) if zi == 0.0 else None
           for zi, ai, bi in zip(z, a, b)]
    size = {i: min(16, max_terms[i]) for i, e in enumerate(out) if e is None}
    while size:
        now = min(size.values())
        rows = [i for i, s in size.items() if s == now][:16]
        k, n = len(rows), np.arange(now + 1.0)
        # log Gamma(1 + c n) for c = a, b and 1 is one call
        lg = scipy.special.gammaln(1.0 + np.array(
            [a[i] for i in rows] + [b[i] for i in rows] + [1.0])[:, None] * n)
        log_z = np.array([math.log(z[i]) for i in rows])[:, None]
        lt = (lg[:k] + n * log_z - lg[2 * k]) - lg[k:2 * k]
        shift = np.maximum.reduce(lt, 1)
        w = np.exp(lt - shift[:, None])
        partial = np.add.accumulate(w, 1)
        end = _run_end(w[:, 1:] < tol * partial[:, 1:], 3).tolist()
        for j, i in enumerate(rows):
            if end[j] <= now:
                out[i] = (float(shift[j] + math.log(partial[j, end[j]])),
                          end[j])
            elif now < max_terms[i]:
                size[i] = min(2 * now, max_terms[i])
                continue
            else:
                out[i] = NonConvergenceError(
                    "series_terms", f"Gamma-ratio series terms failed to "
                    f"decay within {max_terms[i]} terms (z={z[i]:.4g})")
            del size[i]
    return out


# Terms the Mittag-Leffler series may use before the leading asymptotic takes
# over.  The terms peak near n = z^(1/gamma) / gamma, so a series still
# growing at this cap has z^(1/gamma) >~ 300 gamma, and the asymptotic's
# relative error, of order gamma exp(-z^(1/gamma)), is below 1e-14 for every
# gamma above 0.1.
ML_MAX_TERMS = 512
_EPS = float(np.finfo(float).eps)


def log_mittag_leffler(z, gamma):
    """log E_gamma(z) = log sum_n z^n / Gamma(1 + gamma n) for z >= 0, per
    row of the sequences z and gamma: a list.

    Exact (e^z) at gamma = 1; summed to rounding by log_gamma_series where
    that converges within ML_MAX_TERMS terms, and the leading asymptotic
    E_gamma(z) ~ exp(z^(1/gamma)) / gamma beyond.
    """
    out = []
    for zi, g, e in zip(z, gamma, log_gamma_series(
            z, [1.0] * len(z), gamma, _EPS, [ML_MAX_TERMS] * len(z))):
        try:
            out.append(zi ** (1.0 / g) - math.log(g)
                       if isinstance(e, Exception) else e[0])
        except OverflowError:           # E_gamma(z) beyond the float range
            out.append(math.inf)
    return out


def log_mean_factor(mu, tau, gamma):
    """log X for the mean factor X = e^{mu tau} E_gamma(-mu tau^gamma) of the
    exponentiated log-price, e^{-r tau} E[S_T] = S X; X = 1 at gamma = 1.
    Per row of the sequences mu, tau and gamma: a list, its Mittag-Leffler
    sums one log_mittag_leffler call.  The Mittag-Leffler argument
    -mu tau^gamma is the combination that scales the Green density, so X
    reproduces the quadrature mean to rounding."""
    scales = [green_scale(m, t, g) for m, t, g in zip(mu, tau, gamma)]
    return [m * t + e for m, t, e in
            zip(mu, tau, log_mittag_leffler(scales, gamma))]


# ----------------------------------------------------------------------
# composite Gauss-Legendre rules
# ----------------------------------------------------------------------

_GL16 = np.polynomial.legendre.leggauss(16)
_GL24 = np.polynomial.legendre.leggauss(24)


def _gauss_panels(edges, rule):
    """Composite Gauss-Legendre nodes/weights: the (nodes, weights) rule on
    each panel between consecutive edges."""
    xg, wg = rule
    edges = np.asarray(edges, float)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * xg[None, :]).ravel(), (half * wg[None, :]).ravel()


# ----------------------------------------------------------------------
# Green-density quadrature (the quadrature module, compiled on first use)
# ----------------------------------------------------------------------

def green_density(alpha, gamma, mu, x, tau=1.0):
    """Density of the log-price Green function at x != 0 and maturity tau;
    quadrature.green_density documents it."""
    from . import quadrature  # compiled on first use, off the import path
    return quadrature.green_density(alpha, gamma, mu, x, tau)


def reference_price(params, inputs):
    """Discounted expected payoff of a quote under the Green density, by
    quadrature: the package's oracle and last fallback.
    quadrature.reference_price documents it."""
    from . import quadrature  # compiled on first use, off the import path
    return quadrature.reference_price(params, inputs)


def _density_batch(xs, ctx, ell):
    """quadrature._density_batch, the Green density at the points xs; the
    quadrature calls it by this name, which a profiler from outside the
    package (bench/tracing.py) wraps to count density points."""
    from . import quadrature
    return quadrature._density_batch(xs, ctx, ell)


# ----------------------------------------------------------------------
# moment-line pricer (gamma = 1)
# ----------------------------------------------------------------------


def moment_line_price(params, inputs):
    """(price, error bound) of a quote under the gamma = 1, 1 < alpha < 2
    law of any model kind, by the moment function's line integral; a coded
    NumericsError where it cannot vouch for the price.

    The out-of-the-money side is integrated: a call struck above the
    forward S e^{r tau} on a line a > 1, a put at or below it on a line
    0 < a < 1 as k + I (see the moment_line module), each line through the
    least point of the integrand's modulus.  The other side is parity
    (the mean factor is 1 at gamma = 1), not floored.  Along the line the
    modulus falls monotonically from that point, so the part beyond a
    length U is at most exp(psi(a)) rho(U) |a (a - 1)| / U, rho(U) =
    |M(a + iU)| / M(a); U is the first probe where that envelope is below
    1e-18 of the bump's scale.  The panels on [0, U] are sized so that the
    integrand's logarithm turns at most 16 radians across one (2 |s - p|
    wide near its poles and branch point p = 0 and 1), and hold GL24.

    The bound adds the two node sets' disagreement (the panels, and the
    panels halved), the envelope beyond U, and the rounding of the
    exponent's terms and of the sums.  The price is returned where it is
    >= 0 and the bound is within ACCURACY_FLOOR of it.  A call whose whole
    envelope, |C| <= S e^{mu tau} exp(psi(a)) (2/pi) sqrt(a (a - 1)), is
    below half the smallest double is 0.0.  Refusal codes: line_law
    (gamma != 1 or alpha = 2), line_strike (K = 0), line_float_range (a
    quantity of the line leaves the float range), line_length (more than
    400 panels, or an envelope that does not fall within the probes) and
    line_uncertified (the bound above ACCURACY_FLOOR of the price: near
    the money at a tiny scale the put line, near a = 1/2, cancels)."""
    from . import moment_line  # compiled on first use, off the import path
    return moment_line.price(params, inputs)
