"""Special functions, the positive-term Gamma-ratio series behind mu and the
Mittag-Leffler mean factor, Mellin-Barnes line integration, and the
Green-function quadrature pricer used as the independent cross-check for the
series engine.

Everything here is a pure function of its arguments; no shared mutable state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, gammaln, gammasgn, loggamma
from scipy.special import rgamma as _rgamma


class NumericsError(ValueError):
    pass


class PoleError(NumericsError):
    """Evaluation exactly on a pole of Gamma."""


class NonConvergenceError(NumericsError):
    """A quadrature refinement check failed to stabilize."""


# ----------------------------------------------------------------------
# special functions
# ----------------------------------------------------------------------

def log_gamma(x):
    """Return (log|Gamma(x)|, sign of Gamma(x)).

    Raises PoleError at nonpositive integers.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"Gamma pole at x={x}")
    return float(gammaln(x)), float(gammasgn(x))


def reciprocal_gamma(x):
    """1/Gamma(x) as a total function: exactly 0 at nonpositive integers."""
    return _rgamma(x)


def normal_cdf(x):
    """Standard normal distribution function."""
    return 0.5 * erfc(-np.asarray(x, float) / math.sqrt(2.0))


# ----------------------------------------------------------------------
# positive-term Gamma-ratio series
# ----------------------------------------------------------------------

def _run_end(mask, k):
    """Index one past the first run of k consecutive True entries of the 1-d
    boolean mask, or None if it has no such run."""
    c = np.concatenate(([0], np.cumsum(mask)))
    hit = np.flatnonzero(c[k:] - c[:-k] == k)
    return int(hit[0]) + k if hit.size else None


def log_gamma_series(z, a, b, tol, max_terms):
    """(log S, n) for S = sum_{n>=0} Gamma(1 + a n) z^n / (n! Gamma(1 + b n)).

    Every term is positive for z >= 0.  At a == b the Gamma ratio cancels and
    S = e^z exactly (n = 1).  Otherwise the terms are summed in log space,
    shifted by their maximum; the sum stops at the first n where three
    consecutive terms each fall below tol times the partial sum, and that n
    is returned.  The term range doubles until this happens and raises
    NonConvergenceError if it has not within max_terms terms.
    """
    if a == b:
        return z, 1
    if z == 0.0:
        return 0.0, 0
    log_z = math.log(z)
    size = min(16, max_terms)
    while True:
        n = np.arange(size + 1.0)
        lt = (gammaln(1.0 + a * n) + n * log_z
              - gammaln(n + 1.0) - gammaln(1.0 + b * n))
        shift = lt.max()
        w = np.exp(lt - shift)
        partial = np.cumsum(w)
        end = _run_end(w[1:] < tol * partial[1:], 3)
        if end is not None:
            return float(shift + math.log(partial[end])), end
        if size >= max_terms:
            raise NonConvergenceError(
                f"Gamma-ratio series terms failed to decay within "
                f"{max_terms} terms (z={z:.4g})")
        size = min(2 * size, max_terms)


# Terms the Mittag-Leffler series may use before the leading asymptotic takes
# over.  The terms peak near n = z^(1/gamma) / gamma, so a series still
# growing at this cap has z^(1/gamma) >~ 300 gamma, and the asymptotic's
# relative error, of order gamma exp(-z^(1/gamma)), is below 1e-14 for every
# gamma above 0.1.
ML_MAX_TERMS = 512
_EPS = float(np.finfo(float).eps)


def log_mittag_leffler(z, gamma):
    """log E_gamma(z) = log sum_n z^n / Gamma(1 + gamma n) for z >= 0.

    Exact (e^z) at gamma = 1; summed to rounding by log_gamma_series where
    that converges within ML_MAX_TERMS terms, and the leading asymptotic
    E_gamma(z) ~ exp(z^(1/gamma)) / gamma beyond.
    """
    try:
        return log_gamma_series(z, 1.0, gamma, _EPS, ML_MAX_TERMS)[0]
    except NonConvergenceError:
        return z ** (1.0 / gamma) - math.log(gamma)


# ----------------------------------------------------------------------
# Mellin-Barnes line integration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ContourSpec:
    """A truncated integration line s = c + t*exp(+-i(pi/2 - tilt)), t in (0, L].

    tilt_deg = 0 is the plain vertical line through c.  A positive tilt bends
    both half-lines symmetrically into the right half-plane, which restores
    superexponential decay for Gamma-ratio integrands whose vertical-line decay
    rate is too weak (or negative) to truncate.
    """
    abscissa: float
    half_length: float = 60.0
    nodes: int = 2048
    tilt_deg: float = 0.0

    def __post_init__(self):
        if not self.half_length > 0.0:
            raise NumericsError("half_length must be > 0")
        if self.nodes < 16:
            raise NumericsError("nodes must be >= 16")
        if not 0.0 <= self.tilt_deg < 90.0:
            raise NumericsError("tilt_deg must be in [0, 90)")


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


def mb_line_integral(integrand, contour):
    """(1/2pi i) * integral of `integrand` along the contour.

    The value is recomputed with both half_length and nodes doubled; if the
    two results differ by more than 1e-9 (relative), the integral has not
    converged on the requested contour and NonConvergenceError is raised.
    """
    c = contour.abscissa
    beta = math.pi / 2.0 - math.radians(contour.tilt_deg)
    eu = complex(math.cos(beta), math.sin(beta))     # upper-ray direction
    el = eu.conjugate()                              # lower-ray direction

    def evaluate(L, n):
        # 16-point panels, n/2 nodes per half-line
        ts, ws = _gauss_panels(np.linspace(0.0, L, max(1, n // 32) + 1), _GL16)
        upper = np.sum(integrand(c + ts * eu) * ws) * eu
        lower = np.sum(integrand(c + ts * el) * ws) * el
        # lower ray is traversed from far point up to c: sign flips
        return (upper - lower) / (2j * math.pi)

    v1 = evaluate(contour.half_length, contour.nodes)
    v2 = evaluate(2.0 * contour.half_length, 2 * contour.nodes)
    if abs(v2 - v1) > 1e-9 * max(abs(v2), 1e-300):
        raise NonConvergenceError(
            f"line integral unstable under doubling: {v1} vs {v2}")
    return complex(v2)


# ----------------------------------------------------------------------
# Green-function density of the log-price at maturity
# ----------------------------------------------------------------------
#
# The density g(y) is an inverse Mellin transform evaluated on a line
# Re t = c.  With X = |y| / ell (ell the scale), the integrand is
# ratio(t) * X^t where ratio is a Gamma ratio; the two tails of the density
# need different ratios:
#
#   y > 0 ("thin" tail):   Gamma(1-t) / Gamma(1-(gamma/alpha) t)
#   y < 0 ("heavy" tail):  the reflected-asymmetry form (see _mellin_log_ratio)
#
# The reflection y -> -y maps the maximally skewed density onto the one with
# opposite skew, whose positive-axis representation is the "heavy" ratio.
# At alpha = 2 the two coincide (symmetric density) and the heavy form is
# replaced by the thin one analytically to avoid cancelling Gamma pairs.


@dataclass(frozen=True)
class GreenDensityQuery:
    """Point query for the log-price Green function."""
    alpha: float
    gamma: float
    mu: float
    x: float
    tau: float = 1.0

    def __post_init__(self):
        if not 1.0 < self.alpha <= 2.0:
            raise NumericsError("alpha must be in (1, 2]")
        if not 0.0 < self.gamma <= self.alpha:
            raise NumericsError("gamma must be in (0, alpha]")
        if not self.mu < 0.0:
            raise NumericsError("mu must be < 0")
        if not self.tau > 0.0:
            raise NumericsError("tau must be > 0")


def _mellin_log_ratio(t, alpha, gamma, heavy):
    """log of the Gamma ratio in the density's Mellin representation."""
    if heavy and alpha < 2.0:
        rho = (alpha - 1.0) / alpha
        return (loggamma(t / alpha) + loggamma(1.0 - t / alpha) + loggamma(1.0 - t)
                - loggamma(1.0 - (gamma / alpha) * t)
                - loggamma(rho * t) - loggamma(1.0 - rho * t))
    return loggamma(1.0 - t) - loggamma(1.0 - (gamma / alpha) * t)


def _analytic_strip(alpha, heavy):
    # right edge 0.6 keeps the line nodes clear of the Gamma(1-t) pole at t=1
    if heavy and alpha < 2.0:
        return (-alpha + 0.2, 0.6)
    return (-40.0, 0.6)


def _saddle_scan(logX, alpha, gamma, heavy, deep=False):
    """Abscissa minimizing the integrand envelope, and the envelope there.

    The heavy-side strip is pole-bounded, but the thin-side ratio is analytic
    arbitrarily far left and its superexponential tails put the saddle deeper
    than any fixed window (~ -X^2/2 in the Gaussian limit).  With deep=True
    the window is widened until the minimum is interior, which keeps relative
    accuracy at any tail depth; the default stays inside the fixed strip that
    the shared-line batch evaluator is built around."""
    lo, hi = _analytic_strip(alpha, heavy)
    while True:
        cs = np.linspace(lo, hi, 321)
        obj = _mellin_log_ratio(cs + 0.5j, alpha, gamma, heavy).real + cs * logX
        i = int(np.argmin(obj))
        if heavy or not deep or i > 4 or lo < -1e5:
            return float(cs[i]), float(obj[i])
        lo *= 4.0


def _line_nodes(c, alpha, gamma, heavy, env_cap, osc):
    """Nodes/weights on the upper half-line Im t in (0, L].

    L grows until the integrand envelope drops below env_cap (the tail beyond
    contributes less than the accuracy target).  Panel width is capped by the
    oscillation rate osc = max |log X| of the points sharing this line.
    """
    # Beyond the asymptotic decay rate (pi/2)(1 - gamma/alpha) there is a
    # quadratic regime: along a deep line the envelope first falls like
    # (1 - gamma/alpha) y^2 / (2|c|) until y ~ |c|, so the admissible length
    # scales with sqrt(|c|).  The cap still catches gamma -> alpha, where no
    # affordable line reaches the target.
    cap = max(1500.0, 3.0 * math.sqrt(68.0 * max(-c, 1.0)
                                      / max(1.0 - gamma / alpha, 1e-12)))
    L = 4.0
    while True:
        if _mellin_log_ratio(c + 1j * L, alpha, gamma, heavy).real < env_cap:
            break
        L *= 1.3
        if L >= cap:
            raise NonConvergenceError(
                "integrand envelope does not decay within the line cap; "
                f"gamma={gamma} is too close to alpha={alpha} for the "
                "contour representation")
    wcap = max(0.25, 6.0 / max(osc, 1.0))
    edges = [0.0]
    d = 0.05
    while edges[-1] < L:
        d = min(d * 1.7, wcap)
        edges.append(edges[-1] + d)
    ys, ws = _gauss_panels(edges, _GL24)
    return c + 1j * ys, ws


def _density_batch(xs, alpha, gamma, ell):
    """Green density at an array of points xs (in log-price units), scale ell.

    Each point gets an abscissa interpolated from saddle scans at knot values
    of log X; points are grouped onto shared lines 0.25 apart in abscissa so
    that no point is evaluated far from its own saddle (which would lose the
    result to cancellation).
    """
    xs = np.asarray(xs, float)
    out = np.zeros_like(xs)
    for heavy in (False, True):
        m = (xs < 0) if heavy else (xs > 0)
        if not m.any():
            continue
        logX = np.log(np.abs(xs[m]) / ell)
        lo, hi = _analytic_strip(alpha, heavy)
        kn = np.linspace(logX.min() - 1e-9, logX.max() + 1e-9,
                         min(33, 2 + len(logX)))
        scans = [_saddle_scan(k, alpha, gamma, heavy) for k in kn]
        ck = np.array([s[0] for s in scans])
        sk = np.array([s[1] - s[0] * k for s, k in zip(scans, kn)])
        cpt = np.clip(np.interp(logX, kn, ck), lo, hi)
        sad = np.interp(logX, kn, sk) + cpt * logX    # per-point log-envelope
        floor = sad.max() - 42.0                      # batch absolute floor
        grp = np.round(cpt / 0.25).astype(int)
        vals = np.empty_like(logX)
        for g in np.unique(grp):
            sel = grp == g
            c = float(np.clip(g * 0.25, lo, hi))
            env_cap = float((np.maximum(sad[sel] - 34.0, floor)
                             - c * logX[sel]).min())
            t, w = _line_nodes(c, alpha, gamma, heavy, env_cap,
                               float(np.abs(logX[sel]).max()))
            lr = _mellin_log_ratio(t, alpha, gamma, heavy)
            lrmax = lr.real.max()
            lx = logX[sel]
            res = np.empty(lx.size)
            for i0 in range(0, lx.size, 64):          # bound the work matrix
                blk = lx[i0:i0 + 64]
                ex = np.exp(lr[None, :] - lrmax + blk[:, None] * (t[None, :] - c))
                res[i0:i0 + 64] = (ex @ w).real
            vals[sel] = res / math.pi * np.exp(lrmax + c * logX[sel])
        # far-tail values below the cancellation floor come back as signed
        # noise ~ envelope*eps; the density is nonnegative, so clip to 0
        out[m] = np.maximum(vals, 0.0) / (alpha * np.abs(xs[m]))
    return out


def green_density(query):
    """Density of the log-price Green function at query.x (x != 0).

    Negative x is handled by the reflection rule: the value at -x equals the
    density with mirrored asymmetry evaluated at +x, which is what the heavy
    branch of the Mellin ratio computes.  The integration line is placed on
    the integrand's saddle for each point (see _density_batch).
    """
    if query.x == 0.0:
        raise NumericsError("density evaluation requires x != 0")
    ell = (-query.mu * query.tau ** query.gamma) ** (1.0 / query.alpha)
    return float(_density_batch(np.array([query.x]),
                                query.alpha, query.gamma, ell)[0])


def _tail_mass(Y, alpha, gamma, ell, heavy):
    """P[y < -Y] (heavy side) or P[y > Y] (thin side), Y > 0."""
    logX = math.log(Y / ell)
    c, sad = _saddle_scan(logX, alpha, gamma, heavy, deep=True)
    c = min(c, -0.3)
    t, w = _line_nodes(c, alpha, gamma, heavy, sad - c * logX - 34.0, abs(logX))
    lr = _mellin_log_ratio(t, alpha, gamma, heavy)
    off = lr.real.max() + c * logX
    ex = np.exp(lr + logX * (t - c) - (off - c * logX)) / t
    return -float((ex @ w).real) / math.pi / alpha * math.exp(off)


# ----------------------------------------------------------------------
# reference pricer (quadrature against the Green density)
# ----------------------------------------------------------------------

def _geometric_panels(a, b, scale):
    """Composite 32-point GL nodes/weights on [a, b], refined geometrically
    toward 0 (where the density peaks) and graded outward."""
    bps = {a, b}
    if a < 0.0 < b:
        bps.add(0.0)
    d = scale / 6.0
    while d > 1e-7 * scale:
        if a < d < b:
            bps.add(d)
        if a < -d < b:
            bps.add(-d)
        d /= 3.0
    y = scale / 6.0
    while y < max(abs(a), abs(b)):
        if a < y < b:
            bps.add(y)
        if a < -y < b:
            bps.add(-y)
        y *= 1.18
    return _gauss_panels(sorted(bps), np.polynomial.legendre.leggauss(32))


def _payoff_upper_cutoff(ystar, alpha, gamma, ell, log_tol):
    """Smallest y >= max(ystar, ell) beyond which the call integrand tail is
    below the accuracy target (log scale).

    The deep saddle scan matters here: the strip-clipped envelope stops
    decaying once y/ell is large, and the scan would then climb past the
    exp overflow threshold instead of terminating."""
    y = max(ystar, ell)
    for _ in range(400):
        logX = math.log(y / ell)
        _, sad = _saddle_scan(logX, alpha, gamma, False, deep=True)
        if y + sad - math.log(alpha * y) < log_tol:
            return y
        y *= 1.22
    return y


def _tilted_tail_call(ystar, alpha, gamma, ell):
    """E[(e^y - e^{ystar})^+] deep in the thin tail, where pointwise density
    values sink below the contour quadrature's cancellation floor.

    Integration by parts turns the payoff integral into
    int_{ystar}^inf e^y P[y' > y] dy, a product of positive factors in which
    each tail probability is evaluated on its own contour in log space, so
    relative accuracy survives even when the result is dozens of orders of
    magnitude below the forward.

    Returns None when the tail cannot be resolved in double precision."""
    _, sad = _saddle_scan(math.log(ystar / ell), alpha, gamma, False,
                          deep=True)
    if sad + ystar < -700.0:
        return 0.0  # below the smallest representable double

    def log_integrand(y):
        t = _tail_mass(y, alpha, gamma, ell, False)
        if t <= 0.0:
            return -math.inf
        return y + math.log(t)

    top = log_integrand(ystar)
    if top == -math.inf:
        return None
    ycut = ystar
    for _ in range(400):
        ycut = ycut * 1.25 + 0.25 * ell
        if log_integrand(ycut) < top - 40.0:
            break
    edges = np.geomspace(ystar, ycut, 12)
    xg, wg = _GL16
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        vals = [math.exp(log_integrand(mid + half * x) - top) for x in xg]
        total += half * float(np.dot(vals, wg))
    return total * math.exp(top)


def reference_price(params, inputs, mu=None):
    """Discounted expected payoff under the Green density, by quadrature.

    e^{-r tau} * E[(S e^{(r+mu) tau + y} - K)^+] for calls and the mirrored
    integrand for puts, with the drift correction mu of the model (computed
    from params when not supplied).  This is the oracle the series engine is
    checked against; it makes no use of the residue series.
    """
    if mu is None:
        from .model import risk_neutral  # deferred: model imports this module
        mu = risk_neutral(params).mu
    if not mu < 0.0:
        raise NumericsError("mu must be < 0")
    alpha, gamma = params.alpha, params.gamma
    S, K, r, tau = inputs.spot, inputs.strike, inputs.rate, inputs.tau
    ell = (-mu * tau ** gamma) ** (1.0 / alpha)
    fwd = S * math.exp((r + mu) * tau)
    disc = math.exp(-r * tau)

    if inputs.kind.value == "call":
        if K <= 0.0:
            ystar = -60.0
        else:
            ystar = -(math.log(S / K) + r * tau) - mu * tau
        log_tol = math.log(1e-15 * max(K, fwd) / fwd)
        yhi = _payoff_upper_cutoff(ystar, alpha, gamma, ell, log_tol)
        if yhi > ystar:
            ys, ws = _geometric_panels(ystar, yhi, ell)
            g = _density_batch(ys, alpha, gamma, ell)
            pay = fwd * np.exp(ys) - K
            body = disc * float((pay * g) @ ws)
        else:
            body = 0.0
        if K > 0.0 and ystar > 0.0 and body <= 1e-10 * fwd:
            # so far out that the density values themselves are unreliable
            tail = _tilted_tail_call(ystar, alpha, gamma, ell)
            if tail is not None:
                return disc * fwd * tail
        return body

    if K <= 0.0:
        return 0.0
    ystar = -(math.log(S / K) + r * tau) - mu * tau
    ylo = 60.0 + abs(ystar)
    ys, ws = _geometric_panels(-ylo, ystar, ell)
    g = _density_batch(ys, alpha, gamma, ell)
    pay = K - fwd * np.exp(ys)
    body = float((pay * g) @ ws)
    return disc * (body + K * _tail_mass(ylo, alpha, gamma, ell, True))
