"""The Green-density quadrature behind numerics.reference_price and
numerics.green_density: the density of the log-price at maturity as an
inverse Mellin transform on lines through its saddles, and the discounted
payoff integrated against it.  Only numerics' entry points import this
module, on their first call: a process that never prices by quadrature
does not compile it.

It is the package's oracle: the series engine and the moment line are
checked against it, and it makes no use of either.  price_grid prices a
series cell at K = 0 with it, and its fallback takes a quote the series
refuses at gamma != 1, or one the moment line refuses at gamma = 1.

It calls green_scale, log_mean_factor and its own density batch through
the numerics module (numerics._density_batch forwards to _density_batch),
so that a profiler wrapping numerics' names sees each of those calls.

Everything here is a pure function of its arguments; no shared mutable state.
The one object with state, a _GreenContext, is built by a reference_price or
green_density call, passed down explicitly, and dropped when the call returns.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.special

from . import model, numerics
from .numerics import (_GL16, _GL24, NonConvergenceError, NumericsError,
                       _gauss_panels)

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


def _mellin_log_ratio(t, alpha, gamma, heavy):
    """log of the Gamma ratio in the density's Mellin representation."""
    if heavy and alpha < 2.0:
        rho = (alpha - 1.0) / alpha
        return (scipy.special.loggamma(t / alpha)
                + scipy.special.loggamma(1.0 - t / alpha)
                + scipy.special.loggamma(1.0 - t)
                - scipy.special.loggamma(1.0 - (gamma / alpha) * t)
                - scipy.special.loggamma(rho * t)
                - scipy.special.loggamma(1.0 - rho * t))
    return (scipy.special.loggamma(1.0 - t)
            - scipy.special.loggamma(1.0 - (gamma / alpha) * t))


def _mellin_log_slope(t, alpha, gamma, heavy):
    """d/dt of _mellin_log_ratio, a sum of digamma terms.  For t off the
    real axis: digamma has its poles there (psi(rho t) at t = 0 is NaN)."""
    ga = gamma / alpha
    s = ga * scipy.special.psi(1.0 - ga * t) - scipy.special.psi(1.0 - t)
    if heavy and alpha < 2.0:
        rho = (alpha - 1.0) / alpha
        s = s + ((scipy.special.psi(t / alpha)
                  - scipy.special.psi(1.0 - t / alpha)) / alpha
                 - rho * (scipy.special.psi(rho * t)
                          - scipy.special.psi(1.0 - rho * t)))
    return s


def _analytic_strip(alpha, heavy):
    # right edge 0.6 keeps the line nodes clear of the Gamma(1-t) pole at t=1
    if heavy and alpha < 2.0:
        return (-alpha + 0.2, 0.6)
    return (-40.0, 0.6)


class _GreenContext:
    """(alpha, gamma) for the span of one reference_price or green_density
    call, and the saddle-scan windows of that call, each built when first
    needed.  Window k of a side holds 321 abscissae from the strip's left
    edge times 4^k to its right edge and the Gamma ratio's log-modulus at
    Im t = 0.5 on them; only the cs * log X term of a scan depends on the
    point, so every scan of the call shares one evaluation per window.  At
    alpha = 2 the heavy ratio is the thin one, and the two sides share
    their windows.  Nothing outlives the call that built the context."""

    def __init__(self, alpha, gamma):
        self.alpha, self.gamma = alpha, gamma
        self._windows = {}

    def window(self, heavy, k):
        key = (heavy and self.alpha < 2.0, k)
        if key not in self._windows:
            lo, hi = _analytic_strip(self.alpha, heavy)
            cs = np.linspace(lo * 4.0 ** k, hi, 321)
            self._windows[key] = cs, _mellin_log_ratio(
                cs + 0.5j, self.alpha, self.gamma, heavy).real
        return self._windows[key]


def _saddle_scans(logX, ctx, heavy, deep=False):
    """Abscissae minimizing the integrand envelope at each log X, and the
    envelopes there.

    The heavy-side strip at alpha < 2 is pole-bounded, but the thin-side
    ratio (the heavy side's too at alpha = 2) is analytic arbitrarily far
    left and its superexponential tails put the saddle deeper than any fixed
    window (~ -X^2/2 in the Gaussian limit).  With deep=True the window is
    widened (ctx.window's k = 1, 2, ...) until the minimum is interior,
    which keeps relative accuracy at any tail depth; the default stays
    inside the fixed strip that the shared-line batch evaluator is built
    around."""
    logX = np.asarray(logX, float)
    c, env = np.empty_like(logX), np.empty_like(logX)
    todo = np.arange(logX.size)
    pole = heavy and ctx.alpha < 2.0
    k = 0
    while todo.size:
        cs, strip = ctx.window(heavy, k)
        i = np.empty(todo.size, int)
        for i0 in range(0, todo.size, 64):            # bound the work matrix
            obj = strip + cs * logX[todo[i0:i0 + 64], None]
            i[i0:i0 + 64] = obj.argmin(axis=1)
        done = (i > 4) | (pole or not deep or cs[0] < -1e5)
        c[todo[done]] = cs[i[done]]
        env[todo[done]] = strip[i[done]] + cs[i[done]] * logX[todo[done]]
        todo = todo[~done]
        k += 1
    return c, env


def _line_set(cs, ctx, heavy, env_caps, lx_lo, lx_hi):
    """Nodes/weights on the upper half-lines Im t in (0, L] through the
    abscissae cs, and their panels: one (t, w, panels) per line.

    A line's L grows until the integrand envelope drops below its env_cap
    (the tail beyond contributes less than the accuracy target).  The
    uniform panel width allows 6 radians of change of the integrand's
    logarithm per panel: it is 6 over the largest |slope(t) + log X| at the
    candidate lengths up to L and log X = lx_lo and lx_hi, the extremes of
    the points sharing this line (slope = d/dt _mellin_log_ratio), clipped
    to [0.25, L].  The rotation X^t alone turns at |log X|, but near a
    saddle the Gamma ratio's phase cancels it, so a deep line carries a
    slowly turning envelope.  The panels are (mids, half, head): panel p
    holds the GL24 nodes c + i (mid_p + half_p x_j), and every panel from
    index head on has the one half-width half.

    Every line's candidate lengths are a prefix of one sequence 4 * 1.3^k,
    so the envelopes and the slopes of all lines are each one
    (lines x lengths) evaluation; a line's values are those of the same
    line set up alone.
    """
    alpha, gamma = ctx.alpha, ctx.gamma
    cs = np.asarray(cs, float)
    # Beyond the asymptotic decay rate (pi/2)(1 - gamma/alpha) there is a
    # quadratic regime: along a deep line the envelope first falls like
    # (1 - gamma/alpha) y^2 / (2|c|) until y ~ |c|, so the admissible length
    # scales with sqrt(|c|).  The cap still catches gamma -> alpha, where no
    # affordable line reaches the target.
    caps = np.maximum(1500.0, 3.0 * np.sqrt(68.0 * np.maximum(-cs, 1.0)
                                            / max(1.0 - gamma / alpha, 1e-12)))
    Ls = [4.0]                                  # candidate lengths, x1.3
    while Ls[-1] * 1.3 < caps.max():
        Ls.append(Ls[-1] * 1.3)
    Ls = np.array(Ls)
    # a line's candidate lengths are those below its cap (caps >= 1500)
    low = ((_mellin_log_ratio(cs[:, None] + 1j * Ls, alpha, gamma,
                              heavy).real < np.asarray(env_caps)[:, None])
           & (Ls < caps[:, None]))
    if not low.any(axis=1).all():
        raise NonConvergenceError(
            "envelope_decay",
            "integrand envelope does not decay within the line cap; "
            f"gamma={gamma} is too close to alpha={alpha} for the "
            "contour representation")
    ks = low.argmax(axis=1)
    # |slope + log X| is convex in log X, so the extremes bound every point;
    # the candidate lengths start at 4, clear of digamma's real-axis poles
    upto = Ls[:ks.max() + 1]
    slope = _mellin_log_slope(cs[:, None] + 1j * upto, alpha, gamma, heavy)
    ext = np.stack([lx_lo, lx_hi], axis=1)
    rates = np.where(np.arange(upto.size)[:, None] <= ks[:, None, None],
                     np.abs(slope[:, :, None] + ext[:, None, :]),
                     0.0).max(axis=(1, 2))
    xg, wg = _GL24
    lines = []
    for c, L, rate in zip(cs.tolist(), Ls[ks].tolist(), rates.tolist()):
        # panel widths grow x1.7 from 0.085 while below wcap (the head),
        # then stay at wcap up to the first edge >= L
        wcap = max(0.25, 6.0 / max(rate, 6.0 / L))
        graded = [0.085]
        while graded[-1] * 1.7 < wcap:
            graded.append(graded[-1] * 1.7)
        edges = np.cumsum([0.0] + graded)
        head = min(int((edges < L).sum()), len(graded))
        nu = max(math.ceil((L - edges[-1]) / wcap), 0)
        half = np.concatenate([0.5 * np.array(graded[:head]),
                               np.full(nu, 0.5 * wcap)])
        mids = np.concatenate([edges[:head],
                               edges[-1] + wcap * np.arange(nu)]) + half
        ys = (mids[:, None] + half[:, None] * xg).ravel()
        lines.append((c + 1j * ys, (half[:, None] * wg).ravel(),
                      (mids, 0.5 * wcap, head)))
    return lines


def _line_sums(logX, t, v, panels):
    """Re sum_k v_k X^(t_k - c) at each log X, for the nodes t_k = c + i y_k
    of a line with the given panels (see _line_set).

    t_k - c = i y_k exactly, so each factor is the rotation e^(i y_k log X).
    The graded head panels are summed node by node.  On the uniform panels
    y = mid_p + half x_j, so the rotation is e^(i mid_p log X) times
    e^(i half x_j log X): the points' panel phases times the (panels x 24)
    values are matrix products, weighted by the 24 offset phases.  Trig
    work per point is one per head node, per uniform panel and per offset.
    The products are real, cos and sin against the values' real and
    imaginary parts: a complex product pages in complex BLAS kernels (~0.6 MB
    resident in a fresh process) that nothing else here uses.  The rows are
    summed in blocks of 256 to bound the work matrices."""
    mids, half, head = panels
    k = 24 * head
    y, vh, vu = t.imag[:k], v[:k], v[k:].reshape(-1, 24)
    a, b = np.ascontiguousarray(vu.real), np.ascontiguousarray(vu.imag)
    off = half * _GL24[0]
    out = np.empty(logX.size)
    for i0 in range(0, logX.size, 256):
        lx = logX[i0:i0 + 256]
        ph = np.multiply.outer(lx, y)
        s = np.cos(ph) @ vh.real - np.sin(ph) @ vh.imag
        ph = np.multiply.outer(lx, mids[head:])
        cp, sp = np.cos(ph), np.sin(ph)
        ph = np.multiply.outer(lx, off)
        out[i0:i0 + 256] = s + ((cp @ a - sp @ b) * np.cos(ph)
                                - (cp @ b + sp @ a) * np.sin(ph)).sum(axis=1)
    return out


def _share_lines(cands, f_at_cands, logX, sad):
    """Abscissae of the lines that the points share, and each line's points
    (boolean masks over the points).

    A point may join the line at a candidate abscissa c when its envelope
    there, f(c) + c log X (f the Gamma ratio's log-modulus at Im t = 0.5),
    is at most its envelope at its own saddle, sad, plus 1: the line then
    amplifies the point's rounding noise by at most a factor e.  The points
    are covered greedily: the leftmost unassigned one (largest log X, its
    saddle furthest left) takes, of the candidates within its budget, the
    one that covers the most unassigned points, and every unassigned point
    within that candidate's budget joins it.  Every point must have a
    candidate within budget; its own saddle is one."""
    fit = f_at_cands[:, None] + cands[:, None] * logX - sad <= 1.0
    free = np.ones(logX.size, bool)
    cs, sels = [], []
    while free.any():
        i = np.flatnonzero(free)[logX[free].argmax()]
        j = int(np.where(fit[:, i], (fit & free).sum(axis=1), -1).argmax())
        sels.append(fit[j] & free)
        cs.append(float(cands[j]))
        free &= ~sels[-1]
    return cs, sels


def _density_batch(xs, ctx, ell):
    """Green density at an array of points xs (in log-price units), scale ell.

    Each point gets an abscissa interpolated from saddle scans at knot values
    of log X, and its envelope sad there.  The points share lines through
    the knots' saddles (_share_lines): a point joins a line only where its
    envelope on it is at most sad + 1, so no point is evaluated far enough
    from its own saddle to lose its value to cancellation.  A point
    enveloped below the batch floor is 0.0 and gets no row in any line sum;
    it still shapes its line's length and panels, and a line none of whose
    points is above the floor is not built.  The lines of a side are set up
    together.
    """
    alpha, gamma = ctx.alpha, ctx.gamma
    xs = np.asarray(xs, float)
    out = np.zeros_like(xs)
    for heavy in (False, True):
        m = (xs < 0) if heavy else (xs > 0)
        if not m.any():
            continue
        logX = np.log(np.abs(xs[m]) / ell)
        # saddle knots: 2 more than the points, up to 33, and at least one
        # per unit of log X
        lo_x, hi_x = logX.min() - 1e-9, logX.max() + 1e-9
        kn = np.linspace(lo_x, hi_x, max(min(33, 2 + len(logX)),
                                         math.ceil(hi_x - lo_x) + 1))
        ck, sk = _saddle_scans(kn, ctx, heavy)
        sk -= ck * kn
        # per-point log-envelope: between two knots it is a mean of the
        # envelopes on their saddles, so one of them is within budget
        sad = np.interp(logX, kn, sk) + np.interp(logX, kn, ck) * logX
        floor = sad.max() - 42.0                      # batch absolute floor
        # a point enveloped below the floor is 0.0: lines built to that
        # floor could only return noise for it
        live = sad >= floor
        shared = zip(*_share_lines(ck, sk, logX, sad))
        cs, sels = zip(*[(c, sel) for c, sel in shared if live[sel].any()])
        lines = _line_set(
            cs, ctx, heavy,
            [float((np.maximum(sad[sel] - 34.0, floor) - c * logX[sel]).min())
             for c, sel in zip(cs, sels)],
            [logX[sel].min() for sel in sels],
            [logX[sel].max() for sel in sels])
        vals = np.zeros_like(logX)
        for c, sel, (t, w, panels) in zip(cs, sels, lines):
            lr = _mellin_log_ratio(t, alpha, gamma, heavy)
            lrmax = lr.real.max()
            sel &= live
            res = _line_sums(logX[sel], t, w * np.exp(lr - lrmax), panels)
            vals[sel] = res / math.pi * np.exp(lrmax + c * logX[sel])
        # live values near the floor can come back as signed noise
        # ~ envelope*eps; the density is nonnegative, so clip to 0
        out[m] = np.maximum(vals, 0.0) / (alpha * np.abs(xs[m]))
    return out


def green_density(alpha, gamma, mu, x, tau=1.0):
    """Density of the log-price Green function at x (x != 0), for stability
    alpha in (1, 2], gamma in (0, alpha], drift mu < 0 and maturity tau > 0;
    NumericsError otherwise.

    Negative x is handled by the reflection rule: the value at -x equals the
    density with mirrored asymmetry evaluated at +x, which is what the heavy
    branch of the Mellin ratio computes.  The integration line is placed on
    the integrand's saddle for each point (see _density_batch).  Below
    |x| = 1e-12 ell the line at Re t = 0.6 cancels against the density's
    finite value at the origin (the error is ~3e-10 there and grows without
    bound as x -> 0), so such a point is refused.
    """
    if not 1.0 < alpha <= 2.0:
        raise NumericsError("alpha_range", "alpha must be in (1, 2]")
    if not 0.0 < gamma <= alpha:
        raise NumericsError("gamma_range", "gamma must be in (0, alpha]")
    if not mu < 0.0:
        raise NumericsError("mu_negative", "mu must be < 0")
    if not tau > 0.0:
        raise NumericsError("tau_positive", "tau must be > 0")
    if not math.isfinite(x):
        raise NumericsError("x_finite", "x must be finite")
    if x == 0.0:
        raise NumericsError("density_origin",
                            "density evaluation requires x != 0")
    ell = numerics.green_scale(mu, tau, gamma) ** (1.0 / alpha)
    if abs(x) < 1e-12 * ell:
        raise NumericsError(
            "density_near_origin",
            f"density at |x| = {abs(x):.3g} below 1e-12 times the "
            f"scale {ell:.6g} is lost to cancellation")
    if abs(x) / ell == math.inf:
        raise NumericsError("x_float_range", f"|x| = {abs(x):.6g} over the "
                            f"scale {ell:.6g} overflows")
    return float(numerics._density_batch(
        np.array([x]), _GreenContext(alpha, gamma), ell)[0])


def _tail_masses(Ys, ctx, ell, heavy):
    """P[y < -Y] (heavy side) or P[y > Y] (thin side) at each Y > 0.

    Each point is integrated on the line through its own (deep) saddle.
    Points whose saddles share an abscissa share one line, long enough for
    the lowest envelope target among them, and one Gamma-ratio evaluation;
    the lines are set up together.  A point whose saddle envelope is below
    e^-800 gets no line: its mass, at most that envelope times the line's
    length, underflows to 0.0."""
    logX = np.log(np.asarray(Ys, float) / ell)
    cs, sad = _saddle_scans(logX, ctx, heavy, deep=True)
    cs = np.minimum(cs, -0.3)
    live = sad >= -800.0
    out = np.zeros_like(logX)
    if not live.any():
        return out
    cl = np.unique(cs[live])
    sels = [live & (cs == c) for c in cl]
    lines = _line_set(cl, ctx, heavy,
                      [float((sad[sel] - c * logX[sel]).min()) - 34.0
                       for c, sel in zip(cl, sels)],
                      [logX[sel].min() for sel in sels],
                      [logX[sel].max() for sel in sels])
    for c, sel, (t, w, panels) in zip(cl, sels, lines):
        lx = logX[sel]
        lr = _mellin_log_ratio(t, ctx.alpha, ctx.gamma, heavy)
        lrmax = lr.real.max()
        res = _line_sums(lx, t, w * np.exp(lr - lrmax) / t, panels)
        out[sel] = -res / math.pi / ctx.alpha * np.exp(lrmax + c * lx)
    return out


# ----------------------------------------------------------------------
# reference pricer (quadrature against the Green density)
# ----------------------------------------------------------------------

def _geometric_panels(a, b, scale):
    """Composite 24-point GL nodes/weights on [a, b]: panels refined x3
    toward 0 from scale/6 down to ~1e-7 scale, and graded x1.5 outward.

    The panels are sized from the payoff integrand (payoff times density).
    Its one real singular point is the density's at y = 0: a cusp, or
    |y|^(alpha - 1) terms, for gamma != 1 or alpha < 2.  A panel [a, rho a]
    maps 0 to -s on [-1, 1], s = (rho + 1)/(rho - 1), so the integrand is
    analytic inside the Bernstein ellipse of parameter s + sqrt(s^2 - 1),
    and an n-point Gauss rule's error from the singularity falls like that
    parameter to the power -2n (Trefethen 2008, SIAM Review 50(1)): at
    rho = 1.5 it is 5 + sqrt 24 = 9.9, at the inward rho = 3 it is 3.73,
    so GL24 leaves ~1e-48 and ~4e-28.  What the rule's degree must resolve
    is how far the integrand falls across one panel.  Only its part above
    ~1e-15 of the value counts: the call body is integrated only while the
    call exceeds 1e-10 of the forward, and its cutoff stops at 1e-15 of it
    (_payoff_upper_cutoff).  So a panel that carries the value spans at
    most ~35 e-folds (a heavy side falls as a power, about one e-fold per
    panel).  The degree-47 GL24 rule integrates e^(lambda x) on [-1, 1] at
    lambda = 17.5 (35 e-folds) to 8e-22 relative; GL16 leaves 6.4e-11."""
    dists = [0.0]
    d = scale / 6.0
    while d > 1e-7 * scale:
        dists.append(d)
        d /= 3.0
    y = scale / 6.0
    while y < max(abs(a), abs(b)):
        dists.append(y)
        y *= 1.5
    bps = {a, b} | {x for r in dists for x in (r, -r) if a < x < b}
    return _gauss_panels(sorted(bps), _GL24)


def _payoff_upper_cutoff(ystar, ctx, ell, log_tol):
    """Smallest y >= max(ystar, ell) beyond which the call integrand tail is
    below the accuracy target (log scale).

    The deep saddle scan matters here: the strip-clipped envelope stops
    decaying once y/ell is large, and the scan would then climb past the
    exp overflow threshold instead of terminating."""
    y = max(ystar, ell)
    for _ in range(400):
        sad = _saddle_scans([math.log(y / ell)], ctx, False, True)[1]
        if y + sad[0] - math.log(ctx.alpha * y) < log_tol:
            return y
        y *= 1.22
    return y


def _chebyshev_values(f, theta):
    """Values at x = cos(theta) of the polynomial through f[j] at the
    Chebyshev-Lobatto points x_j = cos(pi j / n), n = len(f) - 1: its
    Chebyshev coefficients by a DCT-I, as an (n + 1)^2 cosine matrix."""
    n = len(f) - 1
    k = np.arange(n + 1)
    g = np.array(f, float)
    g[[0, n]] *= 0.5
    # j k reduced mod 2n, so that every angle is exact
    c = np.cos(np.pi / n * (np.outer(k, k) % (2 * n))) @ g * (2.0 / n)
    c[[0, n]] *= 0.5
    return np.cos(np.outer(theta, k)) @ c


def _tilted_tail_call(ystar, ctx, ell, scale, negligible):
    """scale * E[(e^y - e^{ystar})^+] deep in the thin tail, where pointwise
    density values sink below the contour quadrature's cancellation floor.

    Integration by parts turns the payoff integral into
    int_{ystar}^inf e^y P[y' > y] dy, a product of positive factors in which
    each tail probability is evaluated on a contour through its own saddle,
    in log space, so relative accuracy survives even when the result is
    dozens of orders of magnitude below the forward.  A search steps a
    cutoff ycut out from ystar until the integrand there is below e^-40
    times its value at ystar.  The integral up to the cutoff is taken to
    be at most the largest value the search has seen, at ystar or at a
    probe, times the cutoff's distance; when twice this bound, times
    scale, is below `negligible`, 0.0 is returned without further work.
    A cutoff step that lands where the tail probability is 0 is bisected
    back in log y to an end where the integrand is between e^-80 and
    e^-40 times its value at ystar, so that no panel is spent on zeros.

    The integral is a fixed rule, 12 geometric panels of GL16 (176 nodes)
    on [ystar, ycut].  The log-integrand is analytic there, so the rule is
    fed from Chebyshev interpolants in u = log y on nested
    Chebyshev-Lobatto sets of 9, 17 and 33 points, whose two ends are the
    values the search already has; each set adds its new points as one
    _tail_masses batch.  The value is accepted once the rule's integrals of
    two successive interpolants agree to 1e-11 relative (17 points against
    9 at the earliest).  Where a value is not finite, or 33 points do not
    settle (a far end whose tail probability is subnormal), the rule takes
    the tail probabilities at its own 176 nodes.

    Returns None when the tail cannot be resolved in double precision.
    Where the tail falls slower than e^-y past ystar, the integrand rises
    from ystar before it falls, and the search steps past its peak; the
    rule's values, taken relative to ystar's, can then overflow, and the
    result is inf."""
    sad = _saddle_scans([math.log(ystar / ell)], ctx, False, True)[1]
    if sad[0] + ystar < -700.0:
        return 0.0  # below the smallest representable double

    def log_integrand(ys):
        t = _tail_masses(ys, ctx, ell, False)
        with np.errstate(divide="ignore"):
            return ys + np.log(np.maximum(t, 0.0))

    top = log_integrand([ystar])[0]
    if top == -math.inf:
        return None
    ycut, peak = ystar, top
    for _ in range(400):
        ylo, ycut = ycut, ycut * 1.25 + 0.25 * ell
        fcut = log_integrand([ycut])[0]
        peak = max(peak, fcut)
        if fcut < top - 40.0:
            break
    # the peak, not the value at ystar, bounds an integrand that rises
    # (the docstring's end); a peak past e^700 (exp overflows) skips this
    if (peak < 700.0
            and 2.0 * scale * math.exp(peak) * (ycut - ystar) < negligible):
        return 0.0
    if fcut == -math.inf:
        # bisect in log y between the last probe at or above top - 40 and
        # the first at 0; the first finite value below top - 40 can be a
        # subnormal tail probability, too coarse to interpolate, so the end
        # is kept above top - 80
        yhi = ycut
        for _ in range(60):
            ycut = math.sqrt(ylo * yhi)
            fcut = log_integrand([ycut])[0]
            if top - 80.0 < fcut < top - 40.0:
                break
            if fcut < top - 40.0:
                yhi = ycut
            else:
                ylo = ycut
        else:
            ycut, fcut = yhi, -math.inf
    ys, ws = _gauss_panels(np.geomspace(ystar, ycut, 12), _GL16)
    # u = log y on [log ystar, log ycut] is x = cos(theta) on [-1, 1]; the
    # Lobatto point j of n is theta = pi j / n, so j = 0 is ycut, j = n ystar
    mid, half = 0.5 * math.log(ycut * ystar), 0.5 * math.log(ycut / ystar)
    theta = np.arccos(np.clip((np.log(ys) - mid) / half, -1.0, 1.0))
    f, m, last = np.array([fcut - top, 0.0]), 1, None
    for n in (8, 16, 32) if math.isfinite(fcut) else ():
        j = np.arange(n + 1)
        new = j % (n // m) != 0
        fn = np.empty(n + 1)
        fn[~new] = f
        fn[new] = log_integrand(
            np.exp(mid + half * np.cos(np.pi / n * j[new]))) - top
        f, m = fn, n
        if not np.isfinite(f).all():
            break
        with np.errstate(over="ignore"):
            val = float(np.exp(_chebyshev_values(f, theta)) @ ws)
        if last is not None and abs(val - last) <= 1e-11 * val < math.inf:
            return scale * (val * math.exp(top))
        last = val
    with np.errstate(over="ignore"):
        # an integrand that rises from ystar may overflow: inf, which
        # reference_price refuses (mean factor or band)
        val = float(np.exp(log_integrand(ys) - top) @ ws)
    return scale * (val * math.exp(top))


def reference_price(params, inputs):
    """Discounted expected payoff under the Green density, by quadrature.

    e^{-r tau} * E[(S e^{(r+mu) tau + y} - K)^+] for calls, under the model's
    drift correction mu = risk_neutral(params).mu, and for puts the
    package's parity P = C - S + K e^{-r tau}, not floored.
    This is the oracle the series engine and the moment line are checked
    against; it makes no use of either.  price_grid's fallback takes it
    where moment_line_price refuses the quote: at K = 0 (line_strike), on
    the heavy side at gamma != 1 (line_side), for a law with
    alpha >= 2 gamma or gamma = alpha (line_law), and where the line
    cannot certify its value (line_length, line_uncertified,
    line_float_range).

    Only the out-of-the-money side, where the value is small, is integrated.
    With y* = -log_fwd - mu tau >= 0 that is the call C, and a put is
    C - S + K e^{-r tau}; a put cannot see a call whose deep-tail integral
    is bounded below ulp(S)/4, so that tail is then skipped.  With y* < 0 it
    is the put integral P, and a put is P + S (X - 1), a call
    P + S X - K e^{-r tau}, X the mean factor of log_mean_factor; at K = 0,
    y* = -inf and P = 0, so the call is S X exactly.  The payoffs are
    K expm1(y - y*) and its negative, exact where y* and the scale are
    below the rounding of 1.  A forward S e^{(r + mu) tau} outside the
    float range, a call payoff that overflows on the nodes, a deep call
    tail that the tilted integral cannot resolve, a mean factor beyond the
    float range, and a call outside the arbitrage band
    [max(S X - K e^{-r tau}, 0), S X] raise NumericsError.
    """
    mu = model.risk_neutral(params).mu
    alpha, gamma = params.alpha, params.gamma
    ctx = _GreenContext(alpha, gamma)
    S, K, r, tau = inputs.spot, inputs.strike, inputs.rate, inputs.tau
    ell = numerics.green_scale(mu, tau, gamma) ** (1.0 / alpha)
    try:
        fwd = S * math.exp((r + mu) * tau)
    except OverflowError:
        fwd = math.inf
    if not 0.0 < fwd < math.inf:
        raise NumericsError(
            "forward_float_range",
            f"forward S e^((r + mu) tau) = {S:.6g} e^{(r + mu) * tau:.6g} "
            f"{'overflows' if fwd else 'underflows'}")
    disc = inputs.discount
    call = inputs.kind.value == "call"
    ystar = -inputs.log_fwd - mu * tau                  # -inf at K = 0

    if ystar >= 0.0:
        log_tol = math.log(1e-15 * max(K, fwd) / fwd)
        yhi = _payoff_upper_cutoff(ystar, ctx, ell, log_tol)
        if yhi > ystar:
            ys, ws = _geometric_panels(ystar, yhi, ell)
            g = numerics._density_batch(ys, ctx, ell)
            with np.errstate(over="ignore", invalid="ignore"):
                c = disc * float((K * np.expm1(ys - ystar) * g) @ ws)
            if not math.isfinite(c):
                raise NumericsError(
                    "payoff_float_range",
                    f"call payoff S e^((r + mu) tau + y) overflows on the "
                    f"quadrature nodes up to y = {yhi:.6g}")
        else:
            c = 0.0
        if ystar > ell and c <= 1e-10 * fwd:
            # out in the tail, where the density values themselves are
            # unreliable; within one scale of the money the body is the
            # price however small it is against the forward (at tau 1e-200
            # a near-the-money call is ~1e-100 S)
            tail = _tilted_tail_call(ystar, ctx, ell, disc * fwd,
                                     0.0 if call else math.ulp(S) / 4.0)
            if tail is None and call:
                raise NumericsError(
                    "tail_unresolved",
                    f"call tail beyond y* = {ystar:.6g} ({ystar / ell:.4g} "
                    "scales out) is not resolved in double precision")
            # no tail: the tail probability at y* came back 0.0 (envelope
            # below e^-800) or as rounding noise, so the call is far below
            # a put's rounding
            c = 0.0 if tail is None else tail

    log_x, = numerics.log_mean_factor([mu], [tau], [gamma])
    with np.errstate(over="ignore"):
        shift = S * float(np.expm1(log_x))          # S (X - 1)
    if not math.isfinite(shift):
        raise NumericsError(
            "mean_factor_overflow",
            f"mean factor e^{log_x:.6g} of the log-price overflows")
    upper = S * math.exp(log_x)
    if ystar < 0.0:
        put = 0.0                               # at K = 0, (K - S_T)^+ = 0
        if K > 0.0:
            ylo = 60.0 + abs(ystar)
            ys, ws = _geometric_panels(-ylo, ystar, ell)
            g = numerics._density_batch(ys, ctx, ell)
            body = float((-K * np.expm1(ys - ystar) * g) @ ws)
            put = disc * (body + K * float(
                _tail_masses([ylo], ctx, ell, True)[0]))
        c = put + (upper - K * disc)
    # outside the series' band, its pad widened by 1e-9 S X for values far
    # above S, a call is quadrature noise
    lower, pad = max(upper - K * disc, 0.0), 1e-6 * (S + K) + 1e-9 * upper
    if not lower - pad <= c <= upper + pad:
        raise NumericsError("band", f"quadrature call {c:.6g} outside the "
                            f"arbitrage band [{lower:.6g}, {upper:.6g}]")
    return c if call else (c - S + K * disc if ystar >= 0.0 else put + shift)

