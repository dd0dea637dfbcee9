"""Fit model parameters to a quote chain by minimizing the aggregated
absolute pricing error (Nelder-Mead over the kind's free parameters).
The descent is the package's own, so a fit loads no scipy optimiser.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .model import ModelKind, ModelParams, ValidationError
from .numerics import FracpriceError
from .pricing import PricingInputs, price_grid


class CalibrationError(FracpriceError):
    """A chain that no fit can be found for."""


ALPHA_LO, ALPHA_HI = 1.0 + 1e-6, 2.0
SIGMA_LO, SIGMA_HI = 1e-4, 5.0
GAMMA_MARGIN = 1e-3
# the coordinates a descent moves, per model kind
FREE_PARAMS = {ModelKind.BLACK_SCHOLES: ("sigma",),
               ModelKind.FMLS: ("alpha", "sigma"),
               ModelKind.DOUBLE_FRACTIONAL: ("alpha", "gamma", "sigma")}


@dataclass(frozen=True)
class QuoteChain:
    """Market quotes (kind, strike, price) sharing one spot/rate/maturity;
    inputs holds each quote's PricingInputs, built once here."""
    spot: float
    rate: float
    tau: float
    quotes: tuple
    inputs: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "quotes", tuple(
            (str(getattr(k, "value", k)), float(s), float(p))
            for k, s, p in self.quotes))
        if not self.spot > 0.0:
            raise ValidationError("spot_positive", "spot must be > 0")
        if not self.tau > 0.0:
            raise ValidationError("tau_positive", "tau must be > 0")
        inputs = []
        for k, s, p in self.quotes:
            if k not in ("call", "put"):
                raise ValidationError("kind_value", f"unknown quote kind {k!r}")
            if not s > 0.0:
                raise ValidationError("strike_positive", "strikes must be > 0")
            if not 0.0 <= p < math.inf:
                raise ValidationError("price_range",
                                      "prices must be finite and >= 0")
            # the pricer's input checks (every number finite, a finite
            # log-forward and discount factor) refuse the chain as a whole
            inputs.append(PricingInputs(self.spot, s, self.rate, self.tau, k))
        object.__setattr__(self, "inputs", tuple(inputs))


@dataclass(frozen=True)
class CalibrationResult:
    """The best fit over the seeds.  evaluations counts the objective
    evaluations of every seed's descent; converged is True when the best
    seed's descent met its xatol/fatol stopping test before maxiter, and
    False when maxiter ended it.  penalties counts the penalised quote
    evaluations of the whole calibration (every objective evaluation and the
    final re-pricing), keyed "class:code" by the refusing exception;
    "non_finite" counts finite prices whose error against the market is not
    finite."""
    params: ModelParams
    aggregated_error: float
    evaluations: int
    converged: bool
    per_quote_errors: tuple
    penalties: dict


def _quote_errors(params, chain, penalties):
    """|model - market| per quote, the chain priced by one price_grid call.
    A quote the model refuses costs a large finite penalty (10x the summed
    market prices) and is counted in the Counter penalties."""
    penalty = 10.0 * sum(p for _, _, p in chain.quotes)
    values = price_grid([(params, inp) for inp in chain.inputs])
    errs = []
    for value, (_, _, market) in zip(values, chain.quotes):
        if isinstance(value, Exception):
            penalties[f"{type(value).__name__}:{value.code}"] += 1
            errs.append(penalty)
            continue
        err = abs(value - market)
        if not math.isfinite(err):
            penalties["non_finite"] += 1
            err = penalty
        errs.append(err)
    return errs


def aggregated_error(params, chain):
    """Sum of |model - market| over the chain; failed evaluations contribute
    a large finite penalty (10x the summed market prices) instead of raising."""
    if not chain.quotes:
        raise CalibrationError("chain_empty", "empty quote chain")
    return float(sum(_quote_errors(params, chain, Counter())))


def _default_seeds(kind):
    if kind is ModelKind.BLACK_SCHOLES:
        sigmas = (0.05, 0.1, 0.2, 0.35, 0.6)
        return tuple(ModelParams.black_scholes(s) for s in sigmas)
    if kind is ModelKind.FMLS:
        combos = ((1.9, 0.2), (1.5, 0.2), (1.7, 0.1), (1.3, 0.3), (1.95, 0.4))
        return tuple(ModelParams.fmls(a, s) for a, s in combos)
    combos = ((1.9, 1.0, 0.2), (1.5, 0.9, 0.2), (1.7, 0.8, 0.3),
              (1.6, 1.05, 0.1), (1.95, 1.0, 0.4))
    return tuple(ModelParams.double_fractional(a, g, s) for a, g, s in combos)


def _fold(x, lo, hi):
    """Reflect a coordinate once at each boundary, then clip; returns the
    folded value and the boundary violation distance."""
    v = 0.0
    if x < lo:
        v = lo - x
        x = lo + (lo - x)
    elif x > hi:
        v = x - hi
        x = hi - (x - hi)
    return min(max(float(x), lo), hi), v


def _vector_to_params(x, kind):
    d = dict(zip(FREE_PARAMS[kind], x))
    alpha, v_alpha = _fold(d.get("alpha", 2.0), ALPHA_LO, ALPHA_HI)
    glo = max(1.0 - 1.0 / alpha + GAMMA_MARGIN, GAMMA_MARGIN)
    gamma, v_gamma = _fold(d.get("gamma", 1.0), glo, alpha)
    sigma, v_sigma = _fold(d.get("sigma", 0.2), SIGMA_LO, SIGMA_HI)
    # the kind's fixed coordinates keep their defaults through the folding
    return ModelParams(kind, alpha, gamma, sigma), v_alpha + v_gamma + v_sigma


def _nelder_mead(f, x0, xatol, fatol, maxiter):
    """Minimise f from x0 by unbounded Nelder-Mead (Nelder & Mead 1965):
    reflection 1, expansion 2, contraction 0.5, shrink 0.5, and a first
    simplex that scales each coordinate by 1.05 (0 becomes 0.00025).  The
    numpy expressions and sorts are those of scipy's
    minimize(method="Nelder-Mead") without bounds or adaptive coefficients,
    so every iterate, the minimum and the evaluation count are bitwise the
    same as there.  Stops when the sorted simplex lies within xatol of its
    best vertex and its values within fatol of the best value, or after
    maxiter iterations.  Returns (x, fun, nfev, converged); converged is
    False only on the maxiter exit.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(x) for x in sim], dtype=float)
    nfev, iterations = n + 1, 1
    while True:
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
        if iterations >= maxiter or (
                np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        # each step's coefficients are exact: (1 + 1) * xbar - 1 * worst
        # is 2 * xbar - worst to the bit
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        nfev += 1
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            nfev += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:      # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:                   # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            nfev += 1
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:                   # shrink toward the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
                nfev += n
        iterations += 1
    return sim[0], float(np.min(fsim)), nfev, iterations < maxiter


def calibrate(chain, kind, seeds=None):
    """Nelder-Mead from each seed over the kind's free parameters; returns
    the best CalibrationResult across seeds.  Deterministic given seeds.
    The descent is the package's own _nelder_mead: scipy's Nelder-Mead steps
    bit for bit, with no scipy optimiser imported.  converged is the best
    seed's: its simplex met xatol = 1e-6 and fatol = 1e-10 before maxiter
    (800 iterations per free parameter).  Folding keeps every trial point
    admissible, so the objective prices each one and adds a penalty for how
    far the descent stepped outside the box.
    """
    if len(chain.quotes) < 3:
        raise CalibrationError("chain_size", f"calibration needs at least "
                               f"3 quotes, got {len(chain.quotes)}")
    kind = ModelKind(kind) if not isinstance(kind, ModelKind) else kind
    seeds = _default_seeds(kind) if seeds is None else tuple(seeds)
    if not seeds:
        raise CalibrationError("no_seeds", "calibration needs at least 1 seed")
    free = FREE_PARAMS[kind]
    penalty = 10.0 * sum(p for _, _, p in chain.quotes)
    penalties = Counter()

    def objective(x):
        params, viol = _vector_to_params(x, kind)
        return (float(sum(_quote_errors(params, chain, penalties)))
                + penalty * viol)

    descents = [_nelder_mead(objective, [getattr(seed, name) for name in free],
                             xatol=1e-6, fatol=1e-10,
                             maxiter=400 * len(free) * 2)
                for seed in seeds]
    x, _, _, converged = min(descents, key=lambda res: res[1])
    params, viol = _vector_to_params(x, kind)
    errs = _quote_errors(params, chain, penalties)
    ae = float(sum(errs))
    if viol > 0.0 or ae >= penalty:
        raise CalibrationError(
            "no_fit", "every descent ended penalized; no admissible fit found")
    return CalibrationResult(
        params=params,
        aggregated_error=ae,
        evaluations=sum(res[2] for res in descents),
        converged=converged,
        per_quote_errors=tuple(errs),
        penalties=dict(penalties),
    )
