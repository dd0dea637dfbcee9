"""The four benchmark workloads.

Each workload has three parts:

* ``setup(seed, ctx)`` builds the inputs from the seed (program work that a
  workload needs before its first operation, such as pricing the recovery
  chain, is part of set-up);
* ``run(inputs, pacer)`` performs one round: the same fixed list of
  operations every time, one caller, one process, no threads.  Only this is
  timed, each operation in a ``pacer.span()`` (see ``pace.py``);
* ``check(inputs, outputs)`` compares one round's outputs with the
  benchmark's own oracles and with properties the method must have.  It
  returns the number of failed operations per round, the problems that make
  the run incorrect, and the share of operations per pricing route.

Functions of the package are always looked up as module attributes
(``pricing.price``, never a name imported from it), so that the traced run
sees every call.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import checks
import oracles
from fracprice import (calibration, cli, model, numerics, pricing, sampledata,
                       volatility)

ModelParams = model.ModelParams
PricingInputs = pricing.PricingInputs
OptionKind = pricing.OptionKind
QuoteChain = calibration.QuoteChain

# what the package raises for an input it will not price
OP_ERRORS = (ValueError, ArithmeticError)


@dataclass
class Round:
    outputs: object
    attempted: int           # operations of every kind in the round
    main_ops: int            # the operations the workload's rate counts
    spans: dict              # the pace.Span of each part of those operations
    parts: dict = field(default_factory=dict)   # other timed operations

    @property
    def paced_s(self):
        return sum(s.paced_s for s in self.spans.values())

    @property
    def raw_s(self):
        return sum(s.raw_s for s in self.spans.values())

    def fingerprint(self):
        return repr(self.outputs)


@dataclass
class Verdict:
    failed: int = 0
    failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    routes: Counter = field(default_factory=Counter)

    def fail(self, what, why):
        self.failed += 1
        self.failures.append(f"{what}: {why}")


def _call_oracle(params, spot, strike, rate, tau):
    """Black-Scholes / stable-law oracle at gamma = 1, the Green-function
    quadrature otherwise."""
    if params.gamma == 1.0:
        return oracles.fmls_call(spot, strike, rate, tau, params.alpha,
                                 params.sigma)
    return numerics.reference_price(params,
                                    PricingInputs(spot, strike, rate, tau))


def _quote_oracle(params, kind, spot, strike, rate, tau):
    call = _call_oracle(params, spot, strike, rate, tau)
    if kind == "put":
        return oracles.put_by_parity(call, spot, strike, rate, tau)
    return call


def _route(params, inputs, fallback):
    """Which path `price` takes for these inputs."""
    if params.kind is model.ModelKind.BLACK_SCHOLES:
        return "closed_form"
    call = PricingInputs(inputs.spot, inputs.strike, inputs.rate, inputs.tau)
    try:
        pricing.dfrac_call_series(params, call)
    except pricing.SeriesDivergenceError:
        return "quadrature" if fallback else "raised"
    return "series"


def _as_call(value, kind, spot, strike, rate, tau):
    if kind == "put":
        return value + spot - strike * math.exp(-rate * tau)
    return value


# ===================================================================== fit
#
# calibrate() on the embedded S&P chain for each model kind, and one dfrac
# recovery fit on a seeded out-of-the-money chain priced by quadrature at a
# known truth.  bs uses the package's five default Nelder-Mead starts; fmls
# and dfrac use the one default start that reaches the best five-start fit
# fastest, so that a round (~7 s) repeats several times within a run.  The
# rate counts the three fixture fits, whose work does not depend on the seed;
# the recovery fit's evaluation count swings by 2x between seeds, so it is
# timed on its own (`recover_dfrac_s`).

RECOVERY_TRUTH = (1.75, 0.95, 0.25)
RECOVERY_START = (1.7, 0.8, 0.3)
RECOVERY_MONEYNESS = (1.02, 1.05, 1.08, 1.12, 1.16, 1.21, 1.27)
RECOVERY_TOL = (0.05, 0.05, 0.01)     # alpha, gamma, sigma

FIT_OPS = (  # (timing name, chain, kind, starts)
    ("fit_bs_s", "fixture", "bs", None),
    ("fit_fmls_s", "fixture", "fmls", (ModelParams.fmls(1.95, 0.4),)),
    ("fit_dfrac_s", "fixture", "dfrac",
     (ModelParams.double_fractional(1.7, 0.8, 0.3),)),
    ("recover_dfrac_s", "recovery", "dfrac",
     (ModelParams.double_fractional(*RECOVERY_START),)),
)


def setup_fit(seed, ctx):
    rng = np.random.default_rng(seed)
    tau = float(rng.uniform(0.8, 1.2))
    strikes = [100.0 * m * float(rng.uniform(0.995, 1.005))
               for m in RECOVERY_MONEYNESS]
    truth = ModelParams.double_fractional(*RECOVERY_TRUTH)
    quotes = tuple(
        ("call", k, numerics.reference_price(
            truth, PricingInputs(100.0, k, 0.01, tau)))
        for k in strikes)
    return {"fixture": sampledata.fixture_chain(),
            "recovery": QuoteChain(100.0, 0.01, tau, quotes)}


def run_fit(inputs, pacer):
    outputs, spans, parts = {}, {}, {}
    for label, chain, kind, starts in FIT_OPS:
        with pacer.span() as span:
            try:
                outputs[label] = calibration.calibrate(inputs[chain], kind,
                                                       seeds=starts)
            except OP_ERRORS as exc:
                outputs[label] = exc
        (spans if chain == "fixture" else parts)[label] = span
    return Round(outputs, len(FIT_OPS), len(spans), spans, parts)


def check_fit(inputs, outputs):
    v = Verdict()
    good_ae = {}
    for label, chain_key, kind, _ in FIT_OPS:
        res, chain = outputs[label], inputs[chain_key]
        if isinstance(res, Exception):
            v.fail(label, f"raised {type(res).__name__}: {res}")
            continue
        p = res.params
        bad = None
        for (qkind, strike, market), err in zip(chain.quotes,
                                                res.per_quote_errors):
            inp = PricingInputs(chain.spot, strike, chain.rate, chain.tau,
                                OptionKind(qkind))
            v.routes[_route(p, inp, False)] += 1
            value = pricing.price(p, inp)
            if abs(abs(value - market) - err) > 1e-12 * chain.spot:
                v.problems.append(f"{label}: reported error at K={strike:g} "
                                  "differs from the recomputed one")
            oracle = _quote_oracle(p, qkind, chain.spot, strike, chain.rate,
                                   chain.tau)
            why = checks.price_matches(value, oracle, chain.spot)
            if why and not bad:
                bad = f"fitted {p.kind.value}{(p.alpha, p.gamma, p.sigma)} " \
                      f"at K={strike:g}: {why}"
        if label == "recover_dfrac_s" and not bad:
            got = (p.alpha, p.gamma, p.sigma)
            if any(abs(g - t) > tol for g, t, tol in
                   zip(got, RECOVERY_TRUTH, RECOVERY_TOL)):
                bad = f"recovered {got}, truth {RECOVERY_TRUTH}"
        if bad:
            v.fail(label, bad)
        elif chain_key == "fixture":
            good_ae[kind] = res.aggregated_error
    # nested models: more freedom never fits the fixture worse
    order = [good_ae[k] for k in ("dfrac", "fmls", "bs") if k in good_ae]
    if any(a > b for a, b in zip(order, order[1:])):
        v.problems.append(f"aggregated errors not ordered dfrac<=fmls<=bs: "
                          f"{good_ae}")
    return v


def detail_fit(rounds):
    out = {label: (statistics.median({**r.spans, **r.parts}[label].paced_s
                                     for r in rounds), "s")
           for label, *_ in FIT_OPS}
    for label, *_ in FIT_OPS:
        res = rounds[0].outputs[label]
        if not isinstance(res, Exception):
            out[label.replace("_s", "_nfev")] = (res.evaluations, "count")
    return out


# =================================================================== sweep
#
# The paper's figure grids through the CLI entry point, in-process, plus one
# `python -m fracprice price` process at the fig3 point per round.  Nearly
# every cell has its own parameters.  The grids are fixed; the seed chooses
# which fig4 cells are also checked against an oracle.

SWEEP_FIGURES = ("fig1", "fig3", "fig4")
SWEEP_ORACLE_CELLS = 6
FIG4_FILES = ("fig4_gamma.csv", "fig4_alpha.csv", "fig4_spot.csv",
              "fig4_sigma.csv")


def _fig3_argv():
    m, p = cli.FIG3_MARKET, cli.FIG3_MODEL
    return ["price", "--model", "dfrac", "--alpha", repr(p["alpha"]),
            "--gamma", repr(p["gamma"]), "--sigma", repr(p["sigma"]),
            "--spot", repr(m["spot"]), "--strike", repr(m["strike"]),
            "--rate", repr(m["rate"]), "--tau", repr(m["tau"]), "--json"]


def setup_sweep(seed, ctx):
    return {"seed": seed, "out": os.path.join(ctx.scratch, "figures"),
            "ctx": ctx}


def _read_csvs(d):
    tables = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), encoding="utf-8") as f:
            tables[name] = [row for row in csv.reader(f)]
    return tables


def run_sweep(inputs, pacer):
    d, ctx = inputs["out"], inputs["ctx"]
    codes, spans = [], {}
    with contextlib.redirect_stdout(io.StringIO()):
        for fig in SWEEP_FIGURES:
            with pacer.span() as spans[fig]:
                codes.append(cli.main(["figures", fig, "--out", d]))
    # a child process is not paced: its wall time is the figure
    t1 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "fracprice"] + _fig3_argv(),
                          env=ctx.env, capture_output=True, text=True,
                          timeout=120, cwd=ctx.root)
    t_cli = time.perf_counter() - t1
    tables = _read_csvs(d)
    cells = sum((len(rows[0]) - 1) * (len(rows) - 1)
                for rows in tables.values())
    outputs = {"codes": codes, "tables": tables,
               "cli": (proc.returncode, proc.stdout.strip())}
    return Round(outputs, cells + 1, cells, spans, {"cli_price_s": t_cli})


def _admissible(alpha, gamma):
    return 1.0 < alpha <= 2.0 and 0.0 < gamma <= alpha and \
        gamma > 1.0 - 1.0 / alpha


def _num(cell):
    return None if cell == "NA" else float(cell)


def _fig4_cells(tables):
    """(file, row, col, alpha, gamma, sigma, spot, value) per fig4 cell."""
    m = cli.FIG3_MARKET
    for name in FIG4_FILES:
        rows = tables[name]
        header = rows[0]
        for r, row in enumerate(rows[1:], start=1):
            x = float(row[0])
            for c, cell in enumerate(row[1:], start=1):
                curve = float(header[c].rsplit("alpha", 1)[-1]
                              if "alpha" in header[c]
                              else header[c].rsplit("gamma", 1)[-1])
                a, g, s, spot = 1.7, None, 0.2, m["spot"]
                if name == "fig4_gamma.csv":
                    a, g = curve, x
                elif name == "fig4_alpha.csv":
                    a, g = x, curve
                elif name == "fig4_spot.csv":
                    g, spot = curve, x
                else:
                    g, s = curve, x
                yield name, r, c, a, g, s, spot, _num(cell)


def check_sweep(inputs, outputs):
    v = Verdict()
    m = cli.FIG3_MARKET
    tables = outputs["tables"]
    if any(outputs["codes"]):
        v.problems.append(f"figures exit codes {outputs['codes']}")
    # fig1: mu per (gamma, alpha) against the benchmark's own series
    rows = tables["fig1.csv"]
    alphas = [float(h.rsplit("alpha", 1)[-1]) for h in rows[0][1:]]
    for row in rows[1:]:
        g = float(row[0])
        for a, cell in zip(alphas, row[1:]):
            val = _num(cell)
            if not _admissible(a, g):
                if val is not None:
                    v.problems.append(f"fig1 mu at inadmissible ({a}, {g})")
                continue
            v.routes["mu_series"] += 1
            why = "NA" if val is None else checks.mu_matches(val, a, g, 0.2)
            if why:
                v.fail(f"fig1 mu({a}, {g})", why)
    # fig3: the partial sums must end on the quadrature price
    params = ModelParams.double_fractional(**cli.FIG3_MODEL)
    fig3_ref = numerics.reference_price(params, PricingInputs(**m))
    rows = tables["fig3.csv"][1:]
    v.routes["series_partial_sums"] += 2 * len(rows)
    last_m = [_num(r[1]) for r in rows if _num(r[1]) is not None][-1]
    last_n = [_num(r[2]) for r in rows if _num(r[2]) is not None][-1]
    why = checks.price_matches(last_m, fig3_ref, m["spot"])
    if why:
        v.fail("fig3 m partial sums", why)
    if abs(last_n - last_m) > 1e-12 * abs(last_m):
        v.fail("fig3 n partial sums", f"end on {last_n!r}, m sums on {last_m!r}")
    # fig4: every cell inside the arbitrage band, monotone where it must be,
    # NA only where the parameters are inadmissible
    cells = list(_fig4_cells(tables))
    by_curve = {}
    numeric = []
    for name, r, c, a, g, s, spot, val in cells:
        what = f"{name} row {r} col {c} ({a}, {g}, {s}, S={spot})"
        if not _admissible(a, g):
            if val is not None:
                v.problems.append(f"{what}: value at inadmissible params")
            continue
        if val is None:
            v.fail(what, "NA at admissible parameters")
            continue
        p = ModelParams.double_fractional(a, g, s)
        v.routes[_route(p, PricingInputs(spot, m["strike"], m["rate"],
                                         m["tau"]), True)] += 1
        why = checks.call_in_band(val, spot, m["strike"], m["rate"], m["tau"],
                                  oracles.mean_factor(a, g, s, m["tau"]))
        if why:
            v.fail(what, why)
            continue
        numeric.append((what, p, spot, val))
        by_curve.setdefault((name, c), []).append((r, spot, s, val))
    for (name, c), pts in by_curve.items():
        if name == "fig4_spot.csv":
            # a call is increasing and convex in spot
            xs, ys = [p[1] for p in pts], [p[3] for p in pts]
            slopes = [(y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in
                      zip(xs, xs[1:], ys, ys[1:])]
            if any(s < 0 for s in slopes) or any(
                    s1 < s0 - 1e-9 for s0, s1 in zip(slopes, slopes[1:])):
                v.problems.append(f"{name} col {c}: not increasing and "
                                  "convex in spot")
        elif name == "fig4_sigma.csv":
            ys = [p[3] for p in pts]
            if any(y1 <= y0 for y0, y1 in zip(ys, ys[1:])):
                v.problems.append(f"{name} col {c}: not increasing in sigma")
    # a seeded sample of fig4 cells against the oracles
    rng = np.random.default_rng(inputs["seed"])
    for i in rng.choice(len(numeric), size=min(SWEEP_ORACLE_CELLS,
                                               len(numeric)), replace=False):
        what, p, spot, val = numeric[int(i)]
        why = checks.price_matches(
            val, _call_oracle(p, spot, m["strike"], m["rate"], m["tau"]), spot)
        if why:
            v.fail(what, why)
    # the CLI process prices the fig3 point
    code, out = outputs["cli"]
    v.routes["cli_process"] += 1
    if code != 0:
        v.fail("cli price", f"exit code {code}")
    else:
        why = checks.price_matches(json.loads(out)["price"], fig3_ref,
                                   m["spot"])
        if why:
            v.fail("cli price", why)
    return v


def detail_sweep(rounds):
    return {"cli_price_s": (statistics.median(
        r.parts["cli_price_s"] for r in rounds), "s")}


# =================================================================== wings
#
# Short-maturity strike chains priced quote by quote with fallback=True.
# Chains at gamma = 1 (alpha = 2 and alpha < 2) span 70-140% of spot, calls
# and puts alternating.  Chains at gamma != 1 keep to strikes above 102% of
# spot: below it the effective log-moneyness A = -log_fwd - mu tau can turn
# negative, where the series returns uncertified values (two fixed quotes of
# that kind are priced in every round and count as failed).

# Strikes sit at least two grid steps away from where the series stops
# certifying, so that jitter never moves a quote to the other route.
GRID_WIDE = (0.70, 0.80, 0.85, 0.95, 1.00, 1.05, 1.15, 1.40)
GRID_FMLS = (0.75, 0.85, 0.95, 1.03, 1.15, 1.30)
WING_CHAINS = (  # (alpha, gamma, sigma, tau, moneyness grid)
    (2.0, 1.0, 0.20, 0.02, GRID_WIDE),
    (1.6, 1.0, 0.25, 0.05, GRID_FMLS),
    (2.0, 1.0, 0.30, 0.25, GRID_WIDE),
    (1.7, 0.85, 0.25, 0.10, (1.02, 1.05, 1.10, 1.20, 1.30, 1.40)),
    (1.8, 1.15, 0.20, 0.05, (1.02, 1.10, 1.15, 1.20, 1.30, 1.40)),
    (1.5, 0.90, 0.20, 0.25, (1.02, 1.05, 1.10, 1.20, 1.35, 1.40)),
)
# gamma != 1, A < 0: a certified-looking series value far from the truth
WING_FAULTS = ((2.0, 0.8, 0.2, 100.0, 0.01, 0.02, 80.0, "call"),
               (2.0, 0.8, 0.2, 100.0, 0.01, 0.02, 80.0, "put"))


def setup_wings(seed, ctx):
    rng = np.random.default_rng(seed)
    chains = []
    for alpha, gamma, sigma, tau, grid in WING_CHAINS:
        if alpha < 2.0:
            alpha = round(alpha + float(rng.uniform(-0.005, 0.005)), 6)
        if gamma != 1.0:
            gamma = round(gamma + float(rng.uniform(-0.005, 0.005)), 6)
        sigma *= float(rng.uniform(0.99, 1.01))
        tau *= float(rng.uniform(0.99, 1.01))
        rate = float(rng.uniform(0.008, 0.012))
        kind = (model.ModelKind.FMLS if gamma == 1.0 and alpha < 2.0
                else model.ModelKind.DOUBLE_FRACTIONAL)
        params = ModelParams(kind, alpha, gamma, sigma)
        quotes = [(("call", "put")[i % 2],
                   100.0 * mny * float(rng.uniform(0.999, 1.001)))
                  for i, mny in enumerate(grid)]
        chains.append((params, 100.0, rate, tau, quotes))
    for a, g, s, spot, rate, tau, strike, kind in WING_FAULTS:
        chains.append((ModelParams.double_fractional(a, g, s), spot, rate, tau,
                       [(kind, strike)]))
    return chains


def run_wings(chains, pacer):
    outputs, n = [], 0
    with pacer.span() as span:
        for params, spot, rate, tau, quotes in chains:
            vals = []
            for kind, strike in quotes:
                inp = PricingInputs(spot, strike, rate, tau, OptionKind(kind))
                try:
                    vals.append(pricing.price(params, inp, fallback=True))
                except OP_ERRORS as exc:
                    vals.append(exc)
                n += 1
            outputs.append(vals)
    return Round(outputs, n, n, {"quotes": span})


def check_wings(chains, outputs):
    v = Verdict()
    for (params, spot, rate, tau, quotes), vals in zip(chains, outputs):
        a, g, s = params.alpha, params.gamma, params.sigma
        if g != 1.0:
            why = checks.mu_matches(model.risk_neutral(params).mu, a, g, s,
                                    model.mu_gamma_mb(params))
            if why:
                v.problems.append(f"dfrac{(a, g, s)}: {why}")
        X = oracles.mean_factor(a, g, s, tau)
        strikes, calls = [], []
        for (kind, strike), val in zip(quotes, vals):
            what = f"{kind} K={strike:.4f} {params.kind.value}{(a, g, s)} " \
                   f"tau={tau:.4f}"
            inp = PricingInputs(spot, strike, rate, tau, OptionKind(kind))
            route = _route(params, inp, True)
            if isinstance(val, Exception):
                v.routes["raised"] += 1
                v.fail(what, f"raised {type(val).__name__}: {val}")
                continue
            why = checks.price_matches(
                val, _quote_oracle(params, kind, spot, strike, rate, tau), spot)
            call = _as_call(val, kind, spot, strike, rate, tau)
            why = why or checks.call_in_band(call, spot, strike, rate, tau, X)
            if why:
                v.routes[f"failed_{route}"] += 1
                v.fail(what, why)
                continue
            v.routes[route] += 1
            strikes.append(strike)
            calls.append(call)
        why = checks.chain_shape(strikes, calls, spot, rate, tau)
        if why:
            v.problems.append(f"chain {params.kind.value}{(a, g, s)}: {why}")
    return v


# =================================================================== smile
#
# build_smile with gammas (0.8, 0.9, 1.0, 1.1) over the embedded chain, one
# fixed out-of-the-money put, and seeded call and put chains priced by the
# benchmark's own Black-Scholes formula from a seeded skew.  The seeded
# chains stay near the money, where the fixed 4x4 series is accurate; the
# fixture's wings and the fixed put carry the known failures.

SMILE_GAMMAS = (0.8, 0.9, 1.0, 1.1)
SMILE_CALL_MONEYNESS = (0.96, 0.98, 1.0, 1.02, 1.04)
SMILE_PUT_MONEYNESS = (1.0, 1.02, 1.04, 1.06)
SMILE_FIXED_PUT = (100.0, 0.02, 0.5, 80.0, 0.25)   # spot, rate, tau, K, sigma


def _bs_chain(kind, spot, rate, tau, strikes, sig_of):
    quotes, sigmas = [], []
    for k in strikes:
        sig = sig_of(k)
        call = oracles.bs_call(spot, k, rate, tau, sig)
        quotes.append((kind, k, call if kind == "call" else
                       oracles.put_by_parity(call, spot, k, rate, tau)))
        sigmas.append(sig)
    return QuoteChain(spot, rate, tau, tuple(quotes)), sigmas


def setup_smile(seed, ctx):
    rng = np.random.default_rng(seed)
    chains = [(sampledata.fixture_chain(), None)]
    spot, rate, tau, k, sig = SMILE_FIXED_PUT
    chains.append(_bs_chain("put", spot, rate, tau, [k], lambda _: sig))
    for kind, grid in (("call", SMILE_CALL_MONEYNESS),
                       ("put", SMILE_PUT_MONEYNESS)):
        rate = float(rng.uniform(0.0, 0.03))
        tau = float(rng.uniform(0.4, 0.8))
        fwd = 100.0 * math.exp(rate * tau)
        s0 = float(rng.uniform(0.18, 0.30))
        skew = float(rng.uniform(-0.12, -0.04))
        strikes = [fwd * mny * float(rng.uniform(0.998, 1.002))
                   for mny in grid]
        chains.append(_bs_chain(kind, 100.0, rate, tau, strikes,
                                lambda k, s0=s0, skew=skew, fwd=fwd:
                                s0 + skew * math.log(k / fwd)))
    return chains


def run_smile(chains, pacer):
    outputs = []
    with pacer.span() as span:
        for chain, _ in chains:
            outputs.append(volatility.build_smile(chain, SMILE_GAMMAS))
    n = sum(len(c.quotes) for c, _ in chains) * (1 + len(SMILE_GAMMAS))
    return Round(outputs, n, n, {"smiles": span})


def check_smile(chains, outputs):
    v = Verdict()
    for (chain, sigmas), points in zip(chains, outputs):
        for i, ((kind, strike, market), pt) in enumerate(zip(chain.quotes,
                                                             points)):
            what = f"{kind} K={strike:.4f} tau={chain.tau:.4f}"
            if sigmas is not None:
                bs_why = checks.vol_matches(pt.sigma_bs, sigmas[i])
            else:
                bs_why = checks.vol_reprices(pt.sigma_bs, market, chain.spot,
                                             strike, chain.rate, chain.tau,
                                             kind)
            v.routes["closed_form"] += 1
            if bs_why:
                v.fail(f"{what} BS vol", bs_why)
            fbs = []
            for g in SMILE_GAMMAS:
                vol = pt.sigma_fbs.get(g)
                v.routes["series_fixed"] += 1
                if vol is None:
                    v.fail(f"{what} f-BS vol gamma={g}", "None")
                    fbs.append(None)
                    continue
                if g == 1.0 and not bs_why:
                    why = checks.fbs_matches_bs(vol, pt.sigma_bs)
                    if why:
                        v.fail(f"{what} f-BS vol gamma=1", why)
                        fbs.append(None)
                        continue
                fbs.append(vol)
            why = checks.increasing(fbs)
            if why:
                v.problems.append(f"{what} f-BS vols over gamma {why}")
    return v


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object
    rate_name: str           # the workload's own name for ops_per_s
    detail: object = None    # rounds -> further named figures


WORKLOADS = {
    "fit": Workload(setup_fit, run_fit, check_fit, "fit_calibrations_per_s",
                    detail_fit),
    "sweep": Workload(setup_sweep, run_sweep, check_sweep, "sweep_cells_per_s",
                      detail_sweep),
    "wings": Workload(setup_wings, run_wings, check_wings,
                      "wings_prices_per_s"),
    "smile": Workload(setup_smile, run_smile, check_smile, "smile_vols_per_s"),
}
