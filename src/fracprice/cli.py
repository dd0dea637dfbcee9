"""Command-line surface: pricing, drift computation, smile construction,
calibration, and figure-data CSV emission.

Exit codes: 0 success, 2 a FracpriceError (a refused parameter, input or
value), 3 a file that cannot be read or written: an unreadable or malformed
chain file, or a figures --out path that is an existing file (File exists).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import zip_longest

import numpy as np

from .calibration import QuoteChain, calibrate
from .model import (ModelKind, ModelParams, ValidationError, mu_gamma_approx,
                    mu_gamma_mb, mu_gamma_series, mu_gamma_series_rows)
from .numerics import FracpriceError
from .pricing import (PricingInputs, _attempt, dfrac_call_series, price,
                      price_grid)
from .volatility import atm_fbs_implied, build_smile
from . import sampledata

CSV_HEADER = "kind,strike,price"


class ChainFormatError(FracpriceError):
    """A chain file that cannot be read as quotes."""


def _fmt(x):
    """Shortest round-trip decimal, byte-deterministic; None or refused: NA."""
    if x is None or isinstance(x, FracpriceError):
        return "NA"
    return repr(float(x))


def _read_chain_rows(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [ln.rstrip("\n").rstrip("\r") for ln in f]
    except (OSError, UnicodeError) as e:
        raise ChainFormatError("chain_unreadable", f"cannot read {path}: {e}")
    lines = [ln for ln in lines if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ChainFormatError(
            "chain_header",
            f"chain file must start with header {CSV_HEADER!r}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3 or parts[0] not in ("call", "put"):
            raise ChainFormatError("chain_row", f"malformed quote row: {ln!r}")
        try:
            rows.append((parts[0], float(parts[1]), float(parts[2])))
        except ValueError:
            raise ChainFormatError("chain_row", f"malformed quote row: {ln!r}")
    if not rows:
        raise ChainFormatError("chain_empty", "chain file has no quote rows")
    return rows


def _chain_from_args(args):
    if args.fixture and args.chain:
        raise ValidationError("chain_and_fixture",
                              "give a chain file or --fixture, not both")
    if args.fixture:
        rate = args.rate if args.rate is not None else sampledata.FITTED_RATE
        tau = args.tau if args.tau is not None else sampledata.FITTED_TAU
        spot = args.spot if args.spot is not None else sampledata.SPOT
        base = sampledata.fixture_chain()
        return QuoteChain(spot=spot, rate=rate, tau=tau, quotes=base.quotes)
    if not args.chain:
        raise ChainFormatError("chain_missing",
                               "either a chain file or --fixture is required")
    rows = _read_chain_rows(args.chain)
    if args.spot is None or args.rate is None or args.tau is None:
        raise ValidationError(
            "chain_market_data",
            "--spot, --rate and --tau are required with a chain file")
    return QuoteChain(spot=args.spot, rate=args.rate, tau=args.tau,
                      quotes=tuple(rows))


def cmd_price(args):
    # validation rejects an --alpha or --gamma that the kind does not allow
    params = ModelParams(ModelKind(args.model), args.alpha, args.gamma,
                         args.sigma)
    inputs = PricingInputs(args.spot, args.strike, args.rate, args.tau,
                           args.kind)
    value = price(params, inputs, fallback=args.fallback)
    if args.json:
        print(json.dumps({"price": value}))
    else:
        print(format(value, ".8g"))
    return 0


def cmd_mu(args):
    params = ModelParams.double_fractional(args.alpha, args.gamma, args.sigma)
    value = {"series": lambda p: mu_gamma_series(p).mu, "mb": mu_gamma_mb,
             "approx": mu_gamma_approx}[args.method](params)
    if args.json:
        print(json.dumps({"mu": value, "method": args.method}))
    else:
        print(format(value, ".7g"))
    return 0


def _gamma_label(g):
    return format(g, "g")


def _csv_line(cells):
    return ",".join(c if isinstance(c, str) else _fmt(c) for c in cells)


def _smile_table(chain, gammas):
    """Header and rows of a smile: strike, price, BS vol, f-BS vol per gamma."""
    header = ["strike", "price", "bs_vol"] + [
        f"fbs_vol_g{_gamma_label(g)}" for g in gammas]
    rows = [[pt.strike, pt.market_price, pt.sigma_bs]
            + [pt.sigma_fbs.get(g) for g in gammas]
            for pt in build_smile(chain, gammas)]
    return header, rows


def _gammas(text):
    """The --gammas list.  Refused: an entry that is not a finite number, a
    gamma the model does not admit at alpha = 2 (no f-BS vol exists for it),
    and a repeated value."""
    gammas = []
    for g in filter(str.strip, text.split(",")):
        try:
            value = float(g)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValidationError(
                "gammas_value",
                f"--gammas entry {g.strip()!r} is not a finite number")
        try:
            ModelParams.double_fractional(2.0, value, 1.0)
        except ValidationError as e:
            raise ValidationError(
                e.code, f"--gammas entry {g.strip()!r}: {e}") from None
        if value in gammas:
            raise ValidationError(
                "gammas_repeated", f"--gammas entry {g.strip()!r} repeats "
                f"gamma={_gamma_label(value)}")
        gammas.append(value)
    return gammas


def cmd_smile(args):
    gammas = _gammas(args.gammas)
    header, rows = _smile_table(_chain_from_args(args), gammas)
    print("\n".join(_csv_line(r) for r in [header] + rows))
    return 0


def cmd_calibrate(args):
    chain = _chain_from_args(args)
    result = calibrate(chain, ModelKind(args.model))
    p = result.params
    if args.json:
        print(json.dumps({
            "kind": p.kind.value, "alpha": p.alpha, "gamma": p.gamma,
            "sigma": p.sigma, "aggregated_error": result.aggregated_error,
            "evaluations": result.evaluations,
            "converged": result.converged,
            "per_quote_errors": list(result.per_quote_errors),
        }))
        return 0
    print(f"kind={p.kind.value}")
    print(f"alpha={format(p.alpha, '.7g')}")
    print(f"gamma={format(p.gamma, '.7g')}")
    print(f"sigma={format(p.sigma, '.7g')}")
    print(f"aggregated_error={format(result.aggregated_error, '.7g')}")
    print(f"evaluations={result.evaluations}")
    print(f"converged={str(result.converged).lower()}")
    return 0


# ----------------------------------------------------------------- figures

FIG3_MARKET = dict(spot=3800.0, strike=4000.0, rate=0.01, tau=1.0)
FIG3_MODEL = dict(alpha=1.7, gamma=0.9, sigma=0.2)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for row in [header] + rows:
            f.write(_csv_line(row) + "\n")
    return path


def _axis(values):
    """A grid axis: its values rounded to 10 decimals, as floats."""
    return [float(v) for v in np.round(values, 10)]


def _grid_csvs(out_dir, grids, make, evaluate):
    """A CSV per grid (name, axis, values, label, columns, point): a row per
    value v of _axis(values), v and then the entry of the cell at the point
    point(v, c) of each column c.  The cell at a point p is make(*p), made
    once however many grids share p; the cells of every grid are evaluated
    by one evaluate(cells) call, one entry per cell.  A cell that make
    refuses is NA, as is an entry that is a FracpriceError (_fmt)."""
    made = {}       # point: cell, in grid order; a refused cell stays out
    for _, _, values, _, columns, point in grids:
        for p in (point(v, c) for v in _axis(values) for c in columns):
            try:
                made[p] = make(*p)
            except FracpriceError:
                pass
    entries = dict(zip(made, evaluate(list(made.values()))))
    paths = []
    for name, axis, values, label, columns, point in grids:
        header = [axis] + [f"{label}{_gamma_label(c)}" for c in columns]
        rows = [[v] + [entries.get(point(v, c)) for c in columns]
                for v in _axis(values)]
        paths.append(_write_csv(os.path.join(out_dir, f"{name}.csv"),
                                header, rows))
    return paths


def _fig1(out_dir):
    gammas, alphas = np.arange(0.40, 1.2001, 0.02), (1.6, 1.7, 1.8, 1.9, 2.0)
    grids = [("fig1", "gamma", gammas, "mu_alpha", alphas,
              lambda g, a: (a, g))]
    # every admissible cell's mu from one call
    return _grid_csvs(
        out_dir, grids, lambda a, g: ModelParams.double_fractional(a, g, 0.2),
        lambda cells: [mu if isinstance(mu, FracpriceError) else mu.mu
                       for mu in mu_gamma_series_rows(cells)])


def _fig3(out_dir):
    params = ModelParams.double_fractional(**FIG3_MODEL)
    inputs = PricingInputs(**FIG3_MARKET)
    _, diag = dfrac_call_series(params, inputs)
    rows = [[str(i), m, n] for i, (m, n) in enumerate(
        zip_longest(diag.partial_sums_m, diag.partial_sums_n), 1)]
    return [_write_csv(os.path.join(out_dir, "fig3.csv"),
                       ["index", "m_partial", "n_partial"], rows)]


def _fig4(out_dir):
    spot, g_curves = FIG3_MARKET["spot"], (0.8, 0.9, 1.0, 1.1)
    # (name, axis, values, label, columns, point (v, c) -> (alpha, gamma,
    # sigma, spot)) per grid
    grids = [
        ("fig4_gamma", "gamma", np.arange(0.40, 1.0001, 0.02), "price_alpha",
         (1.5, 1.6, 1.7, 1.8, 1.9, 2.0), lambda g, a: (a, g, 0.2, spot)),
        ("fig4_alpha", "alpha", np.arange(1.10, 2.0001, 0.05), "price_gamma",
         g_curves, lambda a, g: (a, g, 0.2, spot)),
        ("fig4_spot", "spot", np.arange(2800.0, 4000.01, 100.0),
         "price_gamma", g_curves, lambda s, g: (1.7, g, 0.2, s)),
        ("fig4_sigma", "sigma", np.arange(0.05, 0.6001, 0.05), "price_gamma",
         g_curves, lambda s, g: (1.7, g, s, spot)),
    ]

    def cell(alpha, gamma, sigma, s):
        return (ModelParams.double_fractional(alpha, gamma, sigma),
                PricingInputs(**dict(FIG3_MARKET, spot=s)))
    # every admissible cell of the four grids, priced by one call
    return _grid_csvs(out_dir, grids, cell,
                      lambda cells: price_grid(cells, fallback=True))


def _fig5(out_dir):
    quotes = dict(zip(sampledata.STRIKES, sampledata.CALL_PRICES))
    grids = [("fig5", "gamma", np.arange(0.55, 1.5001, 0.05), "fbs_atm_vol_k",
              sampledata.STRIKES, lambda g, k: (k, g))]
    return _grid_csvs(
        out_dir, grids, lambda k, g: (quotes[k], g),
        lambda cells: [_attempt(atm_fbs_implied, q, sampledata.SPOT, 1.027, g)
                       for q, g in cells])


def _fig6(out_dir):
    header, rows = _smile_table(sampledata.fixture_chain(),
                                (0.8, 0.9, 1.0, 1.1))
    return [_write_csv(os.path.join(out_dir, "fig6.csv"), header, rows)]


_FIGURES = {"fig1": _fig1, "fig3": _fig3, "fig4": _fig4,
            "fig5": _fig5, "fig6": _fig6}


def cmd_figures(args):
    os.makedirs(args.out, exist_ok=True)
    for path in _FIGURES[args.figure_id](args.out):
        print(path)
    return 0


# ----------------------------------------------------------------- parser

def _add_market_flags(p):
    p.add_argument("--spot", type=float, default=None)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fracprice",
        description="Option pricing under space-time fractional diffusion")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="price a single option")
    p.add_argument("--model", choices=["bs", "fmls", "dfrac"], required=True)
    p.add_argument("--spot", type=float, required=True)
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--rate", type=float, default=0.0)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--kind", choices=["call", "put"], default="call")
    p.add_argument("--fallback", action="store_true",
                   help="if the series diverges, use the moment line "
                   "(gamma = 1) or the quadrature pricer")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("mu", help="risk-neutral drift correction")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--method", choices=["series", "mb", "approx"],
                   default="series")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("smile", help="implied-vol smile from a quote chain")
    p.add_argument("chain", nargs="?", default=None)
    p.add_argument("--fixture", action="store_true",
                   help="use the embedded S&P 500 chain")
    p.add_argument("--gammas", default="0.8,0.9,1.1")
    _add_market_flags(p)
    p.set_defaults(func=cmd_smile)

    p = sub.add_parser("calibrate", help="fit model parameters to a chain")
    p.add_argument("chain", nargs="?", default=None)
    p.add_argument("--fixture", action="store_true")
    p.add_argument("--model", choices=["bs", "fmls", "dfrac"], required=True)
    p.add_argument("--json", action="store_true")
    _add_market_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("figures", help="emit figure-data CSV files")
    p.add_argument("figure_id", choices=sorted(_FIGURES))
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ChainFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except FracpriceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
