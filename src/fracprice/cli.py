"""Command-line surface: pricing, drift computation, smile construction,
calibration, and figure-data CSV emission.

Exit codes: 0 success, 2 parameter/validation problems, 3 I/O problems.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .calibration import CalibrationError, QuoteChain, calibrate
from .model import (ModelKind, ModelParams, ValidationError, mu_gamma_approx,
                    mu_gamma_mb, mu_gamma_series)
from .numerics import NumericsError
from .pricing import (DEFAULT_POLICY, PricingInputs, SeriesDivergenceError,
                      TruncationPolicy, partial_sum_table, price)
from .volatility import atm_fbs_implied, build_smile
from . import sampledata

CSV_HEADER = "kind,strike,price"


class ChainFormatError(ValueError):
    pass


def _fmt(x):
    """Shortest round-trip decimal; byte-deterministic."""
    if x is None:
        return "NA"
    return repr(float(x))


def _read_chain_rows(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [ln.rstrip("\n").rstrip("\r") for ln in f]
    except OSError as e:
        raise ChainFormatError(f"cannot read {path}: {e}")
    lines = [ln for ln in lines if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ChainFormatError(
            f"chain file must start with header {CSV_HEADER!r}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3 or parts[0] not in ("call", "put"):
            raise ChainFormatError(f"malformed quote row: {ln!r}")
        try:
            rows.append((parts[0], float(parts[1]), float(parts[2])))
        except ValueError:
            raise ChainFormatError(f"malformed quote row: {ln!r}")
    if not rows:
        raise ChainFormatError("chain file has no quote rows")
    return rows


def _chain_from_args(args):
    if args.fixture:
        rate = args.rate if args.rate is not None else sampledata.FITTED_RATE
        tau = args.tau if args.tau is not None else sampledata.FITTED_TAU
        spot = args.spot if args.spot is not None else sampledata.SPOT
        base = sampledata.fixture_chain()
        return QuoteChain(spot=spot, rate=rate, tau=tau, quotes=base.quotes)
    if not args.chain:
        raise ChainFormatError("either a chain file or --fixture is required")
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
    policy = None
    if args.n_max is not None or args.m_max is not None:
        policy = TruncationPolicy(
            n_max=DEFAULT_POLICY.n_max if args.n_max is None else args.n_max,
            m_max=DEFAULT_POLICY.m_max if args.m_max is None else args.m_max)
    value = price(params, inputs, policy, fallback=args.fallback)
    if args.json:
        print(json.dumps({"price": value}))
    else:
        print(format(value, ".8g"))
    return 0


def cmd_mu(args):
    params = ModelParams.double_fractional(args.alpha, args.gamma, args.sigma)
    if args.method == "series":
        value = mu_gamma_series(params).mu
    elif args.method == "mb":
        value = mu_gamma_mb(params)
    else:
        value = mu_gamma_approx(params)
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


def cmd_smile(args):
    gammas = [float(g) for g in args.gammas.split(",") if g.strip()]
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


def _grid_csv(path, axis, values, label, columns, cell):
    """CSV with one row per grid value v (rounded to 10 decimals): v, then
    cell(v, c) per column c."""
    header = [axis] + [f"{label}{_gamma_label(c)}" for c in columns]
    rows = [[float(v)] + [cell(float(v), c) for c in columns]
            for v in np.round(values, 10)]
    return _write_csv(path, header, rows)


def _fig1(out_dir):
    def mu_at(gamma, alpha):
        try:
            params = ModelParams.double_fractional(alpha, gamma, 0.2)
            return mu_gamma_series(params).mu
        except ValidationError:
            return None

    return [_grid_csv(os.path.join(out_dir, "fig1.csv"), "gamma",
                      np.arange(0.40, 1.2001, 0.02), "mu_alpha",
                      (1.6, 1.7, 1.8, 1.9, 2.0), mu_at)]


def _fig3(out_dir):
    params = ModelParams.double_fractional(**FIG3_MODEL)
    inputs = PricingInputs(**FIG3_MARKET)
    diag = partial_sum_table(params, inputs)
    n_rows = max(len(diag.partial_sums_m), len(diag.partial_sums_n))
    rows = []
    for i in range(n_rows):
        m = diag.partial_sums_m[i] if i < len(diag.partial_sums_m) else None
        n = diag.partial_sums_n[i] if i < len(diag.partial_sums_n) else None
        rows.append([str(i + 1), m, n])
    return [_write_csv(os.path.join(out_dir, "fig3.csv"),
                       ["index", "m_partial", "n_partial"], rows)]


def _fig4(out_dir):
    market = FIG3_MARKET
    spot = market["spot"]

    def price_at(alpha, gamma, sigma, spot):
        params = ModelParams.double_fractional(alpha, gamma, sigma)
        inputs = PricingInputs(spot, market["strike"], market["rate"],
                               market["tau"])
        try:
            return price(params, inputs, fallback=True)
        except (ValidationError, SeriesDivergenceError, NumericsError):
            return None

    def grid(name, values, label, columns, cell):
        return _grid_csv(os.path.join(out_dir, f"fig4_{name}.csv"), name,
                         values, label, columns, cell)

    g_curves = (0.8, 0.9, 1.0, 1.1)
    return [
        grid("gamma", np.arange(0.40, 1.0001, 0.02), "price_alpha",
             (1.5, 1.6, 1.7, 1.8, 1.9, 2.0),
             lambda g, a: price_at(a, g, 0.2, spot)),
        grid("alpha", np.arange(1.10, 2.0001, 0.05), "price_gamma", g_curves,
             lambda a, g: price_at(a, g, 0.2, spot) if g <= a else None),
        grid("spot", np.arange(2800.0, 4000.01, 100.0), "price_gamma",
             g_curves, lambda s, g: price_at(1.7, g, 0.2, s)),
        grid("sigma", np.arange(0.05, 0.6001, 0.05), "price_gamma", g_curves,
             lambda s, g: price_at(1.7, g, s, spot)),
    ]


def _fig5(out_dir):
    quotes = dict(zip(sampledata.STRIKES, sampledata.CALL_PRICES))
    return [_grid_csv(
        os.path.join(out_dir, "fig5.csv"), "gamma",
        np.arange(0.55, 1.5001, 0.05), "fbs_atm_vol_k",
        sampledata.STRIKES,
        lambda g, k: atm_fbs_implied(quotes[k], sampledata.SPOT, 1.027, g))]


def _fig6(out_dir):
    header, rows = _smile_table(sampledata.fixture_chain(),
                                (0.8, 0.9, 1.0, 1.1))
    return [_write_csv(os.path.join(out_dir, "fig6.csv"), header, rows)]


_FIGURES = {"fig1": _fig1, "fig3": _fig3, "fig4": _fig4,
            "fig5": _fig5, "fig6": _fig6}


def cmd_figures(args):
    if args.figure_id not in _FIGURES:
        print(f"unknown figure id {args.figure_id!r}; "
              f"choose from {sorted(_FIGURES)}", file=sys.stderr)
        return 2
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
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.add_argument("--m-max", type=int, default=None, dest="m_max")
    p.add_argument("--fallback", action="store_true",
                   help="use the quadrature pricer if the series diverges")
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
    p.add_argument("figure_id")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, CalibrationError, SeriesDivergenceError,
            NumericsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ChainFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
