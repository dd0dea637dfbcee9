import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fracprice import cli
from fracprice.cli import main
from fracprice.model import ModelParams, mu_gamma_series
from fracprice.numerics import NonConvergenceError
from fracprice.pricing import PricingInputs, price


def run(capsys, *argv):
    try:
        rc = main(list(argv))
    except SystemExit as e:       # argparse refuses a usage error
        rc = e.code
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_price_bs_eight_significant_digits(capsys):
    rc, out, _ = run(capsys, "price", "--model", "bs", "--spot", "100",
                     "--strike", "100", "--rate", "0", "--sigma", "0.2",
                     "--tau", "1")
    assert rc == 0
    assert out == "7.9655675\n"


def test_price_fallback_at_tiny_scale(capsys):
    """At tau 1e-250 the fallback's tilted tail raised a bare ValueError
    (math domain error) and the command printed a traceback; the quote is
    S erf(sigma sqrt(tau) / 2 sqrt 2) = 7.9788456e-125."""
    rc, out, err = run(capsys, "price", "--model", "dfrac", "--alpha", "2",
                       "--gamma", "1", "--sigma", "0.2", "--spot", "100",
                       "--strike", "100", "--rate", "0", "--tau", "1e-250",
                       "--fallback")
    assert rc == 0 and err == ""
    assert out == "7.9788456e-125\n"


def test_price_fallback_forward_underflow_at_gamma_1(capsys):
    """The forward 100 e^-960.49 underflows, so the quadrature refuses this
    fmls quote; the moment line works in logs and prices it: at B = 960
    the call is S to rounding."""
    rc, out, err = run(capsys, "price", "--model", "fmls", "--alpha", "1.7",
                       "--sigma", "5", "--spot", "100", "--strike", "100",
                       "--tau", "100", "--fallback", "--json")
    assert rc == 0 and err == ""
    assert json.loads(out)["price"] == pytest.approx(100.0, rel=1e-12)


def test_price_json_full_precision(capsys):
    rc, out, _ = run(capsys, "price", "--model", "dfrac", "--spot", "3800",
                     "--strike", "4000", "--rate", "0.01", "--sigma", "0.2",
                     "--alpha", "1.7", "--gamma", "0.9", "--tau", "1",
                     "--json")
    assert rc == 0
    v = json.loads(out)["price"]
    assert v == pytest.approx(290.128688083696, rel=1e-10)


def test_price_put(capsys):
    rc, out, _ = run(capsys, "price", "--model", "bs", "--spot", "100",
                     "--strike", "110", "--rate", "0.02", "--sigma", "0.25",
                     "--tau", "0.5", "--kind", "put")
    assert rc == 0
    assert float(out) > 0.0


def test_price_bs_where_sigma_sqrt_tau_underflows(capsys):
    # sigma sqrt(tau) underflows to 0: the intrinsic value, not a traceback
    rc, out, err = run(capsys, "price", "--model", "bs", "--sigma", "1e-300",
                       "--spot", "100", "--strike", "90", "--tau", "1e-300")
    assert rc == 0 and err == ""
    assert out == "10\n"


def test_price_bs_where_sigma_sqrt_tau_overflows(capsys):
    """sigma sqrt(tau) overflows to inf: the infinite-spread limit S, not
    nan (and, with --json, not the invalid JSON NaN)."""
    argv = ["price", "--model", "bs", "--spot", "100", "--strike", "100",
            "--rate", "0", "--sigma", "1e200", "--tau", "1e300"]
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (0, "100\n", "")
    rc, out, err = run(capsys, *argv, "--json")
    assert (rc, out, err) == (0, '{"price": 100.0}\n', "")


def test_price_validation_exit_code(capsys):
    rc, _, err = run(capsys, "price", "--model", "dfrac", "--spot", "100",
                     "--strike", "100", "--sigma", "0.2", "--tau", "1",
                     "--alpha", "0.9", "--gamma", "0.9")
    assert rc == 2
    assert "alpha" in err


def test_price_divergence_without_fallback(capsys):
    rc, _, err = run(capsys, "price", "--model", "dfrac", "--spot", "100",
                     "--strike", "10000", "--sigma", "0.2", "--tau", "0.1",
                     "--alpha", "1.8", "--gamma", "1")
    assert rc == 2
    rc, out, _ = run(capsys, "price", "--model", "dfrac", "--spot", "100",
                     "--strike", "10000", "--sigma", "0.2", "--tau", "0.1",
                     "--alpha", "1.8", "--gamma", "1", "--fallback")
    assert rc == 0
    assert float(out) >= 0.0


def test_mu_seven_significant_digits(capsys):
    rc, out, _ = run(capsys, "mu", "--alpha", "1.7", "--gamma", "0.9",
                     "--sigma", "0.2")
    assert rc == 0
    assert out == "-0.04613473\n"


def test_mu_methods_agree(capsys):
    vals = {}
    for method in ("series", "mb"):
        rc, out, _ = run(capsys, "mu", "--alpha", "1.5", "--gamma", "0.8",
                         "--sigma", "0.3", "--method", method, "--json")
        assert rc == 0
        vals[method] = json.loads(out)["mu"]
    assert vals["series"] == pytest.approx(vals["mb"], abs=1e-10)


def test_mu_contour_float_range_exit_2(capsys):
    """A moment integral beyond the float range is refused, not printed as
    NaN."""
    rc, out, err = run(capsys, "mu", "--alpha", "1.7", "--gamma", "0.9",
                       "--sigma", "1e150", "--method", "mb", "--json")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: moment integral nan")


def test_smile_fixture_header_and_rows(capsys):
    rc, out, _ = run(capsys, "smile", "--fixture")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "strike,price,bs_vol,fbs_vol_g0.8,fbs_vol_g0.9,fbs_vol_g1.1"
    assert len(lines) == 11
    cells = lines[1].split(",")
    assert float(cells[0]) == 900.0
    assert float(cells[1]) == 118.9   # shortest round-trip cell survives


def test_smile_chain_csv(tmp_path, capsys):
    f = tmp_path / "chain.csv"
    f.write_text("kind,strike,price\ncall,100.0,8.0\nput,95.0,3.1\n",
                 encoding="utf-8")
    rc, out, _ = run(capsys, "smile", str(f), "--spot", "100", "--rate",
                     "0.01", "--tau", "1", "--gammas", "0.9")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "strike,price,bs_vol,fbs_vol_g0.9"
    assert len(lines) == 3


def test_smile_missing_file_exit_3(capsys):
    rc, _, err = run(capsys, "smile", "/nonexistent/chain.csv",
                     "--spot", "100", "--rate", "0", "--tau", "1")
    assert rc == 3


def test_smile_undecodable_file_exit_3(tmp_path, capsys):
    f = tmp_path / "chain.csv"
    f.write_bytes(b"kind,strike,price\ncall,100,\xff8\n")
    rc, _, err = run(capsys, "smile", str(f), "--spot", "100",
                     "--rate", "0", "--tau", "1")
    assert rc == 3
    assert err.startswith("error: cannot read")


def test_smile_bad_header_exit_3(tmp_path, capsys):
    f = tmp_path / "chain.csv"
    f.write_text("strike,price\n100,8\n", encoding="utf-8")
    rc, _, err = run(capsys, "smile", str(f), "--spot", "100",
                     "--rate", "0", "--tau", "1")
    assert rc == 3
    assert "header" in err


def test_smile_malformed_row_exit_3(tmp_path, capsys):
    f = tmp_path / "chain.csv"
    f.write_text("kind,strike,price\ncall,oops,8\n", encoding="utf-8")
    rc, _, _ = run(capsys, "smile", str(f), "--spot", "100",
                   "--rate", "0", "--tau", "1")
    assert rc == 3


def test_smile_empty_chain_exit_3(tmp_path, capsys):
    f = tmp_path / "chain.csv"
    f.write_text("kind,strike,price\n", encoding="utf-8")
    rc, _, _ = run(capsys, "smile", str(f), "--spot", "100",
                   "--rate", "0", "--tau", "1")
    assert rc == 3


@pytest.mark.parametrize("command", ["smile", "calibrate"])
def test_chain_file_non_finite_price_exit_2(tmp_path, capsys, command):
    f = tmp_path / "chain.csv"
    f.write_text("kind,strike,price\ncall,90,12.5\ncall,100,nan\n"
                 "call,110,2.1\n", encoding="utf-8")
    argv = [command, str(f), "--spot", "100", "--rate", "0", "--tau", "1"]
    if command == "calibrate":
        argv += ["--model", "bs"]
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == "error: prices must be finite and >= 0\n"


@pytest.mark.parametrize("gammas", ["abc", "nan"])
def test_smile_gammas_not_a_number_exit_2(capsys, gammas):
    rc, out, err = run(capsys, "smile", "--fixture", "--gammas",
                       f"0.9,{gammas}")
    assert (rc, out) == (2, "")
    assert err == f"error: --gammas entry {gammas!r} is not a finite number\n"


@pytest.mark.parametrize("gammas,err", [
    # outside the model's admissible set at alpha = 2: no f-BS vol exists
    ("5,-1", "error: --gammas entry '5': gamma=5.0 outside (0, alpha=2.0]\n"),
    ("0.9,-1", "error: --gammas entry '-1': gamma=-1.0 outside "
               "(0, alpha=2.0]\n"),
    ("0.5", "error: --gammas entry '0.5': gamma=0.5 <= 1 - 1/alpha = 0.5; "
            "drift correction is not negative there\n"),
    # one column twice under one name
    ("0.9,0.90", "error: --gammas entry '0.90' repeats gamma=0.9\n"),
], ids=["above_alpha", "negative", "condition", "repeated"])
def test_smile_gammas_refused_exit_2(capsys, gammas, err):
    rc, out, got = run(capsys, "smile", "--fixture", "--gammas", gammas)
    assert (rc, out, got) == (2, "", err)


def test_calibrate_bs_json(tmp_path, capsys):
    f = tmp_path / "chain.csv"
    from fracprice.pricing import PricingInputs, bs_call
    rows = ["kind,strike,price"]
    for k in (95.0, 100.0, 105.0, 110.0):
        rows.append(f"call,{k},{bs_call(PricingInputs(100.0, k, 0.01, 1.0), 0.3)!r}")
    f.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc, out, _ = run(capsys, "calibrate", str(f), "--model", "bs",
                     "--spot", "100", "--rate", "0.01", "--tau", "1",
                     "--json")
    assert rc == 0
    d = json.loads(out)
    assert d["sigma"] == pytest.approx(0.3, abs=1e-4)
    assert d["converged"] is True
    assert len(d["per_quote_errors"]) == 4


def test_calibrate_labeled_output(tmp_path, capsys):
    f = tmp_path / "chain.csv"
    from fracprice.pricing import PricingInputs, bs_call
    rows = ["kind,strike,price"]
    for k in (95.0, 100.0, 105.0):
        rows.append(f"call,{k},{bs_call(PricingInputs(100.0, k, 0.0, 1.0), 0.2)!r}")
    f.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc, out, _ = run(capsys, "calibrate", str(f), "--model", "bs",
                     "--spot", "100", "--rate", "0", "--tau", "1")
    assert rc == 0
    keys = [ln.split("=")[0] for ln in out.strip().split("\n")]
    assert keys == ["kind", "alpha", "gamma", "sigma", "aggregated_error",
                    "evaluations", "converged"]


def test_figures_unknown_id(tmp_path, capsys):
    """There is no fig2: the parser refuses it with its error line, before
    anything is created under --out."""
    out_dir = tmp_path / "figures"
    rc, out, err = run(capsys, "figures", "fig2", "--out", str(out_dir))
    assert (rc, out) == (2, "")
    assert "error: argument figure_id: invalid choice: 'fig2'" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_figures_fig3_deterministic(tmp_path, capsys):
    rc, out, _ = run(capsys, "figures", "fig3", "--out", str(tmp_path))
    assert rc == 0
    path = out.strip()
    assert os.path.basename(path) == "fig3.csv"
    first = open(path, "rb").read()
    assert first.startswith(b"index,m_partial,n_partial\n")
    assert b"\r" not in first
    run(capsys, "figures", "fig3", "--out", str(tmp_path))
    assert open(path, "rb").read() == first   # byte-identical re-emission


def test_figures_fig5_grid(tmp_path, capsys):
    rc, out, _ = run(capsys, "figures", "fig5", "--out", str(tmp_path))
    assert rc == 0
    lines = open(out.strip(), encoding="utf-8").read().strip().split("\n")
    assert lines[0].startswith("gamma,fbs_atm_vol_k900,")
    assert len(lines) == 1 + 20   # gamma = 0.55 : 0.05 : 1.50
    for ln in lines[1:]:
        cells = ln.split(",")
        assert all(float(c) > 0.0 for c in cells[1:])


def test_figures_fig4_na_exactly_where_inadmissible(tmp_path, capsys):
    """fig4 prices every admissible grid cell (the quadrature takes what the
    series refuses) and writes NA exactly where gamma <= 1 - 1/alpha.  The
    grids are priced by one price_grid call and fig1's mu by one row-wise
    call; every cell is what the cell gives alone."""
    rc, out, _ = run(capsys, "figures", "fig4", "--out", str(tmp_path))
    assert rc == 0
    paths = out.split()
    assert [os.path.basename(p) for p in paths] == [
        f"fig4_{name}.csv" for name in ("gamma", "alpha", "spot", "sigma")]
    na_rows = set()
    for path in paths:
        header, *rows = [ln.split(",") for ln in
                         Path(path).read_text(encoding="utf-8").split()]
        axis = header[0]
        for row in rows:
            for column, cell in zip(header[1:], row[1:]):
                # columns are labelled price_alpha<a> or price_gamma<g>
                point = {"alpha": 1.7, "sigma": 0.2, "spot": 3800.0,
                         column[6:11]: float(column[11:])}
                point[axis] = float(row[0])
                a, g = point["alpha"], point["gamma"]
                if g <= 1.0 - 1.0 / a:
                    assert cell == "NA"
                    na_rows.add((os.path.basename(path), row[0]))
                    continue
                assert math.isfinite(float(cell)), (path, row, column)
                alone = price(
                    ModelParams.double_fractional(a, g, point["sigma"]),
                    PricingInputs(point["spot"], 4000.0, 0.01, 1.0),
                    fallback=True)
                assert float(cell) == alone, (path, row, column)
    assert len(na_rows) == 6
    assert {name for name, _ in na_rows} == {"fig4_gamma.csv"}
    rc, out, _ = run(capsys, "figures", "fig1", "--out", str(tmp_path))
    assert rc == 0
    header, *rows = [ln.split(",") for ln in
                     Path(out.strip()).read_text(encoding="utf-8").split()]
    for row in rows:
        for column, cell in zip(header[1:], row[1:]):
            a, g = float(column[len("mu_alpha"):]), float(row[0])
            if g <= 1.0 - 1.0 / a:
                assert cell == "NA"
                continue
            params = ModelParams.double_fractional(a, g, 0.2)
            assert float(cell) == mu_gamma_series(params).mu


def test_figures_fig1_refused_drift_is_na(tmp_path, capsys, monkeypatch):
    """A drift the series refuses is NA in fig1, as a refused price is in
    fig4, rather than the command's refusal."""
    refused = NonConvergenceError("series_terms", "no convergence")
    monkeypatch.setattr(cli, "mu_gamma_series_rows",
                        lambda rows: [refused] * len(list(rows)))
    rc, out, _ = run(capsys, "figures", "fig1", "--out", str(tmp_path))
    assert rc == 0
    header, *rows = [ln.split(",") for ln in
                     Path(out.strip()).read_text(encoding="utf-8").split()]
    assert len(rows) == 41 and header[0] == "gamma"
    assert all(cell == "NA" for row in rows for cell in row[1:])


def test_figures_fig6_is_the_fixture_smile(tmp_path, capsys):
    rc, out, _ = run(capsys, "figures", "fig6", "--out", str(tmp_path))
    assert rc == 0
    fig6 = Path(out.strip()).read_text(encoding="utf-8").splitlines()
    rc, smile, _ = run(capsys, "smile", "--fixture",
                       "--gammas", "0.8,0.9,1.0,1.1")
    assert rc == 0
    assert fig6 == smile.splitlines()


@pytest.mark.parametrize("argv", [("smile",),
                                  ("calibrate", "--model", "bs")])
def test_chain_missing_exit_3(capsys, argv):
    rc, out, err = run(capsys, *argv, "--spot", "100", "--rate", "0",
                       "--tau", "1")
    assert (rc, out) == (3, "")
    assert err == "error: either a chain file or --fixture is required\n"


@pytest.mark.parametrize("argv", [("smile",),
                                  ("calibrate", "--model", "bs")])
def test_chain_file_and_fixture_exit_2(tmp_path, capsys, argv):
    """A chain file given with --fixture is refused, not ignored."""
    f = tmp_path / "chain.csv"
    f.write_text("kind,strike,price\ncall,100.0,8.0\n", encoding="utf-8")
    rc, out, err = run(capsys, argv[0], str(f), "--fixture", *argv[1:])
    assert (rc, out) == (2, "")
    assert err == "error: give a chain file or --fixture, not both\n"


@pytest.mark.parametrize("command,missing", [
    ("smile", "--spot"), ("smile", "--rate"), ("calibrate", "--tau")])
def test_chain_file_without_market_data_exit_2(tmp_path, capsys, command,
                                               missing):
    f = tmp_path / "chain.csv"
    f.write_text("kind,strike,price\ncall,100.0,8.0\nput,95.0,3.1\n",
                 encoding="utf-8")
    market = {"--spot": "100", "--rate": "0.01", "--tau": "1"}
    del market[missing]
    argv = [command, str(f), *(x for kv in market.items() for x in kv)]
    if command == "calibrate":
        argv += ["--model", "bs"]
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == ("error: --spot, --rate and --tau are required with a "
                   "chain file\n")


def test_import_leaves_out_scipy_subpackages():
    # scipy.special's import is about half of a one-quote CLI process; after
    # each import the child prints which of the two subpackages it loaded.
    # A fit runs the package's own Nelder-Mead, so scipy.optimize stays
    # unloaded after a Black-Scholes fit too
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys\n"
            "for m in ('fracprice', 'fracprice.cli'):\n"
            "    __import__(m)\n"
            "    print(m, sorted({'scipy.special', 'scipy.optimize'}\n"
            "                    & set(sys.modules)))\n"
            "from fracprice.calibration import calibrate\n"
            "from fracprice.sampledata import fixture_chain\n"
            "calibrate(fixture_chain(), 'bs')\n"
            "print('fit', 'scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["fracprice []", "fracprice.cli []",
                                "fit False"]



BS_ATM = ("--spot", "100", "--strike", "100", "--rate", "0", "--tau", "1")


@pytest.mark.parametrize("argv,reason", [
    # a parameter the model kind does not have is rejected, not dropped
    (("--model", "bs", "--alpha", "1.7", "--gamma", "0.5", "--sigma", "0.2")
     + BS_ATM, "BlackScholes requires alpha=2, gamma=1"),
    (("--model", "fmls", "--alpha", "1.7", "--gamma", "0.5", "--sigma", "0.2")
     + BS_ATM, "FMLS requires gamma=1"),
    # non-finite and overflowing inputs
    (("--model", "dfrac", "--alpha", "1.7", "--gamma", "0.9", "--sigma", "0.2",
      "--spot", "100", "--strike", "nan", "--rate", "0", "--tau", "1"),
     "strike=nan must be finite"),
    (("--model", "dfrac", "--alpha", "1.7", "--gamma", "0.9", "--sigma", "0.2",
      "--spot", "100", "--strike", "100", "--rate", "nan", "--tau", "1"),
     "rate=nan must be finite"),
    (("--model", "bs", "--sigma", "0.2", "--spot", "100", "--strike", "100",
      "--tau", "inf"), "tau=inf must be finite"),
    (("--model", "bs", "--sigma", "inf") + BS_ATM, "sigma=inf must be finite"),
    (("--model", "fmls", "--alpha", "1.7", "--sigma", "1e200") + BS_ATM,
     "leaves the float range"),
    (("--model", "dfrac", "--alpha", "1.7", "--gamma", "0.9",
      "--sigma", "1e200") + BS_ATM, "leaves the float range"),
    # e^{-r tau} overflows; a drift so large that A^n/n! overflows
    (("--model", "bs", "--spot", "100", "--strike", "100", "--rate", "-1000",
      "--sigma", "0.2", "--tau", "1"),
     "discount factor e^(-r*tau) overflows at r*tau = -1000"),
    (("--model", "fmls", "--alpha", "1.7", "--sigma", "1e6", "--spot", "100",
      "--strike", "100", "--tau", "1"),
     "series coefficients A^n/n! overflow at |A|=9.87e+09"),
    # at gamma > 1 the mean factor X < 1 puts the fallback put P + S (X - 1)
    # below zero: a refused value, not a crash
    (("--model", "dfrac", "--alpha", "1.9091501082217124",
      "--gamma", "1.1754297176642157", "--sigma", "0.6192074448521081",
      "--spot", "118.0147182757466", "--strike", "68.53964351244062",
      "--rate", "0.02276989831963662", "--tau", "0.3158102075975164",
      "--kind", "put", "--fallback"), "below the parity bound 0"),
    # the forward S e^{(r + mu) tau} underflows to 0 in the quadrature (at
    # gamma = 1 the moment line prices such a quote without a forward)
    (("--model", "dfrac", "--alpha", "1.7", "--gamma", "0.6", "--sigma", "1",
      "--spot", "100", "--strike", "100", "--tau", "1000", "--fallback"),
     "forward S e^((r + mu) tau) = 100 e^-1956.28 underflows"),
    # the quadrature's call payoff overflows on its nodes (it gave NaN)
    (("--model", "dfrac", "--alpha", "1.7", "--gamma", "0.6", "--sigma", "1",
      "--spot", "100", "--strike", "100", "--rate", "1.5", "--tau", "30",
      "--fallback"), "overflows on the quadrature nodes"),
    # the Green-function scale -mu tau^gamma overflows, or underflows to 0
    (("--model", "dfrac", "--alpha", "1.7", "--gamma", "1.5", "--sigma", "0.2",
      "--spot", "100", "--strike", "100", "--rate", "0", "--tau", "1e300"),
     "Green-function scale leaves the float range"),
    (("--model", "dfrac", "--alpha", "1.7", "--gamma", "1.5", "--sigma", "0.2",
      "--spot", "100", "--strike", "0", "--rate", "0", "--tau", "1e-300"),
     "Green-function scale leaves the float range"),
])
def test_price_rejected_inputs_exit_2(capsys, argv, reason):
    rc, out, err = run(capsys, "price", *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and reason in err
