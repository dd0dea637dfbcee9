import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fracprice.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_price_bs_eight_significant_digits(capsys):
    rc, out, _ = run(capsys, "price", "--model", "bs", "--spot", "100",
                     "--strike", "100", "--rate", "0", "--sigma", "0.2",
                     "--tau", "1")
    assert rc == 0
    assert out == "7.9655675\n"


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
    rc, _, err = run(capsys, "figures", "fig99", "--out", str(tmp_path))
    assert rc == 2
    assert "fig99" in err


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


FIG3_ARGV = ("price", "--model", "dfrac", "--spot", "3800", "--strike", "4000",
             "--rate", "0.01", "--sigma", "0.2", "--alpha", "1.7",
             "--gamma", "0.9", "--tau", "1")


def test_price_truncation_flags_taken_literally(capsys):
    # --m-max 0 is an invalid policy, not the default
    rc, _, err = run(capsys, *FIG3_ARGV, "--m-max", "0")
    assert rc == 2
    assert "m_max" in err
    # --n-max 0 keeps only the n = 0 column, which cannot be certified
    rc, _, err = run(capsys, *FIG3_ARGV, "--n-max", "0")
    assert rc == 2
    assert "n-tail" in err
    # a flag left out takes the default policy's value
    assert run(capsys, *FIG3_ARGV, "--n-max", "60") == run(capsys, *FIG3_ARGV)


def test_cli_import_leaves_out_optimizer():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, fracprice.cli; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"



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
])
def test_price_rejected_inputs_exit_2(capsys, argv, reason):
    rc, out, err = run(capsys, "price", *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and reason in err
