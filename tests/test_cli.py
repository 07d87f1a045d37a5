import csv
import importlib.util
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import nvol
from nvol.cli import main, table1_rows

ROOT = pathlib.Path(__file__).resolve().parent.parent

SMILE_CONFIG = """\
[model]
type = shifted_lognormal
sigma0 = 0.014
b = 0.1

[market]
S0 = 0.03

[strikes]
min = 0.02
max = 0.05
count = 7

[maturities]
list = 1 5

[methods]
list = asympt0 asympt1 exact
"""

# ATM deviations (approximation minus exact, in percent, 4 decimals) for the
# reference parameter set sigma0bar = 3%, b = 0.2
TABLE1_EXPECTED = {
    1: (0.0199, -0.0001, 0.0000),
    2: (0.0395, -0.0005, 0.0000),
    5: (0.0971, -0.0029, 0.0001),
    10: (0.1885, -0.0115, 0.0005),
    20: (0.3562, -0.0438, 0.0042),
    30: (0.5058, -0.0942, 0.0138),
}


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture()
def smile_config(tmp_path):
    p = tmp_path / "smile.ini"
    p.write_text(SMILE_CONFIG)
    return str(p)


def test_table1_matches_reference_values():
    for r in table1_rows():
        want = TABLE1_EXPECTED[int(r["T"])]
        assert round(100 * r["dev_order0"], 4) == pytest.approx(want[0], abs=5e-5)
        assert round(100 * r["dev_order1"], 4) == pytest.approx(want[1], abs=5e-5)
        assert round(100 * r["dev_order2"], 4) == pytest.approx(want[2], abs=5e-5)


def test_table1_stdout_formatting():
    code, out = run(["table1"])
    assert code == 0
    assert "0.5058%" in out and "-0.0942%" in out and "0.0138%" in out


def test_smile_csv_schema_and_flags(smile_config, tmp_path):
    out = tmp_path / "smile.csv"
    code, _ = run(["smile", "--config", smile_config, "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"K", "T", "method", "sigma_N", "flag"}
    assert len(rows) == 7 * 2 * 3
    for r in rows:
        assert r["flag"] in ("ok", "low_confidence", "clamped")
        assert math.isfinite(float(r["sigma_N"]))
        assert float(r["sigma_N"]) > 0.0
    # order-1 sits closer to exact than order-0 at the longer maturity
    by = {(r["method"], float(r["K"]), float(r["T"])): float(r["sigma_N"]) for r in rows}
    k, T = 0.03, 5.0
    assert abs(by[("asympt1", k, T)] - by[("exact", k, T)]) < abs(
        by[("asympt0", k, T)] - by[("exact", k, T)])


def test_smile_deterministic_bytes(smile_config, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["smile", "--config", smile_config, "--out", str(a), "--seed", "3"])
    run(["smile", "--config", smile_config, "--out", str(b), "--seed", "3"])
    assert a.read_bytes() == b.read_bytes()


def test_smile_json_format(smile_config, tmp_path):
    out = tmp_path / "smile.json"
    code, _ = run(["smile", "--config", smile_config, "--out", str(out),
                   "--format", "json"])
    assert code == 0
    data = json.loads(out.read_text())
    assert isinstance(data, list) and set(data[0]) == {"K", "T", "method",
                                                       "sigma_N", "flag"}


def test_missing_config_exits_2(tmp_path):
    code, _ = run(["smile", "--config", str(tmp_path / "nope.ini")])
    assert code == 2


def test_empty_strikes_exits_2(tmp_path):
    bad = SMILE_CONFIG.replace("min = 0.02\nmax = 0.05\ncount = 7", "list =")
    p = tmp_path / "bad.ini"
    p.write_text(bad)
    code, _ = run(["smile", "--config", str(p)])
    assert code == 2


def test_unknown_method_exits_2(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text(SMILE_CONFIG.replace("asympt0 asympt1 exact", "asympt9"))
    code, _ = run(["smile", "--config", str(p)])
    assert code == 2


@pytest.mark.parametrize("option", ["n_space = 10", "n_time_per_year = 0",
                                    "min_time_steps = 0", "width_stdevs = nan",
                                    "width_stdevs = -1"])
def test_bad_pde_option_exits_2(tmp_path, capsys, option):
    p = tmp_path / "bad.ini"
    p.write_text(SMILE_CONFIG.replace("asympt0 asympt1 exact", "pde")
                 + f"\n[pde]\n{option}\n")
    code, _ = run(["smile", "--config", str(p)])
    assert code == 2
    assert option.split()[0] in capsys.readouterr().err


@pytest.mark.parametrize("option", ["n_paths = 3", "n_paths = 0", "n_paths = 1",
                                    "steps_per_year = 0"])
def test_bad_mc_option_exits_2(tmp_path, capsys, option):
    p = tmp_path / "bad.ini"
    p.write_text(SMILE_CONFIG.replace("asympt0 asympt1 exact", "mc")
                 + f"\n[mc]\n{option}\n")
    code, _ = run(["smile", "--config", str(p)])
    assert code == 2
    err = capsys.readouterr().err
    assert "[mc]" in err and option.split()[0] in err


def test_mc_rows_of_shared_march_equal_one_maturity_configs(tmp_path):
    # 0.25 and 0.5 share the step size 0.005 and so one Euler march
    def smile(maturities):
        p = tmp_path / "mc.ini"
        p.write_text(SMILE_CONFIG.replace("asympt0 asympt1 exact", "exact mc")
                     .replace("list = 1 5", f"list = {maturities}")
                     + "\n[mc]\nn_paths = 2000\n")
        code, out = run(["smile", "--config", str(p), "--seed", "3"])
        assert code == 0
        return out.splitlines()

    both = smile("0.25 0.5")
    one = smile("0.25") + smile("0.5")[1:]
    assert both == one
    assert sum(",mc," in line for line in both) == 14


@pytest.mark.parametrize("config", sorted(p.stem for p in (ROOT / "configs").glob("fig*.ini")))
def test_smile_fig3_matches_checked_in_csv(tmp_path, config):
    # golden files: the asympt and pde rows of every paper figure, byte for byte
    out = tmp_path / f"{config}.csv"
    code, _ = run(["smile", "--config", str(ROOT / "configs" / f"{config}.ini"),
                   "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (ROOT / "out" / f"{config}.csv").read_bytes()


def test_run_figures_check(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("run_figures",
                                                  ROOT / "scripts" / "run_figures.py")
    run_figures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_figures)
    fig3 = [ROOT / "configs" / "fig3_kink_bL_0.ini"]
    assert run_figures.check(fig3) == 0
    # one edited row and one missing row
    lines = (ROOT / "out" / "fig3_kink_bL_0.csv").read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace(",", ";", 1)
    (tmp_path / "fig3_kink_bL_0.csv").write_text("".join(lines[:-1]))
    capsys.readouterr()
    assert run_figures.check(fig3, tmp_path) == 1
    assert "fig3_kink_bL_0.csv: 2 differing rows" in capsys.readouterr().out


NO_TIME_VALUE = """\
[model]
type = piecewise_linear
sigma0 = 0.008
bL = -0.1
bR = 0.1

[market]
S0 = 0.03

[strikes]
list = 0.01 0.02 0.025 0.03 0.038 0.08

[maturities]
list = 0.01 1

[methods]
list = pde mc exact

[mc]
n_paths = 2000
"""


def test_rows_without_time_value_are_flagged(tmp_path):
    # a price equal to intrinsic has no implied vol; it used to be reported
    # as sigma_N = 0 flagged ok (mc, exact) or low_confidence (pde).  The kink's
    # exact time values 1.7e-17 (K=0.02) and 7.3e-34 (K=0.08) at T=0.01 are
    # below the density quadrature's error target; 2.7e-13 (K=0.025) is not
    p = tmp_path / "ntv.ini"
    p.write_text(NO_TIME_VALUE)
    out = tmp_path / "ntv.csv"
    code, _ = run(["smile", "--config", str(p), "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    by = {(r["method"], float(r["K"]), float(r["T"])): r for r in rows}
    for key in (("mc", 0.08, 1.0), ("exact", 0.01, 0.01), ("pde", 0.038, 0.01),
                ("exact", 0.02, 0.01), ("exact", 0.08, 0.01)):
        assert by[key]["flag"] == "no_time_value", key
    assert by[("exact", 0.025, 0.01)]["flag"] == "ok"
    for r in rows:
        v = float(r["sigma_N"])
        if r["flag"] in ("ok", "low_confidence"):
            assert math.isfinite(v) and v > 0.0, r
        elif r["flag"] == "no_time_value":
            assert math.isnan(v), r


_IMPORT_PROBE = """
import json, sys
import nvol, nvol.cli

def loaded():
    return [m for m in ("scipy.optimize", "scipy.linalg", "scipy.special", "scipy.sparse")
            if m in sys.modules]

seen = {"import": loaded()}
for name, config in (("smile", sys.argv[1]), ("pde", sys.argv[2])):
    assert nvol.cli.main(["smile", "--config", config, "--out", sys.argv[3]]) == 0
    seen[name] = loaded()
print(json.dumps(seen))
"""


def test_import_hygiene(tmp_path):
    # each command loads only the scipy parts its work calls, in a fresh
    # interpreter so that nothing imported by the test session counts
    smile = tmp_path / "smile.ini"
    smile.write_text(SMILE_CONFIG)
    pde = tmp_path / "pde.ini"
    pde.write_text(SMILE_CONFIG.replace("asympt0 asympt1 exact", "pde")
                   .replace("list = 1 5", "list = 0.25"))
    src = str(pathlib.Path(nvol.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(smile), str(pde),
                           str(tmp_path / "out.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["import"] == []
    assert seen["smile"] == []
    assert "scipy.linalg" in seen["pde"] and "scipy.optimize" not in seen["pde"]


@pytest.mark.parametrize("section, key, value", [("model", "sigma0", "nan"),
                                                 ("market", "S0", "inf")])
def test_non_finite_parameter_exits_2(tmp_path, capsys, section, key, value):
    lines = [f"{key} = {value}" if ln.startswith(f"{key} =") else ln
             for ln in SMILE_CONFIG.splitlines()]
    p = tmp_path / "bad.ini"
    p.write_text("\n".join(lines) + "\n")
    code, _ = run(["smile", "--config", str(p)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"[{section}]" in err and f"'{key}'" in err and "finite" in err


DRIFTED_SABR = """\
[model]
type = quadratic_sabr
sigma0 = 0.01
gamma = 0.3
rho = -0.3

[market]
S0 = 0.03
mu0 = 0.002
mu1 = -0.001

[strikes]
list = 0.025 0.03 0.0305 0.033

[maturities]
list = 0.5 1

[methods]
list = asympt2 asympt0 asympt1
"""

KINK = DRIFTED_SABR.replace("""type = quadratic_sabr
sigma0 = 0.01
gamma = 0.3
rho = -0.3""", """type = piecewise_linear
sigma0 = 0.008
bL = -0.1
bR = 0.1""")


@pytest.mark.parametrize("text, flag", [(DRIFTED_SABR, "ok"), (KINK, "low_confidence")],
                         ids=["drifted_sabr", "kink"])
def test_smile_rows_equal_smile_function(tmp_path, text, flag):
    # coefficients are computed once per strike and reused across orders and
    # maturities; every row must still be the float smile() gives (JSON
    # output carries the full repr)
    import warnings

    from nvol.asymptotics import smile
    from nvol.cli import load_config

    p = tmp_path / "s.ini"
    p.write_text(text)
    out = tmp_path / "s.json"
    code, _ = run(["smile", "--config", str(p), "--out", str(out), "--format", "json"])
    assert code == 0
    cfg = load_config(str(p))
    rows = json.loads(out.read_text())
    assert len(rows) == 4 * 2 * 3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for r in rows:
            want = smile(cfg.model, cfg.setup, r["K"], r["T"], int(r["method"][-1]))
            assert r["sigma_N"] == want
            assert r["flag"] == flag


def test_convert_roundtrip():
    code, out = run(["convert", "0.03", "2.0", "0.25", "--direction", "ln2n"])
    assert code == 0
    sn = float(out.strip())
    code, out = run(["convert", "0.03", "2.0", f"{sn:.12g}", "--direction", "n2ln"])
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.25, rel=1e-9)


def test_convert_errors():
    code, _ = run(["convert", "-0.03", "2.0", "0.25", "--direction", "ln2n"])
    assert code == 2
    # normal vol above the saturation cap F sqrt(2 pi / T) cannot be inverted
    cap = 0.03 * math.sqrt(2.0 * math.pi / 2.0)
    code, _ = run(["convert", "0.03", "2.0", f"{cap * 1.01:.12g}",
                   "--direction", "n2ln"])
    assert code == 3


def test_extract_lv_on_synthetic_surface(tmp_path):
    # flat 1.1% implied surface should invert to sigma_D = 1.1% everywhere
    path = tmp_path / "surface.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["K", "T", "price", "sigmaN"])
        for T in (0.5, 1.0, 1.5):
            for i in range(11):
                K = 0.02 + 0.002 * i
                w.writerow([K, T, 0.0, 0.011])
    out = tmp_path / "lv.csv"
    code, _ = run(["extract-lv", str(path), "--s0", "0.03", "--T", "1.0",
                   "--K", "0.028", "--K", "0.03", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["K"] for r in rows] == ["0.028", "0.03"]
    for r in rows:
        assert float(r["sigma_D"]) == pytest.approx(0.011, rel=1e-6)
    # maturity outside the surface span is a config error
    code, _ = run(["extract-lv", str(path), "--s0", "0.03", "--T", "2.0"])
    assert code == 2


def test_sqrt_t_report_keys(tmp_path, monkeypatch):
    # stub the expensive PDE fit; this checks wiring, not numerics
    import nvol.cli as cli
    from nvol.exact_solutions import FitReport

    monkeypatch.setattr(cli, "sqrt_t_detector", lambda *a, **k: FitReport(
        coefficient=5e-4, exponent=0.51, residual=0.02,
        grid=(0.015625, 0.03125, 0.0625, 0.125, 0.25)))
    cfg = tmp_path / "d.ini"
    cfg.write_text("""\
[model]
type = piecewise_linear
sigma0 = 0.008
bL = -0.1
bR = 0.1

[market]
S0 = 0.03

[strikes]
list = 0.03

[maturities]
list = 0.015625 0.03125 0.0625 0.125 0.25

[methods]
list = asympt0
""")
    out = tmp_path / "fit.json"
    code, text = run(["sqrt-t", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert "sqrt-T anomaly" in text
    assert "sigma1 jump" in text
    d = json.loads(out.read_text())
    assert set(d) == {"coefficient", "exponent", "residual", "grid"}
