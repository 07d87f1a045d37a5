import csv
import importlib
import importlib.util
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert r["flag"] in ("ok", "low_confidence")
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


def test_numerical_failure_exits_3_naming_method_and_maturity(smile_config, monkeypatch,
                                                              capsys):
    def fail(*args):
        raise RuntimeError("no bracket")
    monkeypatch.setattr(nvol.cli, "implied_vol_and_flag", fail)
    code, text = run(["smile", "--config", smile_config])
    assert code == 3 and text == ""
    assert "at T=1.0, method=exact: no bracket" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_bad_seed_exits_2_naming_it(smile_config, seed, capsys):
    with pytest.raises(SystemExit) as e:
        main(["smile", "--config", smile_config, "--seed", seed])
    assert e.value.code == 2
    assert f"argument --seed: not a non-negative integer: '{seed}'" in capsys.readouterr().err


def test_pde_maturity_too_short_for_its_grid_exits_3(tmp_path, capsys):
    # the other methods print rows at T = 1e-300; the pde grid's span rounds away
    cfg = tmp_path / "short.ini"
    cfg.write_text(SMILE_CONFIG.replace("list = 1 5", "list = 1e-300")
                   .replace("asympt0 asympt1 exact", "asympt2 exact mc"))
    code, text = run(["smile", "--config", str(cfg)])
    assert code == 0 and text.count("\n") == 1 + 7 * 3
    cfg.write_text(cfg.read_text().replace("asympt2 exact mc", "asympt2 pde"))
    code, text = run(["smile", "--config", str(cfg)])
    assert code == 3 and text == ""
    assert ("numerical failure at T=1e-300, method=pde: K_min must be below K_max"
            in capsys.readouterr().err)


def test_pde_failure_names_the_maturity_whose_grid_fails(tmp_path, capsys):
    # both maturities are priced by one march per grid size, which fails at
    # the second, shorter maturity; the asympt2 rows at T = 1 are not written
    cfg = tmp_path / "short.ini"
    cfg.write_text(SMILE_CONFIG.replace("list = 1 5", "list = 1 1e-300")
                   .replace("asympt0 asympt1 exact", "asympt2 pde"))
    code, text = run(["smile", "--config", str(cfg)])
    assert code == 3 and text == ""
    err = capsys.readouterr().err
    assert "numerical failure at T=1e-300, method=pde: K_min must be below K_max" in err
    assert "T = 1e-300" in err and "T=1," not in err


def test_pde_node_spacing_that_rounds_away_exits_3_naming_its_maturity(tmp_path, capsys):
    # at S0 = 1e10 the span at T = 1e-12 is wider than one ulp of S0 but its
    # node spacing is not: march divided by dx = 0 (two RuntimeWarnings) and
    # then blamed T = 0.01 for a singular matrix
    cfg = tmp_path / "far.ini"
    cfg.write_text("[model]\ntype = quadratic_sabr\nsigma0 = 5\ngamma = 0.999999\nrho = 0\n"
                   "[market]\nS0 = 1e10\n[strikes]\nlist = 0.02 0 0.03\n"
                   "[maturities]\nlist = 0.01 1e-12\n[methods]\nlist = pde\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(["smile", "--config", str(cfg)])
    assert code == 3 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("numerical failure at T=1e-12, method=pde: the node spacing "), err
    assert "rounds away at S0 = 10000000000.0, T = 1e-12" in err, err


def test_table1_underflowing_atm_series_exits_2(capsys):
    # sigma0bar^2 underflows to 0 in sigma0_series_atm: a ZeroDivisionError
    # traceback
    code, text = run(["table1", "--sigma0bar", "1e-300"])
    assert code == 2 and text == ""
    assert "the ATM series underflow at sigma_D(F0) = 1e-300" in capsys.readouterr().err


@pytest.mark.parametrize("argv, cause", [
    # F sqrt(2 pi / T) underflows: a ZeroDivisionError traceback
    (["1e-300", "1e300", "0.01", "--direction", "n2ln"],
     "the Erf saturation bound F*sqrt(2*pi/T) underflows to 0"),
    # the Erf argument underflows: printed 0 with exit 0, for a true 3e-302
    (["0.03", "1e-300", "1e-300", "--direction", "ln2n"],
     "the Erf argument or the normal vol underflows at sigmaBS = 1e-300"),
    # F sqrt(2 pi / T) overflows, so the log-normal vol's ratio is 0
    (["1e300", "1e-300", "1e-300", "--direction", "n2ln"],
     "the log-normal vol underflows to 0 at sigmaN = 1e-300")],
    ids=["n2ln-bound", "ln2n-erf", "n2ln-result"])
def test_convert_underflow_exits_3_naming_it(capsys, argv, cause):
    assert run(["convert", *argv]) == (3, "")
    assert capsys.readouterr().err == f"convert: {cause}\n"


def test_missing_config_exits_2(tmp_path):
    code, _ = run(["smile", "--config", str(tmp_path / "nope.ini")])
    assert code == 2


@pytest.mark.parametrize("argv", [["sqrt-t", "--config", "configs/sqrtt_model2b.ini"],
                                  ["table1"],
                                  ["extract-lv", "surface.csv", "--s0", "0.03", "--T", "1"]],
                         ids=["sqrt-t", "table1", "extract-lv"])
def test_seed_is_a_smile_option_only(argv, capsys):
    # only `smile` runs Monte-Carlo; elsewhere --seed is an unknown option
    with pytest.raises(SystemExit) as e:
        main(argv + ["--seed", "1"])
    assert e.value.code == 2
    assert "--seed" in capsys.readouterr().err


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


def test_pde_section_is_ignored_with_a_note(tmp_path, capsys):
    # the [pde] grid options are gone; a config that still sets them runs as
    # one without them, and says so on one stderr line
    p = tmp_path / "pde.ini"
    text = SMILE_CONFIG.replace("asympt0 asympt1 exact", "pde")
    p.write_text(text + "\n[pde]\nn_space = 10\nwidth_stdevs = nan\n")
    code, rows = run(["smile", "--config", str(p)])
    assert code == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "[pde] section" in err and "ignored" in err, err
    p.write_text(text)
    assert run(["smile", "--config", str(p)]) == (0, rows)
    assert capsys.readouterr().err == ""


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


def test_mc_rows_of_an_exploded_euler_march(tmp_path, capsys):
    # SABR with gamma = 50 explodes under the Euler march: at T = 1 the price
    # was 1.2e71 with a standard error of 1.1e71 and gave sigma_N = 3.0e71
    # flagged ok; at T = 30 the paths overflow to nan, which printed three
    # RuntimeWarnings and rows flagged off_grid
    p = tmp_path / "exploding.ini"
    p.write_text("[model]\ntype = quadratic_sabr\nsigma0 = 0.008\ngamma = 50\nrho = 0.5\n"
                 "[market]\nS0 = 0.03\n[strikes]\nlist = 0.02 0.03 0.05\n"
                 "[maturities]\nlist = 1 30\n[methods]\nlist = mc\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(["smile", "--config", str(p)])
    assert code == 0 and capsys.readouterr().err == ""
    rows = [ln.split(",") for ln in text.splitlines()[1:]]
    assert [(T, vol, flag) for _, T, _, vol, flag in rows] == (
        [("1", "nan", "no_time_value")] * 3 + [("30", "nan", "low_confidence")] * 3)


@pytest.mark.parametrize("method", ["pde", "mc", "asympt0"])
def test_s0_outside_the_positivity_domain_exits_2(tmp_path, capsys, method):
    # only a tabulated model can get here: the other factories refuse such an
    # S0; it used to give nan pde rows, a made-up mc vol or an exit 3
    table = tmp_path / "vol.csv"
    table.write_text("S,sigma_D\n0,0.011\n0.02,0.0102\n0.04,0.0101\n"
                     "0.06,0.0105\n0.08,0.0112\n")
    p = tmp_path / "bad.ini"
    p.write_text(f"[model]\ntype = tabulated\npath = {table}\n[market]\nS0 = 0.1\n"
                 f"[strikes]\nlist = 0.03\n[maturities]\nlist = 1\n"
                 f"[methods]\nlist = {method}\n")
    code, text = run(["smile", "--config", str(p)])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert "[market]" in err and "(0.0, 0.08)" in err


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


@pytest.mark.parametrize("config", sorted(p.stem for p in (ROOT / "configs").glob("sqrtt_*.ini")))
def test_sqrt_t_matches_checked_in_json(tmp_path, config):
    # golden files: the detector's fit reports, byte for byte
    out = tmp_path / f"{config}.json"
    code, text = run(["sqrt-t", "--config", str(ROOT / "configs" / f"{config}.ini"),
                      "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (ROOT / "out" / f"{config}.json").read_bytes()
    # the paper's c for a kink at S0 next to the fit; the analytic control has none
    predicted = [ln for ln in text.splitlines() if ln.startswith("predicted c=")]
    assert predicted == (["predicted c=0.000501326 (kink at S0), fitted/predicted=1.006"]
                         if config == "sqrtt_model2b" else [])


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


LONG_SABR = """\
[model]
type = quadratic_sabr
sigma0 = 0.008
gamma = 2
rho = 0.5

[market]
S0 = 0.03

[strikes]
list = 0 0.02 0.03 0.04 0.06

[maturities]
list = 30

[methods]
list = asympt0 asympt1 asympt2
"""


@pytest.mark.parametrize("gamma, T, bad", [
    ("2", "30", {"-0.0338311247925", "-0.178574199023"}),
    ("1e6", "1e300", {"-inf", "inf", "nan"})], ids=["negative", "overflow"])
def test_asympt_rows_off_the_positive_reals_are_low_confidence(tmp_path, gamma, T, bad):
    # a truncated series can leave the positive reals (asympt1 at K = 0 and
    # asympt2 at K = 0.04 for T = 30), and at T = 1e300 its terms overflow
    # to +-inf and nan; these rows were flagged ok, next to numpy's overflow
    # and invalid-value warnings
    p = tmp_path / "sabr.ini"
    p.write_text(LONG_SABR.replace("gamma = 2", f"gamma = {gamma}")
                 .replace("list = 30", f"list = {T}"))
    out = tmp_path / "rows.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run(["smile", "--config", str(p), "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 15
    off = [r for r in rows if not 0.0 < float(r["sigma_N"]) < math.inf]
    assert {r["sigma_N"] for r in off} == bad
    assert all(r["flag"] == "low_confidence" for r in off)
    assert all(r["flag"] == "ok" for r in rows if r not in off)


def test_asympt_rows_within_rounding_of_a_domain_end_are_low_confidence(tmp_path):
    # sigma_D(S) = 0.01 + (S - 0.03) ends at 0.02. A strike a few ulps inside the end
    # got an ok asympt0 row 1.55e-3 off J in closed form at 40 digits; the strikes
    # 1e-11 inside (3.1e-9 off) and 1 - 1e-6 of the way from S0 to the end stay ok
    from nvol.models import make_shifted_lognormal

    end = make_shifted_lognormal(0.01 - 0.03, 0.5, 0.03).positivity_domain[0]
    strikes = [0.020000000000000004, 0.02000000001, 0.03 - (1.0 - 1e-6) * (0.03 - end)]
    p = tmp_path / "end.ini"
    p.write_text("[model]\ntype = shifted_lognormal\nsigma0 = 0.01\nb = 0.5\n"
                 "[market]\nS0 = 0.03\n[maturities]\nlist = 1\n"
                 f"[strikes]\nlist = {' '.join(map(repr, strikes))}\n"
                 "[methods]\nlist = asympt0 asympt1\n")
    code, text = run(["smile", "--config", str(p)])
    assert code == 0
    rows = [ln.split(",") for ln in text.splitlines()[1:]]
    assert [(method, flag) for _, _, method, _, flag in rows] == [
        (method, flag) for method in ("asympt0", "asympt1")
        for flag in ("low_confidence", "ok", "ok")]
    assert all(0.0 < float(vol) < 0.01 for _, _, _, vol, _ in rows)


@pytest.mark.parametrize("old, new, vol", [("sigma0 = 0.008", "sigma0 = 1e300", "inf"),
                                          ("gamma = 2", "gamma = 1e200", "nan")])
def test_non_finite_local_vol_at_s0_exits_2(tmp_path, capsys, old, new, vol):
    # sigma0^2 overflows to inf; gamma^2 overflows and inf * 0 is nan at S0.
    # The PDE grid's width is then nan, which was a traceback from int(nan)
    p = tmp_path / "bad.ini"
    p.write_text(LONG_SABR.replace(old, new).replace("asympt0 asympt1 asympt2", "pde"))
    code, text = run(["smile", "--config", str(p)])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert "[model]" in err and f"sigma_D(S0) = {vol}" in err, err


HUGE_KINK = """\
[model]
type = piecewise_linear
sigma0 = {sigma0}
bL = -0.1
bR = 0.1

[market]
S0 = 0.03

[strikes]
list = 0.02 0.03 0.04

[maturities]
list = {T}

[methods]
list = {methods}
"""


@pytest.mark.parametrize("sigma0, T, methods, cause", [
    ("1e200", "1", "pde", " at T=1.0, method=pde: sigma_D not finite and positive on the "
                          "whole grid"),
    ("1e150", "1 1e10", "pde", " at T=10000000000.0, method=pde: sigma_D not finite and "
                               "positive on the whole grid"),
    ("1e300", "1e300", "pde", " at T=1e+300, method=pde: the span about S0 = 0.03 is not "
                              "finite: sigma_D(S0) = 1e+300 at T = 1e+300"),
    ("1e300", "1", "asympt0 asympt2",
     ", method=asympt0: the ATM series overflow at sigma_D(F0) = 1e+300 of "
     "piecewise_linear(sigma0=1e+300, bL=-0.1, bR=0.1)")],
    ids=["grid_vol_overflows", "second_grid_vol_overflows", "grid_span_overflows",
         "atm_series_overflow"])
def test_overflowing_kink_exits_3_naming_the_cause(tmp_path, capsys, sigma0, T, methods, cause):
    # a finite sigma_D(S0) so large that sigma_D^2 on the PDE grid, the grid's
    # span or the ATM series overflow: these were a traceback (exit 1), or an
    # exit 3 with a bare errno tuple after numpy's overflow warnings.  The
    # message names the maturity whose grid failed (T = 1 alone runs at
    # sigma0 = 1e150), and none for the expansion, which does not depend on T
    p = tmp_path / "huge.ini"
    p.write_text(HUGE_KINK.format(sigma0=sigma0, T=T, methods=methods))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(["smile", "--config", str(p)])
    assert code == 3 and text == ""
    err = capsys.readouterr().err
    assert err == f"numerical failure{cause}\n"


def test_tiny_kink_loads_and_its_pde_exits_3_naming_the_cause(tmp_path, capsys):
    # the kink was built from two shifted log-normals whose sigma0 + 2 b S0
    # cancelled to 0 at sigma0 = 1e-80, so the config was refused with
    # "degenerate model: sigma0 + 2*b*S0 must be positive", a sum it never set
    from nvol.cli import load_config
    from nvol.dupire_pde import GridTooNarrow, implied_smile_from_pde

    p = tmp_path / "tiny.ini"
    p.write_text(HUGE_KINK.format(sigma0="1e-80", T="1", methods="asympt0 pde"))
    cfg = load_config(str(p))
    assert cfg.model.positivity_domain == (-math.inf, math.inf)
    with pytest.raises(GridTooNarrow):
        implied_smile_from_pde(cfg.model, cfg.setup, cfg.maturities, cfg.strikes)
    assert run(["smile", "--config", str(p)]) == (3, "")
    assert capsys.readouterr().err == (
        "numerical failure at T=1.0, method=pde: K_min must be below K_max: the span "
        "about S0 = 0.03 at T = 1.0, inside the domain (-inf, inf), rounds away\n")
    p.write_text(HUGE_KINK.format(sigma0="1e-80", T="1", methods="asympt0"))
    code, text = run(["smile", "--config", str(p)])
    assert code == 0
    assert [row.split(",")[-1] for row in text.splitlines()[1:]] == ["low_confidence"] * 3


def test_mc_step_count_above_the_cap_exits_2_before_any_march(tmp_path, capsys, monkeypatch):
    # T = 1e5 at 200 steps a year asks for 2e7 Euler steps, a march that did
    # not finish; the cap refuses it when the config loads
    import nvol.mc_oracle

    def no_march(*args, **kwargs):
        raise AssertionError("marched")

    monkeypatch.setattr(nvol.mc_oracle, "_march", no_march)
    p = tmp_path / "long.ini"
    p.write_text(SMILE_CONFIG.replace("asympt0 asympt1 exact", "asympt0 mc")
                 .replace("list = 1 5", "list = 1 1e5"))
    start = time.perf_counter()
    code, text = run(["smile", "--config", str(p)])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert "[mc] steps_per_year" in err and "T = 100000.0" in err, err


def test_rows_without_time_value_are_flagged(tmp_path):
    # a price equal to intrinsic has no implied vol; it used to be reported
    # as sigma_N = 0 flagged ok (mc, exact) or low_confidence (pde).  The kink's
    # exact time values 1.7e-17 (K=0.02) and 7.3e-34 (K=0.08) at T=0.01 are
    # below the one noise level of exact rows, max(1e-16, 1e-13 price);
    # 2.7e-13 (K=0.025) is not
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


# [model] section and the highest strike: the falling shifted log-normal's
# vol vanishes at 0.10, and SABR has no closed-form price for `exact`
_MODELS = {"shifted_lognormal": ("type = shifted_lognormal\nsigma0 = 0.014\nb = 0.1", 0.12),
           "shifted_lognormal_falling": ("type = shifted_lognormal\nsigma0 = 0.014\nb = -0.1",
                                         0.0999),
           "piecewise_linear": ("type = piecewise_linear\nsigma0 = 0.008\nbL = -0.1\nbR = 0.1",
                                0.12),
           "sabr_rho_p30": ("type = quadratic_sabr\nsigma0 = 0.008\ngamma = 0.2\nrho = 0.3",
                            0.12),
           "sabr_rho_m30": ("type = quadratic_sabr\nsigma0 = 0.008\ngamma = 0.2\nrho = -0.3",
                            0.12)}


@st.composite
def _model_and_strikes(draw):
    model = draw(st.sampled_from(sorted(_MODELS)))
    top = _MODELS[model][1]
    return model, draw(st.lists(st.floats(-0.03, top), min_size=1, max_size=4, unique=True))


@settings(max_examples=20, deadline=None)
@given(case=_model_and_strikes(), T=st.floats(0.01, 30.0))
def test_every_row_at_its_strike_and_ok_rows_carry_a_vol(tmp_path_factory, case, T):
    # every method reports the configured strike float for float (JSON keeps
    # the full repr), and an ok row never sits on a zero or non-finite vol;
    # strikes beyond the PDE grid of a short maturity come back off_grid
    model, strikes = case
    methods = [m for m in nvol.cli._METHODS if m != "exact" or not model.startswith("sabr")]
    tmp = tmp_path_factory.mktemp("prop")
    p = tmp / "prop.ini"
    p.write_text(f"[model]\n{_MODELS[model][0]}\n\n[market]\nS0 = 0.03\n\n"
                 f"[strikes]\nlist = {' '.join(map(repr, strikes))}\n\n"
                 f"[maturities]\nlist = {T!r}\n\n[methods]\nlist = {' '.join(methods)}\n\n"
                 f"[mc]\nn_paths = 200\nsteps_per_year = 50\n")
    out = tmp / "prop.json"
    code, _ = run(["smile", "--config", str(p), "--out", str(out), "--format", "json"])
    assert code == 0
    rows = json.loads(out.read_text())
    assert [(r["method"], r["K"]) for r in rows] == [(m, k) for m in methods for k in strikes]
    for r in rows:
        if r["flag"] == "ok":
            assert math.isfinite(r["sigma_N"]) and r["sigma_N"] > 0.0, r
        if r["flag"] == "off_grid":
            assert r["method"] == "pde" and math.isnan(r["sigma_N"]), r


def test_strikes_off_the_pde_grid_are_flagged(tmp_path):
    # at T = 0.01 the grid spans 0.03 -+ 10 * 0.01 * 0.1; both strikes used to
    # come back as its edge node, K=0.04 with sigma_N=0
    text = SMILE_CONFIG.replace("sigma0 = 0.014", "sigma0 = 0.01")
    text = text.replace("min = 0.02\nmax = 0.05\ncount = 7", "list = 0.5 5.0")
    p = tmp_path / "far.ini"
    p.write_text(text.replace("list = 1 5", "list = 0.01")
                 .replace("asympt0 asympt1 exact", "pde"))
    out = tmp_path / "far.csv"
    code, _ = run(["smile", "--config", str(p), "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["K"], r["T"], r["method"], r["flag"]) for r in rows] == [
        ("0.5", "0.01", "pde", "off_grid"), ("5", "0.01", "pde", "off_grid")]
    assert all(math.isnan(float(r["sigma_N"])) for r in rows)


@pytest.mark.parametrize("config, bounds", [
    ("fig1_shifted_lognormal", {10.0: 2e-8, 30.0: 1.5e-6}),
    ("fig3_kink_bL_m10", {10.0: 1e-7})])
def test_figure_pde_rows_match_exact(tmp_path, config, bounds):
    # the pde rows against the closed form, row by row: 7.5e-9 and 3.4e-8 at
    # T = 10; at T = 30 the 10-stdev span cuts the fat right tail (1.2e-6).
    # One 1601-node solve at 40 steps a year left 9.4e-8 and 5.1e-7, and
    # nearest-node rows were up to 2.7e-5 off
    text = (ROOT / "configs" / f"{config}.ini").read_text()
    p = tmp_path / f"{config}.ini"
    p.write_text(text.replace("list = asympt0 pde", "list = pde exact"))
    out = tmp_path / f"{config}.json"
    code, _ = run(["smile", "--config", str(p), "--out", str(out), "--format", "json"])
    assert code == 0
    rows = json.loads(out.read_text())
    for T, bound in bounds.items():
        pde = [r for r in rows if r["method"] == "pde" and r["T"] == T]
        exact = [r for r in rows if r["method"] == "exact" and r["T"] == T]
        assert len(pde) == len(exact) > 20
        assert all(a["flag"] == b["flag"] == "ok" for a, b in zip(pde, exact))
        worst = max(abs(a["sigma_N"] - b["sigma_N"]) for a, b in zip(pde, exact))
        assert worst < bound, (T, worst)


def test_fig2_pde_rows_match_a_finer_pair():
    # no closed form for SABR: the reference is the same extrapolation from
    # 3201 nodes in 256 steps and 6401 in 512; the rows are within 7.9e-9
    from nvol.bachelier import implied_vol_and_flag
    from nvol.cli import load_config
    from nvol.dupire_pde import implied_smile_from_pde, solve_forward

    cfg = load_config(str(ROOT / "configs" / "fig2_sabr_rho_p30.ini"))
    T, F = 10.0, cfg.setup.forward(10.0)
    coarse, fine = (solve_forward(cfg.model, cfg.setup, T, n_space=n,
                                  n_steps=steps).price_at_strikes(cfg.strikes)
                    for n, steps in ((3201, 256), (6401, 512)))
    ref = [implied_vol_and_flag(p, F, k, T) for k, p in zip(cfg.strikes, (4 * fine - coarse) / 3)]
    got, = implied_smile_from_pde(cfg.model, cfg.setup, (T,), cfg.strikes)
    assert len(got) == 33 and all(a[1] == b[1] == "ok" for a, b in zip(got, ref))
    assert max(abs(a[0] - b[0]) for a, b in zip(got, ref)) < 2e-8


_IMPORT_PROBE = """
import contextlib, io, json, sys
import nvol
bare = sorted(m for m in sys.modules if m.startswith("nvol.") or m.split(".")[0] == "numpy")
import nvol.cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                  or m.startswith(("numpy.polynomial", "numpy.random", "nvol.mc_oracle")))

seen = {"bare": bare, "import": loaded()}
for name, config in zip(("smile", "pde", "fig2", "mc"), sys.argv[1:5]):
    assert nvol.cli.main(["smile", "--config", config, "--out", sys.argv[5]]) == 0
    seen[name] = loaded()
    if name == "fig2":
        with contextlib.redirect_stdout(io.StringIO()):
            assert nvol.cli.main(["convert", "0.03", "2", "0.004", "--direction", "n2ln"]) == 0
        seen["convert"] = loaded()
print(json.dumps(seen))
"""


def test_import_hygiene(tmp_path):
    # a bare `import nvol` loads no submodule and no numpy; the expansion and
    # exact rows, the PDE (configs/fig2_sabr_rho_0.ini too) and `convert`
    # load no scipy, no numpy.polynomial, no numpy.random and no MC layer,
    # and the Monte Carlo loads no scipy; in a fresh interpreter, so that
    # nothing imported by the test session counts.  The runs share the
    # process, so each list holds what the runs up to it loaded
    smile = tmp_path / "smile.ini"
    smile.write_text(SMILE_CONFIG)
    pde = tmp_path / "pde.ini"
    pde.write_text(SMILE_CONFIG.replace("asympt0 asympt1 exact", "pde")
                   .replace("list = 1 5", "list = 0.25"))
    mc = tmp_path / "mc.ini"
    mc.write_text(SMILE_CONFIG.replace("asympt0 asympt1 exact", "mc")
                  .replace("list = 1 5", "list = 0.25") + "\n[mc]\nn_paths = 256\n")
    src = str(pathlib.Path(nvol.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(smile), str(pde),
                           str(ROOT / "configs" / "fig2_sabr_rho_0.ini"), str(mc),
                           str(tmp_path / "out.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["bare"] == []
    for name in ("import", "smile", "pde", "fig2", "convert"):
        assert seen[name] == [], (name, seen[name])
    assert "nvol.mc_oracle" in seen["mc"]
    assert not [m for m in seen["mc"] if m.split(".")[0] == "scipy"], seen["mc"]


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


@pytest.mark.parametrize("old, new, cause", [
    ("S0 = 0.03", "S0 = 0.03\nmu0 = 0.004", ["[market]", "'mu0'"]),
    ("S0 = 0.03", "S0 = 0.03\nmu1 = -0.001", ["[market]", "'mu1'"]),
    ("type = shifted_lognormal\nsigma0 = 0.014\nb = 0.1",
     "type = quadratic_sabr\nsigma0 = 0.008\ngamma = 0.2\nrho = 0.0",
     ["[methods]", "'exact'", "shifted_lognormal"])],
                         ids=["mu0", "mu1", "sabr"])
def test_exact_without_closed_form_exits_2_before_any_work(tmp_path, capsys, old, new, cause):
    # the closed forms price the driftless shifted log-normal and symmetric
    # kink only; anything else is refused when the config loads, before the
    # pde and mc rows are computed
    p = tmp_path / "bad.ini"
    p.write_text(SMILE_CONFIG.replace(old, new)
                 .replace("asympt0 asympt1 exact", "pde mc exact"))
    out = tmp_path / "rows.csv"
    code, _ = run(["smile", "--config", str(p), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert all(c in err for c in cause), err
    assert not out.exists()


def test_exact_rows_of_a_kink_with_bl_equal_to_br(tmp_path):
    # bL = bR builds make_piecewise_linear's shifted log-normal, but 'exact'
    # was refused for it; its rows are those of the shifted_lognormal config
    shifted = SMILE_CONFIG.replace("asympt0 asympt1 exact", "exact pde")
    kink = (shifted.replace("type = shifted_lognormal", "type = piecewise_linear")
            .replace("b = 0.1", "bL = 0.1\nbR = 0.1"))
    rows = []
    for text in (shifted, kink):
        p = tmp_path / "model.ini"
        p.write_text(text)
        rows.append(run(["smile", "--config", str(p)]))
    assert rows[0][0] == 0 and "exact" in rows[0][1] and rows[1] == rows[0]


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
    # each order makes one expansion call over the config's strikes, reused
    # across maturities: every row is that call's smile bit for bit (JSON
    # output carries the full repr); the one-strike smile() differs only by
    # the rounding of the strike's panels, within 1e-14 of sigma0 and 1e-11,
    # 1e-6 of the largest sigma1, sigma2 times T, T^2
    import warnings

    from nvol.asymptotics import expansion, smile, smile_from_coefficients
    from nvol.cli import load_config

    p = tmp_path / "s.ini"
    p.write_text(text)
    out = tmp_path / "s.json"
    code, _ = run(["smile", "--config", str(p), "--out", str(out), "--format", "json"])
    assert code == 0
    cfg = load_config(str(p))
    rows = json.loads(out.read_text())
    assert len(rows) == 4 * 2 * 3
    coeffs = [expansion(cfg.model, cfg.setup, cfg.strikes, order) for order in range(3)]
    largest = [np.max(np.abs(c)) for c in coeffs[2]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for r in rows:
            order, i, T = int(r["method"][-1]), cfg.strikes.index(r["K"]), r["T"]
            assert r["sigma_N"] == smile_from_coefficients(coeffs[order], T)[i]
            tol = 1e-14 * abs(coeffs[0][0][i]) + sum(
                rel * largest[k] * T ** k for k, rel in ((1, 1e-11), (2, 1e-6)) if k <= order)
            want = smile(cfg.model, cfg.setup, r["K"], T, order)
            assert abs(r["sigma_N"] - want) <= tol
            assert r["flag"] == flag


@pytest.mark.parametrize("text", [DRIFTED_SABR, KINK], ids=["drifted_sabr", "kink"])
def test_smile_makes_one_expansion_call_at_its_highest_order(tmp_path, monkeypatch, text):
    # asympt0, asympt1 and asympt2 read the first K + 1 arrays of one order-2
    # call, and write the bytes of configs that list one order each
    import nvol.cli as cli

    orders = []
    expansion = cli.expansion

    def counted(model, setup, strikes, order):
        orders.append(order)
        return expansion(model, setup, strikes, order)

    monkeypatch.setattr(cli, "expansion", counted)
    p = tmp_path / "s.ini"
    p.write_text(text.replace("asympt2 asympt0 asympt1", "asympt0 asympt1 asympt2"))
    code, together = run(["smile", "--config", str(p)])
    assert code == 0 and orders == [2]
    alone = []
    for order in range(3):
        p.write_text(text.replace("asympt2 asympt0 asympt1", f"asympt{order}"))
        code, out = run(["smile", "--config", str(p)])
        assert code == 0
        alone.append(out.splitlines())
    assert orders == [2, 0, 1, 2]
    # rows by maturity, then method, then strike: 4 strikes at each of 2 maturities
    want = [alone[0][0]] + [line for block in range(2) for rows in alone
                            for line in rows[1 + 4 * block:5 + 4 * block]]
    assert together.splitlines() == want


def test_expansion_drift_rows_pass_the_benchmark_gate(tmp_path, perfbench_workloads):
    # the benchmark's drifted asympt0/1/2 smiles, gated against
    # perfbench/reference/expansion_drift.json at the coefficient tolerances
    import random

    plan = perfbench_workloads.expansion_drift(ROOT, tmp_path, random.Random(0))
    assert plan.invocations
    for inv in plan.invocations:
        code, _ = run(inv.argv)
        attempted, failed, msgs = inv.gate(code, inv.out.read_bytes() if code == 0 else b"")
        assert attempted > 0 and failed == 0, msgs


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


@pytest.mark.parametrize("direction, value, code, out", [
    ("ln2n", "-0.2", 2, ""), ("n2ln", "-0.002", 2, ""),
    ("ln2n", "0", 0, "0\n"), ("n2ln", "0", 0, "0\n")])
def test_convert_refuses_a_negative_vol(capsys, direction, value, code, out):
    # ln2n used to print a negative normal vol with exit 0, n2ln to exit 3
    assert run(["convert", "0.03", "1", value, "--direction", direction]) == (code, out)
    assert (value in capsys.readouterr().err) == (code == 2)


@pytest.mark.parametrize("argv, code, out, err", [
    # F sqrt(2 pi / T) overflows where the answer is finite: ln2n printed inf,
    # n2ln said the log-normal vol underflows to 0
    (["1e300", "1e-300", "0.1", "--direction", "ln2n"], 0, "1e+299\n", ""),
    (["1e300", "1e-300", "1e299", "--direction", "n2ln"], 0, "0.1\n", ""),
    (["1e308", "1e-10", "10", "--direction", "ln2n"], 3, "",
     "convert: the normal vol overflows at sigmaBS = 10.0\n")],
    ids=["ln2n", "n2ln", "ln2n-overflow"])
def test_convert_where_the_erf_bound_overflows(capsys, argv, code, out, err):
    assert run(["convert", *argv]) == (code, out)
    assert capsys.readouterr().err == err


def test_pde_smile_refuses_a_forward_off_the_grid(tmp_path, capsys):
    # the grid is 0.03 -+ 0.1 whatever the drift; the forward drifts to 0.53,
    # where this used to print a 0.0926 vol for a true 0.01 with exit 0
    p = tmp_path / "drift.ini"
    p.write_text("[model]\ntype = shifted_lognormal\nsigma0 = 0.01\nb = 0\n"
                 "[market]\nS0 = 0.03\nmu0 = 0.5\n[strikes]\nlist = 0.03 0.05 0.1\n"
                 "[maturities]\nlist = 0.001 1\n[methods]\nlist = pde\n")
    code, text = run(["smile", "--config", str(p)])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert "[market]" in err and "T = 1.0" in err and "0.53" in err, err


@pytest.mark.parametrize("argv", [
    ["table1", "--sigma0bar", "-0.01"], ["table1", "--sigma0bar", "nan"],
    ["table1", "--b", "inf"], ["table1", "--b", "x"],
    ["convert", "nan", "1", "0.01", "--direction", "ln2n"],
    ["convert", "0.03", "inf", "0.2", "--direction", "ln2n"],
    ["extract-lv", "surface.csv", "--s0", "nan", "--T", "1"],
    ["extract-lv", "surface.csv", "--s0", "0.03", "--T", "1", "--K", "nan"]],
                         ids=["table1-degenerate", "table1-nan", "table1-inf", "table1-text",
                              "convert-nan", "convert-inf", "extract-lv-s0", "extract-lv-K"])
def test_invalid_numbers_exit_2(tmp_path, capsys, argv):
    # these used to exit 1 with a traceback or print a nan or 0 row with exit 0
    if argv[0] == "extract-lv":
        argv[1] = str(tmp_path / argv[1])
        write_surface(argv[1])
    try:
        code, text = run(argv)
    except SystemExit as e:  # argparse refuses the value
        code, text = e.code, ""
    assert code == 2 and text == ""
    bad = next(a for a in argv if a in ("nan", "inf", "-0.01", "x"))
    assert bad in capsys.readouterr().err


def _surface_csv(vols: dict, strikes=tuple(0.02 + 0.002 * i for i in range(11)),
                 methods=("pde",), header: str = "K,T,method,sigma_N,flag") -> str:
    """The CSV `nvol smile` writes, for flat smiles: one vol per maturity."""
    return "\n".join([header] + [f"{K},{T},{method},{v},ok" for T, v in vols.items()
                                 for method in methods for K in strikes]) + "\n"


def write_surface(path, methods=("pde",)):
    # a flat 1.1% implied surface
    pathlib.Path(path).write_text(_surface_csv({0.5: 0.011, 1.0: 0.011, 1.5: 0.011},
                                               methods=methods))


def test_extract_lv_on_synthetic_surface(tmp_path):
    # flat 1.1% implied surface should invert to sigma_D = 1.1% everywhere
    path = tmp_path / "surface.csv"
    write_surface(path)
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


def test_main_calls_share_no_parsed_state(tmp_path):
    # the parser is built once per process; each call parses afresh, so a
    # second extract-lv takes the default strikes and the default format
    import nvol.cli as cli

    path = tmp_path / "surface.csv"
    write_surface(path)
    first = tmp_path / "first.json"
    code, _ = run(["extract-lv", str(path), "--s0", "0.03", "--T", "1.0", "--K", "0.028",
                   "--K", "0.03", "--format", "json", "--out", str(first)])
    assert code == 0
    assert [r["K"] for r in json.loads(first.read_text())] == [0.028, 0.03]
    code, text = run(["extract-lv", str(path), "--s0", "0.03", "--T", "1.0"])
    assert code == 0
    lines = text.splitlines()
    # every surface strike lies within 2 stdev (0.022) of the forward
    assert lines[0] == "K,T,sigma_D" and len(lines) == 1 + 11
    assert lines[1].startswith("0.02,1,") and lines[-1].startswith("0.04,1,")
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("vols, T, cause", [
    # a level at T = -1 ended in a math domain error, one at T = 0 in a
    # ZeroDivisionError
    ({-1.0: 0.011, 1.5: 0.011}, "-0.5", "line 2: K = 0.02 and T = -1.0"),
    ({0.0: 0.011, 1.5: 0.011}, "0", "line 2: K = 0.02 and T = 0.0"),
    ({0.5: 0.011, "inf": 0.011, 1.5: 0.011}, "1", "line 13: K = 0.02 and T = inf")],
    ids=["negative", "zero", "infinite"])
def test_extract_lv_refuses_a_row_at_a_bad_maturity(tmp_path, capsys, vols, T, cause):
    path = tmp_path / "surface.csv"
    path.write_text(_surface_csv(vols))
    assert run(["extract-lv", str(path), "--s0", "0.03", "--T", T]) == (2, "")
    assert f"{cause} must be finite and T > 0" in capsys.readouterr().err


def test_extract_lv_refuses_a_surface_of_two_methods(tmp_path, capsys):
    path = tmp_path / "surface.csv"
    write_surface(path, methods=("pde", "asympt0"))
    code, text = run(["extract-lv", str(path), "--s0", "0.03", "--T", "1.0"])
    assert code == 2 and text == ""
    assert "found ['asympt0', 'pde']" in capsys.readouterr().err


def test_extract_lv_reads_only_strikes_that_every_level_covers(tmp_path, capsys):
    # a strike off a level was read off its cubic's extrapolation: --K 1e300
    # printed 1e+300,0.5,nan with exit 0
    path = tmp_path / "surface.csv"
    path.write_text(_surface_csv({0.5: 0.02}, strikes=(0.01, 0.02, 0.03, 0.04, 0.05))
                    + _surface_csv({1.0: 0.02}, strikes=(0.02, 0.03, 0.04, 0.05))
                    .split("\n", 1)[1])
    for K in ("1e300", "0.01"):
        assert run(["extract-lv", str(path), "--s0", "0.03", "--T", "0.5",
                    "--K", "0.03", "--K", K]) == (2, "")
        assert (f"--K {float(K)!r} lies outside [0.02, 0.05], the strike range that every "
                f"maturity level covers") in capsys.readouterr().err
    # the default strikes within 2 stdev of the forward, less K = 0.01
    code, text = run(["extract-lv", str(path), "--s0", "0.03", "--T", "0.5"])
    assert code == 0
    assert [row.split(",")[0] for row in text.splitlines()[1:]] == ["0.02", "0.03", "0.04",
                                                                    "0.05"]


def test_extract_lv_refuses_a_local_vol_that_is_not_finite(tmp_path, capsys):
    # sigma_N^2 overflows on a flat 1e200 surface: the row was nan with exit 0
    path = tmp_path / "surface.csv"
    path.write_text(_surface_csv({0.5: 1e200, 1.0: 1e200}))
    assert run(["extract-lv", str(path), "--s0", "0.03", "--T", "0.5",
                "--K", "0.03"]) == (3, "")
    assert capsys.readouterr().err == ("extract-lv: numerical failure at K=0.03, T=0.5: "
                                       "the local vol nan is not finite\n")


def test_sqrt_t_short_maturity_list_exits_2(tmp_path, capsys):
    # fewer than 5 maturities used to be swapped for 1/256 .. 1/4 silently
    p = tmp_path / "short.ini"
    p.write_text((ROOT / "configs" / "sqrtt_model2b.ini").read_text().replace(
        "list = 0.00390625 0.0078125 0.015625 0.03125 0.0625 0.125 0.25",
        "list = 0.05 0.1 0.2"))
    out = tmp_path / "fit.json"
    code, _ = run(["sqrt-t", "--config", str(p), "--out", str(out)])
    assert code == 2
    assert "[maturities]" in capsys.readouterr().err
    assert not out.exists()


def test_sqrt_t_repeated_maturities_exit_2_before_any_work(tmp_path, capsys):
    p = tmp_path / "dup.ini"
    p.write_text((ROOT / "configs" / "sqrtt_model2b.ini").read_text().replace(
        "list = 0.00390625 0.0078125 0.015625 0.03125 0.0625 0.125 0.25",
        "list = 0.01 0.01 0.02 0.03 0.04"))
    out = tmp_path / "fit.json"
    code, _ = run(["sqrt-t", "--config", str(p), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "[maturities]" in err and "repeated: [0.01]" in err, err
    assert not out.exists()


def test_sqrt_t_refuses_a_forward_off_the_grid(tmp_path, capsys):
    # the 8-stdev grids are centred on S0; with mu0 = 0.5 the forward 0.0456
    # at T = 1/32 lies off them, where the fit used to exit 3 with "ATM
    # deviation changes sign or vanishes"
    p = tmp_path / "drift.ini"
    p.write_text((ROOT / "configs" / "sqrtt_model2b.ini").read_text()
                 .replace("S0 = 0.03", "S0 = 0.03\nmu0 = 0.5"))
    out = tmp_path / "fit.json"
    code, text = run(["sqrt-t", "--config", str(p), "--out", str(out)])
    assert code == 2 and text == "" and not out.exists()
    err = capsys.readouterr().err
    assert "[market]" in err and "forward 0.045625 at T = 0.03125" in err, err


def _sqrtt_model2b_without_smile_sections() -> str:
    text = (ROOT / "configs" / "sqrtt_model2b.ini").read_text()
    for section in ("[strikes]\nlist = 0.03\n", "[methods]\nlist = asympt0\n"):
        assert section in text
        text = text.replace(section, "")
    return text


def test_sqrt_t_reads_only_model_market_and_maturities(tmp_path):
    # [strikes] and [methods] are smile's; sqrt-t used to require both
    p = tmp_path / "fit.ini"
    p.write_text(_sqrtt_model2b_without_smile_sections())
    out = tmp_path / "fit.json"
    assert run(["sqrt-t", "--config", str(p), "--out", str(out)])[0] == 0
    assert out.read_bytes() == (ROOT / "out" / "sqrtt_model2b.json").read_bytes()


def test_sqrt_t_ignores_a_method_it_never_runs(tmp_path):
    # 'exact' on a model without a closed form is smile's error; sqrt-t used to exit 2,
    # and it checks no key of the sections it does not read
    p = tmp_path / "fit.ini"
    p.write_text(_sqrtt_model2b_without_smile_sections().replace("bL = -0.1", "bL = 0.0")
                 + "\n[methods]\nlist = exact\nlst = mc\n[strikes]\nlist = 0.03\nmin = 0.02\n"
                 "[mc]\nnpaths = 64\n")
    code, text = run(["sqrt-t", "--config", str(p)])
    assert code == 0 and '"exponent"' in text


def test_sqrt_t_has_no_format_option(capsys):
    # it was parsed and never read: --format csv printed JSON
    with pytest.raises(SystemExit) as e:
        main(["sqrt-t", "--config", str(ROOT / "configs" / "sqrtt_model2b.ini"),
              "--format", "csv"])
    assert e.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["smile", "sqrt-t"])
def test_output_section_is_refused_naming_the_flags(tmp_path, capsys, command):
    # [output] was a second way to set --out/--format
    base = SMILE_CONFIG if command == "smile" else _sqrtt_model2b_without_smile_sections()
    p = tmp_path / "out.ini"
    p.write_text(base + "\n[output]\nformat = json\n")
    code, text = run([command, "--config", str(p)])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert "[output]" in err and "--out" in err and "--format" in err, err


@pytest.mark.parametrize("argv", [["smile", "--config", "smile.ini"], ["table1"],
                                  ["sqrt-t", "--config", str(ROOT / "configs" / "sqrtt_model2b.ini")],
                                  ["extract-lv", "surface.csv", "--s0", "0.03", "--T", "1",
                                   "--K", "0.03"]],
                         ids=["smile", "table1", "sqrt-t", "extract-lv"])
def test_unwritable_out_exits_2_naming_it(tmp_path, capsys, argv):
    # these used to end in a FileNotFoundError traceback with exit 1
    (tmp_path / "smile.ini").write_text(SMILE_CONFIG)
    write_surface(tmp_path / "surface.csv")
    argv = [str(tmp_path / a) if a in ("smile.ini", "surface.csv") else a for a in argv]
    out = tmp_path / "no_such_dir" / "out.csv"
    code, _ = run(argv + ["--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write --out {str(out)!r}: " in err, err


@pytest.mark.parametrize("config", sorted(p.name for p in (ROOT / "configs").glob("*.ini")))
def test_load_config_accepts_every_checked_in_config(config):
    # the benchmark's set-up parses each of them with load_config
    from nvol.cli import load_config

    cfg = load_config(str(ROOT / "configs" / config))
    assert cfg.strikes and cfg.maturities and cfg.methods


def test_pde_rows_solve_a_fixed_pair_per_maturity(tmp_path, monkeypatch, lapack_calls):
    # one march on 401 nodes in 32 steps and one on 801 in 64, each with
    # every maturity a block of one system (each step count plus the two
    # Rannacher half-steps is one dgttrs solve); at T = 0.01 the grids span
    # 0.03 -+ 0.008, so K = 0.1 is off them and the extrapolated price at
    # K = 0.037 is -2.7e-20
    grids = []
    marched = nvol.dupire_pde._march

    def recorded(model, setup, maturities, built, n_steps):
        grids.append([(g[0].size, n_steps, t) for g, t in zip(built, maturities)])
        return marched(model, setup, maturities, built, n_steps)

    monkeypatch.setattr(nvol.dupire_pde, "_march", recorded)
    p = tmp_path / "pde.ini"
    p.write_text(NO_TIME_VALUE.replace("0.01 0.02 0.025 0.03 0.038 0.08", "0.03 0.037 0.1")
                 .replace("0.01 1", "0.01 0.25").replace("pde mc exact", "pde"))
    out = tmp_path / "pde.json"
    code, _ = run(["smile", "--config", str(p), "--out", str(out), "--format", "json"])
    assert code == 0
    assert grids == [[(401, 32, 0.01), (401, 32, 0.25)], [(801, 64, 0.01), (801, 64, 0.25)]]
    assert lapack_calls["solve"] == [2 * 401] * (32 + 2) + [2 * 801] * (64 + 2)
    assert lapack_calls["factor"] == [2 * 401] * 2 + [2 * 801] * 2
    rows = json.loads(out.read_text())
    assert [(r["T"], r["K"], r["flag"]) for r in rows] == [
        (0.01, 0.03, "ok"), (0.01, 0.037, "no_time_value"), (0.01, 0.1, "off_grid"),
        (0.25, 0.03, "ok"), (0.25, 0.037, "ok"), (0.25, 0.1, "off_grid")]
    assert [math.isnan(r["sigma_N"]) for r in rows] == [False, True, True, False, False, True]


def test_mc_with_one_antithetic_pair_warns_nothing(tmp_path):
    # n_paths = 2 is one mirrored pair: a price, but no spread to estimate
    p = tmp_path / "toy.ini"
    p.write_text("[model]\ntype = piecewise_linear\nsigma0 = 0.008\nbL = -0.1\nbR = 0.1\n"
                 "[market]\nS0 = 0.03\n[strikes]\nlist = 0.031\n[maturities]\nlist = 0.25\n"
                 "[methods]\nlist = exact mc\n[mc]\nn_paths = 2\nsteps_per_year = 4\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(["smile", "--config", str(p)])
    assert code == 0
    assert [ln.split(",")[2] for ln in text.splitlines()[1:]] == ["exact", "mc"]


def test_mc_rows_without_an_error_estimate_are_low_confidence(tmp_path):
    # one pair's standard error is nan, so no time value can be told from
    # noise: the rows 0.026 (vol 0.00106 against the exact 0.00846) and 0.034
    # (vol 0) were flagged ok
    p = tmp_path / "pair.ini"
    p.write_text("[model]\ntype = piecewise_linear\nsigma0 = 0.008\nbL = -0.1\nbR = 0.1\n"
                 "[market]\nS0 = 0.03\n[strikes]\nlist = 0.026 0.03 0.034\n"
                 "[maturities]\nlist = 0.25\n[methods]\nlist = exact mc\n[mc]\nn_paths = 2\n")
    code, text = run(["smile", "--config", str(p)])
    assert code == 0
    rows = [ln.split(",") for ln in text.splitlines()[1:]]
    exact = [r for r in rows if r[2] == "exact"]
    mc = [r for r in rows if r[2] == "mc"]
    assert [r[4] for r in exact] == ["ok"] * 3
    assert [(r[0], r[4]) for r in mc] == [(K, "low_confidence") for K in ("0.026", "0.03", "0.034")]
    assert float(mc[0][3]) < 0.5 * float(exact[0][3])


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
    # c = (1/2) sqrt(pi/2) sigma0 b for the symmetric kink, after the classification
    lines = text.splitlines()
    assert lines[1] == "predicted c=0.000501326 (kink at S0), fitted/predicted=0.9974"
    d = json.loads(out.read_text())
    assert set(d) == {"coefficient", "exponent", "residual", "grid"}


@pytest.mark.parametrize("sigma0, bL, jump", [("1e80", "0.0", "-1.66667e+77"),
                                             ("1e150", "-0.1", "0")])
def test_sqrt_t_reports_the_sigma1_jump_of_a_huge_kink(tmp_path, sigma0, bL, jump):
    # sigma1_jump read sigma1_series_atm's curvature too, whose sigma_D^4
    # overflowed: an OverflowError traceback (exit 1) after two printed lines
    p = tmp_path / "huge.ini"
    p.write_text(HUGE_KINK.format(sigma0=sigma0, T="0.001 0.002 0.004 0.008 0.016",
                                  methods="asympt0").replace("bL = -0.1", f"bL = {bL}"))
    code, text = run(["sqrt-t", "--config", str(p)])
    assert code == 0
    assert text.splitlines()[2] == f"sigma1 jump across the forward: {jump}"


def test_sqrt_t_report_failure_exits_3_before_any_line(tmp_path, capsys, monkeypatch):
    # the report is built whole before it is printed, so a failure in it
    # leaves no partial report on stdout
    import nvol.cli as cli
    from nvol.exact_solutions import FitReport

    def overflow(model, F0):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "sqrt_t_detector", lambda *a: FitReport(
        coefficient=5e-4, exponent=0.51, residual=0.02, grid=a[2]))
    monkeypatch.setattr(cli, "sigma1_jump", overflow)
    p = tmp_path / "kink.ini"
    p.write_text(HUGE_KINK.format(sigma0="0.008", T="0.015625 0.03125 0.0625 0.125 0.25",
                                  methods="asympt0"))
    assert run(["sqrt-t", "--config", str(p)]) == (3, "")
    assert capsys.readouterr().err == ("numerical failure in the sqrt-t report: "
                                       "OverflowError: math range error\n")


def _smile_config(old: str = "", new: str = "") -> str:
    assert old in SMILE_CONFIG
    return SMILE_CONFIG.replace(old, new)


_SQRTT_KINK = ("[model]\ntype = piecewise_linear\nsigma0 = 0.008\nbL = {bL}\nbR = {bR}\n"
               "[market]\nS0 = 0.03\n[maturities]\n"
               "list = 0.00390625 0.0078125 0.015625 0.03125 0.0625 0.125 0.25\n")
_SLN = "type = shifted_lognormal\nsigma0 = 0.014\nb = 0.1\n"


@pytest.mark.parametrize("command, text, code, cause", [
    # a key no command reads used to be ignored: mu_0 gave driftless rows flagged ok
    pytest.param("smile", _smile_config("S0 = 0.03", "S0 = 0.03\nmu_0 = 0.01"), 2,
                 "[market]: key 'mu_0' is not read (the keys are S0, mu0, mu1)", id="market-typo"),
    pytest.param("smile", SMILE_CONFIG + "[mc]\nnpaths = 64\n", 2,
                 "[mc]: key 'npaths' is not read", id="mc-typo"),
    pytest.param("smile", _smile_config("min = 0.02", "list = 0.03\nmin = 0.02"), 2,
                 "[strikes] with a list: key 'min' is not read (the keys are list)",
                 id="strikes-list-and-range"),
    pytest.param("smile", _smile_config("count = 7", "cont = 7"), 2,
                 "[strikes]: key 'cont' is not read (the keys are list, min, max, count)",
                 id="strikes-typo"),
    pytest.param("smile", _smile_config("b = 0.1", "b = 0.1\ngamma = 0.3"), 2,
                 "[model]: key 'gamma' is not read (the keys are type, sigma0, b)",
                 id="model-key-of-another-type"),
    pytest.param("smile", _smile_config("list = 1 5", "list = 1 5\nlast = 30"), 2,
                 "[maturities]: key 'last' is not read", id="maturities-typo"),
    pytest.param("smile", SMILE_CONFIG + "order = 2\n", 2,
                 "[methods]: key 'order' is not read", id="methods-typo"),
    pytest.param("sqrt-t", _SQRTT_KINK.format(bL=-0.1, bR=0.1).replace(
        "S0 = 0.03", "S0 = 0.03\nmu_0 = 0.01"), 2, "[market]: key 'mu_0'", id="sqrt-t-typo"),
    # the config errors that no other test reaches
    pytest.param("smile", _smile_config("list = 1 5", "list = 1 x"), 2,
                 "[maturities] list: not a number list: '1 x'", id="not-a-number"),
    pytest.param("smile", _smile_config("list = 1 5", "list = 1 inf"), 2,
                 "[maturities] list: numbers must be finite", id="not-finite"),
    pytest.param("smile", _smile_config("b = 0.1\n"), 2, "[model]: missing key 'b'",
                 id="missing-key"),
    pytest.param("smile", _smile_config("b = 0.1", "b = x"), 2,
                 "[model]: bad value for 'b': 'x'", id="bad-value"),
    pytest.param("smile", _smile_config("type = shifted_lognormal", "type = lognormal"), 2,
                 "[model]: unknown type 'lognormal'", id="unknown-type"),
    pytest.param("smile", _smile_config(_SLN, "type = quadratic_sabr\nsigma0 = 0.014\n"
                                              "gamma = 2\nrho = 1.5\n"), 2,
                 "[model]: correlation must satisfy |rho| < 1", id="model-refuses-its-values"),
    pytest.param("smile", _smile_config(_SLN, "type = tabulated\npath = {tmp}/no_such.csv\n"), 2,
                 "[model]: cannot load tabulated vol", id="tabulated-unreadable"),
    pytest.param("smile", _smile_config(_SLN, "type = tabulated\npath = {tmp}/bad_table.csv\n"),
                 2, "tabulated CSV must have header 'S,sigma_D'", id="tabulated-malformed"),
    pytest.param("smile", "S0 = 0.03\n" + SMILE_CONFIG, 2, "config parse error",
                 id="parse-error"),
    pytest.param("smile", _smile_config("[model]", "[models]"), 2, "missing [model] section",
                 id="missing-model"),
    pytest.param("smile", _smile_config("[market]", "[markets]"), 2,
                 "missing [market] section", id="missing-market"),
    pytest.param("smile", _smile_config("[maturities]", "[maturity]"), 2,
                 "missing [maturities] list", id="missing-maturities"),
    pytest.param("smile", _smile_config("[methods]", "[method]"), 2,
                 "missing [methods] list", id="missing-methods"),
    pytest.param("smile", SMILE_CONFIG + "[MC]\nn_paths = 64\n", 2,
                 "[MC] in", id="unread-section"),
    pytest.param("sqrt-t", _SQRTT_KINK.format(bL=-0.1, bR=0.1) + "[plot]\nwidth = 4\n", 2,
                 "is not read by any command (the sections are model, market, strikes, "
                 "maturities, methods, mc)", id="sqrt-t-unread-section"),
    pytest.param("smile", _smile_config("list = 1 5", "list = 1 0"), 2,
                 "[maturities]: need a non-empty list of positive maturities",
                 id="non-positive-maturity"),
    pytest.param("smile", _smile_config("count = 7", "count = 1"), 2,
                 "[strikes]: need count >= 2 and max > min", id="one-strike-count"),
    pytest.param("smile", _smile_config("max = 0.05", "max = 0.02"), 2,
                 "[strikes]: need count >= 2 and max > min", id="max-not-above-min"),
    pytest.param("smile", _smile_config("min = 0.02", "min = -0.05"), 2,
                 "[strikes]: outside positivity domain", id="strike-outside-domain"),
    pytest.param("smile", _smile_config("list = asympt0 asympt1 exact", "list = ,"), 2,
                 "[methods]: need at least one method", id="no-method"),
    # sqrt-t's numerical exit and its third class
    pytest.param("sqrt-t", _SQRTT_KINK.format(bL=0.5, bR=0.52), 3,
                 "numerical failure in sqrt-t fit: ATM deviation changes sign or vanishes",
                 id="sqrt-t-sign-change"),
    pytest.param("sqrt-t", _SQRTT_KINK.format(bL=0.3, bR=0.35), 0,
                 "unclassified (fitted p=0.333)", id="sqrt-t-unclassified"),
    # extract-lv reads a surface CSV in place of a config
    pytest.param("extract-lv", None, 2, "extract-lv: cannot read surface",
                 id="extract-lv-no-file"),
    pytest.param("extract-lv", _surface_csv({0.5: 0.011, 1.5: 0.011}, header="K,T,method,vol"),
                 2, "must have columns K,T,method,sigma_N", id="extract-lv-columns"),
    pytest.param("extract-lv", _surface_csv({1.0: 0.011}), 2,
                 "surface needs at least two maturity levels", id="extract-lv-one-level"),
    pytest.param("extract-lv", _surface_csv({0.5: 0.011, 1.5: 0.011}, strikes=(0.02, 0.03, 0.04)),
                 2, "maturity level T=0.5 has fewer than 4 usable strikes",
                 id="extract-lv-three-strikes"),
    pytest.param("extract-lv", _surface_csv({0.5: 0.011, 1.5: 0.011},
                                            strikes=(0.1, 0.11, 0.12, 0.13)), 2,
                 "no surface strikes within 2 stdev of the forward", id="extract-lv-far-strikes"),
    pytest.param("extract-lv", _surface_csv({0.5: 0.02, 1.0: 0.02, 1.5: 0.005}), 3,
                 "extract-lv: numerical failure at K=", id="extract-lv-falling-variance"),
])
def test_bad_input_exits_naming_its_cause(tmp_path, capsys, command, text, code, cause):
    (tmp_path / "bad_table.csv").write_text("S,vol\n0,0.01\n0.04,0.01\n")
    path = tmp_path / ("surface.csv" if command == "extract-lv" else "config.ini")
    if text is not None:
        path.write_text(text.replace("{tmp}", str(tmp_path)))
    argv = ([command, str(path), "--s0", "0.03", "--T", "1.0"] if command == "extract-lv"
            else [command, "--config", str(path)])
    got, out = run(argv)
    err = capsys.readouterr().err
    assert got == code and cause in (out if code == 0 else err), (out, err)
    assert code == 0 or out == ""


@pytest.mark.parametrize("module, cap, size, text, cause", [
    ("cli", "MAX_STRIKES", 7, SMILE_CONFIG, "[strikes]: count = 7 is above the cap of 6"),
    ("cli", "MAX_STRIKES", 7, SMILE_CONFIG.replace(
        "min = 0.02\nmax = 0.05\ncount = 7", "list = 0.02 0.025 0.03 0.035 0.04 0.045 0.05"),
     "[strikes]: a list of 7 strikes is above the cap of 6"),
    ("mc_oracle", "MAX_PATHS", 64, _smile_config("exact", "mc") + "[mc]\nn_paths = 64\n",
     "[mc]: n_paths must be at most MAX_PATHS = 63, got {'n_paths': 64}"),
    ("cli", "MAX_MC_ELEMENTS", 7 * 64, _smile_config("exact", "mc") + "[mc]\nn_paths = 64\n",
     "[mc]: n_paths = 64 times 7 strikes is above the cap of 447 path-strike elements"),
], ids=["strike-count", "strike-list", "n-paths", "mc-elements"])
def test_config_values_above_a_memory_cap_exit_2(tmp_path, capsys, monkeypatch, module, cap,
                                                 size, text, cause):
    # `count` and `n_paths` size arrays that used to be built before any check;
    # the caps are set small here, so no array of a real cap's size is made.
    # A cap one below the config's size refuses it, a cap at its size runs it.
    p = tmp_path / "big.ini"
    p.write_text(text)
    monkeypatch.setattr(importlib.import_module(f"nvol.{module}"), cap, size - 1)
    assert run(["smile", "--config", str(p)]) == (2, "")
    assert cause in capsys.readouterr().err
    monkeypatch.setattr(importlib.import_module(f"nvol.{module}"), cap, size)
    assert run(["smile", "--config", str(p)])[0] == 0


def test_mc_rows_whose_paths_left_the_table_are_low_confidence(tmp_path):
    # sigma_D is tabulated on [0, 0.08] only; the Euler step freezes it at the
    # ends. At T = 5, 132 of 1024 paths leave that range, and the rows there
    # were flagged ok (K = 0.02 read 0.0087098 +- 4e-6 at 65536 paths against
    # 0.0086087 from pde); at T = 0.5 none leaves.
    table = tmp_path / "vol.csv"
    table.write_text("S,sigma_D\n0,0.012\n0.02,0.009\n0.04,0.008\n0.06,0.0095\n0.08,0.012\n")
    p = tmp_path / "table.ini"
    p.write_text(f"[model]\ntype = tabulated\npath = {table}\n[market]\nS0 = 0.03\n"
                 f"[strikes]\nlist = 0.02 0.03 0.04\n[maturities]\nlist = 0.5 5\n"
                 f"[methods]\nlist = mc\n[mc]\nn_paths = 1024\n")
    code, text = run(["smile", "--config", str(p)])
    assert code == 0
    rows = [ln.split(",") for ln in text.splitlines()[1:]]
    assert [(T, flag) for _, T, _, _, flag in rows] == (
        [("0.5", "ok")] * 3 + [("5", "low_confidence")] * 3)
    assert all(0.008 < float(vol) < 0.0095 for _, _, _, vol, _ in rows)
