import configparser
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import nvol.dupire_pde
from nvol.bachelier import NormalQuote, bachelier_call, implied_normal_vol
from nvol.cli import load_config
from nvol.exact_solutions import (FitReport, drifted_ln_atm_call,
                                  model2b_atm_exact, model2b_call_by_density,
                                  model2b_density, model2b_y_of_z,
                                  model2b_z_of_y, shifted_ln_atm_exact_vol,
                                  shifted_ln_atm_series, shifted_ln_drift_atm_call,
                                  shifted_ln_exact_call, sqrt_t_detector)
from nvol.dupire_pde import atm_implied_vol_richardson, richardson_prices, solve_forward
from nvol.models import MarketSetup, make_piecewise_linear, make_shifted_lognormal

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_shifted_ln_exact_call_vs_implied_identity():
    # the exact ATM vol formula must be the implied vol of the exact price
    sb, b, S0, T = 0.03, 0.2, 0.05, 10.0
    sigma0 = sb - 2 * b * S0
    p = shifted_ln_exact_call(sigma0, b, S0, S0, T)
    assert implied_normal_vol(p, S0, S0, T) == pytest.approx(
        shifted_ln_atm_exact_vol(sb, b, T), rel=1e-12)


def test_shifted_ln_series_converges_to_exact():
    sb, b = 0.03, 0.2
    for T in (0.5, 2.0, 5.0):
        exact = shifted_ln_atm_exact_vol(sb, b, T)
        errs = [abs(shifted_ln_atm_series(sb, b, T, n_terms=n) - exact)
                for n in (1, 2, 3, 4, 5)]
        assert all(a > b_ for a, b_ in zip(errs, errs[1:]))
        assert errs[4] < 1e-8 * sb  # next term is ~ sb (b^2 T)^5 / 4e4
    with pytest.raises(ValueError):
        shifted_ln_atm_series(sb, b, 1.0, n_terms=0)


def test_shifted_ln_small_b_bachelier_limit():
    # b -> 0 reduces to the Bachelier price with vol sigma0 + 2 b S0
    p = shifted_ln_exact_call(0.01, 1e-10, 0.03, 0.035, 1.0)
    want = bachelier_call(NormalQuote(F=0.03, K=0.035, T=1.0, sigmaN=0.01))
    assert p == pytest.approx(want, rel=1e-8)


def test_shifted_ln_exact_call_with_falling_vol():
    # b < 0: the vol falls to 0 at -sigma0/(2b) = 0.08 (0.13), where this
    # raised.  Mirrored through S -> -S the model is the b > 0 one, whose put
    # is C(-K) + S0 - K by parity; the PDE's Richardson prices agree to 5e-10
    S0, strikes = 0.03, np.linspace(0.0, 0.06, 13)
    for b in (-0.1, -0.05):
        sigma0 = 0.01 - 2 * b * S0
        model = make_shifted_lognormal(sigma0, b, S0)
        for T in (1.0, 5.0):
            got = np.array([shifted_ln_exact_call(sigma0, b, S0, K, T) for K in strikes])
            mirror = [shifted_ln_exact_call(sigma0, -b, -S0, -K, T) + S0 - K for K in strikes]
            assert np.max(np.abs(got - mirror)) <= 1e-16, (b, T)
            pde, = richardson_prices(model, MarketSetup(S0), (T,), strikes, 10.0)
            assert np.max(np.abs(got - pde)) <= 5e-10, (b, T)
    with pytest.raises(ValueError, match="must be positive"):
        shifted_ln_exact_call(0.016, -0.1, S0, 0.08, 1.0)  # a strike at the vol's zero


def test_shifted_ln_exact_vs_pde_20_points():
    sb, b, S0 = 0.012, 0.12, 0.03
    sigma0 = sb - 2 * b * S0
    model = make_shifted_lognormal(sigma0, b, S0)
    setup = MarketSetup(S0=S0)
    T = 1.0
    sol = solve_forward(model, setup, T, n_space=1601, n_steps=1000)
    count = 0
    for i in range(20):
        K = S0 + (i - 9.5) / 9.5 * 1.5 * sb * math.sqrt(T)
        j = min(range(len(sol.strikes)), key=lambda n: abs(sol.strikes[n] - K))
        want = shifted_ln_exact_call(sigma0, b, S0, float(sol.strikes[j]), T)
        assert sol.prices[j] == pytest.approx(want, rel=1e-4, abs=1e-9)
        count += 1
    assert count == 20


def test_drift_atm_first_order_in_mu():
    # the mu-linear ATM formula matches its driftless limit exactly
    sb, b, S0, T = 0.03, 0.2, 0.05, 4.0
    sigma0 = sb - 2 * b * S0
    assert shifted_ln_drift_atm_call(sigma0, b, S0, 0.0, T) == pytest.approx(
        shifted_ln_exact_call(sigma0, b, S0, S0, T), rel=1e-13)
    # and the drift shifts the price by mu T / 2 at first order
    mu = 1e-3
    diff = (shifted_ln_drift_atm_call(sigma0, b, S0, mu, T)
            - shifted_ln_drift_atm_call(sigma0, b, S0, 0.0, T))
    assert diff == pytest.approx(0.5 * mu * T, rel=1e-13)
    with pytest.raises(ValueError):
        shifted_ln_drift_atm_call(sigma0, b, S0, -1e-4, T)
    with pytest.raises(ValueError):
        drifted_ln_atm_call(-1.0, 0.0, 1.0)


def test_drifted_ln_atm_call_values():
    x0, t = 0.04, 1.0
    base = x0 * math.erf(math.sqrt(t) / (2.0 * math.sqrt(2.0)))
    assert drifted_ln_atm_call(x0, 0.0, t) == pytest.approx(base, rel=1e-14)
    assert drifted_ln_atm_call(x0, 0.002, t) == pytest.approx(base + 0.001, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(t=st.floats(0.05, 2.0), x=st.floats(0.0, 1.5), b=st.floats(0.05, 0.6))
def test_kink_density_mass_is_one(t, x, b):
    lo = min(-b * t, x - b * t) - 10.0 * math.sqrt(t)
    hi = max(b * t, x + b * t) + 10.0 * math.sqrt(t)
    neg, _ = quad(lambda z: model2b_density(z, t, x, b), lo, 0.0, limit=200)
    pos, _ = quad(lambda z: model2b_density(z, t, x, b), 0.0, hi, limit=200)
    assert neg + pos == pytest.approx(1.0, abs=1e-8)


def test_kink_density_validation():
    with pytest.raises(ValueError):
        model2b_density(0.1, -1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        model2b_density(0.1, 1.0, -0.5, 0.1)


def test_kink_atm_price_density_vs_closed_form():
    sigma0, b, S0 = 0.008, 0.1, 0.03
    for t in (0.25, 1.0, 4.0):
        vol = model2b_atm_exact(sigma0, b, t)
        want = vol * math.sqrt(t / (2.0 * math.pi))
        got, = model2b_call_by_density(sigma0, b, S0, [S0], t)
        assert got == pytest.approx(want, rel=1e-6)


def test_kink_atm_small_time_anomaly():
    # sigma_ATM(t) - sigma0 ~ (1/2) sqrt(pi/2) sigma0 b sqrt(t)
    sigma0, b = 0.008, 0.1
    c = 0.5 * math.sqrt(math.pi / 2.0) * sigma0 * b
    for t in (1e-6, 1e-4):
        dev = model2b_atm_exact(sigma0, b, t) - sigma0
        assert dev == pytest.approx(c * math.sqrt(t), rel=2e-2)


@pytest.mark.parametrize("t", [0.01, 0.25, 1.0])
def test_kink_density_price_vs_quad(t):
    # scipy's adaptive Gauss-Kronrod on the same integrand, split at the kink
    # z = 0; the bound is the noise level the CLI's exact rows are judged by
    sigma0, b, S0 = 0.008, 0.1, 0.03
    strikes = (0.01, 0.02, 0.025, 0.03, 0.035, 0.05, 0.08)
    # one call prices the whole array, each strike as its own one-strike call does
    prices = model2b_call_by_density(sigma0, b, S0, np.array(strikes), t)
    assert np.array_equal(prices, [model2b_call_by_density(sigma0, b, S0, [K], t)[0]
                                   for K in strikes])
    for K, got in zip(strikes, prices.tolist()):
        yK = K - S0
        zK = model2b_z_of_y(yK, sigma0, b)
        z_hi = b * t + 12.0 * math.sqrt(t)

        def f(u):
            return (model2b_y_of_z(u, sigma0, b) - yK) * model2b_density(u, t, 0.0, b)

        stops = (zK, 0.0, z_hi) if zK < 0.0 < z_hi else (zK, z_hi)
        want = sum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for lo, hi in zip(stops[:-1], stops[1:]))
        assert abs(got - want) <= max(1e-16, 1e-13 * abs(want)), (K, got, want)


def test_kink_price_non_increasing_and_zero_beyond_truncation():
    # beyond z_hi = b t + 12 sqrt(t) the truncated payoff integral is empty;
    # integrating the reversed interval instead gives a ~1e-35 "price" that
    # rises with K (K = 0.05 and 0.08)
    sigma0, b, S0, t = 0.008, 0.1, 0.03, 0.01
    z_hi = b * t + 12.0 * math.sqrt(t)
    strikes = [0.035 + 0.0025 * i for i in range(19)]  # 0.035 .. 0.08
    prices = model2b_call_by_density(sigma0, b, S0, strikes, t).tolist()
    assert prices == [model2b_call_by_density(sigma0, b, S0, [K], t)[0] for K in strikes]
    assert all(p1 <= p0 for p0, p1 in zip(prices, prices[1:]))
    beyond = [model2b_z_of_y(K - S0, sigma0, b) >= z_hi for K in strikes]
    assert 0 < sum(beyond) < len(strikes)
    assert all(p == 0.0 for p, out in zip(prices, beyond) if out)
    assert all(p > 0.0 for p, out in zip(prices, beyond) if not out)


def test_kink_offstrike_prices_are_sane():
    sigma0, b, S0, t = 0.008, 0.1, 0.03, 1.0
    atm, itm, otm = model2b_call_by_density(sigma0, b, S0, [S0, S0 - 0.004, S0 + 0.004], t)
    assert itm > atm > otm > 0.0
    assert itm > 0.004  # above intrinsic


@settings(max_examples=100, deadline=None)
@given(y=st.floats(-0.5, 0.5), sigma0=st.floats(0.005, 0.05),
       b=st.floats(0.01, 0.5))
@example(y=-5e-324, sigma0=0.005, b=0.01)  # 2 b y underflows to -0.0
def test_kink_coordinate_map_roundtrip(y, sigma0, b):
    z = model2b_z_of_y(y, sigma0, b)
    assert model2b_y_of_z(z, sigma0, b) == pytest.approx(y, rel=1e-10, abs=1e-14)
    assert (z >= 0.0) == (y >= 0.0)


def test_fit_report_json_and_validation():
    r = FitReport(coefficient=5e-4, exponent=0.5, residual=0.01,
                  grid=(0.1, 0.2, 0.4, 0.8, 1.6))
    d = json.loads(r.to_json())
    assert set(d) == {"coefficient", "exponent", "residual", "grid"}
    assert d["grid"] == [0.1, 0.2, 0.4, 0.8, 1.6]


@pytest.mark.parametrize("config, exact_vol", [
    ("sqrtt_control_shifted_ln", shifted_ln_atm_exact_vol), ("sqrtt_model2b", model2b_atm_exact)])
def test_sqrt_t_atm_vols_vs_closed_forms(config, exact_vol):
    # the extrapolated ATM vols behind the sqrt-t fit, at its seven default
    # maturities; what is left is +3.1e-10 at every T, and 16/32 steps
    # instead of 32/64 (+2.2e-9) fail this bound
    path = ROOT / "configs" / f"{config}.ini"
    cfg = load_config(str(path))
    ini = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    ini.read(path)
    sigma0 = cfg.model.vol(cfg.setup.S0)
    b = float(ini["model"].get("b") or ini["model"]["bR"])
    assert cfg.maturities == tuple(0.25 / 2 ** k for k in reversed(range(7)))
    vols = atm_implied_vol_richardson(cfg.model, cfg.setup, cfg.maturities)
    for T, vol in zip(cfg.maturities, vols):
        err = vol - exact_vol(sigma0, b, T)
        assert abs(err) <= 5e-10, (T, err)


def test_sqrt_t_detector_refuses_repeated_maturities_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a PDE")

    # the detector's one call, and the march under it
    for name in ("atm_implied_vol_richardson", "march"):
        monkeypatch.setattr(nvol.dupire_pde, name, no_solve)
    kink = make_piecewise_linear(0.008, -0.1, 0.1, 0.03)
    with pytest.raises(ValueError, match=r"repeated: \[0.01\]"):
        sqrt_t_detector(kink, MarketSetup(S0=0.03), (0.02, 0.01, 0.03, 0.01, 0.04))
