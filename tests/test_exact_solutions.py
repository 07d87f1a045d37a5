import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nvol.bachelier import NormalQuote, bachelier_call, implied_normal_vol
from nvol.exact_solutions import (FitReport, drifted_ln_atm_call,
                                  model2b_atm_exact, model2b_call_by_density,
                                  model2b_density, model2b_y_of_z,
                                  model2b_z_of_y, shifted_ln_atm_exact_vol,
                                  shifted_ln_atm_series, shifted_ln_drift_atm_call,
                                  shifted_ln_exact_call)
from nvol.dupire_pde import default_grid, solve_forward
from nvol.models import MarketSetup, make_shifted_lognormal


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


def test_shifted_ln_exact_vs_pde_20_points():
    sb, b, S0 = 0.012, 0.12, 0.03
    sigma0 = sb - 2 * b * S0
    model = make_shifted_lognormal(sigma0, b, S0)
    setup = MarketSetup(S0=S0)
    T = 1.0
    grid = default_grid(model, setup, T, n_space=1601, n_time_per_year=1000)
    sol = solve_forward(model, setup, grid, T)
    count = 0
    for i in range(20):
        K = S0 + (i - 9.5) / 9.5 * 1.5 * sb * math.sqrt(T)
        j = min(range(len(sol.strikes)), key=lambda n: abs(sol.strikes[n] - K))
        want = shifted_ln_exact_call(sigma0, b, S0, float(sol.strikes[j]), T)
        assert sol.price_at(T)[j] == pytest.approx(want, rel=1e-4, abs=1e-9)
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
        got = model2b_call_by_density(sigma0, b, S0, S0, t)
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
    for K in (0.01, 0.02, 0.025, 0.03, 0.035, 0.05, 0.08):
        yK = K - S0
        zK = model2b_z_of_y(yK, sigma0, b)
        z_hi = b * t + 12.0 * math.sqrt(t)

        def f(u):
            return (model2b_y_of_z(u, sigma0, b) - yK) * model2b_density(u, t, 0.0, b)

        stops = (zK, 0.0, z_hi) if zK < 0.0 < z_hi else (zK, z_hi)
        want = sum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for lo, hi in zip(stops[:-1], stops[1:]))
        got = model2b_call_by_density(sigma0, b, S0, K, t)
        assert abs(got - want) <= max(1e-16, 1e-13 * abs(want)), (K, got, want)


def test_kink_offstrike_prices_are_sane():
    sigma0, b, S0, t = 0.008, 0.1, 0.03, 1.0
    atm = model2b_call_by_density(sigma0, b, S0, S0, t)
    itm = model2b_call_by_density(sigma0, b, S0, S0 - 0.004, t)
    otm = model2b_call_by_density(sigma0, b, S0, S0 + 0.004, t)
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
    with pytest.raises(ValueError):
        FitReport(coefficient=1.0, exponent=0.5, residual=0.0, grid=(0.1, 0.2, 0.3))
    with pytest.raises(ValueError):
        FitReport(coefficient=1.0, exponent=0.5, residual=0.0,
                  grid=(0.1, 0.2, 0.2, 0.4))
