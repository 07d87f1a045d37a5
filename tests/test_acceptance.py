"""End-to-end acceptance checks.

Each test exercises one headline capability at its stated tolerance and
prints a single PASS/FAIL line so the whole gate can be read off the pytest
output with -s.
"""

import importlib.util
import math
import pathlib

import numpy as np
import pytest

from nvol.asymptotics import atm_jet, sigma1_jump, sigma1_series_atm, sigma2_atm
from nvol.cli import table1_rows
from nvol.dupire_pde import (atm_implied_vol, atm_implied_vol_richardson,
                             extract_local_vol, solve_forward)
from nvol.exact_solutions import (drifted_ln_atm_call, model2b_atm_exact,
                                  model2b_call_by_density, model2b_density,
                                  shifted_ln_atm_exact_vol, sqrt_t_detector)
from nvol.models import (MarketSetup, make_piecewise_linear,
                         make_quadratic_sabr, make_shifted_lognormal)

ROOT = pathlib.Path(__file__).resolve().parent.parent
NORM_PDF0 = 1.0 / math.sqrt(2.0 * math.pi)


def report(num, desc, ok):
    print(f"\ncriterion {num:02d} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_atm_deviation_table():
    # reference ATM deviations (percent, 4 decimals) for sigma0bar=3%, b=0.2
    expected = {1: (0.0199, -0.0001, 0.0000), 2: (0.0395, -0.0005, 0.0000),
                5: (0.0971, -0.0029, 0.0001), 10: (0.1885, -0.0115, 0.0005),
                20: (0.3562, -0.0438, 0.0042), 30: (0.5058, -0.0942, 0.0138)}
    ok = True
    for r in table1_rows():
        want = expected[int(r["T"])]
        for key, w in zip(("dev_order0", "dev_order1", "dev_order2"), want):
            ok &= abs(100.0 * r[key] - w) <= 0.0005
    report(1, "ATM deviation table, 18 cells to 0.0005%", ok)


def test_criterion_02_pde_vs_erf_atm():
    model = make_shifted_lognormal(0.03, 0.2, 0.0)
    setup = MarketSetup(S0=0.0)
    ok = True
    # the error is set by dx: from T = 10 on, 40 steps a year leave it within
    # 3e-9 of 400 steps a year (3.09e-7 at T = 10, 3.12e-7 at T = 30)
    for T, n_space, width, n_steps in ((1.0, 1601, 10.0, 400),
                                       (10.0, 1601, 10.0, 400),
                                       (30.0, 6401, 40.0, 1200)):
        sol = solve_forward(model, setup, T, n_space=n_space, n_steps=n_steps,
                            width_stdevs=width)
        vol = atm_implied_vol(sol, setup)
        ok &= abs(vol - shifted_ln_atm_exact_vol(0.03, 0.2, T)) <= 1e-5
    report(2, "PDE ATM vol vs exact Erf formula within 0.001%", ok)


def test_criterion_03_expansion_convergence_order():
    Ts = (1.0 / 16.0, 1.0 / 8.0, 1.0 / 4.0)
    cases = [make_shifted_lognormal(0.02, 1.0, 0.0),
             make_quadratic_sabr(0.02, 2.0, 0.0, 0.0),
             make_quadratic_sabr(0.02, 2.0, 0.3, 0.0),
             make_quadratic_sabr(0.02, 2.0, -0.3, 0.0)]
    ok = True
    for model in cases:
        setup = MarketSetup(S0=0.0)
        s0 = model.vol(0.0)
        s1 = sigma1_series_atm(atm_jet(model, 0.0))[0]
        s2 = sigma2_atm(atm_jet(model, 0.0))
        e1, e2 = [], []
        for T in Ts:
            pde, = atm_implied_vol_richardson(model, setup, (T,))
            e1.append(abs(s0 + s1 * T - pde))
            e2.append(abs(s0 + s1 * T + s2 * T * T - pde))
        slope1 = math.log(e1[2] / e1[0]) / math.log(Ts[2] / Ts[0])
        slope2 = math.log(e2[2] / e2[0]) / math.log(Ts[2] / Ts[0])
        ok &= slope1 >= 1.8 and slope2 >= 2.7
    report(3, "order-1/order-2 ATM error slopes >= 1.8 / 2.7", ok)


def test_criterion_04_sqrt_t_anomaly():
    sigma0, b, S0 = 0.008, 0.1, 0.03
    grid = tuple(0.25 / 2 ** k for k in reversed(range(7)))  # 1/256 .. 1/4
    setup = MarketSetup(S0=S0)
    kink = make_piecewise_linear(sigma0, -b, b, S0)
    rep = sqrt_t_detector(kink, setup, grid)
    target = 0.5 * math.sqrt(math.pi / 2.0) * sigma0 * b
    ok = abs(rep.exponent - 0.5) <= 0.05
    ok &= abs(rep.coefficient / target - 1.0) <= 0.05
    control = make_shifted_lognormal(sigma0 - 2.0 * b * S0, b, S0)
    ok &= sqrt_t_detector(control, setup, grid).exponent >= 0.9
    report(4, "sqrt-T anomaly: p=1/2, c=(1/2)sqrt(pi/2) sigma0 b; analytic control p>=0.9", ok)


def test_criterion_05_drift_correction():
    # C(K=S0; mu) - C(K=S0; 0) = mu T / 2 plus the Bachelier forward-convexity
    # term phi(0) (mu T)^2 / (2 sigma sqrt(T)); what is left after removing
    # both closed-form pieces must vanish faster than T^1.7
    model = make_shifted_lognormal(0.03, 0.2, 0.0)
    mu = 0.002
    sD0 = model.vol(0.0)
    res = []
    Ts = (1.0 / 8.0, 1.0 / 4.0, 1.0 / 2.0)
    for T in Ts:
        price = {}
        for mu0 in (0.0, mu):
            # the span does not depend on the drift: both solves share one grid
            sol = solve_forward(model, MarketSetup(S0=0.0, mu0=mu0), T, n_space=1601,
                                n_steps=math.ceil(4096 * T))
            j = int(np.argmin(np.abs(sol.strikes)))
            price[mu0] = sol.prices[j]
        convexity = NORM_PDF0 * (mu * T) ** 2 / (2.0 * sD0 * math.sqrt(T))
        res.append(abs(price[mu] - price[0.0] - 0.5 * mu * T - convexity))
    slope = math.log(res[2] / res[0]) / math.log(Ts[2] / Ts[0])
    ok = slope >= 1.7
    report(5, "drift correction mu T / 2: remaining residual slope >= 1.7", ok)


def test_criterion_06_lognormal_with_drift_atm():
    x0 = 1.0
    model = make_shifted_lognormal(0.0, 0.5, x0)  # sigma_D(S) = S

    def pde_atm(mu, t):
        setup = MarketSetup(S0=x0, mu0=mu)
        sol = solve_forward(model, setup, t, n_space=1601, n_steps=math.ceil(2000 * t))
        j = int(np.argmin(np.abs(sol.strikes - x0)))
        return sol.prices[j]

    disc = max(abs(pde_atm(0.0, t) - drifted_ln_atm_call(x0, 0.0, t))
               for t in (0.25, 1.0))
    tol = max(1e-5 * x0, 3.0 * disc)
    ok = True
    for mu in (0.0, 0.001):
        for t in (0.25, 1.0):
            ok &= abs(pde_atm(mu, t) - drifted_ln_atm_call(x0, mu, t)) <= tol
    report(6, "log-normal-with-drift ATM price vs x0 Erf + mu t / 2", ok)


def test_criterion_07_kink_density():
    from scipy.integrate import quad
    sigma0, b, S0 = 0.008, 0.1, 0.03
    ok = True
    for t, x in ((0.25, 0.0), (1.0, 0.3), (4.0, 1.0)):
        lo = min(-b * t, x - b * t) - 10.0 * math.sqrt(t)
        hi = max(b * t, x + b * t) + 10.0 * math.sqrt(t)
        neg, _ = quad(lambda z: model2b_density(z, t, x, b), lo, 0.0, limit=200)
        pos, _ = quad(lambda z: model2b_density(z, t, x, b), 0.0, hi, limit=200)
        ok &= abs(neg + pos - 1.0) <= 1e-8
    for t in (0.25, 1.0, 4.0):
        want = model2b_atm_exact(sigma0, b, t) * math.sqrt(t / (2.0 * math.pi))
        got, = model2b_call_by_density(sigma0, b, S0, [S0], t)
        ok &= abs(got / want - 1.0) <= 1e-6
    report(7, "kink density: unit mass to 1e-8, ATM price to rel 1e-6", ok)


def test_criterion_08_oracle_triangle():
    # the script's 10 random cases, each pair of prices within 3 MC standard errors
    spec = importlib.util.spec_from_file_location(
        "run_oracle_triangle", ROOT / "scripts" / "run_oracle_triangle.py")
    triangle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(triangle)
    ok = triangle.run() == 0
    report(8, "PDE/MC/closed-form triangle, 10 random cases within 3 SE", ok)


def test_criterion_09_local_vol_roundtrip(smile_surface):
    cases = [("shifted_lognormal", 0.011, "b = 0.15"),
             ("quadratic_sabr", 0.012, "gamma = 0.4\nrho = -0.3"),
             ("piecewise_linear", 0.012, "bL = 0.05\nbR = 0.15")]
    S0, T = 0.03, 1.0
    setup = MarketSetup(S0=S0)
    ok = True
    for kind, sigma0, params in cases:
        surface, model = smile_surface(kind, sigma0, params, "0.8 0.9 1 1.1 1.2")
        band = 2.0 * model.vol(S0) * math.sqrt(T)
        for K in np.linspace(S0 - band, S0 + band, 9):
            got = extract_local_vol(surface, setup, float(K), T, dT=0.1 * T)
            ok &= abs(got / model.vol(float(K)) - 1.0) <= 0.01
    report(9, "local vol recovered from `nvol smile` pde surfaces within 1%", ok)


def test_criterion_10_sigma1_jump():
    sigma0, bL, bR, S0 = 0.008, 0.1, 0.2, 0.03
    model = make_piecewise_linear(sigma0, bL, bR, S0)
    got = sigma1_jump(model, S0)
    ok = abs(got - (-4e-5)) <= 1e-12
    report(10, "sigma1 jump -(bR^2-bL^2) sigma0 / 6 = -4e-5 to 1e-12", ok)
