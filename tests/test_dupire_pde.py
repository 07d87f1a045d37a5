import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.linalg import LinAlgError
from scipy.linalg import solve_banded

from nvol.bachelier import NormalQuote, bachelier_call
import nvol.dupire_pde
from nvol.dupire_pde import (ForwardOffGrid, GridTooNarrow, PdeSolution, _build_strike_grid,
                             _Tridiagonal,
                             atm_implied_vol, atm_implied_vol_richardson,
                             extract_local_vol, implied_smile_from_pde, march,
                             richardson_prices, solve_forward)
from nvol.models import (MarketSetup, make_piecewise_linear, make_quadratic_sabr,
                         make_shifted_lognormal, make_tabulated)


def constant_model(c):
    return make_shifted_lognormal(c, 0.0, 0.0)


def atm_error(n_space, n_steps, T=1.0, c=0.01):
    model = constant_model(c)
    setup = MarketSetup(S0=0.03)
    sol = solve_forward(model, setup, T, n_space=n_space, n_steps=n_steps)
    return atm_implied_vol(sol, setup) - c


def test_constant_vol_atm_accuracy():
    assert abs(atm_error(801, 400)) < 2e-6


def test_space_time_convergence_second_order():
    # halving dx while quadrupling dt count should cut the error ~4x
    coarse = abs(atm_error(401, 256))
    fine = abs(atm_error(801, 1024))
    assert coarse / fine >= 3.5


def test_digital_limits_at_grid_edges():
    # -dC/dK -> 1 deep ITM and -> 0 deep OTM
    model = constant_model(0.01)
    setup = MarketSetup(S0=0.03)
    sol = solve_forward(model, setup, 1.0, n_space=801)
    p = sol.prices
    dk = sol.strikes[1] - sol.strikes[0]
    digital_lo = -(p[1] - p[0]) / dk
    digital_hi = -(p[-1] - p[-2]) / dk
    assert digital_lo == pytest.approx(1.0, abs=1e-6)
    assert digital_hi == pytest.approx(0.0, abs=1e-6)


def test_drift_consistency_constant_vol():
    # with drift, the constant-vol price is Bachelier on the shifted forward
    c, mu0, mu1 = 0.012, 0.004, -0.002
    model = constant_model(c)
    setup = MarketSetup(S0=0.03, mu0=mu0, mu1=mu1)
    T = 2.0
    sol = solve_forward(model, setup, T, n_space=1201, n_steps=1600)
    F = setup.forward(T)
    for K in (F - 0.01, F, F + 0.015):
        j = int(np.argmin(np.abs(sol.strikes - K)))
        want = bachelier_call(NormalQuote(F=F, K=float(sol.strikes[j]), T=T, sigmaN=c))
        assert sol.prices[j] == pytest.approx(want, rel=5e-5, abs=1e-9)


def test_calendar_monotonicity():
    model = make_shifted_lognormal(0.002, 0.1, 0.03)
    setup = MarketSetup(S0=0.03)
    sols = [solve_forward(model, setup, T, n_space=401, n_steps=n)
            for T, n in ((0.5, 64), (1.0, 64), (2.0, 80))]
    # the interior nodes of the narrowest grid lie on all three
    shared = sols[0].strikes[40:-40]
    p = [sol.price_at_strikes(shared) for sol in sols]
    assert not np.any(np.isnan(p))
    assert np.all(p[1] >= p[0] - 1e-12)
    assert np.all(p[2] >= p[1] - 1e-12)


def test_smile_flags_and_band():
    # the grids span 0.03 -+ 0.1 and the band 0.03 -+ 0.06
    model = constant_model(0.01)
    setup = MarketSetup(S0=0.03)
    strikes = np.linspace(-0.0695, 0.1295, 200)
    pts, = implied_smile_from_pde(model, setup, (1.0,), strikes)
    flags = {flag for _, flag in pts}
    assert flags <= {"ok", "low_confidence", "no_time_value"}
    for vol, flag in pts:
        if flag == "no_time_value":
            assert math.isnan(vol)
        else:
            assert vol > 0.0
    near = [pt for k, pt in zip(strikes, pts) if abs(k - 0.03) < 0.02]
    assert all(flag == "ok" for _, flag in near)
    assert all(vol == pytest.approx(0.01, abs=1e-8) for vol, _ in near)
    far = [pt for k, pt in zip(strikes, pts) if abs(k - 0.03) > 0.07]
    assert far and all(flag != "ok" for _, flag in far)


def test_smile_without_an_atm_vol_is_low_confidence(monkeypatch):
    # an ATM price without time value has no vol, so no strike lies in the band
    model = constant_model(0.01)
    setup = MarketSetup(S0=0.03)
    live = richardson_prices(model, setup, (1.0,), [0.05], 10.0)[0][0]
    # one price array per maturity, the strikes then the forward
    monkeypatch.setattr(nvol.dupire_pde, "richardson_prices",
                        lambda *a: (np.array([live, 0.0]),))
    assert implied_smile_from_pde(model, setup, (1.0,), [0.05]) == ([
        (pytest.approx(0.01, abs=1e-8), "low_confidence")],)
    sol = solve_forward(model, setup, 1.0, n_space=101)
    dead = dataclasses.replace(sol, prices=np.zeros_like(sol.prices))
    assert math.isnan(atm_implied_vol(dead, setup))


def test_forward_off_the_grid_raises(lapack_calls):
    # the grids are centred on S0 whatever the drift; F = 0.53 has no price,
    # and the error comes before either march factors or solves anything
    model = constant_model(0.01)
    setup = MarketSetup(S0=0.03, mu0=0.5)
    assert math.isnan(atm_implied_vol(solve_forward(model, setup, 1.0, n_space=101), setup))
    lapack_calls["factor"].clear()
    lapack_calls["solve"].clear()
    for call in (lambda: implied_smile_from_pde(model, setup, (1.0, 0.25), [0.05]),
                 lambda: atm_implied_vol_richardson(model, setup, (1.0,))):
        with pytest.raises(ForwardOffGrid, match=r"forward 0.53 at T = 1.0"):
            call()
    assert lapack_calls == {"factor": [], "solve": []}


def test_atm_vol_between_nodes_of_drifted_kink():
    # on the default grid F_T = 0.0309375 sits between nodes, off the kink at S0;
    # the 12801-node reference has it on a node
    model = make_piecewise_linear(0.008, -0.1, 0.1, 0.03)
    setup = MarketSetup(S0=0.03, mu0=0.004, mu1=-0.002)
    T = 0.25
    sols = [solve_forward(model, setup, T, n_space=n) for n in (1601, 12801)]
    assert not np.any(sols[0].strikes == setup.forward(T))
    got, ref = (atm_implied_vol(sol, setup) for sol in sols)
    assert abs(got - ref) < 5e-7


def test_breakpoint_off_s0_is_refused():
    # the uniform stencil would smear a kink between nodes; one at S0 sits on
    # a node, and one off the grid does not reach the march
    model = make_piecewise_linear(0.008, -0.1, 0.1, 0.03)
    with pytest.raises(ValueError, match=r"breakpoint at 0\.03, .* off S0 = 0\.031"):
        solve_forward(model, MarketSetup(S0=0.031), 1.0, n_space=401)
    sol = solve_forward(model, MarketSetup(S0=0.031), 1e-4, n_space=401)
    assert 0.03 < sol.strikes[0]
    assert sol.strikes[sol.s0_node] == pytest.approx(0.031, abs=1e-15)


def reference_march(model, setup, ks, T, n_steps):
    """Rannacher-started CN to T in n_steps steps of T / n_steps, with the
    system rebuilt and solved every step."""
    n, dx = len(ks), ks[1] - ks[0]
    diff = 0.5 * np.array([model.vol(k) ** 2 for k in ks]) / (dx * dx)
    times = np.linspace(0.0, T, n_steps + 1).tolist()
    dt = T / n_steps

    def step(c_in, t0, t1, h, theta):
        adv = setup.drift(0.5 * (t0 + t1)) / (2.0 * dx)
        lo_c, hi_c, mid_c = diff + adv, diff - adv, -2.0 * diff
        rhs = c_in.copy()
        if theta < 1.0:
            w = (1.0 - theta) * h
            rhs[1:-1] = (c_in[1:-1] + w * (lo_c[1:-1] * c_in[:-2]
                                           + mid_c[1:-1] * c_in[1:-1]
                                           + hi_c[1:-1] * c_in[2:]))
        ab = np.zeros((3, n))
        ab[1, :] = 1.0
        ab[1, 1:-1] = 1.0 - theta * h * mid_c[1:-1]
        ab[0, 2:] = -theta * h * hi_c[1:-1]
        ab[2, :-2] = -theta * h * lo_c[1:-1]
        rhs[0] = setup.forward(t1) - ks[0]
        rhs[-1] = 0.0
        return solve_banded((1, 1), ab, rhs)

    c = np.maximum(setup.S0 - ks, 0.0)
    for i, (t0, t1) in enumerate(zip(times[:-1], times[1:])):
        if i < 2:
            tm = 0.5 * (t0 + t1)
            c = step(step(c, t0, tm, 0.5 * dt, 1.0), tm, t1, 0.5 * dt, 1.0)
        else:
            c = step(c, t0, t1, dt, 0.5)
    return c


KINK = make_piecewise_linear(0.008, 0.1, 0.2, 0.03)


@pytest.mark.parametrize("model, setup, levels, n_space", [
    (make_quadratic_sabr(0.01, 0.3, -0.3, 0.03), MarketSetup(S0=0.03), [1.0], 801),
    (KINK, MarketSetup(S0=0.03, mu0=0.002, mu1=-0.001), [0.5, 1.0, 2.0], 201),
    (KINK, MarketSetup(S0=0.03, mu0=0.002), [0.5, 1.0, 2.0], 201),
    (make_quadratic_sabr(0.01, 0.3, -0.3, 0.03), MarketSetup(S0=0.03, mu0=0.004, mu1=-0.002),
     [0.25, 1.0], 401),
])
def test_march_bit_identical_to_per_step_banded_solve(both_lapacks, model, setup, levels,
                                                      n_space):
    # on either LAPACK, each maturity solved on its own in 40 steps a year,
    # at least 64, and all of them stacked in one march of 64 steps; the
    # bytes compared carry the sign of every zero, the Dirichlet rows' included
    for source in SOURCES:
        both_lapacks(source)
        for T in levels:
            n_steps = max(math.ceil(40 * T), 64)
            sol = solve_forward(model, setup, T, n_space=n_space, n_steps=n_steps)
            want = reference_march(model, setup, sol.strikes, T, n_steps)
            assert sol.meta["lapack"] == source
            assert sol.prices.tobytes() == want.tobytes()
        for sol in march(model, setup, levels, n_space=n_space, n_steps=64):
            want = reference_march(model, setup, sol.strikes, sol.T, 64)
            assert sol.prices.tobytes() == want.tobytes()
            # the far-OTM row is never written after the payoff, and stays +0
            assert sol.prices[-1] == 0.0 and not np.signbit(sol.prices[-1])


@pytest.mark.parametrize("model, setup, maturities, clipped", [
    # unsorted, with the kink at S0 and mu1 != 0: one factorisation per
    # step; sigma_D vanishes at S = -0.01, which clips the grids from T = 0.5
    (KINK, MarketSetup(S0=0.03, mu0=0.002, mu1=-0.001), (2.0, 0.1, 0.5), (True, False, True)),
    # sigma_D vanishes at S = -0.04, which clips the grid at T = 10 only
    (make_shifted_lognormal(0.008, 0.1, 0.03), MarketSetup(S0=0.03), (0.1, 10.0, 0.05),
     (False, True, False)),
    (make_quadratic_sabr(0.01, 0.3, -0.3, 0.03), MarketSetup(S0=0.03, mu0=0.002),
     (1.0, 0.25), (False, False)),
])
def test_march_blocks_equal_one_maturity_solves(lapack_calls, model, setup, maturities,
                                                clipped):
    # every block factors and solves to the bits it gets alone
    sols = march(model, setup, maturities, n_space=201, n_steps=40)
    steps = 40 + 2
    factors = steps if setup.mu1 else 2
    assert lapack_calls["factor"] == [len(maturities) * 201] * factors
    assert lapack_calls["solve"] == [len(maturities) * 201] * steps
    assert tuple(sol.meta["clipped"][0] for sol in sols) == clipped
    for T, sol in zip(maturities, sols):
        one = solve_forward(model, setup, T, n_space=201, n_steps=40)
        assert sol.T == one.T == T and sol.s0_node == one.s0_node
        assert np.array_equal(sol.strikes, one.strikes)
        assert np.array_equal(sol.prices, one.prices)
        assert sol.meta == one.meta


@pytest.mark.parametrize("width", [8.0, 10.0])
def test_richardson_equals_one_maturity_read_outs(width):
    # the batched read-out of each march, row by row, is the read-out of that
    # maturity's solve alone; strikes off a grid (at T = 0.0625 they span
    # 0.03 -+ 0.016 and 0.03 -+ 0.02), on nodes and between them, nan and inf
    model, setup = KINK, MarketSetup(S0=0.03, mu0=0.002, mu1=-0.001)
    maturities = (0.25, 0.0625, 1.0)
    strikes = [0.005, 0.025, 0.03, 0.031, 0.0312345, 0.04, 0.07, math.nan, math.inf, -math.inf]
    prices = richardson_prices(model, setup, maturities, strikes, width)
    for T, got in zip(maturities, prices):
        coarse, fine = (solve_forward(model, setup, T, n_space, n_steps, width)
                        .price_at_strikes(strikes)
                        for n_space, n_steps in ((401, 32), (801, 64)))
        assert got.tobytes() == ((4.0 * fine - coarse) / 3.0).tobytes()
    assert np.array_equal(np.isnan(prices[1]), [True] + [False] * 5 + [True] * 4)


def test_tuple_of_maturities_equals_one_maturity_calls():
    model, setup = KINK, MarketSetup(S0=0.03, mu0=0.002, mu1=-0.001)
    maturities = (0.25, 0.0625, 1.0)
    strikes = [0.025, 0.03, 0.031, 0.04]
    prices = richardson_prices(model, setup, maturities, strikes, 10.0)
    smiles = implied_smile_from_pde(model, setup, maturities, strikes)
    vols = atm_implied_vol_richardson(model, setup, maturities)
    assert len(prices) == len(smiles) == len(vols) == 3
    for i, T in enumerate(maturities):
        one_prices, = richardson_prices(model, setup, (T,), strikes, 10.0)
        assert np.array_equal(prices[i], one_prices)
        assert (smiles[i],) == implied_smile_from_pde(model, setup, (T,), strikes)
        assert (vols[i],) == atm_implied_vol_richardson(model, setup, (T,))


@pytest.mark.parametrize("mu0, mu1, factorizations", [
    (0.0, 0.0, 2), (0.002, 0.0, 2), (0.002, -0.001, 82)])
def test_march_factors_once_per_operator(lapack_calls, mu0, mu1, factorizations):
    # a constant drift factors the implicit half-step and the CN step once
    # each; mu1 != 0 changes the operator every (half-)step
    solve_forward(KINK, MarketSetup(S0=0.03, mu0=mu0, mu1=mu1), 2.0, n_space=201, n_steps=80)
    assert lapack_calls["factor"] == [201] * factorizations



@pytest.mark.parametrize("T", [1.0 / 256.0, 0.25, 4.0, 0.3])
def test_atm_richardson_solves_twice_in_fixed_steps(monkeypatch, lapack_calls, T):
    # two marches, 401 nodes in 32 steps and 801 in 64, whatever the
    # maturities: each step count plus the two Rannacher half-steps is one
    # dgttrs solve, and each march factors twice, even where T / 32 and
    # T / 64 are inexact (T = 0.3); a tuple stacks one block per maturity
    grids = []
    marched = nvol.dupire_pde._march

    def recorded(model, setup, maturities, built, n_steps):
        grids.append([(g[0].size, n_steps, t) for g, t in zip(built, maturities)])
        return marched(model, setup, maturities, built, n_steps)

    monkeypatch.setattr(nvol.dupire_pde, "_march", recorded)
    setup = MarketSetup(S0=0.03)
    vol, = atm_implied_vol_richardson(KINK, setup, (T,))
    assert grids == [[(401, 32, T)], [(801, 64, T)]]
    assert lapack_calls["solve"] == [401] * (32 + 2) + [801] * (64 + 2)
    assert lapack_calls["factor"] == [401] * 2 + [801] * 2

    grids.clear()
    lapack_calls["solve"].clear()
    lapack_calls["factor"].clear()
    assert atm_implied_vol_richardson(KINK, setup, (0.5, T, 1.0 / 64.0))[1] == vol
    assert grids == [[(401, 32, t) for t in (0.5, T, 1.0 / 64.0)],
                     [(801, 64, t) for t in (0.5, T, 1.0 / 64.0)]]
    assert lapack_calls["solve"] == [3 * 401] * (32 + 2) + [3 * 801] * (64 + 2)
    assert lapack_calls["factor"] == [3 * 401] * 2 + [3 * 801] * 2


def test_non_finite_local_vol_rejected():
    base = constant_model(0.01)
    model = dataclasses.replace(base, vol=lambda s: np.where(s > 0.06, math.nan, base.vol(s)))
    setup = MarketSetup(S0=0.03)
    with pytest.raises(ValueError, match="sigma_D not finite and positive"):
        solve_forward(model, setup, 1.0, n_space=101)


def test_grid_validation():
    model = constant_model(0.01)
    setup = MarketSetup(S0=0.03)
    with pytest.raises(ValueError, match="at least 51 space nodes"):
        solve_forward(model, setup, 1.0, n_space=11)
    # a zero maturity spans no strikes, nor does one whose span rounds away
    for T in (0.0, 1e-300):
        with pytest.raises(GridTooNarrow, match="K_min must be below K_max"):
            solve_forward(model, setup, T)


@pytest.mark.parametrize("model, s0", [
    # sigma_D = 0.008 + 0.2 (S - 0.03) vanishes at S = -0.01
    (make_shifted_lognormal(0.008, 0.1, 0.03), -0.05),
    (make_tabulated([(0.01, 0.01), (0.02, 0.012), (0.03, 0.01), (0.04, 0.011)]), 0.05),
])
def test_s0_outside_the_positivity_domain_is_refused(model, s0):
    lo, hi = model.positivity_domain
    with pytest.raises(ValueError, match=rf"S0 = {s0!r} lies outside the positivity "
                                         rf"domain \({lo!r}, {hi!r}\)"):
        solve_forward(model, MarketSetup(S0=s0), 1.0, n_space=401, n_steps=32)


def test_positivity_clipping_in_meta():
    # sigma_D = 0.014 + 0.2 (S - 0.03) vanishes at S = -0.04, inside the
    # 10-stdev span 0.03 -+ 0.44 at T = 10, so the grid is cut on the left only
    model = make_shifted_lognormal(0.014 - 0.2 * 0.03, 0.1, 0.03)
    setup = MarketSetup(S0=0.03)
    sol = solve_forward(model, setup, 10.0, n_space=201, n_steps=400)
    assert sol.meta["clipped"] == (True, False)
    assert -0.04 < sol.strikes[0] < -0.04 + sol.meta["dx"]
    assert solve_forward(model, setup, 0.1, n_space=201).meta["clipped"] == (False, False)


def test_shifted_grid_keeps_every_node_inside_the_domain():
    # sigma_D = 0.014 + 0.2 (S - 0.03) vanishes at S = -0.04; placing S0 on a
    # node used to move this left-clipped grid's first node to -0.040937,
    # where sigma_D < 0
    model = make_shifted_lognormal(0.008, 0.1, 0.03)
    setup = MarketSetup(S0=0.03)
    sol = solve_forward(model, setup, 5.359, n_space=101, n_steps=215)
    assert sol.meta["clipped"] == (True, False)
    assert -0.04 < sol.strikes[0] < -0.04 + sol.meta["dx"]
    assert sol.strikes[sol.s0_node] == pytest.approx(0.03, abs=1e-15)
    assert np.all(model.vol(sol.strikes) > 0.0)


@pytest.mark.parametrize("n_space", [51, 400, 401])
def test_grid_clipped_at_both_ends_stays_inside(n_space):
    # a tent sigma_D = 0.008 - 0.2 |S - 0.03| is positive on (-0.01, 0.07) only
    model = make_piecewise_linear(0.008, 0.1, -0.1, 0.03)
    ks, j0, clipped = _build_strike_grid(model, MarketSetup(S0=0.03), 30.0, n_space, 10.0)
    assert clipped == (True, True)
    assert -0.01 < ks[0] and ks[-1] < 0.07 and np.all(model.vol(ks) > 0.0)
    assert ks[j0] == pytest.approx(0.03, abs=1e-15)
    assert np.ptp(np.diff(ks)) < 1e-15
    assert ks[-1] - ks[0] > (1.0 - 2.0 / n_space) * 0.08


def test_meta_round_trips_through_json():
    # sigma_D(S0) is a numpy float for SABR; the clipped flags stay Python bools
    clipped = solve_forward(make_shifted_lognormal(0.008, 0.1, 0.03),
                            MarketSetup(S0=0.03), 10.0, n_space=201, n_steps=400)
    sabr = solve_forward(make_quadratic_sabr(0.01, 0.3, -0.3, 0.03),
                         MarketSetup(S0=0.03), 1.0, n_space=201)
    for sol, flags in ((clipped, [True, False]), (sabr, [False, False])):
        back = json.loads(json.dumps(sol.meta))
        assert back == {**sol.meta, "clipped": flags}
        assert all(type(f) is bool for f in sol.meta["clipped"])
        assert back["lapack"] == _Tridiagonal(51).source
        assert back["lapack"] in ("numpy-openblas", "scipy")


def test_price_at_strikes_interpolates_within_kink_stretches():
    # nodes give their own price; a cubic between nodes is exact, and a
    # stencil never reaches across the kink node at S0
    model = make_piecewise_linear(0.008, -0.1, 0.1, 0.03)
    setup = MarketSetup(S0=0.03)
    sol = solve_forward(model, setup, 1.0, n_space=101)
    ks = sol.strikes
    j0 = sol.s0_node
    assert abs(ks[j0] - 0.03) < 1e-15
    assert np.array_equal(sol.price_at_strikes(ks), sol.prices)
    # a piecewise cubic with its kink at S0 is reproduced to rounding
    x = ks - ks[j0]
    cubic = np.where(x < 0.0, 1.0 + x + 2.0 * x ** 3, 1.0 - 3.0 * x + 50.0 * x ** 2)
    fake = dataclasses.replace(sol, prices=cubic)
    mid = 0.5 * (ks[:-1] + ks[1:])
    y = mid - ks[j0]
    want = np.where(y < 0.0, 1.0 + y + 2.0 * y ** 3, 1.0 - 3.0 * y + 50.0 * y ** 2)
    assert np.max(np.abs(fake.price_at_strikes(mid) - want)) < 1e-14
    got = sol.price_at_strikes([ks[0] - 1e-9, ks[-1] + 1e-9, 0.5, 5.0])
    assert np.all(np.isnan(got))


def lagrange_reference(sol, strikes):
    """price_at_strikes strike by strike: the 4 nodes around each strike
    within its stretch of the S0 node, fewer where the stretch is shorter."""
    ks, n, j0 = sol.strikes, len(sol.strikes), sol.s0_node
    out = []
    for k in strikes:
        if not ks[0] <= k <= ks[-1]:
            out.append(math.nan)
            continue
        j = min(int(np.searchsorted(ks, k, side="right")) - 1, n - 2)
        a, b = (0, j0) if j < j0 else (j0, n - 1)
        lo = max(a, min(j - 1, b - 3))
        nodes = range(lo, min(lo + 4, b + 1))
        p = 0.0
        for m in nodes:
            w = 1.0
            for q in nodes:
                if q != m:
                    w *= (k - ks[q]) / (ks[m] - ks[q])
            p += w * sol.prices[m]
        out.append(p)
    return np.array(out)


# (b, S0, T, index of S0) of shifted log-normal grids of 51 nodes: S0 1, 2
# and 3 nodes from a clipped left end, then from a clipped right end, so
# stretches of 2, 3 and 4 nodes between S0 and the end
CLIPPED_STRETCHES = [
    (0.1, -0.0099, 144.0, 1), (0.1, -0.0099, 100.0, 2), (0.1, -0.0099, 50.0, 3),
    (-0.1, 0.0099, 144.0, 49), (-0.1, 0.0099, 100.0, 48), (-0.1, 0.0099, 50.0, 47)]


@pytest.mark.parametrize("b, s0, T, j0", CLIPPED_STRETCHES)
def test_price_at_strikes_equals_the_scalar_stencils(b, s0, T, j0):
    model = make_shifted_lognormal(0.008, b, 0.03)
    ks, node, clipped = _build_strike_grid(model, MarketSetup(S0=s0), T, 51, 10.0)
    assert node == j0 and clipped == (b > 0, b < 0)
    rng = np.random.default_rng(j0)
    # signed prices with zeros of both signs, whose sums keep the loop's sign of zero
    prices = rng.normal(size=ks.size) * rng.integers(0, 2, size=ks.size)
    prices[::7] = -0.0
    sol = PdeSolution(strikes=ks, T=T, prices=prices, s0_node=j0)
    strikes = np.concatenate([ks, 0.5 * (ks[1:] + ks[:-1]), rng.uniform(ks[0], ks[-1], 200),
                              [ks[0] - 1e-9, ks[-1] + 1e-9, math.nan, math.inf, -math.inf]])
    got, want = sol.price_at_strikes(strikes), lagrange_reference(sol, strikes.tolist())
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(got[:ks.size], prices)


def test_batched_read_out_equals_the_scalar_stencils_row_by_row():
    # the clipped grids above, stacked as the rows of one read-out
    grids = [_build_strike_grid(make_shifted_lognormal(0.008, b, 0.03), MarketSetup(S0=s0),
                                T, 51, 10.0) for b, s0, T, _ in CLIPPED_STRETCHES]
    ks = np.array([g[0] for g in grids])
    s0_nodes = [g[1] for g in grids]
    assert s0_nodes == [j0 for *_, j0 in CLIPPED_STRETCHES]
    rng = np.random.default_rng(7)
    prices = rng.normal(size=ks.shape) * rng.integers(0, 2, size=ks.shape)
    prices[:, ::5] = -0.0
    strikes = np.concatenate([ks.ravel(), 0.5 * (ks[:, 1:] + ks[:, :-1]).ravel(),
                              rng.uniform(ks.min(), ks.max(), 300),
                              [ks.min() - 1e-9, ks.max() + 1e-9, 0.0, -0.0,
                               math.nan, math.inf, -math.inf]])
    got = nvol.dupire_pde._prices_at(ks, prices, s0_nodes, strikes)
    assert got.shape == (len(grids), strikes.size)
    for row, (g, j0, p) in enumerate(zip(ks, s0_nodes, prices)):
        sol = PdeSolution(strikes=g, T=1.0, prices=p, s0_node=j0)
        want = lagrange_reference(sol, strikes.tolist())
        assert got[row].tobytes() == want.tobytes()
        assert sol.price_at_strikes(strikes).tobytes() == want.tobytes()
        # every strike off this row's grid is nan, the others are not
        assert np.array_equal(np.isnan(got[row]), ~((g[0] <= strikes) & (strikes <= g[-1])))


def test_extract_local_vol_flat_surface():
    # a strike- and maturity-independent implied vol inverts to sigma_D = c
    c = 0.011
    setup = MarketSetup(S0=0.03)
    got = extract_local_vol(lambda K, T: c, setup, K=0.035, T=1.0)
    assert got == pytest.approx(c, rel=1e-10)


def test_extract_local_vol_roundtrip_shifted_ln(smile_surface):
    T = 1.0
    surface, model = smile_surface("shifted_lognormal", 0.011, "b = 0.15", "0.8 1 1.1 1.2")
    setup = MarketSetup(S0=0.03)
    for K in (0.025, 0.03, 0.035):
        got = extract_local_vol(surface, setup, K=K, T=T, dT=0.1 * T)
        assert got == pytest.approx(model.vol(K), rel=5e-3)


def test_extract_local_vol_singular_raises():
    setup = MarketSetup(S0=0.03)
    # strong negative strike curvature flips the denominator sign
    with pytest.raises(ValueError):
        extract_local_vol(lambda K, T: 0.02 - 100.0 * (K - 0.03) ** 2,
                          setup, K=0.03, T=1.0)
    # total variance decreasing in maturity
    with pytest.raises(ValueError):
        extract_local_vol(lambda K, T: 0.02 * math.exp(-2.0 * T),
                          setup, K=0.03, T=1.0)


@pytest.fixture()
def both_lapacks(monkeypatch):
    """use(source): every `_Tridiagonal` built from then on takes its LAPACK
    from source, the numpy-OpenBLAS binding or the scipy fallback, the latter
    with the symbol lookup forced to fail."""
    found = nvol.dupire_pde._openblas_lapack()
    if found is None:
        pytest.skip("numpy's LAPACK library exports no scipy_dgttrf_64_ / "
                    "scipy_dgttrs_64_ / scipy_dlagtm_64_, so only the scipy fallback "
                    "exists here")
    with monkeypatch.context() as m:
        m.setattr(nvol.dupire_pde, "_OPENBLAS_SYMBOLS", ("no_dgttrf", "no_dgttrs", "no_dlagtm"))
        missing = nvol.dupire_pde._openblas_lapack.__wrapped__()
    assert missing is None
    lookups = {"numpy-openblas": found, "scipy": missing}

    def use(source):
        monkeypatch.setattr(nvol.dupire_pde, "_openblas_lapack", lambda: lookups[source])
    return use


SOURCES = ("numpy-openblas", "scipy")


def random_system(n, seed, source):
    # no diagonal dominance: dgttrf swaps rows at about half the steps
    system = _Tridiagonal(n)
    assert system.source == source
    rng = np.random.default_rng(seed)
    for a in (system.dl, system.d, system.du, system.b, system.l_dl, system.l_d, system.l_du):
        a[:] = rng.normal(size=a.size)
    return system


@pytest.mark.parametrize("n", [401, 801, 1601])
def test_lapack_bindings_factor_and_solve_bit_for_bit(both_lapacks, n):
    systems = []
    for source in SOURCES:
        both_lapacks(source)
        system = random_system(n, n, source)
        system.factor()
        system.solve()
        systems.append(system)
    a, b = systems
    for name in ("dl", "d", "du", "du2", "ipiv", "b"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    # the solution solves the system, drawn afresh
    ref, x = random_system(n, n, "scipy"), a.b
    assert np.allclose(ref.d * x + np.append(ref.du * x[1:], 0.0)
                       + np.append(0.0, ref.dl * x[:-1]), ref.b)


@pytest.mark.parametrize("n", [3, 801, 5607])
def test_lapack_bindings_multiply_bit_for_bit(both_lapacks, n):
    # L b on either source, as (dl b[i-1] + d b[i]) + du b[i+1] in numpy
    got = []
    for source in SOURCES:
        both_lapacks(source)
        system = random_system(n, n, source)
        system.lb[:] = math.nan  # beta = 0: what lb held is not read
        system.multiply()
        got.append(system.lb.tobytes())
    b = system.b
    want = system.l_d * b
    want[1:] = system.l_dl * b[:-1] + want[1:]
    want[:-1] += system.l_du * b[1:]
    assert got[0] == got[1] == want.tobytes()


@pytest.mark.parametrize("model, setup, T, clipped", [
    # T lists the maturities, each solved in 40 steps a year, at least 64
    (KINK, MarketSetup(S0=0.03, mu0=0.002, mu1=-0.001), [0.5, 2.0], (True, False)),
    (make_quadratic_sabr(0.01, 0.3, -0.3, 0.03), MarketSetup(S0=0.03), [1.0], (False, False)),
    (make_shifted_lognormal(0.008, 0.1, 0.03), MarketSetup(S0=0.03), [10.0], (True, False)),
    (make_quadratic_sabr(0.01, 0.3, -0.3, 0.03), MarketSetup(S0=0.03, mu0=0.004, mu1=-0.002),
     [0.25, 1.0], (False, False)),
    (make_shifted_lognormal(0.008, 0.1, 0.03), MarketSetup(S0=0.03, mu0=-0.001, mu1=0.002),
     [10.0, 0.5], (True, False)),
])
def test_solve_forward_same_bits_on_either_lapack(both_lapacks, model, setup, T, clipped):
    # each maturity alone, then all stacked in one march; the bytes carry the
    # sign of every zero, the Dirichlet rows' included
    for t in T:
        sols = {}
        for source in SOURCES:
            both_lapacks(source)
            sols[source] = solve_forward(model, setup, t, n_space=401,
                                         n_steps=max(math.ceil(40 * t), 64))
            assert sols[source].meta["lapack"] == source
            assert sols[source].meta["clipped"] == clipped
        a, b = sols.values()
        assert a.prices.tobytes() == b.prices.tobytes()
    stacked = {}
    for source in SOURCES:
        both_lapacks(source)
        stacked[source] = march(model, setup, T, n_space=401, n_steps=64)
    for a, b in zip(*stacked.values()):
        assert a.prices.tobytes() == b.prices.tobytes()


def test_singular_system_raises_on_either_lapack(both_lapacks):
    for source in SOURCES:
        both_lapacks(source)
        system = _Tridiagonal(101)
        system.dl[:], system.d[:], system.du[:] = 1.0, 1.0, 1.0
        # row 50 is zero
        system.dl[49] = system.d[50] = system.du[50] = 0.0
        with pytest.raises(LinAlgError):
            system.factor()


def test_drifting_march_refactors_one_system_in_place(monkeypatch, both_lapacks):
    # mu1 != 0 factors every (half-)step, all into the pivot storage of the
    # one system the march built
    both_lapacks("numpy-openblas")
    seen = []
    factor = _Tridiagonal.factor

    def recorded(system):
        seen.append((system, system.du2, system.ipiv))
        factor(system)

    monkeypatch.setattr(_Tridiagonal, "factor", recorded)
    sol = solve_forward(KINK, MarketSetup(S0=0.03, mu0=0.002, mu1=-0.001), 2.0,
                        n_space=801, n_steps=80)
    assert len(seen) == 82
    system, du2, ipiv = seen[0]
    assert all(s is system and a is du2 and p is ipiv for s, a, p in seen)
    # the prices are the system's right-hand side, its one block of 801 rows
    assert sol.prices.base is system.b and sol.prices.size == system.b.size
