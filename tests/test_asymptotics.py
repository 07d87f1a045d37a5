import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nvol.asymptotics
from nvol.asymptotics import (_ATM_SWITCH_RADIUS, _DERIV_RADIUS_FACTOR,
                              BreakpointError, DomainError,
                              NonAnalyticWarning, atm_jet, expansion, sigma0,
                              sigma0_series_atm, sigma1, sigma1_jump,
                              sigma1_series_atm, sigma2, sigma2_atm, smile,
                              smile_from_coefficients, sqrt_t_coefficient)
from nvol.cli import load_config
from nvol.exact_solutions import model2b_atm_exact, sqrt_t_detector
from nvol.models import (MarketSetup, make_piecewise_linear,
                         make_quadratic_sabr, make_shifted_lognormal,
                         make_tabulated)
from nvol.quadrature import N_PANELS

F0 = 10.0
CONFIGS = sorted((pathlib.Path(__file__).resolve().parent.parent / "configs").glob("*.ini"))


def poly_model(a0, a1, a2, a3, a4, domain=(F0 - 0.55, F0 + 2.0)):
    """Local vol with prescribed derivatives a_k = sigma_D^(k)(F0)."""
    c = [a0, a1, a2 / 2.0, a3 / 6.0, a4 / 24.0]
    from nvol.models import LocalVolModel

    def vol(s):
        y = s - F0
        return c[0] + y * (c[1] + y * (c[2] + y * (c[3] + y * c[4])))

    def jet(s, n):
        y = s - F0
        return (vol(s), c[1] + y * (2 * c[2] + y * (3 * c[3] + y * 4 * c[4])),
                2 * c[2] + y * (6 * c[3] + y * 12 * c[4]), 6 * c[3] + y * 24 * c[4],
                24.0 * c[4])[:n + 1]

    return LocalVolModel(vol=vol, jet=jet, positivity_domain=domain,
                         label="poly")


# Reference values computed by an exact-rational (Fraction) order-by-order
# solve of the fixed-strike recursion for the polynomial model with
# derivatives (2, 3, 5, 7, 11) at F0; the y-series is truncated at y^6, so
# point values at |y| = 0.2 carry ~1e-5 relative truncation.
SOLVER_CASES = {
    # (mu0, mu1): (sigma1 series c0..c3, sigma2_atm,
    #              sigma1(+-0.2), sigma2(+-0.2))
    (0.0, 0.0): ((11 / 12, 89 / 48, 10547 / 5760, 6293 / 7680), 2411 / 960,
                 (1.36739140109, 0.612671635212), (4.99576219491, 1.22316234828)),
    (2.0, 0.0): ((11 / 12, 125 / 48, 14507 / 5760, 20591 / 23040), 3131 / 960,
                 (1.54542978324, 0.489546932054), (6.20445070001, 1.72505683443)),
    (1.0, 1.0): ((11 / 12, 107 / 48, 12527 / 5760, 3947 / 4608), 2351 / 960,
                 (1.45641059216, 0.551109283633), (5.12550245817, 1.07724746772)),
}


def test_sigma0_shifted_ln_closed_form():
    # harmonic average of sigma0bar + 2b(S - S0): y * 2b / log(1 + 2by/sigma0bar)
    sb, b, S0 = 0.014, 0.1, 0.03
    m = make_shifted_lognormal(sb - 2 * b * S0, b, S0)
    for y in (-0.02, -0.005, 0.01, 0.05):
        expected = 2.0 * b * y / math.log1p(2.0 * b * y / sb)
        assert sigma0(m, S0, S0 + y) == pytest.approx(expected, rel=1e-9)


def test_sigma0_quadrature_matches_closed_form_25_strikes():
    sb, b, S0 = 0.014, 0.1, 0.03
    m = make_shifted_lognormal(sb - 2 * b * S0, b, S0)
    for i in range(25):
        y = -0.02 + 0.004 * i
        if abs(y) < 1e-9:
            continue
        expected = 2.0 * b * y / math.log1p(2.0 * b * y / sb)
        assert sigma0(m, S0, S0 + y) == pytest.approx(expected, rel=1e-9)


def test_sigma0_atm_series_vs_quadrature():
    # the closed-form derivatives must agree with the quadrature evaluation:
    # the Taylor prediction at small y matches sigma0 to O(y^4)
    m = poly_model(2, 3, 5, 7, 11)
    s0, s1, s2, s3 = sigma0_series_atm(atm_jet(m, F0))
    assert s0 == pytest.approx(2.0, rel=1e-14)
    assert s1 == pytest.approx(3.0 / 2.0, rel=1e-14)
    for y in (0.01, -0.01, 0.02, -0.02):
        taylor = s0 + y * (s1 + y * (s2 / 2.0 + y * s3 / 6.0))
        assert sigma0(m, F0, F0 + y) == pytest.approx(taylor, abs=3.0 * y ** 4)


def test_sigma0_atm_continuity():
    m = poly_model(2, 3, 5, 7, 11)
    inside = sigma0(m, F0, F0 + 1e-5)  # Taylor branch
    outside = sigma0(m, F0, F0 + 3e-4)  # quadrature branch
    slope = (outside - inside) / (3e-4 - 1e-5)
    assert slope == pytest.approx(1.5, rel=1e-2)


def test_sigma1_series_vs_solver():
    for (mu0, mu1), (s1c, _, _, _) in SOLVER_CASES.items():
        if mu1 != 0.0:
            continue  # sigma1 has no mu1 dependence
        m = poly_model(2, 3, 5, 7, 11)
        v0, v1, v2 = sigma1_series_atm(atm_jet(m, F0), mu0)
        assert v0 == pytest.approx(s1c[0], rel=1e-13)
        assert v1 == pytest.approx(s1c[1], rel=1e-13)
        assert v2 == pytest.approx(2 * s1c[2], rel=1e-13)


def test_sigma1_point_values_vs_solver():
    m = poly_model(2, 3, 5, 7, 11)
    for (mu0, mu1), (_, _, s1pts, _) in SOLVER_CASES.items():
        if mu1 != 0.0:
            continue
        assert sigma1(m, F0, mu0, F0 + 0.2) == pytest.approx(s1pts[0], rel=1e-5)
        assert sigma1(m, F0, mu0, F0 - 0.2) == pytest.approx(s1pts[1], rel=1e-5)


def test_sigma1_shifted_ln_series():
    # sigma1(y) = -b^2 sb/6 - b^3 y/6 + 11 b^4/(180 sb) y^2
    #             + mu0 (b^2/(3 sb) y - 2 b^3/(3 sb^2) y^2 / 2 ...)
    sb, b, S0, mu0 = 0.014, 0.1, 0.03, 0.002
    m = make_shifted_lognormal(sb - 2 * b * S0, b, S0)
    v0, v1, v2 = sigma1_series_atm(atm_jet(m, S0), mu0)
    assert v0 == pytest.approx(-b * b * sb / 6.0, rel=1e-13)
    assert v1 == pytest.approx(-b ** 3 / 6.0 + mu0 * b * b / (3.0 * sb), rel=1e-13)
    assert v2 == pytest.approx(11.0 * b ** 4 / (90.0 * sb)
                               - 2.0 * mu0 * b ** 3 / (3.0 * sb * sb), rel=1e-13)


def test_sigma2_atm_vs_solver():
    m = poly_model(2, 3, 5, 7, 11)
    for (mu0, mu1), (_, s2_atm, _, _) in SOLVER_CASES.items():
        assert sigma2_atm(atm_jet(m, F0), mu0, mu1) == pytest.approx(s2_atm, rel=1e-13)


def test_sigma2_point_values_vs_solver():
    m = poly_model(2, 3, 5, 7, 11)
    for (mu0, mu1), (_, _, _, s2pts) in SOLVER_CASES.items():
        assert sigma2(m, F0, mu0, mu1, F0 + 0.2) == pytest.approx(s2pts[0], rel=2e-4)
        assert sigma2(m, F0, mu0, mu1, F0 - 0.2) == pytest.approx(s2pts[1], rel=2e-4)


def counting_model(model):
    """The model with its sigma_D evaluations counted: count[0] floats or array
    elements, count[1] calls."""
    import dataclasses

    count = [0, 0]

    def counted(fn):
        def f(s):
            count[0] += int(np.size(s))
            count[1] += 1
            return fn(s)
        return f

    return dataclasses.replace(model, vol=counted(model.vol)), count


def test_drifted_sigma2_vol_evaluations():
    # one drifted sigma2 used to evaluate sigma_D 193,148 times here: adaptive
    # J four times and the drift integral I2 twice at each of its 256 nodes,
    # with an adaptive sigma0 inside every I2 integrand call.  The cumulative
    # pass over the same nodes needs 5,189 evaluations.
    m, count = counting_model(make_quadratic_sabr(0.01, 0.3, -0.3, 0.03))
    sigma2(m, 0.03, 0.002, -0.001, 0.025)
    assert 0 < count[0] <= 193_148 // 20


def test_coefficients_are_python_floats():
    # numpy scalars from the models must not leak out, on the ATM Taylor
    # branch (K = F0 and within the switch radius) or off the money; a lower
    # order is a bit-for-bit prefix of a higher one there, on each branch of
    # the kink at F0 and with drift
    setup = MarketSetup(S0=0.03, mu0=0.002, mu1=-0.001)
    tab = make_tabulated([(0.0, 0.011), (0.02, 0.0102), (0.04, 0.0101), (0.06, 0.0105),
                          (0.08, 0.0112)])
    for m in (make_shifted_lognormal(0.014, 0.1, 0.03),
              make_quadratic_sabr(0.01, 0.3, -0.3, 0.03),
              make_piecewise_linear(0.008, 0.1, 0.2, 0.03), tab):
        for K in (0.03, 0.03 + 1e-8, 0.03 - 1e-8, 0.025, 0.035):
            for mu0, mu1 in ((0.0, 0.0), (0.002, -0.001)):
                assert type(sigma0(m, 0.03, K)) is float, (m.label, K)
                assert type(sigma1(m, 0.03, mu0, K)) is float, (m.label, K, mu0)
                assert type(sigma2(m, 0.03, mu0, mu1, K)) is float, (m.label, K, mu0)
                at = MarketSetup(S0=0.03, mu0=mu0, mu1=mu1)
                c0, c1, c2 = (expansion(m, at, [K], order) for order in range(3))
                assert type(c2) is tuple and len(c2) == 3
                assert all(c.dtype == np.float64 and c.shape == (1,) for c in c2)
                assert ([c.tobytes() for c in c1] == [c.tobytes() for c in c2[:2]]
                        and c0[0].tobytes() == c2[0].tobytes()), (m.label, K, mu0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonAnalyticWarning)
            assert type(smile(m, setup, 0.035, 1.0, 2)) is float, m.label


def test_sigma2_atm_shifted_ln():
    # driftless: sb b^4 / 40; drift adds -mu1 b/6 + mu0^2 b^2/(6 sb)
    sb, b, S0 = 0.014, 0.1, 0.03
    m = make_shifted_lognormal(sb - 2 * b * S0, b, S0)
    assert sigma2_atm(atm_jet(m, S0)) == pytest.approx(sb * b ** 4 / 40.0, rel=1e-12)
    mu0, mu1 = 0.003, 0.001
    expected = (sb * b ** 4 / 40.0 - mu1 * 2 * b / 12.0
                + mu0 * mu0 * 4 * b * b / (24.0 * sb))
    assert sigma2_atm(atm_jet(m, S0), mu0, mu1) == pytest.approx(expected, rel=1e-12)


def test_sigma2_continuous_at_atm_switch():
    m = make_quadratic_sabr(0.02, 0.2, -0.3, 0.05)
    atm = sigma2_atm(atm_jet(m, 0.05))
    near = sigma2(m, 0.05, 0.0, 0.0, 0.05 + 5e-5)
    assert near == pytest.approx(atm, rel=5e-3)


def test_sigma1_jump_piecewise():
    sb, bL, bR, S0 = 0.008, 0.1, 0.2, 0.03
    m = make_piecewise_linear(sb, bL, bR, S0)
    expected = -(bR * bR - bL * bL) * sb / 6.0
    assert sigma1_jump(m, S0) == pytest.approx(expected, abs=1e-12)
    # one-sided limits of the full coefficient agree with the branch series
    eps = 1e-7
    jump = sigma1(m, S0, 0.0, S0 + eps) - sigma1(m, S0, 0.0, S0 - eps)
    assert jump == pytest.approx(expected, rel=1e-4)
    # analytic models have no jump
    assert sigma1_jump(make_shifted_lognormal(0.01, 0.1, 0.03), 0.03) == 0.0


def test_sqrt_t_coefficient_of_the_symmetric_kink():
    # sigma_D = 0.008 + 0.2 |S - F0|: the closed-form ATM vol's
    # (sigma - sigma0) / sqrt(T) is 1.0004 c at T = 1/4096
    m = make_piecewise_linear(0.008, -0.1, 0.1, 0.03)
    c = sqrt_t_coefficient(m, 0.03)
    T = 1.0 / 4096
    assert (model2b_atm_exact(0.008, 0.1, T) - 0.008) / math.sqrt(T) / c == pytest.approx(1.0, abs=1e-3)
    # the sqrt-t fit of its config, 5.0429e-4
    cfg = load_config(str(CONFIGS[0].parent / "sqrtt_model2b.ini"))
    fit = sqrt_t_detector(cfg.model, cfg.setup, cfg.maturities).coefficient
    assert fit == pytest.approx(sqrt_t_coefficient(cfg.model, cfg.setup.S0), rel=1e-2)
    # an asymmetric kink's jump is 2 (bR - bL); no sqrt(T) term off a kink
    assert sqrt_t_coefficient(make_piecewise_linear(0.008, 0.1, 0.2, 0.03), 0.03) == (
        pytest.approx(math.sqrt(2.0 * math.pi) / 16.0 * 0.008 * 0.2, rel=1e-14))
    assert sqrt_t_coefficient(m, 0.031) == 0.0
    assert sqrt_t_coefficient(make_shifted_lognormal(0.01, 0.1, 0.03), 0.03) == 0.0


def test_breakpoint_errors():
    m = make_piecewise_linear(0.008, 0.1, 0.2, 0.03)
    with pytest.raises(BreakpointError):
        atm_jet(m, 0.03)
    # the one-sided jets are fine, and off the breakpoint the side is ignored
    assert atm_jet(m, 0.03, 1.0) == m.kink_jets[1] and atm_jet(m, 0.03, -1.0) == m.kink_jets[0]
    sigma0_series_atm(atm_jet(m, 0.03, 1.0))
    assert atm_jet(m, 0.04, -1.0) == atm_jet(m, 0.04) == tuple(map(float, m.jet(0.04, 4)))


def test_domain_errors():
    m = make_shifted_lognormal(0.01, 0.2, 0.03)  # vol vanishes at S = -0.025
    with pytest.raises(DomainError):
        sigma0(m, 0.03, -0.05)
    with pytest.raises(DomainError):
        sigma1(m, 0.03, 0.0, -0.05)
    with pytest.raises(DomainError):
        sigma2(m, 0.03, 0.0, 0.0, -0.05)


def test_smile_orders_and_warning():
    m = make_shifted_lognormal(0.002, 0.1, 0.03)
    setup = MarketSetup(S0=0.03)
    v0 = smile(m, setup, 0.035, 1.0, 0)
    v1 = smile(m, setup, 0.035, 1.0, 1)
    v2 = smile(m, setup, 0.035, 1.0, 2)
    assert v0 == pytest.approx(sigma0(m, 0.03, 0.035), rel=1e-14)
    assert abs(v1 - v0) > 0.0 and abs(v2 - v1) < abs(v1 - v0)
    (s0,), (s1,), (s2,) = expansion(m, setup, [0.035], 2)
    assert (v0, v1, v2) == (s0, s0 + s1 * 1.0, s0 + s1 * 1.0 + s2 * 1.0 * 1.0)
    with pytest.raises(ValueError):
        smile(m, setup, 0.035, 1.0, 3)
    with pytest.raises(ValueError, match="order"):
        expansion(m, setup, [0.035], 3)
    with pytest.raises(ValueError, match="1-d"):
        expansion(m, setup, 0.035, 0)
    with pytest.raises(DomainError):
        expansion(m, setup, [-0.05], 0)  # sigma_D vanishes at S = -0.01
    kink = make_piecewise_linear(0.008, -0.1, 0.1, 0.03)
    with pytest.warns(NonAnalyticWarning):
        smile(kink, setup, 0.035, 1.0, 0)


def _assert_array_call_matches_one_strike_calls(model, setup, strikes):
    # every strike is a panel edge of its side's chain, so a strike's panels,
    # and the rounding of its integrals, depend on its neighbours: sigma0 keeps
    # 1e-14 relative, and the near-money cancellation of the sigma1 and sigma2
    # closed forms leaves them within 1e-11 and 1e-6 of the largest coefficient
    got = expansion(model, setup, strikes, 2)
    want = np.array([[c[0] for c in expansion(model, setup, [K], 2)] for K in strikes]).T
    assert np.all(np.abs(got[0] - want[0]) <= 1e-14 * np.abs(want[0])), model.label
    for g, w, tol in zip(got[1:], want[1:], (1e-11, 1e-6)):
        assert np.max(np.abs(g - w)) <= tol * np.max(np.abs(w)), model.label


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_array_call_matches_one_strike_calls(path):
    cfg = load_config(str(path))
    _assert_array_call_matches_one_strike_calls(cfg.model, cfg.setup, cfg.strikes)


def test_drifted_array_call_matches_one_strike_calls(tmp_path, perfbench_workloads):
    for case in perfbench_workloads.EXPANSION_CASES:
        path = tmp_path / f"{case}.ini"
        path.write_text(perfbench_workloads.expansion_config(case))
        cfg = load_config(str(path))
        _assert_array_call_matches_one_strike_calls(cfg.model, cfg.setup, cfg.strikes)


def _kink_strike_set():
    """A kink at F0 = 0.03 and unsorted, repeated strikes on both sides of it:
    F0 itself, strikes inside the ATM switch radius and on the sigma2 handover."""
    m = make_piecewise_linear(0.008, 0.1, 0.2, 0.03)
    handover = [0.03 + side * _DERIV_RADIUS_FACTOR
                * (_ATM_SWITCH_RADIUS * atm_jet(m, 0.03, side)[0]) for side in (1.0, -1.0)]
    return m, [0.035, 0.025, 0.03, 0.035, 0.03 + 1e-8, 0.03 - 1e-8, *handover, 0.028]


def test_array_call_strike_sets():
    m, strikes = _kink_strike_set()
    for setup in (MarketSetup(0.03), MarketSetup(0.03, 0.002, -0.001)):
        _assert_array_call_matches_one_strike_calls(m, setup, strikes)
        got = expansion(m, setup, strikes, 2)
        assert all(c[0] == c[3] for c in got)


def test_vol_calls_one_per_chain_block():
    # sigma_D(F0), then one call per block of 16 panels on each side of F0; a
    # side has N_PANELS panels per stretch between its off-money strikes, F0
    # and the sigma2 handover: 1 + 1 + 1 calls for 2 strikes, 1 + 9 + 9 for 33
    setup = MarketSetup(0.03, 0.002, -0.001)
    for strikes, want in ((np.array([0.025, 0.035]), 3), (np.linspace(0.02, 0.04, 33), 19)):
        m, count = counting_model(make_quadratic_sabr(0.01, 0.3, -0.3, 0.03))
        expansion(m, setup, strikes, 2)
        panels = [N_PANELS * (np.count_nonzero(side) + 1)
                  for side in (strikes > 0.03, strikes < 0.03)]
        assert count[1] == want == 1 + sum(math.ceil(p / 16) for p in panels)


def _expansion_cases(tmp_path, workloads):
    """(model, setup, strikes): every config, the benchmark's drifted smiles,
    the kink strike set with and without drift, and 401 drifted SABR strikes."""
    paths = list(CONFIGS)
    for case in workloads.EXPANSION_CASES:
        paths.append(tmp_path / f"{case}.ini")
        paths[-1].write_text(workloads.expansion_config(case))
    cases = [(cfg.model, cfg.setup, cfg.strikes) for cfg in map(load_config, map(str, paths))]
    drift = MarketSetup(0.03, 0.002, -0.001)
    kink, strikes = _kink_strike_set()
    cases += [(kink, MarketSetup(0.03), strikes), (kink, drift, strikes),
              (make_quadratic_sabr(0.01, 0.3, -0.3, 0.03), drift, np.linspace(0.02, 0.04, 401))]
    return cases


def test_chain_blocks_keep_every_bit(tmp_path, perfbench_workloads, monkeypatch):
    # the running sums carry from block to block, so one panel per block and
    # one block per side give the default blocks' arrays bit for bit (order 1
    # is order 2's first two arrays)
    cases = _expansion_cases(tmp_path, perfbench_workloads)
    want = [expansion(*case, order) for case in cases for order in (0, 2)]
    for points in (1, 10 ** 9):
        monkeypatch.setattr(nvol.asymptotics, "_BLOCK_POINTS", points)
        got = [expansion(*case, order) for case in cases for order in (0, 2)]
        assert all(np.array_equal(g, w) for gs, ws in zip(got, want) for g, w in zip(gs, ws))


def test_expansion_peak_memory_on_201_strikes():
    # one order-2 drifted SABR call on 201 strikes peaked at 15.6 MB when the
    # whole chain was one block, and at 1.55 MB in blocks
    m, setup = make_quadratic_sabr(0.01, 0.3, -0.3, 0.03), MarketSetup(0.03, 0.002, -0.001)
    strikes = np.linspace(0.02, 0.04, 201)
    expansion(m, setup, strikes, 2)  # the cached base rule is built once
    tracemalloc.start()
    try:
        expansion(m, setup, strikes, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_one_atm_jet_read_per_side(monkeypatch):
    # an order-2 call reads sigma_D's jet at the forward once per side of F0
    # that has strikes (the kink's from its one-sided jets), and every series
    # of that side comes from it; the strikes and the nodes take one array
    # jet each
    import dataclasses

    import nvol.asymptotics

    reads, jets = [], []
    atm_jet_of = nvol.asymptotics.atm_jet

    def counted_atm_jet(model, F0, side=0.0):
        reads.append((F0, side))
        return atm_jet_of(model, F0, side)

    monkeypatch.setattr(nvol.asymptotics, "atm_jet", counted_atm_jet)
    setup = MarketSetup(0.03, 0.002, -0.001)
    for model in (make_quadratic_sabr(0.01, 0.3, -0.3, 0.03),
                  make_piecewise_linear(0.008, 0.1, 0.2, 0.03)):
        def jet(s, n, model=model):
            jets.append((np.ndim(s), n))
            return model.jet(s, n)

        m = dataclasses.replace(model, jet=jet)
        for strikes, sides in (([0.025, 0.03, 0.035, 0.03 + 1e-8, 0.0299], (1.0, -1.0)),
                               ([0.031, 0.04], (1.0,))):
            reads.clear()
            jets.clear()
            expansion(m, setup, strikes, 2)
            assert reads == [(0.03, side) for side in sides], model.label
            at_forward = [(0, 4)] if not model.breakpoints else []
            assert jets == [*at_forward, (1, 2), (2, 2)] * len(sides), model.label


def test_array_with_a_strike_off_the_domain_raises():
    m = make_shifted_lognormal(0.01, 0.2, 0.03)  # vol vanishes at S = -0.025
    with pytest.raises(DomainError, match=r"\[-0.05, 0.03\]"):
        expansion(m, MarketSetup(0.03), [0.025, -0.05, 0.035], 1)


def test_smile_from_coefficients_leaves_its_arrays_unchanged():
    coeffs = expansion(make_quadratic_sabr(0.01, 0.3, -0.3, 0.03), MarketSetup(0.03),
                       [0.025, 0.03, 0.035], 2)
    before = [c.copy() for c in coeffs]
    first = smile_from_coefficients(coeffs, 30.0)
    assert np.array_equal(smile_from_coefficients(coeffs, 30.0), first)
    assert all(np.array_equal(c, b) for c, b in zip(coeffs, before))


def test_sigma0_closed_form_inverse_vol_integral():
    # J = int_{F0}^{K} dL / sigma_D in closed form: log((s0 + 2bK)/(s0 + 2bF0))/(2b)
    # on each linear piece, summed across the kink of piecewise_linear
    s0, b, F0 = 0.008, 0.1, 0.03
    m = make_shifted_lognormal(s0, b, F0)
    for K in (-0.02, 0.0, 0.02, 0.0299, 0.0301, 0.031, 0.05, 0.1, 0.3):
        J = math.log((s0 + 2 * b * K) / (s0 + 2 * b * F0)) / (2 * b)
        assert sigma0(m, F0, K) == pytest.approx((K - F0) / J, rel=1e-12)
    sk, bL, bR, S0 = 0.008, -0.1, 0.2, 0.03
    kink = make_piecewise_linear(sk, bL, bR, S0)
    for F, K in ((0.04, 0.01), (0.02, 0.05), (0.035, 0.025), (0.025, 0.035), (0.031, 0.0)):
        b_from, b_to = (bR, bL) if F > S0 else (bL, bR)
        J = (math.log(sk / kink.vol(F)) / (2 * b_from)
             + math.log(kink.vol(K) / sk) / (2 * b_to))
        assert sigma0(kink, F, K) == pytest.approx((K - F) / J, rel=1e-12)


def test_drifted_sigma1_vs_quad_drift_integral():
    # the drift adds mu0 sigma0^3/y^2 I2 with I2 = int_{F0}^{K} (1/sigma0 - 1/sigma_D)^2;
    # the reference takes J and I2 from scipy's adaptive Gauss-Kronrod
    from scipy.integrate import quad

    F0 = 0.03
    for m in (make_shifted_lognormal(0.008, 0.1, F0), make_quadratic_sabr(0.01, 0.3, -0.3, F0)):
        def s0_ref(L):
            return (L - F0) / quad(lambda s: 1.0 / m.vol(s), F0, L, epsabs=0.0, epsrel=1e-13)[0]

        for K in (0.01, 0.02, 0.025, 0.029, 0.0305, 0.035, 0.05):
            I2 = quad(lambda L: (1.0 / s0_ref(L) - 1.0 / m.vol(L)) ** 2, F0, K,
                      epsabs=0.0, epsrel=1e-12)[0]
            want = s0_ref(K) ** 3 / (K - F0) ** 2 * I2
            for mu0 in (0.002, -0.003):
                got = (sigma1(m, F0, mu0, K) - sigma1(m, F0, 0.0, K)) / mu0
                assert got == pytest.approx(want, rel=1e-10), (m.label, K, mu0)


@settings(max_examples=40, deadline=None)
@given(y=st.floats(-0.3, 0.3), b=st.floats(-0.3, 0.3))
def test_sigma0_between_vol_bounds(y, b):
    sb, S0 = 0.02, 0.05
    if sb + 2 * b * y <= 1e-4 or abs(y) < 1e-6:
        return
    m = make_shifted_lognormal(sb - 2 * b * S0, b, S0)
    val = sigma0(m, S0, S0 + y)
    lo = min(m.vol(S0), m.vol(S0 + y))
    hi = max(m.vol(S0), m.vol(S0 + y))
    assert lo - 1e-12 <= val <= hi + 1e-12


@settings(max_examples=20, deadline=None)
@given(y=st.floats(1e-4, 0.1))
def test_sigma0_symmetry_for_symmetric_model(y):
    # quadratic model with rho = 0 is even around S0, so sigma0 is even in y
    m = make_quadratic_sabr(0.02, 0.3, 0.0, 0.05)
    up = sigma0(m, 0.05, 0.05 + y)
    dn = sigma0(m, 0.05, 0.05 - y)
    assert up == pytest.approx(dn, rel=1e-9)
