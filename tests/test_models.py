import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvol.models import (MarketSetup, load_tabulated_csv,
                         make_piecewise_linear, make_quadratic_sabr,
                         make_shifted_lognormal, make_tabulated)


def analytic_models():
    return [
        make_shifted_lognormal(0.01, 0.15, 0.03),
        make_shifted_lognormal(0.02, -0.1, 0.03),
        make_quadratic_sabr(0.02, 0.3, 0.0, 0.05),
        make_quadratic_sabr(0.015, 0.25, 0.4, 0.04),
        make_quadratic_sabr(0.015, 0.25, -0.4, 0.04),
    ]


def richardson_order(model, s, k):
    """Observed convergence order of central differences toward jet(s, k)[k]."""
    exact = model.jet(s, k)[k]
    errs = []
    for h in (1e-3, 5e-4):
        if k == 1:
            fd = (model.vol(s + h) - model.vol(s - h)) / (2 * h)
        else:
            fd = (model.vol(s + h) - 2 * model.vol(s) + model.vol(s - h)) / (h * h)
        errs.append(abs(fd - exact))
    if errs[0] < 1e-9:
        return 2.0  # derivative is exact at this order up to rounding
    return math.log(errs[0] / max(errs[1], 1e-300)) / math.log(2.0)


def test_derivatives_match_finite_differences():
    for m in analytic_models():
        lo, hi = m.positivity_domain
        s = 0.5 * (max(lo, -0.1) + min(hi, 0.2))
        for k in (1, 2):
            assert richardson_order(m, s, k) >= 1.9


def test_higher_derivatives_sabr():
    # orders 3 and 4 against finite differences of the analytic order-2
    m = make_quadratic_sabr(0.02, 0.3, 0.2, 0.05)
    h = 1e-4
    (_, _, d2p, d3p), (_, _, d2m, d3m) = m.jet(0.06 + h, 3), m.jet(0.06 - h, 3)
    _, _, _, d3, d4 = m.jet(0.06, 4)
    assert d3 == pytest.approx((d2p - d2m) / (2 * h), rel=1e-4)
    assert d4 == pytest.approx((d3p - d3m) / (2 * h), rel=1e-4)


def test_piecewise_degenerates_to_shifted_ln():
    a = make_piecewise_linear(0.008, 0.1, 0.1, 0.03)
    b = make_shifted_lognormal(0.008 - 2 * 0.1 * 0.03, 0.1, 0.03)
    for s in (0.0, 0.01, 0.03, 0.05, 0.2):
        assert a.vol(s) == b.vol(s)
        assert a.jet(s, 4) == b.jet(s, 4)
    assert a.breakpoints == () and a.kink_jets == ()


def test_positivity_on_domain():
    rng = random.Random(7)
    models = analytic_models() + [make_piecewise_linear(0.008, -0.1, 0.1, 0.03)]
    for m in models:
        lo, hi = m.positivity_domain
        lo = max(lo, -1.0)
        hi = min(hi, 1.0)
        for _ in range(1000):
            s = rng.uniform(lo + 1e-9, hi - 1e-9)
            assert m.vol(s) > 0.0


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _assert_array_calls_equal_float_calls(m, xs):
    # vol and jet take floats and ndarrays of any shape; an array call equals
    # the element-wise float calls bit for bit, and a float gives floats.
    # jet(s, n) has n + 1 entries, the first vol(s), each one the same bits
    # in every jet(s, n) that has it
    for arr in (xs, xs.reshape(20, 10)):
        got = m.vol(arr)
        assert got.shape == arr.shape, m.label
        want = [m.vol(float(x)) for x in arr.flat]
        assert np.array_equal(_bits(got).ravel(), _bits(want)), m.label
        for n in range(5):
            jet = m.jet(arr, n)
            assert len(jet) == n + 1 and np.array_equal(_bits(jet[0]), _bits(m.vol(arr)))
            for k, got in enumerate(jet):
                got = np.broadcast_to(got, arr.shape)
                want = [m.jet(float(x), 4)[k] for x in arr.flat]
                assert np.array_equal(_bits(got).ravel(), _bits(want)), (m.label, n, k)
    for x in (float(xs[10]), 0.03):
        assert isinstance(m.vol(x), float) and np.ndim(m.vol(x)) == 0, m.label
        for k, d in enumerate(m.jet(x, 4)):
            assert isinstance(d, float) and np.ndim(d) == 0, (m.label, k)


def test_vectorized_matches_scalar():
    tab = make_tabulated([(0.01, 0.010), (0.02, 0.012), (0.04, 0.013), (0.08, 0.02)])
    rng = np.random.default_rng(7)
    for m in analytic_models() + [make_piecewise_linear(0.008, 0.1, 0.2, 0.03), tab]:
        xs = rng.uniform(0.015, 0.07, 200)
        _assert_array_calls_equal_float_calls(m, xs)


def test_piecewise_vol_vec_is_elementwise_vol_bit_for_bit():
    # the kink's array path (vol on an ndarray) at S0, +-0.0 offsets, the
    # neighbouring floats of S0 and NaN
    rng = np.random.default_rng(7)
    for sigma0, bL, bR, S0 in ((0.008, -0.1, 0.1, 0.03), (0.008, 0.1, 0.2, 0.03),
                               (0.01, 0.3, -0.05, 0.0)):
        m = make_piecewise_linear(sigma0, bL, bR, S0)
        assert m.breakpoints == (S0,)
        xs = S0 + rng.uniform(-0.02, 0.02, 200)
        xs[:6] = [S0, S0 + 0.0, S0 - 0.0, np.nextafter(S0, -1.0), np.nextafter(S0, 1.0),
                  np.nan]
        if S0 == 0.0:
            xs[6:8] = [0.0, -0.0]  # offsets of +0.0 and -0.0 from S0
        rng.shuffle(xs)
        _assert_array_calls_equal_float_calls(m, xs)


def test_vol_array_matches_scalar_without_vol_vec():
    # vol itself is the array path: no separate vectorised field or fallback
    m = make_quadratic_sabr(0.02, 0.3, -0.2, 0.05)
    assert not hasattr(m, "vol_vec") and not hasattr(m, "vol_array")
    xs = np.linspace(0.0, 0.1, 12).reshape(3, 4)
    got = m.vol(xs)
    assert got.shape == xs.shape
    assert np.array_equal(_bits(got), _bits(np.vectorize(m.vol)(xs)))


def test_shifted_ln_domain_boundary():
    m = make_shifted_lognormal(0.01, 0.2, 0.03)
    lo, hi = m.positivity_domain
    assert lo == pytest.approx(-0.025)
    assert hi == math.inf
    assert m.vol(lo) == pytest.approx(0.0, abs=1e-18)
    assert not m.in_domain(lo)
    assert m.in_domain(0.0)


def test_degenerate_inputs_raise():
    with pytest.raises(ValueError):
        make_shifted_lognormal(-0.01, 0.1, 0.0)  # vol at S0 not positive
    with pytest.raises(ValueError):
        make_quadratic_sabr(0.02, 0.3, 1.0, 0.05)
    with pytest.raises(ValueError):
        make_quadratic_sabr(-0.02, 0.3, 0.0, 0.05)
    with pytest.raises(ValueError):
        make_piecewise_linear(-0.008, 0.1, 0.2, 0.03)
    with pytest.raises(ValueError):
        make_tabulated([(0.01, 0.01), (0.02, 0.012), (0.03, 0.013)])  # too few
    with pytest.raises(ValueError):
        make_tabulated([(0.01, 0.01), (0.02, -0.012), (0.03, 0.013), (0.04, 0.02)])
    with pytest.raises(ValueError):
        make_tabulated([(0.01, 0.01), (0.01, 0.012), (0.03, 0.013), (0.04, 0.02)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_raise(bad):
    for build in (lambda: make_shifted_lognormal(bad, 0.1, 0.03),
                  lambda: make_shifted_lognormal(0.01, bad, 0.03),
                  lambda: make_quadratic_sabr(0.02, bad, 0.0, 0.05),
                  lambda: make_quadratic_sabr(0.02, 0.3, bad, 0.05),
                  lambda: make_quadratic_sabr(0.02, 0.3, 0.0, bad),
                  lambda: make_piecewise_linear(bad, 0.1, 0.2, 0.03),
                  lambda: make_piecewise_linear(0.008, 0.1, bad, 0.03),
                  lambda: make_tabulated([(0.01, 0.01), (0.02, bad), (0.03, 0.013),
                                          (0.04, 0.02)]),
                  lambda: make_tabulated([(0.01, 0.01), (0.02, 0.012), (0.03, 0.013),
                                          (bad, 0.02)]),
                  lambda: MarketSetup(S0=bad),
                  lambda: MarketSetup(S0=0.03, mu0=bad),
                  lambda: MarketSetup(S0=0.03, mu1=bad)):
        with pytest.raises(ValueError):
            build()


def test_piecewise_branches():
    # the jets of the two linear pieces at the kink: the value of each piece
    # at S0 as its own shifted log-normal gives it, and its slope 2b
    m = make_piecewise_linear(0.008, 0.1, 0.2, 0.03)
    assert m.breakpoints == (0.03,)
    left, right = m.kink_jets
    assert left == (make_shifted_lognormal(0.008 - 2 * 0.1 * 0.03, 0.1, 0.03).vol(0.03),
                    2 * 0.1, 0.0, 0.0, 0.0)
    assert right == (make_shifted_lognormal(0.008 - 2 * 0.2 * 0.03, 0.2, 0.03).vol(0.03),
                     2 * 0.2, 0.0, 0.0, 0.0)
    assert all(type(a) is float for a in left + right)
    assert left[0] == pytest.approx(0.008, rel=1e-14)
    assert right[0] == pytest.approx(0.008, rel=1e-14)
    # off the kink the model's jet is that of the piece it lies on
    assert m.jet(0.02, 4)[1:] == left[1:] and m.jet(0.04, 4)[1:] == right[1:]


def test_tabulated_interpolates_nodes_and_stays_positive():
    pts = [(0.01, 0.010), (0.02, 0.0125), (0.03, 0.012), (0.05, 0.018), (0.08, 0.02)]
    m = make_tabulated(pts)
    for s, v in pts:
        assert m.vol(s) == pytest.approx(v, rel=1e-12)
    for s in np.linspace(0.01, 0.08, 200):
        assert m.vol(float(s)) > 0.0


def test_tabulated_csv_roundtrip(tmp_path):
    p = tmp_path / "lv.csv"
    p.write_text("S,sigma_D\n0.01,0.010\n0.02,0.012\n0.04,0.013\n0.08,0.02\n")
    m = load_tabulated_csv(str(p))
    assert m.vol(0.02) == pytest.approx(0.012, rel=1e-12)
    bad = tmp_path / "bad.csv"
    bad.write_text("strike,vol\n0.01,0.010\n")
    with pytest.raises(ValueError):
        load_tabulated_csv(str(bad))


@settings(max_examples=100, deadline=None)
@given(S0=st.floats(0.01, 0.1), mu0=st.floats(-0.01, 0.01),
       mu1=st.floats(-0.01, 0.01), T=st.floats(0.0, 30.0))
def test_market_setup_forward_drift_consistency(S0, mu0, mu1, T):
    setup = MarketSetup(S0=S0, mu0=mu0, mu1=mu1)
    # forward is the integral of the drift
    h = 1e-5
    fd = (setup.forward(T + h) - setup.forward(T)) / h
    assert fd == pytest.approx(setup.drift(T + 0.5 * h), rel=1e-6, abs=1e-9)
    assert setup.forward(0.0) == S0
