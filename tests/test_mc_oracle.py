import math
import warnings

import numpy as np
import pytest

from nvol.bachelier import NormalQuote, bachelier_call
from nvol.exact_solutions import shifted_ln_exact_call
from nvol.mc_oracle import McSpec, mc_call, simulate_terminal
from nvol.models import MarketSetup, make_piecewise_linear, make_shifted_lognormal


def test_spec_validation():
    with pytest.raises(ValueError):
        McSpec(n_paths=1)
    with pytest.raises(ValueError):
        McSpec(n_paths=101)
    with pytest.raises(ValueError):
        McSpec(steps_per_year=0)
    McSpec(n_paths=2, steps_per_year=1)  # the limits themselves are fine


def test_one_pair_prices_with_nan_std_error_and_no_warning():
    model = make_piecewise_linear(0.008, -0.1, 0.1, 0.03)
    setup = MarketSetup(S0=0.03)
    spec = McSpec(n_paths=2, steps_per_year=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = mc_call(model, setup, 0.031, 0.25, spec)
        many = mc_call(model, setup, np.array([0.029, 0.031]), 0.25, spec)
    assert math.isfinite(one.price) and math.isnan(one.std_error)
    assert many.price[1] == one.price and np.isnan(many.std_error).all()


def test_seed_determinism_bit_identical():
    model = make_shifted_lognormal(0.002, 0.1, 0.03)
    setup = MarketSetup(S0=0.03, mu0=0.001)
    spec = McSpec(n_paths=20_000, seed=42)
    a = mc_call(model, setup, 0.032, 1.0, spec)
    b = mc_call(model, setup, 0.032, 1.0, spec)
    assert a.price == b.price and a.std_error == b.std_error
    c = mc_call(model, setup, 0.032, 1.0, McSpec(n_paths=20_000, seed=43))
    assert c.price != a.price


def test_std_error_scales_with_paths():
    model = make_shifted_lognormal(0.002, 0.1, 0.03)
    setup = MarketSetup(S0=0.03)
    se1 = mc_call(model, setup, 0.03, 1.0, McSpec(n_paths=20_000, seed=1)).std_error
    se4 = mc_call(model, setup, 0.03, 1.0, McSpec(n_paths=80_000, seed=1)).std_error
    assert se4 == pytest.approx(se1 / 2.0, rel=0.2)


def test_forward_reproduced():
    model = make_shifted_lognormal(0.002, 0.1, 0.03)
    setup = MarketSetup(S0=0.03, mu0=0.002, mu1=-0.001)
    T = 2.0
    term, n_hits = simulate_terminal(model, setup, T, McSpec(n_paths=100_000, seed=3))
    assert n_hits == 0
    se = float(np.std(term)) / math.sqrt(len(term))
    assert float(np.mean(term)) == pytest.approx(setup.forward(T), abs=3.0 * se)


def test_constant_vol_atm_within_three_se():
    c = 0.012
    model = make_shifted_lognormal(c, 0.0, 0.03)
    setup = MarketSetup(S0=0.03)
    res = mc_call(model, setup, 0.03, 1.0, McSpec(n_paths=100_000, seed=5))
    want = bachelier_call(NormalQuote(F=0.03, K=0.03, T=1.0, sigmaN=c))
    assert abs(res.price - want) <= 3.0 * res.std_error
    assert res.n_boundary_hits == 0


def test_shifted_ln_prices_within_three_se():
    sigma0, b, S0 = 0.002, 0.12, 0.03
    model = make_shifted_lognormal(sigma0, b, S0)
    setup = MarketSetup(S0=S0)
    cases = [(0.03, 0.5), (0.032, 0.5), (0.028, 1.0), (0.035, 2.0), (0.03, 2.0)]
    for i, (K, T) in enumerate(cases):
        res = mc_call(model, setup, K, T, McSpec(n_paths=100_000, seed=10 + i))
        want = shifted_ln_exact_call(sigma0, b, S0, K, T)
        assert abs(res.price - want) <= 3.0 * res.std_error, (K, T)


def test_boundary_hits_counted_near_absorbing_level():
    # vol vanishes at S = -sigma0/(2b) = 0.005; start close so paths reach it
    model = make_shifted_lognormal(-0.002, 0.2, 0.03)
    setup = MarketSetup(S0=0.006)
    # coarse Euler steps let paths overshoot the vanishing-vol level
    res = mc_call(model, setup, 0.006, 5.0,
                  McSpec(n_paths=10_000, steps_per_year=1, seed=7))
    assert res.n_boundary_hits > 0
    assert math.isfinite(res.price) and res.price >= 0.0


def test_strike_array_equals_one_strike_calls():
    model = make_shifted_lognormal(0.002, 0.1, 0.03)
    setup = MarketSetup(S0=0.03, mu0=0.001)
    spec = McSpec(n_paths=4_000, seed=11)
    strikes = [0.02, 0.028, 0.03, 0.033, 0.045]
    res = mc_call(model, setup, np.array(strikes), 0.5, spec)
    single = [mc_call(model, setup, K, 0.5, spec) for K in strikes]
    assert np.array_equal(res.price, [r.price for r in single])
    assert np.array_equal(res.std_error, [r.std_error for r in single])
    assert res.n_boundary_hits == single[0].n_boundary_hits
    assert type(single[0].price) is float and type(single[0].std_error) is float


def _reference_terminal(model, setup, T, spec):
    """The out-of-place Euler march, one array per operation."""
    from scipy.special import ndtri

    n_steps = max(1, int(math.ceil(T * spec.steps_per_year)))
    dt = T / n_steps
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    lo, hi = model.positivity_domain
    pad = 1e-12 * max(1.0, abs(setup.S0), *(abs(x) for x in (lo, hi) if math.isfinite(x)))
    lo_c, hi_c = lo + pad, hi - pad
    S = np.full(spec.n_paths, setup.S0)
    exited = np.zeros(spec.n_paths, dtype=bool)
    for k in range(n_steps):
        z = ndtri(rng.random(spec.n_paths // 2))
        z = np.concatenate([z, -z])
        exited |= (S < lo_c) | (S > hi_c)
        S = (S + model.vol(np.clip(S, lo_c, hi_c)) * math.sqrt(dt) * z
             + setup.drift((k + 0.5) * dt) * dt)
    return S, int(exited.sum())


@pytest.mark.parametrize("model", [make_shifted_lognormal(-0.002, 0.2, 0.03),
                                   make_shifted_lognormal(0.012, 0.0, 0.03),
                                   make_piecewise_linear(0.008, -0.1, 0.1, 0.03)],
                         ids=["bounded_below", "unbounded", "kink"])
def test_in_place_march_equals_reference_bit_for_bit(model):
    setup = MarketSetup(S0=0.006, mu0=0.001, mu1=-0.002)
    spec = McSpec(n_paths=1_000, steps_per_year=3, seed=5)
    S, n_hits = simulate_terminal(model, setup, 2.0, spec)
    want, want_hits = _reference_terminal(model, setup, 2.0, spec)
    assert np.array_equal(S, want) and n_hits == want_hits


def _assert_same(got, want):
    assert np.array_equal(got.price, want.price)
    assert np.array_equal(got.std_error, want.std_error)
    assert got.n_boundary_hits == want.n_boundary_hits


def test_maturity_tuple_equals_one_maturity_calls():
    model = make_shifted_lognormal(0.002, 0.1, 0.03)
    setup = MarketSetup(S0=0.03, mu0=0.001, mu1=-0.002)
    spec = McSpec(n_paths=2_000, seed=13)
    strikes = np.array([0.02, 0.03, 0.041])
    # 0.25, 0.5 and 1.0 step by 0.005; 0.1234 has its own step; 0.5 repeats
    maturities = (0.5, 0.25, 1.0, 0.1234, 0.5)
    assert 0.1234 / math.ceil(0.1234 * 200) != 0.005
    res = mc_call(model, setup, strikes, maturities, spec)
    assert type(res) is tuple and len(res) == len(maturities)
    for T, r in zip(maturities, res):
        _assert_same(r, mc_call(model, setup, strikes, T, spec))
    one = mc_call(model, setup, 0.03, (0.25,), spec)
    _assert_same(one[0], mc_call(model, setup, 0.03, 0.25, spec))


def test_maturity_tuple_counts_boundary_hits_per_maturity():
    model = make_shifted_lognormal(-0.002, 0.2, 0.03)
    setup = MarketSetup(S0=0.006)
    spec = McSpec(n_paths=2_000, steps_per_year=1, seed=7)
    maturities = (5.0, 2.0, 3.0, 2.5)  # 2.5 steps by 5/6, the others by 1
    res = mc_call(model, setup, 0.006, maturities, spec)
    for T, r in zip(maturities, res):
        _assert_same(r, mc_call(model, setup, 0.006, T, spec))
    hits = [r.n_boundary_hits for r in res]
    assert 0 < hits[1] < hits[0]
