import math

import numpy as np
import pytest

from nvol.bachelier import NormalQuote, bachelier_call
from nvol.exact_solutions import shifted_ln_exact_call
from nvol.mc_oracle import McSpec, mc_call, simulate_terminal
from nvol.models import MarketSetup, make_shifted_lognormal


def test_spec_validation():
    with pytest.raises(ValueError):
        McSpec(n_paths=1)
    with pytest.raises(ValueError):
        McSpec(n_paths=101, antithetic=True)
    with pytest.raises(ValueError):
        McSpec(steps_per_year=0)
    McSpec(n_paths=101, antithetic=False)


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
