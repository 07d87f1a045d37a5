import dataclasses
import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from nvol.bachelier import NormalQuote, bachelier_call, implied_vol_and_flag
from nvol.exact_solutions import model2b_call_by_density, shifted_ln_exact_call
from nvol.mc_oracle import MAX_STEPS, McSpec, _march, _normals, _price, mc_call
from nvol.models import MarketSetup, make_piecewise_linear, make_shifted_lognormal


def test_spec_validation():
    with pytest.raises(ValueError):
        McSpec(n_paths=1)
    with pytest.raises(ValueError):
        McSpec(n_paths=101)
    with pytest.raises(ValueError):
        McSpec(steps_per_year=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        McSpec(seed=-1)
    McSpec(n_paths=2, steps_per_year=1, seed=0)  # the limits themselves are fine
    # a march takes at most MAX_STEPS steps
    assert McSpec(steps_per_year=1).steps(float(MAX_STEPS)) == MAX_STEPS
    for T in (MAX_STEPS + 2.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="Euler steps"):
            McSpec(steps_per_year=1).steps(T)


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
    # the 400 fine steps of 2 ceil(T * steps_per_year / 2)
    (_, paths), = _march(model, setup, T / 400, (400,), McSpec(n_paths=100_000, seed=3))
    assert paths.n_hits == 0
    term = paths.fine
    se = float(np.std(term)) / math.sqrt(len(term))
    assert float(np.mean(term)) == pytest.approx(setup.forward(T), abs=3.0 * se)


def test_constant_vol_atm_within_three_se():
    c = 0.012
    model = make_shifted_lognormal(c, 0.0, 0.03)
    setup = MarketSetup(S0=0.03)
    res = mc_call(model, setup, 0.03, 1.0, McSpec(seed=5))
    want = bachelier_call(NormalQuote(F=0.03, K=0.03, T=1.0, sigmaN=c))
    assert abs(res.price - want) <= 3.0 * res.std_error
    assert res.n_boundary_hits == 0


def test_shifted_ln_prices_within_three_se():
    sigma0, b, S0 = 0.002, 0.12, 0.03
    model = make_shifted_lognormal(sigma0, b, S0)
    setup = MarketSetup(S0=S0)
    cases = [(0.03, 0.5), (0.032, 0.5), (0.028, 1.0), (0.035, 2.0), (0.03, 2.0)]
    # the default 4096 paths leave the T = 2 errors up to 7% above those of the
    # old 1e5-path estimator; 8192 paths keep every case at or below them
    for i, (K, T) in enumerate(cases):
        res = mc_call(model, setup, K, T, McSpec(n_paths=8192, seed=10 + i))
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


def _reference_paths(model, setup, dt, n_steps, spec):
    """The out-of-place fine, coarse and shadow marches, one array per operation."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    lo, hi = model.positivity_domain
    pad = 1e-12 * max(1.0, abs(setup.S0), *(abs(x) for x in (lo, hi) if math.isfinite(x)))
    lo_c, hi_c = lo + pad, hi - pad
    shadow_vol = float(model.vol(min(max(setup.S0, lo_c), hi_c)))
    fine = coarse = np.full(spec.n_paths, setup.S0)
    z_sum = np.zeros(spec.n_paths)
    drift_sum = 0.0
    exited = np.zeros(spec.n_paths, dtype=bool)
    for k in range(n_steps):
        z = rng.standard_normal(spec.n_paths // 2)
        z = np.concatenate([z, -z])
        z_sum = z_sum + z
        drift_dt = setup.drift((k + 0.5) * dt) * dt
        drift_sum += drift_dt
        exited |= (fine < lo_c) | (fine > hi_c)
        fine = fine + model.vol(np.clip(fine, lo_c, hi_c)) * math.sqrt(dt) * z + drift_dt
        if k % 2:
            exited |= (coarse < lo_c) | (coarse > hi_c)
            coarse = (coarse + model.vol(np.clip(coarse, lo_c, hi_c)) * math.sqrt(dt)
                      * (z_prev + z) + setup.drift(k * dt) * (2.0 * dt))
        z_prev = z
    shadow = z_sum * (shadow_vol * math.sqrt(dt)) + setup.S0 + drift_sum
    return fine, coarse, shadow, int(exited.sum())


@pytest.mark.parametrize("model", [make_shifted_lognormal(-0.002, 0.2, 0.03),
                                   # sigma_D = 0.0028 - 0.4 S vanishes at 0.007
                                   make_shifted_lognormal(0.0028, -0.2, 0.006),
                                   make_shifted_lognormal(0.012, 0.0, 0.03),
                                   make_piecewise_linear(0.008, -0.1, 0.1, 0.03),
                                   # a tent, positive on (-0.01, 0.07) only
                                   make_piecewise_linear(0.008, 0.1, -0.1, 0.03)],
                         ids=["bounded_below", "bounded_above", "unbounded", "kink", "tent"])
def test_in_place_march_equals_reference_bit_for_bit(model):
    dt = 1.0 / 3
    # the normals come 16 steps a block at these path counts: a stop inside
    # the first block, one inside the second, and a last block of 6 steps
    stops = (6, 20, 38)
    exits = {}
    for setup in (MarketSetup(S0=0.006, mu0=0.001, mu1=-0.002), MarketSetup(S0=0.006)):
        for n_paths in (2, 1_000):
            spec = McSpec(n_paths=n_paths, steps_per_year=3, seed=5)
            marched = []
            for n, paths in _march(model, setup, dt, stops, spec):
                fine, coarse, shadow, n_hits = _reference_paths(model, setup, dt, n, spec)
                assert np.array_equal(paths.fine, fine) and np.array_equal(paths.coarse, coarse)
                assert np.array_equal(paths.shadow, shadow) and paths.n_hits == n_hits
                # the midpoint sum of the linear drift is the forward's drift term
                assert paths.shadow_forward == pytest.approx(setup.forward(n * dt), rel=1e-14)
                assert paths.T == n * dt
                marched.append(n)
            assert marched == list(stops)
            exits[setup.mu0 != 0.0, n_paths] = n_hits
    # a bounded model's drifted paths reach its boundary: the exit count and
    # the clamp on that side are exercised
    lo, hi = model.positivity_domain
    assert (exits[True, 1_000] > 0) == (math.isfinite(lo) or math.isfinite(hi))


class _VolFails(Exception):
    pass


def test_no_helper_thread_outlives_a_march():
    model = make_piecewise_linear(0.008, -0.1, 0.1, 0.03)
    setup = MarketSetup(S0=0.03)
    spec = McSpec(n_paths=1_000, seed=2)
    before = threading.active_count()
    mc_call(model, setup, np.array([0.029, 0.031]), (0.25, 0.5), spec)
    assert threading.active_count() == before
    # a march closed after its first stop, inside its second block of draws
    march = _march(model, setup, 0.005, (20, 100), spec)
    n, _ = next(march)
    assert n == 20 and threading.active_count() == before + 1
    march.close()
    assert threading.active_count() == before
    # a vol that fails on a later step: its exception reaches the caller as is
    err = _VolFails("vol fails")
    calls = []

    def vol(s):
        calls.append(1)
        if len(calls) == 40:
            raise err
        return model.vol(s)

    with pytest.raises(_VolFails) as info:
        mc_call(dataclasses.replace(model, vol=vol), setup, 0.03, 0.5, spec)
    assert info.value is err and len(calls) == 40
    assert threading.active_count() == before


def test_draw_blocks_hold_the_draws_of_one_call_a_step():
    # up to 16 steps a block, at most 256 KB of draws, at least one step
    for n_draw, rows in ((1, 16), (2**11, 16), (2**12, 8), (2**15, 1), (2**16, 1)):
        blocks = [b.copy() for b in _normals(np.random.Generator(np.random.PCG64(4)),
                                             n_draw, 3 * rows + 1)]
        assert [b.shape for b in blocks] == [(rows, n_draw)] * 3 + [(1, n_draw)]
        one_call_a_step = np.random.Generator(np.random.PCG64(4))
        for row in np.concatenate(blocks):
            assert np.array_equal(row, one_call_a_step.standard_normal(n_draw))


def test_a_failed_draw_is_raised_in_the_caller():
    class Rng:
        fills = 0

        def standard_normal(self, out):
            self.fills += 1
            if self.fills == 3:
                self.failed_on = threading.current_thread()
                raise err
            out.fill(self.fills)

    err = ValueError("draw fails")
    rng = Rng()
    before = threading.active_count()
    blocks = []
    with pytest.raises(ValueError) as info:
        for block in _normals(rng, n_draw=5, n_steps=40):
            blocks.append(block.copy())
            time.sleep(0.02)  # the helper draws the next block meanwhile
    assert info.value is err and rng.failed_on is not threading.current_thread()
    assert [b.shape for b in blocks] == [(16, 5), (16, 5)]
    assert [b[0, 0] for b in blocks] == [1.0, 2.0]
    assert threading.active_count() == before


def test_a_block_is_not_redrawn_while_the_caller_holds_it():
    # the helper draws block 1 and waits; woken at block 1, it has not begun
    # block 2 when the caller asks for it at once, so the caller draws it
    # (slowly, on this thread) and wakes the helper again: the helper may
    # then draw block 3, but not block 4, which goes into block 2's buffer
    class Rng:
        fills = 0

        def standard_normal(self, out):
            if threading.current_thread() is threading.main_thread():
                time.sleep(0.02)
            self.fills += 1
            out.fill(self.fills)

    seen = []
    for i, block in enumerate(_normals(Rng(), n_draw=1, n_steps=16 * 6)):
        held = block.copy()
        if i != 1:
            time.sleep(0.02)
        assert np.array_equal(block, held), i
        seen.append(float(block[0, 0]))
    assert seen == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_march_bits_hold_under_fast_thread_switching():
    # more marches than cores, each with its own helper, switching threads
    # every microsecond: a buffer refilled while read would move the bits
    model = make_shifted_lognormal(-0.002, 0.2, 0.03)
    setup = MarketSetup(S0=0.006, mu0=0.001)
    spec = McSpec(n_paths=64, steps_per_year=50, seed=9)
    want = mc_call(model, setup, np.array([0.005, 0.006, 0.008]), 1.0, spec)
    got = [None] * 4

    def price(i):
        got[i] = mc_call(model, setup, np.array([0.005, 0.006, 0.008]), 1.0, spec)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=price, args=(i,)) for i in range(len(got))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for res in got:
        _assert_same(res, want)


def test_pricing_peaks_near_three_payoff_arrays():
    model = make_piecewise_linear(0.008, -0.1, 0.1, 0.03)
    for n_paths, n_strikes in ((4096, 64), (1_000, 1_000)):
        (_, paths), = _march(model, MarketSetup(S0=0.03), 0.005, (10,),
                             McSpec(n_paths=n_paths, seed=1))
        strikes = np.linspace(0.02, 0.04, n_strikes)
        tracemalloc.start()
        try:
            _price(paths, strikes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (strikes, pairs) array of pair averages; 6.0 of them before
        # the averages were built in place
        assert peak <= 3.5 * (n_strikes * n_paths // 2 * 8), (n_paths, n_strikes)


def _call_stats(p, K):
    """(price, standard error) of one strike, the estimator of the module
    docstring computed on one-dimensional arrays."""
    half = p.fine.size // 2
    y = 2.0 * np.maximum(p.fine - K, 0.0) - np.maximum(p.coarse - K, 0.0)
    y = 0.5 * (y[:half] + y[half:])
    x = np.maximum(p.shadow - K, 0.0)
    x = 0.5 * (x[:half] + x[half:])
    beta = 0.0
    if half > 1 and np.any((p.shadow[:half] > K) != (p.shadow[half:] > K)):
        dx = x - x.mean()
        beta = float(np.dot(dx, y - y.mean()) / np.dot(dx, dx))
    exact = bachelier_call(NormalQuote(F=p.shadow_forward, K=K, T=p.T,
                                       sigmaN=p.shadow_vol))
    price = float(y.mean()) - beta * (float(x.mean()) - exact)
    se = (y - beta * x).std(ddof=1) / math.sqrt(half) if half > 1 else math.nan
    return price, float(se)


@pytest.mark.parametrize("n_paths", [2, 1_000])
def test_strike_batch_equals_scalar_statistics(n_paths):
    model = make_piecewise_linear(0.008, -0.1, 0.1, 0.03)
    spec = McSpec(n_paths=n_paths, seed=3)
    (_, paths), = _march(model, MarketSetup(S0=0.03, mu0=0.001), 0.005, (50,), spec)
    # 12 stdevs below and above S0, and strikes that shadow pairs straddle
    strikes = [-0.02, 0.022, 0.029, 0.03, 0.031, 0.038, 0.08]
    res = _price(paths, np.array(strikes))
    want = np.array([_call_stats(paths, K) for K in strikes])
    assert np.array_equal(res.price, want[:, 0])
    assert np.array_equal(res.std_error, want[:, 1], equal_nan=True)
    one = _price(paths, 0.031)
    assert type(one.price) is float and type(one.std_error) is float
    assert np.array_equal([one.price, one.std_error], _call_stats(paths, 0.031), equal_nan=True)
    if n_paths == 2:
        assert np.isnan(res.std_error).all()
        return
    half = n_paths // 2
    straddled = [bool(np.any((paths.shadow[:half] > K) != (paths.shadow[half:] > K)))
                 for K in strikes]
    assert any(straddled) and not all(straddled)
    assert res.price[-1] == 0.0 and res.std_error[-1] == 0.0


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
    assert 0.1234 / (2 * math.ceil(0.1234 * 100)) != 0.005
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
    maturities = (6.0, 2.0, 4.0, 2.5)  # 2.5 steps by 5/8, the others by 1
    res = mc_call(model, setup, 0.006, maturities, spec)
    for T, r in zip(maturities, res):
        _assert_same(r, mc_call(model, setup, 0.006, T, spec))
    hits = [r.n_boundary_hits for r in res]
    assert 0 < hits[1] < hits[0]


# the perfbench mc_exact models with their closed-form call prices (K, T) -> C
_CASES = {
    # sigma_D = 0.008 + 0.2 |S - 0.03|
    "kink": (make_piecewise_linear(0.008, -0.1, 0.1, 0.03),
             lambda K, T: float(model2b_call_by_density(0.008, 0.1, 0.03, [K], T)[0])),
    # sigma_D = 0.014 + 0.2 S
    "sln": (make_shifted_lognormal(0.014, 0.1, 0.03),
            lambda K, T: shifted_ln_exact_call(0.014, 0.1, 0.03, K, T)),
}


@pytest.mark.parametrize("case, K", [("kink", 0.026), ("sln", 0.04)])
def test_extrapolation_cancels_the_euler_bias(case, K):
    # with the control variate and no extrapolation these two prices sit 9.1
    # and 8.2 of their standard errors below the closed forms: the O(dt) weak
    # error of the 200-steps-a-year march, laid bare by the small error
    model, exact = _CASES[case]
    res = mc_call(model, MarketSetup(S0=0.03), K, 0.25, McSpec(n_paths=100_000, seed=0))
    assert abs(res.price - exact(K, 0.25)) <= 3.0 * res.std_error


# standard errors of the former estimator (the plain mean of the pair
# averages of the fine payoff) at 1e5 paths, seed 0, 200 steps a year, on
# the perfbench mc_exact rows, by (K, T)
_PLAIN_1E5_SE = {
    "sln": {
        (0.020, 0.25): 9.5956e-06, (0.025, 0.25): 1.3236e-05, (0.028, 0.25): 1.4699e-05,
        (0.032, 0.25): 1.4345e-05, (0.035, 0.25): 1.2646e-05, (0.040, 0.25): 9.0645e-06,
        (0.020, 0.50): 1.7836e-05, (0.025, 0.50): 2.0980e-05, (0.028, 0.50): 2.1949e-05,
        (0.032, 0.50): 2.1429e-05, (0.035, 0.50): 1.9966e-05, (0.040, 0.50): 1.6610e-05},
    "kink": {
        (0.022, 0.25): 1.3882e-06, (0.026, 0.25): 3.6520e-06, (0.029, 0.25): 5.6336e-06,
        (0.031, 0.25): 5.6336e-06, (0.034, 0.25): 3.6520e-06, (0.038, 0.25): 1.3882e-06,
        (0.022, 0.50): 3.9436e-06, (0.026, 0.50): 6.7023e-06, (0.029, 0.50): 8.4480e-06,
        (0.031, 0.50): 8.4480e-06, (0.034, 0.50): 6.7023e-06, (0.038, 0.50): 3.9436e-06},
}


@pytest.mark.parametrize("case", ["kink", "sln"])
def test_default_paths_keep_the_former_standard_error(case):
    model, exact = _CASES[case]
    old = _PLAIN_1E5_SE[case]
    strikes = np.array(sorted({K for K, _ in old}))
    for T, res in zip((0.25, 0.5), mc_call(model, MarketSetup(S0=0.03), strikes, (0.25, 0.5))):
        for K, price, se in zip(strikes, res.price, res.std_error):
            assert se <= old[(K, T)], (K, T)
            assert abs(price - exact(K, T)) <= 3.0 * se, (K, T)


def test_strikes_no_pair_straddles_price_without_a_control():
    # no shadow pair straddles K = -0.02 (12 stdevs below S0) or 0.08: the
    # control's pair averages are all one value, so it carries no information
    model, _ = _CASES["kink"]
    setup = MarketSetup(S0=0.03)
    T = 0.25
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = mc_call(model, setup, np.array([-0.02, 0.08]), T)
        vol, flag = implied_vol_and_flag(res.price[1], setup.forward(T), 0.08, T)
    # far out of the money every payoff is 0: an estimate at intrinsic
    assert res.price[1] == 0.0 and res.std_error[1] == 0.0
    assert math.isnan(vol) and flag == "no_time_value"
    # deep in the money every payoff is linear and the estimate is the forward's
    assert abs(res.price[0] - (setup.forward(T) + 0.02)) <= 3.0 * res.std_error[0]
