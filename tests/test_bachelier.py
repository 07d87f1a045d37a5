import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from nvol.bachelier import (NormalQuote, atm_lognormal_from_normal,
                            atm_normal_from_lognormal, bachelier_call,
                            bachelier_vega, black_scholes_call,
                            implied_normal_vol, implied_vol_and_flag,
                            norm_cdf, norm_pdf,
                            short_time_normal_from_lognormal_smile)

_EPS = 2.0 ** -52


def test_norm_cdf_pdf_vs_scipy():
    for x in (-8.0, -3.2, -1.0, 0.0, 0.7, 2.5, 6.0):
        assert norm_cdf(x) == pytest.approx(float(norm.cdf(x)), abs=1e-15)
        assert norm_pdf(x) == pytest.approx(float(norm.pdf(x)), abs=1e-15)


def test_atm_price_closed_form():
    # ATM call = sigma * sqrt(T / (2 pi))
    q = NormalQuote(F=0.03, K=0.03, T=4.0, sigmaN=0.01)
    assert bachelier_call(q) == pytest.approx(0.01 * math.sqrt(4.0 / (2.0 * math.pi)),
                                              rel=1e-14)


def test_price_against_direct_gaussian_integral():
    # E[(F + s sqrt(T) Z - K)+] evaluated by scipy's normal expectation
    F, K, T, s = 0.05, 0.042, 2.5, 0.013
    stdev = s * math.sqrt(T)
    direct = float(norm.expect(lambda z: max(F + stdev * z - K, 0.0),
                               lb=-40, ub=40))
    assert bachelier_call(NormalQuote(F=F, K=K, T=T, sigmaN=s)) == pytest.approx(
        direct, rel=1e-6)


def test_zero_vol_is_intrinsic():
    assert bachelier_call(NormalQuote(F=0.04, K=0.03, T=1.0, sigmaN=0.0)) == pytest.approx(0.01, rel=1e-14)
    assert bachelier_call(NormalQuote(F=0.02, K=0.03, T=1.0, sigmaN=0.0)) == 0.0


def test_vega_positive_and_matches_fd():
    q = NormalQuote(F=0.03, K=0.035, T=1.5, sigmaN=0.012)
    h = 1e-7
    fd = (bachelier_call(NormalQuote(F=q.F, K=q.K, T=q.T, sigmaN=q.sigmaN + h))
          - bachelier_call(NormalQuote(F=q.F, K=q.K, T=q.T, sigmaN=q.sigmaN - h))) / (2 * h)
    assert bachelier_vega(q) == pytest.approx(fd, rel=1e-6)
    assert bachelier_vega(q) > 0.0


def test_convexity_in_strike():
    s, F, T = 0.01, 0.03, 2.0
    ks = [F + (i - 50) * 0.001 for i in range(101)]
    ps = [bachelier_call(NormalQuote(F=F, K=k, T=T, sigmaN=s)) for k in ks]
    second = [ps[i - 1] - 2 * ps[i] + ps[i + 1] for i in range(1, len(ps) - 1)]
    assert min(second) >= -1e-12


@settings(max_examples=200, deadline=None)
@given(F=st.floats(0.001, 1.0), h=st.floats(-5.0, 5.0),
       T=st.floats(0.01, 30.0), s=st.floats(1e-4, 0.5))
def test_implied_vol_roundtrip(F, h, T, s):
    K = F - h * s * math.sqrt(T)
    p = bachelier_call(NormalQuote(F=F, K=K, T=T, sigmaN=s))
    if p <= max(F - K, 0.0):
        return
    # deep ITM the time value loses digits to the intrinsic part, limiting
    # the achievable vol resolution to ~|price| eps / vega
    assert implied_normal_vol(p, F, K, T) == pytest.approx(s, rel=1e-7)


@pytest.mark.parametrize("dK", [0.04, 0.09, 0.13])
def test_implied_vol_of_vanishing_time_values(dK):
    # out-of-the-money time values from 1e-33 down to 1e-300 still invert
    F, K, T, s = 0.03, 0.03 + dK, 0.03125, 0.02
    p = bachelier_call(NormalQuote(F=F, K=K, T=T, sigmaN=s))
    assert 0.0 < p < 1e-32
    assert implied_normal_vol(p, F, K, T) == pytest.approx(s, rel=1e-9)


def test_implied_vol_at_the_ends_of_the_double_range():
    # the least subnormal time value, u ~ 38: its 50-digit inverse
    assert implied_normal_vol(5e-324, 0.03, 0.5, 1.0) == pytest.approx(
        0.0122850648373029, rel=1e-14)
    # a strike one subnormal from the forward inverts like the money
    assert implied_normal_vol(0.01, 0.0, 5e-324, 1.0) == pytest.approx(
        0.01 * math.sqrt(2.0 * math.pi), rel=1e-15)


def _quotes_to_u37():
    """Seeded out-of-the-money (F, K, T, sigma), u = (K - F) / (sigma sqrt T)
    uniform on (0, 37) or log-uniform down to 1e-9, and two fixed quotes."""
    rnd = random.Random(20170101)
    quotes = [(0.03, 0.06, 0.25, 0.008),     # 7.5 stdevs out of the money
              (0.03, 0.03 + 1e-9, 1.0, 0.01)]  # next to the money
    while len(quotes) < 80:
        F, T = rnd.uniform(-0.05, 0.1), 10.0 ** rnd.uniform(-3.0, 1.5)
        s = 10.0 ** rnd.uniform(-4.0, math.log10(0.5))
        u = rnd.uniform(0.0, 37.0) if len(quotes) % 4 else 10.0 ** rnd.uniform(-9.0, 0.0)
        K = F + u * s * math.sqrt(T)
        if K > F:
            quotes.append((F, K, T, s))
    return quotes


def _log_psi(u):
    """log(phi(u)/u - Phi(-u)), the time value over |F - K| at u, in mpmath."""
    return mpmath.log(mpmath.npdf(u) / u - mpmath.ncdf(-u))


def test_implied_vol_against_50_digit_inverse():
    # each float price (the 50-digit price, rounded) is compared with its
    # exact inverse, a 50-digit root of log Psi(u) = log(price / (K - F));
    # below u = 10 the inversion loses ~u^2 eps to cancellation in
    # 1 - u R(u), whence the bound 8 eps (1 + u^2)
    with mpmath.workdps(50):
        for F, K, T, s in _quotes_to_u37():
            x = mpmath.mpf(K) - mpmath.mpf(F)
            sqrt_T = mpmath.sqrt(mpmath.mpf(T))
            price = float(x * mpmath.exp(_log_psi(x / (mpmath.mpf(s) * sqrt_T))))
            assert price > 0.0
            got = implied_normal_vol(price, F, K, T)
            target = mpmath.log(mpmath.mpf(price) / x)
            u = mpmath.exp(mpmath.findroot(lambda t: _log_psi(mpmath.exp(t)) - target,
                                           mpmath.log(x / (mpmath.mpf(got) * sqrt_T))))
            ref = x / (u * sqrt_T)
            err = float(abs(got - ref) / ref)
            assert err <= 8.0 * _EPS * (1.0 + float(u) ** 2), (F, K, T, s, float(u), err)


def test_implied_vol_itm_small_time_value():
    # regression: moderately in-the-money quotes where the vega underflows at
    # the initial guess used to defeat Newton-style iterations
    F, K, T, s = 0.05, 0.02405, 0.5, 0.0206
    p = bachelier_call(NormalQuote(F=F, K=K, T=T, sigmaN=s))
    assert implied_normal_vol(p, F, K, T) == pytest.approx(s, rel=1e-9)


def test_implied_vol_errors():
    with pytest.raises(ValueError):
        implied_normal_vol(0.005, F=0.03, K=0.02, T=1.0)  # below intrinsic
    with pytest.raises(ValueError):
        implied_normal_vol(0.01, F=0.03, K=0.02, T=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["price", "F", "K", "T"])
def test_implied_vol_non_finite_input(name, bad):
    # named, where a nan price used to blame bachelier_call and F == K with
    # T = inf returned 0.0
    args = dict(price=0.004, F=0.03, K=0.03, T=1.0)
    args[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        implied_normal_vol(**args)


def test_implied_vol_and_flag_of_oracle_prices():
    F, T, noise = 0.03, 0.5, 1e-13
    vol, flag = implied_vol_and_flag(math.nan, F, 0.03, T)
    assert math.isnan(vol) and flag == "off_grid"
    # below intrinsic: no vol, where the mc and pde rows used to report 0.0
    vol, flag = implied_vol_and_flag(0.005, F, 0.02, T)
    assert math.isnan(vol) and flag == "no_time_value"
    # out of the money, so the time value is the price, exactly
    vol, flag = implied_vol_and_flag(noise, F, 0.04, T, noise)
    assert math.isnan(vol) and flag == "no_time_value"
    vol, flag = implied_vol_and_flag(math.nextafter(noise, 1.0), F, 0.04, T, noise)
    assert flag == "ok" and math.isfinite(vol) and vol > 0.0
    assert implied_normal_vol(0.01, F=0.03, K=0.02, T=2.0) > 0.0
    assert implied_normal_vol(0.01, F=0.03, K=0.02 - 1e-18, T=2.0) > 0.0


def test_atm_conversion_is_atm_price_identity():
    F, sbs, T = 0.03, 0.25, 7.0
    sn = atm_normal_from_lognormal(F, sbs, T)
    via_prices = implied_normal_vol(black_scholes_call(F, F, sbs, T), F, F, T)
    assert sn == pytest.approx(via_prices, rel=1e-10)


@settings(max_examples=100, deadline=None)
@given(F=st.floats(0.005, 1.0), sbs=st.floats(0.01, 1.0), T=st.floats(0.01, 30.0))
def test_atm_conversion_roundtrip(F, sbs, T):
    sn = atm_normal_from_lognormal(F, sbs, T)
    assert atm_lognormal_from_normal(F, sn, T) == pytest.approx(sbs, rel=1e-10)


def test_erfinv_vs_scipy_and_mpmath():
    # the Newton inverse of math.erf against scipy's erfinv on 20 000 points
    # of [0, 1) and 500 up to 1 - 1e-15: they differ by up to 3 ulp, at 6
    # points more than 2, where the Newton inverse is within 1.6 ulp of a
    # 200-bit erfinv and scipy's within 2.8
    import numpy as np
    from scipy.special import erfinv

    from nvol.bachelier import _erfinv

    rs = np.concatenate([np.linspace(0.0, 1.0, 20000, endpoint=False),
                         1.0 - np.logspace(-15, -0.3, 500)])
    got = np.array([_erfinv(r) for r in rs.tolist()])
    want = erfinv(rs)
    ulps = np.abs(got - want) / np.spacing(np.maximum(got, want))
    assert ulps.max() <= 3.0, rs[ulps.argmax()]
    with mpmath.workprec(200):
        for r in rs[ulps > 2.0].tolist() + [1e-300, 1e-8, 0.5, 1.0 - 2.0 ** -53]:
            true = mpmath.erfinv(mpmath.mpf(r))
            assert abs(_erfinv(r) - true) <= 2.0 * math.ulp(float(true)), r
    assert _erfinv(0.0) == 0.0


def test_conversion_saturation_bound():
    F, T = 0.03, 1.0
    cap = F * math.sqrt(2.0 * math.pi / T)
    with pytest.raises(ValueError):
        atm_lognormal_from_normal(F, cap, T)
    with pytest.raises(ValueError):
        atm_lognormal_from_normal(F, cap * 1.5, T)


def test_conversion_small_T_limit():
    # sigma_N -> F * sigma_BS as T -> 0
    sn = atm_normal_from_lognormal(0.03, 0.2, 1e-8)
    assert sn == pytest.approx(0.006, rel=1e-8)


def test_short_time_smile_map():
    F, sbs = 0.03, 0.2
    assert short_time_normal_from_lognormal_smile(F, F, sbs) == pytest.approx(
        F * sbs, rel=1e-12)
    # continuity across the series switch
    for K in (F * (1.0 - 2e-9), F * (1.0 + 2e-9)):
        assert short_time_normal_from_lognormal_smile(K, F, sbs) == pytest.approx(
            F * sbs, rel=1e-8)
    K = F * 1.001
    direct = sbs * (K - F) / math.log(K / F)
    assert short_time_normal_from_lognormal_smile(K, F, sbs) == pytest.approx(
        direct, rel=1e-12)
