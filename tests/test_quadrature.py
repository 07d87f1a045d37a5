import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvol.quadrature import (QuadratureError, adaptive_simpson, gauss_legendre,
                             gauss_legendre_rule, integrate, legendre_cumulative)


def test_polynomial_exact():
    # Simpson is exact on cubics; the Richardson correction keeps it exact
    val = adaptive_simpson(lambda x: 3.0 * x ** 2 - 2.0 * x + 1.0, -1.0, 2.0)
    assert val == pytest.approx(9.0 - 3.0 + 3.0, rel=1e-14)


def test_known_integrals():
    assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)
    assert adaptive_simpson(math.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-12)
    val = adaptive_simpson(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0)
    assert val == pytest.approx(math.pi / 4.0, rel=1e-12)


def test_reversed_limits_signed():
    fwd = adaptive_simpson(math.exp, 0.0, 1.0)
    bwd = adaptive_simpson(math.exp, 1.0, 0.0)
    assert bwd == pytest.approx(-fwd, rel=1e-14)
    assert integrate(math.exp, 1.0, 0.0) == pytest.approx(-fwd, rel=1e-14)


def test_empty_interval():
    assert adaptive_simpson(math.exp, 0.5, 0.5) == 0.0
    assert integrate(math.exp, 0.5, 0.5) == 0.0


def test_breakpoint_kink():
    # |x| on [-1, 2]: exact 0.5 + 2.0; the kink at 0 is a mandatory boundary
    val = integrate(abs, -1.0, 2.0, breakpoints=(0.0,))
    assert val == pytest.approx(2.5, rel=1e-12)


def test_budget_exhaustion_raises():
    def nasty(x):
        return math.sin(1.0 / max(x, 1e-300)) / max(x, 1e-300)

    with pytest.raises(QuadratureError):
        adaptive_simpson(nasty, 1e-9, 1.0, rel_tol=1e-14, abs_tol=1e-300,
                         max_subdivisions=64)


def test_gauss_legendre_matches_adaptive():
    for f, a, b in ((math.sin, 0.0, 2.0), (lambda x: x ** 5 - x, -1.0, 3.0)):
        assert gauss_legendre(f, a, b) == pytest.approx(
            adaptive_simpson(f, a, b), rel=1e-12, abs=1e-14)


def test_gauss_legendre_noise_immunity():
    # a deterministic jitter at the 1e-9 level must not shift the result by
    # more than the jitter amplitude times the interval
    def noisy(x):
        return math.cos(x) + 1e-9 * math.sin(1e6 * x)

    val = gauss_legendre(noisy, 0.0, 1.0)
    assert val == pytest.approx(math.sin(1.0), abs=5e-9)


def test_gauss_legendre_signed_and_breakpoints():
    assert gauss_legendre(abs, -1.0, 2.0, breakpoints=(0.0,)) == pytest.approx(
        2.5, rel=1e-13)
    assert gauss_legendre(math.exp, 1.0, 0.0) == pytest.approx(
        1.0 - math.e, rel=1e-13)


def test_gauss_legendre_rule_edges_and_orientation():
    edges, nodes, weights = gauss_legendre_rule(2.0, -1.0, breakpoints=(0.0, 5.0),
                                                n_nodes=4, n_panels=3)
    # panels run from a to b, 3 per stretch between breakpoints, with 0.0 an edge
    assert edges[0] == 2.0 and edges[-1] == -1.0 and 0.0 in edges
    assert len(edges) == 7 and np.all(np.diff(edges) < 0)
    assert nodes.shape == weights.shape == (6, 4)
    assert np.all(np.diff(nodes.ravel()) < 0)
    assert (weights * nodes ** 2).sum() == pytest.approx(-3.0, rel=1e-14)


def test_legendre_cumulative_integrates_polynomials():
    t, w, Q = legendre_cumulative(16)
    for k in range(16):
        # int_{-1}^{t} s^k ds, exact for every degree the 16 nodes interpolate
        want = (t ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        np.testing.assert_allclose(Q @ t ** k, want, rtol=0, atol=1e-14)
    assert w.sum() == pytest.approx(2.0, rel=1e-15)


def test_gaussian_integral_vs_erf():
    # the 3- and 5-point Simpson estimates of one panel on this span agree by
    # coincidence; accepting it alone left a 1.7e-9 relative error
    b = 1.786614257000826
    want = 0.5 * math.sqrt(math.pi) * (math.erf(b) - math.erf(-3.0))
    assert integrate(lambda x: math.exp(-x * x), -3.0, b) == pytest.approx(want, rel=1e-10)


@settings(max_examples=50, deadline=None)
@given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0), c=st.floats(-3.0, 3.0))
@example(a=0.0, b=1.786614257000826, c=-3.0)
def test_additivity_over_subintervals(a, b, c):
    lo, mid, hi = sorted((a, b, c))
    f = lambda x: math.exp(-x * x)
    whole = integrate(f, lo, hi)
    parts = integrate(f, lo, mid) + integrate(f, mid, hi)
    assert whole == pytest.approx(parts, rel=1e-9, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(a=st.floats(-2.0, 2.0), w=st.floats(1e-3, 4.0))
def test_nonnegative_integrand_nonnegative_integral(a, w):
    val = integrate(lambda x: math.cosh(x) - 1.0 + 1e-12, a, a + w)
    assert val >= 0.0
