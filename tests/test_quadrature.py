import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvol.quadrature import (gauss_legendre, gauss_legendre_rule, integrate,
                             legendre_cumulative)


def test_polynomial_exact():
    # 16 Gauss-Legendre nodes are exact on polynomials up to degree 31
    val = integrate(lambda x: 3.0 * x ** 2 - 2.0 * x + 1.0, -1.0, 2.0)
    assert val == pytest.approx(9.0 - 3.0 + 3.0, rel=1e-14)


def test_known_integrals():
    assert integrate(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)
    assert integrate(math.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-12)
    val = integrate(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0)
    assert val == pytest.approx(math.pi / 4.0, rel=1e-12)


def test_reversed_limits_signed():
    fwd = integrate(math.exp, 0.0, 1.0)
    bwd = integrate(math.exp, 1.0, 0.0)
    assert bwd == pytest.approx(-fwd, rel=1e-14)


def test_empty_interval():
    assert integrate(math.exp, 0.5, 0.5) == 0.0


def test_breakpoint_kink():
    # |x| on [-1, 2]: exact 0.5 + 2.0; the kink at 0 is a mandatory boundary
    val = integrate(abs, -1.0, 2.0, breakpoints=(0.0,))
    assert val == pytest.approx(2.5, rel=1e-12)


def test_integrate_closed_form_values():
    # int_0^2 sin = 1 - cos 2; int_{-1}^{3} x^5 - x = (3^6 - 1)/6 - (3^2 - 1)/2
    assert integrate(math.sin, 0.0, 2.0) == pytest.approx(1.0 - math.cos(2.0), rel=1e-14)
    assert integrate(lambda x: x ** 5 - x, -1.0, 3.0) == pytest.approx(
        728.0 / 6.0 - 4.0, rel=1e-14)
    # the old name is the same function
    assert gauss_legendre is integrate


def test_gauss_legendre_noise_immunity():
    # a deterministic jitter at the 1e-9 level must not shift the result by
    # more than the jitter amplitude times the interval
    def noisy(x):
        return math.cos(x) + 1e-9 * math.sin(1e6 * x)

    val = integrate(noisy, 0.0, 1.0)
    assert val == pytest.approx(math.sin(1.0), abs=5e-9)


def test_gauss_legendre_signed_and_breakpoints():
    assert integrate(abs, -1.0, 2.0, breakpoints=(0.0,)) == pytest.approx(
        2.5, rel=1e-13)
    assert integrate(math.exp, 1.0, 0.0) == pytest.approx(
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
    # an adaptive Simpson rule once stopped early on this span (its 3- and
    # 5-point estimates agree by coincidence) and left a 1.7e-9 relative error
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
