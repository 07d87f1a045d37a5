"""Quadrature with mandatory panel boundaries.

All 1-d integrals in the package go through here.  The integrands are smooth
between model breakpoints, so breakpoints are inserted as panel boundaries:
plain Simpson bisection converges fast inside each panel, and a composite
Gauss-Legendre rule integrates smooth pieces to machine precision at a fixed
node set.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable


class QuadratureError(RuntimeError):
    pass


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-14,
    max_subdivisions: int = 2 ** 16,
) -> float:
    """Integrate f on [a, b] (signed) by adaptive Simpson bisection.

    The classic error estimate |S_left + S_right - S_whole| <= 15 eps is used,
    with the Richardson correction delta/15 added to the accepted panel.  A
    panel is accepted only when the estimate of its parent passed too: the
    3- and 5-point rules can agree by coincidence on one level (exp(-x^2) on
    [-1.803, -1.504] agrees to 4.9e-11 with a true error of 3.1e-9), and two
    levels in a row rarely do.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(fa, fm, fb, b - a)

    # stack of (a, fa, m, fm, b, fb, panel_estimate, tol, parent_passed)
    tol0 = max(abs_tol, rel_tol * abs(whole))
    stack = [(a, fa, m, fm, b, fb, whole, tol0, False)]
    total = 0.0
    n_panels = 0
    while stack:
        a_, fa_, m_, fm_, b_, fb_, s_, tol, parent_passed = stack.pop()
        n_panels += 1
        if n_panels > max_subdivisions:
            raise QuadratureError("adaptive Simpson: subdivision budget exhausted")
        lm = 0.5 * (a_ + m_)
        rm = 0.5 * (m_ + b_)
        flm, frm = f(lm), f(rm)
        left = _simpson(fa_, flm, fm_, m_ - a_)
        right = _simpson(fm_, frm, fb_, b_ - m_)
        delta = left + right - s_
        passed = abs(delta) <= 15.0 * tol
        if (passed and parent_passed) or (b_ - a_) < 1e-14 * (b - a):
            total += left + right + delta / 15.0
        else:
            stack.append((a_, fa_, lm, flm, m_, fm_, left, tol / 2.0, passed))
            stack.append((m_, fm_, rm, frm, b_, fb_, right, tol / 2.0, passed))
    return sign * total


def gauss_legendre_rule(
    a: float,
    b: float,
    breakpoints: Iterable[float] = (),
    n_nodes: int = 16,
    n_panels: int = 8,
):
    """Composite fixed-order Gauss-Legendre rule, split at interior breakpoints.

    Each stretch between consecutive breakpoints is cut into n_panels equal
    panels.  Returns (edges, nodes, weights): the panel edges in order from a
    to b, and one row per panel of nodes (increasing from a towards b) and
    signed weights, so that (weights * f(nodes)).sum() integrates f from a
    to b.  For analytic integrands the 16-node rule is far past machine
    precision at these panel counts.
    """
    import numpy as np

    xs, ws = np.polynomial.legendre.leggauss(n_nodes)
    lo, hi = (a, b) if a < b else (b, a)
    cuts = sorted(p for p in breakpoints if lo < p < hi)
    stops = [lo, *cuts, hi]
    edges = np.concatenate([np.linspace(x0, x1, n_panels + 1)[:-1]
                            for x0, x1 in zip(stops[:-1], stops[1:])] + [[hi]])
    if b < a:
        edges = edges[::-1]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return edges, mid + half * xs, half * ws


def gauss_legendre(
    f: Callable[[float], float],
    a: float,
    b: float,
    breakpoints: Iterable[float] = (),
    n_nodes: int = 16,
    n_panels: int = 8,
) -> float:
    """Signed integral of a scalar f by the rule of gauss_legendre_rule."""
    if a == b:
        return 0.0
    _, nodes, weights = gauss_legendre_rule(a, b, breakpoints, n_nodes, n_panels)
    return float(sum(w * f(float(x)) for x, w in zip(nodes.flat, weights.flat)))


@lru_cache(maxsize=None)
def legendre_cumulative(n_nodes: int = 16):
    """Gauss-Legendre nodes t, weights w and integration matrix Q on [-1, 1].

    (Q @ f(t))[k] integrates the degree n-1 interpolant of f(t) from -1 to
    t[k] (spectral integration; Greengard, SIAM J. Numer. Anal. 28, 1991),
    so the n samples that give w @ f(t) over the whole interval also give
    the antiderivative at every node.
    """
    import numpy as np
    from numpy.polynomial import legendre

    t, w = legendre.leggauss(n_nodes)
    # values at t -> Legendre coefficients -> antiderivative from -1 -> values at t
    to_coef = np.linalg.inv(legendre.legvander(t, n_nodes - 1))
    antider = legendre.legval(t, legendre.legint(np.eye(n_nodes), lbnd=-1.0)).T
    return t, w, antider @ to_coef


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    breakpoints: Iterable[float] = (),
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-14,
    max_subdivisions: int = 2 ** 16,
) -> float:
    """Signed integral of f from a to b, splitting at interior breakpoints."""
    if a == b:
        return 0.0
    lo, hi = (a, b) if a < b else (b, a)
    cuts = sorted(p for p in breakpoints if lo < p < hi)
    nodes = [lo, *cuts, hi]
    total = 0.0
    for x0, x1 in zip(nodes[:-1], nodes[1:]):
        total += adaptive_simpson(
            f, x0, x1, rel_tol=rel_tol, abs_tol=abs_tol, max_subdivisions=max_subdivisions
        )
    return total if a < b else -total
