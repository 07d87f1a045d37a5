"""Composite Gauss-Legendre quadrature with mandatory panel boundaries.

All 1-d integrals in the package go through one fixed rule: 16 Gauss-Legendre
nodes on each of 8 equal panels per stretch between breakpoints.  The
integrands are analytic between model breakpoints, so the breakpoints are
panel edges and the rule integrates each smooth piece to machine precision
at a fixed node set.  legendre_cumulative gives the same nodes' spectral
integration matrix, from which one pass yields an antiderivative at every
node.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable


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
    cuts = sorted({p for p in breakpoints if lo < p < hi})
    stops = [lo, *cuts, hi]
    edges = np.concatenate([np.linspace(x0, x1, n_panels + 1)[:-1]
                            for x0, x1 in zip(stops[:-1], stops[1:])] + [[hi]])
    if b < a:
        edges = edges[::-1]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return edges, mid + half * xs, half * ws


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
) -> float:
    """Signed integral of a scalar f from a to b by the rule of gauss_legendre_rule."""
    if a == b:
        return 0.0
    _, nodes, weights = gauss_legendre_rule(a, b, breakpoints)
    return float(sum(w * f(float(x)) for x, w in zip(nodes.flat, weights.flat)))


# perfbench/tracer.py wraps quadrature by both names; this one stays an alias
gauss_legendre = integrate
