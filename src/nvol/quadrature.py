"""Composite Gauss-Legendre quadrature with mandatory panel boundaries.

All 1-d integrals in the package go through one fixed rule: 16 Gauss-Legendre
nodes on each of 8 equal panels per stretch between breakpoints.  The
integrands are analytic between model breakpoints, so the breakpoints are
panel edges and the rule integrates each smooth piece to machine precision
at a fixed node set.  legendre_cumulative gives the same nodes' spectral
integration matrix, from which one pass yields an antiderivative at every
node.  Both build their base rule through one cached leggauss call.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable

N_NODES = 16  # Gauss-Legendre nodes per panel
N_PANELS = 8  # equal panels per stretch between breakpoints


@lru_cache(maxsize=None)
def _leggauss():
    """The N_NODES Gauss-Legendre nodes and weights on [-1, 1], built once.

    Every caller shares the cached arrays, so they are read-only.
    """
    import numpy as np

    xs, ws = np.polynomial.legendre.leggauss(N_NODES)
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


def gauss_legendre_rule(a: float, b: float, breakpoints: Iterable[float] = ()):
    """Composite fixed-order Gauss-Legendre rule, split at interior breakpoints.

    Each stretch between consecutive breakpoints is cut into N_PANELS equal
    panels.  Returns (edges, nodes, weights): the panel edges in order from a
    to b, and one row per panel of N_NODES nodes (increasing from a towards
    b) and signed weights, so that (weights * f(nodes)).sum() integrates f
    from a to b.  For analytic integrands the 16-node rule is far past
    machine precision at these panel counts.
    """
    import numpy as np

    xs, ws = _leggauss()
    lo, hi = (a, b) if a < b else (b, a)
    cuts = sorted({p for p in breakpoints if lo < p < hi})
    stops = np.array([lo, *cuts, hi])
    edges = np.append(np.linspace(stops[:-1], stops[1:], N_PANELS + 1, axis=1)[:, :-1], hi)
    if b < a:
        edges = edges[::-1]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return edges, mid + half * xs, half * ws


@lru_cache(maxsize=None)
def legendre_cumulative():
    """Gauss-Legendre nodes t, weights w and integration matrix Q on [-1, 1].

    (Q @ f(t))[k] integrates the degree N_NODES-1 interpolant of f(t) from -1
    to t[k] (spectral integration; Greengard, SIAM J. Numer. Anal. 28, 1991),
    so the N_NODES samples that give w @ f(t) over the whole interval also
    give the antiderivative at every node.  The arrays are cached and
    read-only.
    """
    import numpy as np
    from numpy.polynomial import legendre

    t, w = _leggauss()
    # values at t -> Legendre coefficients -> antiderivative from -1 -> values at t
    to_coef = np.linalg.inv(legendre.legvander(t, N_NODES - 1))
    antider = legendre.legval(t, legendre.legint(np.eye(N_NODES), lbnd=-1.0)).T
    Q = antider @ to_coef
    Q.flags.writeable = False
    return t, w, Q


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
