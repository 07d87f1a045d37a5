"""Fixed 16-node Gauss-Legendre quadrature: a composite rule and spectral
integration.

gauss_legendre_rule cuts each stretch between breakpoints into 8 equal
panels of 16 nodes; the kink's `exact` pricer and `integrate` use it.  Their
integrands are analytic between the breakpoints, which are panel edges, so
the rule integrates each smooth piece to machine precision at a fixed node
set.  legendre_cumulative gives the 16 nodes' spectral integration matrix,
from which one pass yields an antiderivative at every node; the expansion
applies it on panels its model sets.  Both read one literal table of the
16-node rule; Q is built from it with elementwise numpy alone, so neither
loads numpy.polynomial or calls LAPACK.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

N_NODES = 16  # Gauss-Legendre nodes per panel
N_PANELS = 8  # equal panels per stretch between breakpoints


# The N_NODES Gauss-Legendre nodes and weights on [-1, 1], as repr writes
# numpy.polynomial.legendre.leggauss(16) under numpy 2.4 (tests/test_quadrature
# checks them against it); the table spares every process the numpy.polynomial
# import and an eigen-solve
_NODES = (-0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
          -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
          -0.2816035507792589, -0.09501250983763744, 0.09501250983763744,
          0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
          0.755404408355003, 0.8656312023878318, 0.9445750230732326,
          0.9894009349916499)
_WEIGHTS = (0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
            0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
            0.18260341504492364, 0.18945061045506864, 0.18945061045506864,
            0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
            0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
            0.027152459411754176)


@lru_cache(maxsize=None)
def _leggauss():
    """The N_NODES Gauss-Legendre nodes and weights on [-1, 1] as arrays.

    Every caller shares the cached arrays, so they are read-only.
    """
    xs, ws = np.array(_NODES), np.array(_WEIGHTS)
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
    t, w = _leggauss()
    # Q[k, j] integrates the Lagrange basis polynomial l_j of the nodes from
    # -1 to t[k] by the rule mapped onto [-1, t[k]], exact as l_j has degree
    # N_NODES - 1; l_j(s) = prod over i != j of (s - t[i]) / (t[j] - t[i])
    half = 0.5 * (t + 1.0)
    s = half[:, None] * (t + 1.0) - 1.0  # (k, m): the mapped nodes
    off = ~np.eye(N_NODES, dtype=bool)  # (j, i): the factors i != j
    gaps = np.where(off, t[:, None] - t, 1.0)
    factors = np.where(off, (s[:, :, None, None] - t) / gaps, 1.0)  # (k, m, j, i)
    Q = half[:, None] * (w[:, None] * factors.prod(axis=-1)).sum(axis=1)
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
