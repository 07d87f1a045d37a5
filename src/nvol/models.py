"""Local volatility models: dS = sigma_D(S) dW + mu(t) dt.

A model is an immutable bundle of the vol function, its derivatives up to
order 4 where defined, breakpoint metadata for non-analytic models, and the
interval on which sigma_D stays positive.  Everything downstream (quadrature,
PDE grids) is clipped to positivity_domain, since 1/sigma_D enters the
leading-order smile integral.

`vol(s)` and `deriv(s, k)` take a float or an ndarray.  `vol` returns the
shape of `s`, and a float in gives a float (possibly an `np.float64`) out;
`deriv` may return a constant that broadcasts against `s`.  An array call
equals the element-wise scalar calls bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class LocalVolModel:
    """Time-homogeneous local volatility sigma_D(S) with derivative metadata."""

    vol: Callable  # sigma_D(s), s a float or an ndarray
    deriv: Callable  # (s, k) -> k-th derivative, k in 1..4
    breakpoints: tuple[float, ...] = ()
    positivity_domain: tuple[float, float] = (-math.inf, math.inf)
    label: str = ""
    # analytic one-sided branches (left, right) around a single breakpoint
    branches: tuple["LocalVolModel", ...] = field(default=(), repr=False)

    def in_domain(self, s: float) -> bool:
        lo, hi = self.positivity_domain
        return lo < s < hi

    def branch_for(self, side: float) -> "LocalVolModel":
        """Analytic branch on the given side of the (single) breakpoint.

        side > 0 selects the right branch.  For models without breakpoints the
        model itself is returned.
        """
        if not self.branches:
            return self
        return self.branches[1] if side > 0 else self.branches[0]


@dataclass(frozen=True)
class MarketSetup:
    """Initial level and polynomial drift: F_T = S0 + mu0*T + mu1*T^2/2."""

    S0: float
    mu0: float = 0.0
    mu1: float = 0.0

    def __post_init__(self):
        _require_finite(S0=self.S0, mu0=self.mu0, mu1=self.mu1)

    def forward(self, T: float) -> float:
        return self.S0 + self.mu0 * T + 0.5 * self.mu1 * T * T

    def drift(self, T: float) -> float:
        return self.mu0 + self.mu1 * T


def _require_finite(**params: float) -> None:
    bad = [f"{k}={v!r}" for k, v in params.items() if not math.isfinite(v)]
    if bad:
        raise ValueError("parameters must be finite: " + ", ".join(bad))


def make_shifted_lognormal(sigma0: float, b: float, S0: float) -> LocalVolModel:
    """sigma_D(S) = sigma0 + 2 b S; exactly solvable by a shift to Black-Scholes."""
    _require_finite(sigma0=sigma0, b=b, S0=S0)
    if sigma0 + 2.0 * b * S0 <= 0.0:
        raise ValueError("degenerate model: sigma0 + 2*b*S0 must be positive")

    def v(s):
        return sigma0 + 2.0 * b * s

    def d(s, k: int):
        if k == 1:
            return 2.0 * b
        if k in (2, 3, 4):
            return 0.0
        raise ValueError(f"derivative order {k} not exposed")

    if b > 0.0:
        dom = (-sigma0 / (2.0 * b), math.inf)
    elif b < 0.0:
        dom = (-math.inf, -sigma0 / (2.0 * b))
    else:
        dom = (-math.inf, math.inf)
    return LocalVolModel(vol=v, deriv=d, positivity_domain=dom,
                         label=f"shifted_lognormal(sigma0={sigma0}, b={b})")


def make_quadratic_sabr(sigma0: float, gamma: float, rho: float, S0: float) -> LocalVolModel:
    """sigma_D(S) = sqrt(sigma0^2 - 2 rho gamma sigma0 (S-S0) + gamma^2 (S-S0)^2).

    One-dimensional local-vol reduction of a log-normal stochastic-vol model;
    analytic everywhere for |rho| < 1 (negative discriminant).
    """
    _require_finite(sigma0=sigma0, gamma=gamma, rho=rho, S0=S0)
    if abs(rho) >= 1.0:
        raise ValueError("correlation must satisfy |rho| < 1")
    if sigma0 <= 0.0:
        raise ValueError("sigma0 must be positive")

    def radicand(s):
        yy = s - S0
        return sigma0 * sigma0 - 2.0 * rho * gamma * sigma0 * yy + gamma * gamma * yy * yy

    def v(s):
        return np.sqrt(radicand(s))

    def d(s, k: int):
        yy = s - S0
        q = radicand(s)
        qp = -2.0 * rho * gamma * sigma0 + 2.0 * gamma * gamma * yy
        qpp = 2.0 * gamma * gamma
        r = np.sqrt(q)
        if k == 1:
            return 0.5 * qp / r
        if k == 2:
            return 0.5 * qpp / r - 0.25 * qp * qp / (q * r)
        # products, not `**`: numpy's array power is not libm's pow bit for bit
        if k == 3:
            return -0.75 * qp * qpp / (q * r) + 0.375 * qp * qp * qp / (q * q * r)
        if k == 4:
            return (-0.75 * qpp * qpp / (q * r)
                    + 2.25 * qp * qp * qpp / (q * q * r)
                    - 0.9375 * qp * qp * qp * qp / (q * q * q * r))
        raise ValueError(f"derivative order {k} not exposed")

    return LocalVolModel(vol=v, deriv=d,
                         label=f"quadratic_sabr(sigma0={sigma0}, gamma={gamma}, rho={rho})")


def make_piecewise_linear(sigma0: float, bL: float, bR: float, S0: float) -> LocalVolModel:
    """Two linear pieces meeting at S0 with a derivative jump 2*(bR - bL)."""
    _require_finite(sigma0=sigma0, bL=bL, bR=bR, S0=S0)
    if sigma0 <= 0.0:
        raise ValueError("sigma0 must be positive")
    if bL == bR:
        return make_shifted_lognormal(sigma0 - 2.0 * bL * S0, bL, S0)

    left = make_shifted_lognormal(sigma0 - 2.0 * bL * S0, bL, S0)
    right = make_shifted_lognormal(sigma0 - 2.0 * bR * S0, bR, S0)

    lo = left.positivity_domain[0]
    hi = right.positivity_domain[1]
    slopes = np.array([bR, bL])
    two_bL, two_bR = 2.0 * bL, 2.0 * bR
    # on either side of S0 that side's line is the higher of the two on a
    # convex kink (bR > bL) and the lower on a concave one: no sign test
    pick = np.maximum if bR > bL else np.minimum

    def slope(yy):
        # a two-entry lookup on the sign test (several times cheaper than
        # np.where with a random mask); the right branch applies at the node
        return slopes[np.asarray(yy < 0.0).view(np.uint8)]

    def v(s):
        yy = s - S0
        return sigma0 + pick(two_bR * yy, two_bL * yy)

    def d(s, k: int):
        if k == 1:
            return 2.0 * slope(s - S0)
        if k in (2, 3, 4):
            return 0.0
        raise ValueError(f"derivative order {k} not exposed")

    return LocalVolModel(vol=v, deriv=d, breakpoints=(S0,), positivity_domain=(lo, hi),
                         label=f"piecewise_linear(sigma0={sigma0}, bL={bL}, bR={bR})",
                         branches=(left, right))


def make_tabulated(samples: Sequence[tuple[float, float]]) -> LocalVolModel:
    """Monotone-cubic (PCHIP) interpolation of (S, sigma_D) samples.

    PCHIP is C^1 and does not overshoot, so the interpolated vol stays positive
    between positive nodes and its second derivative is usable by the O(T)
    expansion coefficient without spurious oscillation.
    """
    from scipy.interpolate import PchipInterpolator

    pts = list(samples)
    if len(pts) < 4:
        raise ValueError("tabulated model needs at least 4 samples")
    s_grid = [p[0] for p in pts]
    vols = [p[1] for p in pts]
    if not all(math.isfinite(x) for x in s_grid + vols):
        raise ValueError("tabulated samples must be finite")
    if any(b <= a for a, b in zip(s_grid[:-1], s_grid[1:])):
        raise ValueError("sample grid must be strictly increasing in S")
    if any(v <= 0.0 for v in vols):
        raise ValueError("all tabulated vols must be positive")

    interp = PchipInterpolator(s_grid, vols, extrapolate=True)
    derivs = [interp.derivative(k) for k in range(1, 4)]

    def v(s):
        return interp(s)[()]

    def d(s, k: int):
        if 1 <= k <= 3:
            return derivs[k - 1](s)[()]
        if k == 4:
            return 0.0  # cubic pieces
        raise ValueError(f"derivative order {k} not exposed")

    return LocalVolModel(vol=v, deriv=d, positivity_domain=(s_grid[0], s_grid[-1]),
                         label=f"tabulated({len(pts)} pts)")


def load_tabulated_csv(path: str) -> LocalVolModel:
    """Read a `S,sigma_D` CSV (header required) into a tabulated model."""
    rows: list[tuple[float, float]] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != ["S", "sigma_D"]:
            raise ValueError("tabulated CSV must have header 'S,sigma_D'")
        for rec in reader:
            rows.append((float(rec["S"]), float(rec["sigma_D"])))
    return make_tabulated(rows)
