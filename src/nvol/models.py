"""Local volatility models: dS = sigma_D(S) dW + mu(t) dt.

A model is an immutable bundle of the vol function, its jet, breakpoint
metadata and the one-sided jets at a kink for non-analytic models, and the
interval on which sigma_D stays positive.  Everything downstream (quadrature,
PDE grids) is clipped to positivity_domain, since 1/sigma_D enters the
leading-order smile integral.

`vol(s)` and `jet(s, n)` take a float or an ndarray.  `vol` returns the
shape of `s`, and a float in gives a float (possibly an `np.float64`) out.
`jet` returns (sigma_D, sigma_D', ..., sigma_D^(n)) for n <= 4, `vol(s)`
first, and a derivative may be a constant that broadcasts against `s`.  An
array call equals the element-wise scalar calls bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class LocalVolModel:
    """Time-homogeneous local volatility sigma_D(S) with its jet."""

    vol: Callable  # sigma_D(s), s a float or an ndarray
    jet: Callable  # (s, n) -> (sigma_D, sigma_D', ..., sigma_D^(n)), n <= 4
    breakpoints: tuple[float, ...] = ()
    positivity_domain: tuple[float, float] = (-math.inf, math.inf)
    label: str = ""
    # the order-4 jets (left, right) of the analytic pieces at a single breakpoint
    kink_jets: tuple[tuple[float, ...], ...] = ()

    def in_domain(self, s: float) -> bool:
        lo, hi = self.positivity_domain
        return lo < s < hi


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

    def jet(s, n: int):
        return (v(s), 2.0 * b, 0.0, 0.0, 0.0)[:n + 1]

    if b > 0.0:
        dom = (-sigma0 / (2.0 * b), math.inf)
    elif b < 0.0:
        dom = (-math.inf, -sigma0 / (2.0 * b))
    else:
        dom = (-math.inf, math.inf)
    return LocalVolModel(vol=v, jet=jet, positivity_domain=dom,
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

    def jet(s, n: int):
        q = radicand(s)
        r = np.sqrt(q)
        out = [r]
        if n >= 1:
            qp = -2.0 * rho * gamma * sigma0 + 2.0 * gamma * gamma * (s - S0)
            out.append(0.5 * qp / r)
        if n >= 2:
            qpp = 2.0 * gamma * gamma
            qr = q * r
            out.append(0.5 * qpp / r - 0.25 * qp * qp / qr)
        # products, not `**`: numpy's array power is not libm's pow bit for bit
        if n >= 3:
            qqr = q * q * r
            out.append(-0.75 * qp * qpp / qr + 0.375 * qp * qp * qp / qqr)
        if n >= 4:
            out.append(-0.75 * qpp * qpp / qr + 2.25 * qp * qp * qpp / qqr
                       - 0.9375 * qp * qp * qp * qp / (q * q * q * r))
        return tuple(out)

    return LocalVolModel(vol=v, jet=jet,
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

    def jet(s, n: int):
        return (v(s), 2.0 * slope(s - S0), 0.0, 0.0, 0.0)[:n + 1]

    return LocalVolModel(vol=v, jet=jet, breakpoints=(S0,), positivity_domain=(lo, hi),
                         label=f"piecewise_linear(sigma0={sigma0}, bL={bL}, bR={bR})",
                         kink_jets=(left.jet(S0, 4), right.jet(S0, 4)))


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

    def jet(s, n: int):
        # the fourth derivative of cubic pieces is 0
        return (v(s), *(d(s)[()] for d in derivs[:n]), 0.0)[:n + 1]

    return LocalVolModel(vol=v, jet=jet, positivity_domain=(s_grid[0], s_grid[-1]),
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
