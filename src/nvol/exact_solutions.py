"""Closed-form and semi-closed-form reference prices.

Shifted log-normal pricing via the shift-to-Black-Scholes mapping, the
log-normal-with-drift at-the-money price, the symmetric-kink model's exact
ATM decomposition and transition density, and a detector that classifies the
small-time behavior of the ATM vol (analytic T vs anomalous sqrt(T)).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bachelier import (NormalQuote, bachelier_call, black_scholes_call,
                        norm_cdf, norm_pdf)
from .models import LocalVolModel, MarketSetup
from .quadrature import N_NODES, N_PANELS, gauss_legendre_rule

SQRT_2PI = math.sqrt(2.0 * math.pi)


def shifted_ln_exact_call(sigma0: float, b: float, S0: float, K: float, T: float) -> float:
    """Driftless price in the model sigma_D(S) = sigma0 + 2 b S.

    For b > 0 the shifted asset S + sigma0/(2b) is an exact log-normal with
    volatility 2b, so the price is a Black-Scholes call on shifted arguments.
    For b < 0 that holds for -(S + sigma0/(2b)), with volatility -2b, and the
    call on S is a put on it: the call with forward and strike swapped.
    Small |b| sqrt(T) falls back to the Bachelier limit.
    """
    if abs(b) * math.sqrt(T) < 1e-8:
        return bachelier_call(NormalQuote(F=S0, K=K, T=T, sigmaN=sigma0 + 2.0 * b * S0))
    shift = sigma0 / (2.0 * b)
    fwd, strike = S0 + shift, K + shift
    if b < 0.0:
        fwd, strike = -strike, -fwd
    if fwd <= 0.0 or strike <= 0.0:
        raise ValueError("shifted strike/forward must be positive")
    return black_scholes_call(fwd, strike, 2.0 * abs(b), T)


_ATM_SERIES = (1.0, -1.0 / 6.0, 1.0 / 40.0, -1.0 / 336.0, 1.0 / 3456.0)


def shifted_ln_atm_series(sigma0bar: float, b: float, T: float, n_terms: int = 3) -> float:
    """Truncated ATM vol series sigma0bar * sum_k c_k (b^2 T)^k."""
    if not 1 <= n_terms <= 5:
        raise ValueError("n_terms must be in 1..5")
    x = b * b * T
    return sigma0bar * sum(c * x ** k for k, c in enumerate(_ATM_SERIES[:n_terms]))


def shifted_ln_atm_exact_vol(sigma0bar: float, b: float, T: float) -> float:
    """Exact ATM normal vol: sigma0bar sqrt(pi/2) Erf(b sqrt(T)/sqrt(2))/(b sqrt(T))."""
    u = b * math.sqrt(T)
    if abs(u) < 1e-8:
        return shifted_ln_atm_series(sigma0bar, b, T, n_terms=3)
    return sigma0bar * math.sqrt(math.pi / 2.0) * math.erf(u / math.sqrt(2.0)) / u


def drifted_ln_atm_call(x0: float, mu: float, t: float) -> float:
    """ATM price in dx = x dW + mu dt: x0 Erf(sqrt(t)/(2 sqrt(2))) + mu t / 2.

    Valid to first order in mu (and mu >= 0 as in the derivation).
    """
    if x0 <= 0.0:
        raise ValueError("x0 must be positive")
    if mu < 0.0:
        raise ValueError("mu must be non-negative")
    return x0 * math.erf(math.sqrt(t) / (2.0 * math.sqrt(2.0))) + 0.5 * mu * t


def shifted_ln_drift_atm_call(sigma0: float, b: float, S0: float, mu: float, T: float) -> float:
    """K = S0 price with constant drift mu, to first order in mu.

    Mapped form of drifted_ln_atm_call under the time/level rescaling that
    turns sigma0 + 2 b S dynamics into the unit log-normal.
    """
    if mu < 0.0:
        raise ValueError("mu must be non-negative")
    if b <= 0.0:
        raise ValueError("b must be positive")
    return ((sigma0 + 2.0 * b * S0) / (2.0 * b)
            * math.erf(b * math.sqrt(T) / math.sqrt(2.0)) + 0.5 * mu * T)


def model2b_atm_exact(sigma0: float, b: float, t: float) -> float:
    """Exact ATM normal vol for the symmetric kink sigma_D = sigma0 + 2b|y|.

    Sum of the shifted-log-normal piece (right branch extrapolated
    everywhere) and the kink correction, which carries the order-sqrt(t)
    anomaly sigma0 * (1/2) sqrt(pi/2) b sqrt(t) + ...
    """
    if b <= 0.0:
        raise ValueError("b must be positive")
    if sigma0 <= 0.0:
        raise ValueError("sigma0 must be positive")
    u = b * math.sqrt(t)
    e = math.erf(u / math.sqrt(2.0))
    piece1 = sigma0 * math.sqrt(math.pi / 2.0) * e / u
    piece2 = 0.5 * sigma0 * math.exp(-0.5 * u * u) + 0.5 * sigma0 * math.sqrt(
        math.pi / 2.0) * (u + u * e - e / u)
    return piece1 + piece2


def model2b_density(z: float, t: float, x: float, b: float) -> float:
    """Transition density of dz = dW - sign(z) b dt started at x >= 0.

    Both branches are reflected-drift Gaussians; the integral terms are
    expressed through the normal cdf.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    if x < 0.0:
        raise ValueError("start point x must be >= 0")
    rt = math.sqrt(t)
    if z > 0.0:
        return (norm_pdf((x - z - b * t) / rt) / rt
                + b * math.exp(-2.0 * b * z) * norm_cdf((b * t - x - z) / rt))
    return (math.exp(2.0 * b * x) * norm_pdf((x - z + b * t) / rt) / rt
            + b * math.exp(2.0 * b * z) * norm_cdf((b * t - x + z) / rt))


def model2b_z_of_y(y: float, sigma0: float, b: float) -> float:
    """z(y) = int_0^y du / (sigma0 + 2b|u|)."""
    if y >= 0.0:
        z = math.log1p(2.0 * b * y / sigma0) / (2.0 * b)
    else:
        z = -math.log1p(-2.0 * b * y / sigma0) / (2.0 * b)
    # for subnormal y the product 2 b y underflows to zero and with it the
    # sign of z; keep the first-order term y / sigma0 instead
    return z if z != 0.0 or y == 0.0 else y / sigma0


def model2b_y_of_z(z: float, sigma0: float, b: float) -> float:
    """Inverse map: y(z) = +/- sigma0/(2b) (e^{2b|z|} - 1)."""
    if z >= 0.0:
        return sigma0 / (2.0 * b) * math.expm1(2.0 * b * z)
    return -sigma0 / (2.0 * b) * math.expm1(-2.0 * b * z)


def model2b_call_by_density(sigma0: float, b: float, S0: float, strikes: Sequence[float],
                            t: float) -> np.ndarray:
    """Call price by integrating the payoff against the kink-model density.

    C = int_{z(K)}^inf (y(u) - y_K) p(u, t; z(S0)=0, 0) du with y measured
    from S0.  The upper limit is truncated where the Gaussian factor is
    below machine precision, so a strike with z(K) at or beyond it is worth
    0.  The integrand is analytic on each side of the kink at u = 0, which is
    a panel edge of the composite Gauss-Legendre rule.

    One price per strike of the 1-d sequence, each strike with its own rule;
    the integrand, `model2b_y_of_z` times `model2b_density` started at
    x = 0, is evaluated on all nodes in one array pass, and each strike's
    weighted terms are summed from 0 in node order.
    """
    yK = np.asarray(strikes, dtype=float) - S0
    # p decays like exp(-(z - bt)^2/2t) modulated by e^{-2bz}; 12 stdevs is ample
    z_hi = b * t + 12.0 * math.sqrt(t)
    # row i holds strike i's nodes, and its weights after a column of zeros
    # for the sum to start from; the row of a strike at or beyond z_hi, and
    # the tail of an 8-panel row, keep weight 0 at node 0
    n_max = 2 * N_PANELS * N_NODES
    nodes = np.zeros((yK.size, n_max))
    terms = np.zeros((yK.size, n_max + 1))
    for i, y in enumerate(yK.tolist()):
        zK = model2b_z_of_y(y, sigma0, b)
        if zK < z_hi:
            _, u, w = gauss_legendre_rule(zK, z_hi, (0.0,) if zK < 0.0 < z_hi else ())
            nodes[i, :u.size] = u.flat
            terms[i, 1:1 + w.size] = w.flat
    # the two branches of y(u) and of p(u) meet in |u|: with x = 0 each
    # operation below is the one of the branch of u's sign (numpy's exp and
    # expm1 may differ from libm's in the last bit)
    au = np.abs(nodes)
    y_u = np.where(nodes >= 0.0, sigma0 / (2.0 * b), -sigma0 / (2.0 * b)) * np.expm1(
        2.0 * b * au)
    rt = math.sqrt(t)
    bt = b * t
    a = (au + bt) / rt
    # norm_cdf((bt - |u|) / rt) with math.erfc node by node: numpy has no erfc
    erfc = map(math.erfc, ((au - bt) / rt / math.sqrt(2.0)).ravel().tolist())
    cdf = 0.5 * np.fromiter(erfc, float, au.size).reshape(au.shape)
    dens = np.exp(-0.5 * a * a) / SQRT_2PI / rt + b * np.exp(-2.0 * b * au) * cdf
    terms[:, 1:] *= (y_u - yK[:, None]) * dens
    return np.add.accumulate(terms, axis=1)[:, -1]


@dataclass(frozen=True)
class FitReport:
    """Power-law fit of the small-time ATM vol deviation c * T^p."""

    coefficient: float
    exponent: float
    residual: float
    grid: tuple[float, ...]

    def to_json(self) -> str:
        return json.dumps({"coefficient": self.coefficient, "exponent": self.exponent,
                           "residual": self.residual, "grid": list(self.grid)})


def _fit_loglog(ts, ds, exponent=None):
    """Least squares of log d = log c + p log T; returns (c, p)."""
    lt = [math.log(t) for t in ts]
    ld = [math.log(d) for d in ds]
    n = len(lt)
    if exponent is not None:
        lc = sum(di - exponent * ti for di, ti in zip(ld, lt)) / n
        return math.exp(lc), exponent
    mt = sum(lt) / n
    md = sum(ld) / n
    p = (sum((ti - mt) * (di - md) for ti, di in zip(lt, ld))
         / sum((ti - mt) ** 2 for ti in lt))
    lc = md - p * mt
    return math.exp(lc), p


def sqrt_t_detector(model: LocalVolModel, setup: MarketSetup, T_grid) -> FitReport:
    """Classify the small-time ATM behavior and size any sqrt(T) term.

    For each maturity the forward-PDE ATM price is extrapolated from two
    maturity-adapted grids, 401 nodes in 32 steps and 801 nodes in 64, and
    inverted once (`atm_implied_vol_richardson`, within 5e-10 of the closed
    forms on configs/sqrtt_*.ini).  One call takes the whole grid, so each
    grid size is one march with every maturity a block of one tridiagonal
    system: two marches in all, each block priced bit for bit as its maturity
    alone.  sigma_D(S0) is subtracted, and the deviations are fitted to
    c T^p twice: free p (classification), then p = 1/2 (coefficient
    extraction, which is the value reported).  Models
    with a derivative jump at the forward give p near 1/2; analytic models
    give p near 1 and the reported sqrt coefficient is then meaningless.
    Repeated maturities are refused before any solve; a forward the drift
    moves off the grids raises `dupire_pde.ForwardOffGrid`.
    """
    # the closed forms above do not need the PDE solver, so only this
    # analysis imports it
    from .dupire_pde import atm_implied_vol_richardson

    T_grid = tuple(sorted(T_grid))
    if len(T_grid) < 5:
        raise ValueError("need at least 5 maturities")
    repeated = sorted({a for a, b in zip(T_grid, T_grid[1:]) if a == b})
    if repeated:
        raise ValueError(f"maturities must be distinct, repeated: {repeated}")
    sD0 = model.vol(setup.S0)
    # the extrapolation keeps the O(dx^2 + dt^2) ATM bias from flattening
    # the power law at the smallest maturities
    devs = [vol - sD0 for vol in atm_implied_vol_richardson(model, setup, T_grid)]
    if all(d < 0.0 for d in devs):
        sign, mags = -1.0, [-d for d in devs]
    elif all(d > 0.0 for d in devs):
        sign, mags = 1.0, list(devs)
    else:
        raise ValueError("ATM deviation changes sign or vanishes; nothing to fit")
    _, p_free = _fit_loglog(T_grid, mags)
    c_half, _ = _fit_loglog(T_grid, mags, exponent=0.5)
    resid = max(abs(d / (c_half * math.sqrt(t)) - 1.0) for t, d in zip(T_grid, mags))
    return FitReport(coefficient=sign * c_half, exponent=p_free, residual=resid, grid=T_grid)
