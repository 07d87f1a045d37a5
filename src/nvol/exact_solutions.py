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
from .quadrature import gauss_legendre_rule

SQRT_2PI = math.sqrt(2.0 * math.pi)


def shifted_ln_exact_call(sigma0: float, b: float, S0: float, K: float, T: float) -> float:
    """Driftless price in the model sigma_D(S) = sigma0 + 2 b S.

    For either sign of b, sign(b) (S + sigma0/(2b)) is a log-normal with
    volatility 2|b|, and the out-of-the-money option is a Black-Scholes call
    on it with the lower of the mapped S0 and K as forward (a put is the call
    with the two swapped).  The price is that option plus max(S0 - K, 0), as
    in model2b_call_by_density; small |b| sqrt(T) takes the Bachelier limit.
    """
    if abs(b) * math.sqrt(T) < 1e-8:
        otm = bachelier_call(NormalQuote(F=min(S0, K), K=max(S0, K), T=T,
                                         sigmaN=sigma0 + 2.0 * b * S0))
    else:
        sign, shift = math.copysign(1.0, b), sigma0 / (2.0 * b)
        x, y = sign * (S0 + shift), sign * (K + shift)
        otm = black_scholes_call(min(x, y), max(x, y), 2.0 * abs(b), T)
    return otm + max(S0 - K, 0.0)


def shifted_ln_atm_exact_vol(sigma0bar: float, b: float, T: float) -> float:
    """Exact ATM normal vol: sigma0bar sqrt(pi/2) Erf(b sqrt(T)/sqrt(2))/(b sqrt(T))."""
    u = b * math.sqrt(T)
    if abs(u) < 1e-8:
        # the series sigma0bar (1 - u^2/6 + u^4/40 - ...) rounds to its first term
        return sigma0bar
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

    The driftless model is symmetric about S0, so a strike d = |K - S0| away
    is worth the out-of-the-money call C(S0 + d) plus max(S0 - K, 0).  That
    call is int_{z(d)}^inf (y(u) - d) p(u, t; z(S0)=0, 0) du, y measured from
    S0, over u >= 0 only, where y and p are analytic.  The upper limit is
    truncated where the Gaussian factor is below machine precision, so a
    strike with z(d) at or beyond it is worth its intrinsic value.

    One price per strike of the 1-d sequence: the rule of
    gauss_legendre_rule(0, 1) is mapped onto each strike's [z(d), z_hi] and
    the integrand is evaluated on all nodes in one array pass.  It is not the
    closed form in Phi and phi, whose sigma0/(2b) terms cancel as b sqrt(t) -> 0.
    """
    K = np.asarray(strikes, dtype=float)
    d = np.abs(K - S0)
    # p decays like exp(-(z - bt)^2/2t) modulated by e^{-2bz}; 12 stdevs is ample
    z_hi = b * t + 12.0 * math.sqrt(t)
    z_d = np.log1p(2.0 * b * d / sigma0) / (2.0 * b)
    span = np.maximum(z_hi - z_d, 0.0)
    _, s, w = gauss_legendre_rule(0.0, 1.0)
    u = z_d[:, None] + span[:, None] * s.ravel()
    rt = math.sqrt(t)
    a = (u + b * t) / rt
    # norm_cdf((bt - u) / rt) with math.erfc node by node: numpy has no erfc
    erfc = map(math.erfc, ((u - b * t) / (rt * math.sqrt(2.0))).ravel().tolist())
    cdf = 0.5 * np.fromiter(erfc, float, u.size).reshape(u.shape)
    dens = np.exp(-0.5 * a * a) / (SQRT_2PI * rt) + b * np.exp(-2.0 * b * u) * cdf
    payoff = sigma0 / (2.0 * b) * np.expm1(2.0 * b * u) - d[:, None]
    return span * (payoff * dens * w.ravel()).sum(axis=1) + np.maximum(S0 - K, 0.0)


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

    For each maturity the forward-PDE ATM price is extrapolated from the two
    grids of `dupire_pde.richardson_prices`, uniform in the Lamperti distance
    over the same span in stdevs whatever T, and inverted once
    (`atm_implied_vol_richardson`, within 5e-10 of the closed forms on
    configs/sqrtt_*.ini).  One call takes the whole grid, so each
    grid size is one march with every maturity a block of one tridiagonal
    system: two marches in all, each block priced bit for bit as its maturity
    alone.  sigma_D(S0) is subtracted, and the deviations are fitted to
    c T^p twice: free p (classification), then p = 1/2 (coefficient
    extraction, which is the value reported).  Models
    with a derivative jump at the forward give p near 1/2; analytic models
    give p near 1 and the reported sqrt coefficient is then meaningless.
    Repeated maturities are refused before any solve; a forward the drift
    moves off the grids, or near enough to an end of them to bias its
    price, raises `dupire_pde.ForwardOffGrid`.
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
    # the extrapolation keeps the O(dy^2 + dt^2) ATM bias from flattening
    # the power law at the smallest maturities
    devs = [vol - sD0 for vol in atm_implied_vol_richardson(model, setup, T_grid)]
    sign = math.copysign(1.0, devs[0])
    mags = [sign * d for d in devs]
    if not all(m > 0.0 for m in mags):
        raise ValueError("ATM deviation changes sign or vanishes; nothing to fit")
    _, p_free = _fit_loglog(T_grid, mags)
    c_half, _ = _fit_loglog(T_grid, mags, exponent=0.5)
    resid = max(abs(d / (c_half * math.sqrt(t)) - 1.0) for t, d in zip(T_grid, mags))
    return FitReport(coefficient=sign * c_half, exponent=p_free, residual=resid, grid=T_grid)
