"""Small-maturity expansion of the normal implied volatility at fixed strike.

sigma_N(K, T) = sigma_0(K) + sigma_1(K) T + sigma_2(K) T^2 + ...

sigma_0 is the harmonic-type average of the local vol between forward and
strike; sigma_1 and sigma_2 follow from a recursion whose solution is closed
form in two antiderivatives, J = int dL/sigma_D and the drift integral
I2 = int (1/sigma_0 - 1/sigma_D)^2, both from F0.  All three coefficients
take them from one composite Gauss-Legendre rule on [F0, K] and one
cumulative pass over it: sigma_0 and sigma_1 read the values at K, and
sigma_2 also integrates over the rule's nodes with the values there.  Every
coefficient has a removable 0/0 at the money, so inside a small switch
radius the coefficients are replaced by their Taylor polynomials in
y = K - F0 built from local-vol derivatives at the forward.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .models import LocalVolModel, MarketSetup
from .quadrature import gauss_legendre_rule, legendre_cumulative


class DomainError(ValueError):
    """Local vol not positive somewhere on the integration range."""


class BreakpointError(ValueError):
    """Analytic ATM series requested at a non-analytic point."""


class NonAnalyticWarning(UserWarning):
    """Power-series-in-T output for a model with a derivative jump."""


@dataclass(frozen=True)
class QuadratureSpec:
    atm_switch_radius: float = 1e-4  # fraction of sigma_D(F0)*max(sqrt(t_ref), 1)
    t_ref: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.atm_switch_radius) and self.atm_switch_radius >= 0.0):
            raise ValueError("atm_switch_radius must be finite and >= 0")
        if not (math.isfinite(self.t_ref) and self.t_ref > 0.0):
            raise ValueError("t_ref must be finite and > 0")

    def switch_radius(self, vol_atm: float) -> float:
        return self.atm_switch_radius * vol_atm * max(math.sqrt(self.t_ref), 1.0)


DEFAULT_SPEC = QuadratureSpec()

# second derivatives of sigma0/sigma1 switch to their Taylor forms on a wider
# window than plain values: the closed forms cancel like 1/y^2 .. 1/y^4
_DERIV_RADIUS_FACTOR = 100.0


def _require_domain(model: LocalVolModel, F0: float, K: float) -> None:
    lo, hi = model.positivity_domain
    a, b = (F0, K) if F0 <= K else (K, F0)
    if not (lo < a and b < hi):
        raise DomainError(
            f"[{a}, {b}] leaves the positivity domain ({lo}, {hi}) of {model.label or 'model'}"
        )


def _series_branch(model: LocalVolModel, F0: float, y: float) -> LocalVolModel:
    """Analytic branch to expand around F0 when F0 sits on a breakpoint."""
    if any(abs(F0 - bp) < 1e-14 * max(1.0, abs(F0)) for bp in model.breakpoints):
        return model.branch_for(1.0 if y >= 0.0 else -1.0)
    return model


def sigma0_series_atm(model: LocalVolModel, F0: float) -> tuple[float, float, float, float]:
    """(sigma0, sigma0', sigma0'', sigma0''') at K = F0 from sigma_D derivatives."""
    if any(abs(F0 - bp) < 1e-14 * max(1.0, abs(F0)) for bp in model.breakpoints):
        raise BreakpointError(
            "sigma_D is non-analytic at the forward; expand the one-sided branches instead"
        )
    a0 = model.vol(F0)
    a1 = model.deriv(F0, 1)
    a2 = model.deriv(F0, 2)
    a3 = model.deriv(F0, 3)
    s0 = a0
    s1 = 0.5 * a1
    s2 = a2 / 3.0 - a1 * a1 / (6.0 * a0)
    s3 = a3 / 4.0 - a1 * a2 / (2.0 * a0) + a1 ** 3 / (4.0 * a0 * a0)
    return (s0, s1, s2, s3)


def sigma1_series_atm(model: LocalVolModel, F0: float, mu0: float = 0.0
                      ) -> tuple[float, float, float]:
    """(sigma1, sigma1', sigma1'') at K = F0, including the drift terms.

    The value and slope reduce to rational combinations of sigma_D
    derivatives; the curvature is taken from an independent re-derivation of
    the fixed-strike recursion (the shifted-log-normal check gives the
    11 b^4 / (90 sigma) coefficient).
    """
    if any(abs(F0 - bp) < 1e-14 * max(1.0, abs(F0)) for bp in model.breakpoints):
        raise BreakpointError(
            "sigma_D is non-analytic at the forward; expand the one-sided branches instead"
        )
    a0 = model.vol(F0)
    a1 = model.deriv(F0, 1)
    a2 = model.deriv(F0, 2)
    a3 = model.deriv(F0, 3)
    a4 = model.deriv(F0, 4)
    v0 = a0 * (2.0 * a0 * a2 - a1 * a1) / 24.0
    v1 = (a0 * a0 * a3 + a0 * a1 * a2 - 0.5 * a1 ** 3) / 24.0 + mu0 * a1 * a1 / (12.0 * a0)
    v2 = (36.0 * a0 ** 4 * a4 + 72.0 * a0 ** 3 * a1 * a3 + 44.0 * a0 ** 3 * a2 * a2
          - 44.0 * a0 * a0 * a1 * a1 * a2 + 11.0 * a0 * a1 ** 4
          + 240.0 * a0 * a1 * a2 * mu0 - 120.0 * a1 ** 3 * mu0) / (1440.0 * a0 * a0)
    return (v0, v1, v2)


def _sigma0_taylor(series: tuple[float, float, float, float], y):
    """(sigma0, sigma0', sigma0'') at y from sigma0_series_atm; y may be an ndarray."""
    s0, s1, s2, s3 = series
    return (s0 + y * (s1 + y * (0.5 * s2 + y * s3 / 6.0)),
            s1 + y * (s2 + 0.5 * y * s3), s2 + y * s3)


def _sigma1_taylor(series: tuple[float, float, float], y: float):
    """(sigma1, sigma1', sigma1'') at y from sigma1_series_atm."""
    v0, v1, v2 = series
    return (v0 + y * (v1 + 0.5 * y * v2), v1 + y * v2, v2)


def sigma0(model: LocalVolModel, F0: float, K: float,
           spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Leading-order normal vol: (K - F0) / int_{F0}^{K} dL / sigma_D(L)."""
    _require_domain(model, F0, K)
    y = K - F0
    branch = _series_branch(model, F0, y)
    radius = spec.switch_radius(branch.vol(F0))
    if abs(y) < radius:
        return _sigma0_taylor(sigma0_series_atm(branch, F0), y)[0]
    *_, J_K, _ = _node_antiderivatives(model, F0, 0.0, K, branch, radius)
    return y / J_K


def _sigma0_derivs(model: LocalVolModel, F0: float, K: float, J: float
                   ) -> tuple[float, float, float]:
    """(sigma0, sigma0', sigma0'') at strike K off the money, from J(K).

    J = int_{F0}^{K} dL/sigma_D has J' = 1/sigma_D and J'' = -sigma_D'/sigma_D^2,
    so the derivatives of sigma0 = y/J need no numerical differentiation.
    """
    y = K - F0
    Jp = 1.0 / model.vol(K)
    Jpp = -model.deriv(K, 1) / model.vol(K) ** 2
    val = y / J
    dval = 1.0 / J - y * Jp / (J * J)
    ddval = -2.0 * Jp / (J * J) + 2.0 * y * Jp * Jp / J ** 3 - y * Jpp / (J * J)
    return (val, dval, ddval)


def sigma1(model: LocalVolModel, F0: float, mu0: float, K: float,
           spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """O(T) coefficient at fixed strike.

    sigma1 = sigma0^3/y^2 * ( -1/2 log(sigma0(K)^2 / (sigma_D(K) sigma0(F0)))
                              + mu0 * int_{F0}^{K} (1/sigma0 - 1/sigma_D)^2 )
    """
    _require_domain(model, F0, K)
    y = K - F0
    branch = _series_branch(model, F0, y)
    radius = spec.switch_radius(branch.vol(F0))
    if abs(y) < radius:
        return _sigma1_taylor(sigma1_series_atm(branch, F0, mu0), y)[0]
    *_, J_K, I2_K = _node_antiderivatives(model, F0, mu0, K, branch, radius)
    s0d = _sigma0_derivs(model, F0, K, J_K)
    return _sigma1_with_derivs(model, F0, mu0, K, s0d, I2_K)[0]


def _sigma1_with_derivs(model: LocalVolModel, F0: float, mu0: float, K: float,
                        s0d: tuple[float, float, float], I2: float
                        ) -> tuple[float, float, float]:
    """(sigma1, sigma1', sigma1'') at strike K off the money.

    s0d is (sigma0, sigma0', sigma0'') from _sigma0_derivs and I2 the drift
    integral at K.  Writing sigma1 = P * G with P = sigma0^3/y^2 and G the
    bracket (-1/2 log + mu0 I2), both factors differentiate in closed form:
    the log term needs only sigma0', sigma0'', sigma_D', sigma_D'', and the
    drift integral's derivative is its integrand.
    """
    y = K - F0
    s0, s0p, s0pp = s0d
    sD = model.vol(K)
    sDp = model.deriv(K, 1)
    sDpp = model.deriv(K, 2)
    s00 = model.vol(F0)
    G = -0.5 * math.log(s0 * s0 / (sD * s00))
    Gp = -s0p / s0 + 0.5 * sDp / sD
    Gpp = (-s0pp / s0 + (s0p / s0) ** 2 + 0.5 * sDpp / sD
           - 0.5 * (sDp / sD) ** 2)
    if mu0 != 0.0:
        d = 1.0 / s0 - 1.0 / sD
        G += mu0 * I2
        Gp += mu0 * d * d
        Gpp += mu0 * 2.0 * d * (-s0p / (s0 * s0) + sDp / (sD * sD))
    P = s0 ** 3 / (y * y)
    Pp = 3.0 * s0 * s0 * s0p / (y * y) - 2.0 * s0 ** 3 / y ** 3
    Ppp = ((6.0 * s0 * s0p * s0p + 3.0 * s0 * s0 * s0pp) / (y * y)
           - 12.0 * s0 * s0 * s0p / y ** 3 + 6.0 * s0 ** 3 / y ** 4)
    return (P * G, Pp * G + P * Gp, Ppp * G + 2.0 * Pp * Gp + P * Gpp)


def _h2_mu(mu0: float, mu1: float, y: float, sD: float,
           s0d: tuple[float, float, float], s1d: tuple[float, float, float]) -> float:
    """Drift part of the O(T^2) inhomogeneity at y = L - F0, sigma_D = sD(L).

    Obtained by matching the T^2 coefficient of the fixed-strike equation to
    the quadrature template for the second-order coefficient (re-derived and
    checked against exact-rational solves of the recursion).  The mu-free
    product term vanishes identically on the driftless first-order solution
    and restores exactness when the drift shifts sigma1.
    """
    s0, s0p, s0pp = s0d
    s1, s1p, _ = s1d
    N = s0 / sD
    g = s0p / s0
    A = 2.0 * N * s1 * (N - 1.0) + 2.0 * N * y * s1p + s0 * s0 * s0pp
    B = 2.0 * N * s1 * (3.0 * N - 1.0) + 2.0 * N * y * s1p - s0 * s0 * s0pp
    return (mu1 * g * (2.0 - 1.0 / N)
            - mu0 * mu0 * g * g / (N * N)
            + 2.0 * mu0 * g / (s0 * N * N)
            * (s1 * (N * N + 2.0 * N - 1.0) + y * s1p * (1.0 - N))
            - A * B / (4.0 * N ** 4 * s0 * s0))


def _node_antiderivatives(model: LocalVolModel, F0: float, mu0: float, K: float,
                          branch: LocalVolModel, radius: float):
    """The rule on [F0, K], and J and I2 at its nodes and at K, in one cumulative pass.

    The rule is the composite 16-node x 8-panel Gauss-Legendre rule with the
    model's breakpoints and sigma2's Taylor/closed-form handover at
    F0 +- _DERIV_RADIUS_FACTOR * radius as panel edges; that handover is a
    (tiny) jump, so it is pinned to an edge.  The chain F0 = edges[0], nodes
    of panel 1, edges[1], nodes of panel 2, ..., K is walked gap by gap,
    with a 16-point Gauss-Legendre rule on each gap, and the gap integrals are
    summed.  Every panel edge is a chain point, so no gap straddles a
    breakpoint or the handover.  The integrand of I2 needs sigma0 = y/J inside
    each gap; J there comes from the spectral integration matrix of the same
    gap samples.  As in sigma0, |y| < radius uses the Taylor coefficients of
    the analytic branch instead.  Returns (nodes, weights, J, I2, J(K), I2(K))
    with J and I2 shaped like nodes (I2 is zero without drift).
    """
    import numpy as np

    r_taylor = _DERIV_RADIUS_FACTOR * radius
    edges, nodes, weights = gauss_legendre_rule(
        F0, K, breakpoints=(*model.breakpoints, F0 + r_taylor, F0 - r_taylor))
    t, w, Q = legendre_cumulative(nodes.shape[1])
    chain = np.concatenate([edges[:-1, None], nodes, edges[1:, None]], axis=1)
    a, b = chain[:, :-1], chain[:, 1:]
    half = 0.5 * (b - a)
    gap_nodes = (0.5 * (a + b))[..., None] + half[..., None] * t
    inv_vol = 1.0 / model.vol_array(gap_nodes)
    dJ = half * (inv_vol @ w)
    J_end = np.cumsum(dJ).reshape(dJ.shape)
    I2_end = np.zeros_like(J_end)
    if mu0 != 0.0:
        J_gap = (J_end - dJ)[..., None] + half[..., None] * (inv_vol @ Q.T)
        y = gap_nodes - F0
        taylor0 = sigma0_series_atm(branch, F0)
        s0_gap = np.where(np.abs(y) < radius, _sigma0_taylor(taylor0, y)[0], y / J_gap)
        d = 1.0 / s0_gap - inv_vol
        I2_end = np.cumsum(half * ((d * d) @ w)).reshape(dJ.shape)
    # node k of a panel is the end of the panel's gap k; the last gap ends at K
    return (nodes, weights, J_end[:, :-1], I2_end[:, :-1],
            float(J_end[-1, -1]), float(I2_end[-1, -1]))


def sigma2(model: LocalVolModel, F0: float, mu0: float, mu1: float, K: float,
           spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """O(T^2) coefficient at fixed strike.

    sigma2 = -sigma0^4/y^3 * int_0^y z^2 dz { 3 sigma1^2/(2 sigma_D sigma0^4)
             - sigma_D^3 sigma0''^2/(8 sigma0^4) - sigma_D sigma1''/(2 sigma0^3)
             + H2_mu/(2 sigma_D sigma0^2) }

    The z-integral is the composite 16-node x 8-panel Gauss-Legendre rule of
    _node_antiderivatives, with J and I2 at its nodes from the same pass.  Within
    _DERIV_RADIUS_FACTOR switch radii of the money the integrand takes its
    Taylor forms: the closed forms of the second derivatives cancel like
    1/y^2 .. 1/y^4 there.
    """
    _require_domain(model, F0, K)
    y = K - F0
    branch = _series_branch(model, F0, y)
    radius = spec.switch_radius(branch.vol(F0))
    if abs(y) < radius:
        return sigma2_atm(branch, F0, mu0, mu1)

    r_taylor = _DERIV_RADIUS_FACTOR * radius
    nodes, weights, J, I2, J_K, _ = _node_antiderivatives(model, F0, mu0, K, branch, radius)
    taylor0 = sigma0_series_atm(branch, F0)
    taylor1 = sigma1_series_atm(branch, F0, mu0)
    drift = mu0 != 0.0 or mu1 != 0.0

    def integrand(L: float, J_L: float, I2_L: float) -> float:
        z = L - F0
        sD = model.vol(L)
        if abs(z) < r_taylor:
            s0d = _sigma0_taylor(taylor0, z)
            s1d = _sigma1_taylor(taylor1, z)
        else:
            s0d = _sigma0_derivs(model, F0, L, J_L)
            s1d = _sigma1_with_derivs(model, F0, mu0, L, s0d, I2_L)
        s0, _, s0pp = s0d
        s1, _, s1pp = s1d
        core = (1.5 * s1 * s1 / (sD * s0 ** 4)
                - sD ** 3 * s0pp * s0pp / (8.0 * s0 ** 4)
                - sD * s1pp / (2.0 * s0 ** 3))
        if drift:
            core += _h2_mu(mu0, mu1, z, sD, s0d, s1d) / (2.0 * sD * s0 * s0)
        return z * z * core

    val = sum(w * integrand(float(L), float(J_L), float(I2_L))
              for L, J_L, I2_L, w in zip(nodes.flat, J.flat, I2.flat, weights.flat))
    return float(-(y / J_K) ** 4 / y ** 3 * val)


def sigma2_atm(model: LocalVolModel, F0: float, mu0: float = 0.0, mu1: float = 0.0) -> float:
    """ATM value of the O(T^2) coefficient (no integration needed).

    Drift-free part: -sigma1(0)^2/(2 sigma0) + sigma0^3 sigma0''(0)^2/24
    + sigma0^2 sigma1''(0)/6.  The drift adds -mu1 sigma_D'(F0)/12
    + mu0^2 sigma_D'(F0)^2/(24 sigma_D(F0)); the terms linear in mu0 cancel
    at the money.
    """
    s0, _, s0pp, _ = sigma0_series_atm(model, F0)
    v0, _, v2 = sigma1_series_atm(model, F0, mu0=0.0)
    base = (-v0 * v0 / (2.0 * s0) + s0 ** 3 * s0pp * s0pp / 24.0
            + s0 * s0 * v2 / 6.0)
    if mu0 != 0.0 or mu1 != 0.0:
        a0 = model.vol(F0)
        a1 = model.deriv(F0, 1)
        base += -mu1 * a1 / 12.0 + mu0 * mu0 * a1 * a1 / (24.0 * a0)
    return base


def sigma1_jump(model: LocalVolModel, F0: float) -> float:
    """One-sided difference sigma1(0+) - sigma1(0-) across a breakpoint at F0.

    For linear pieces this equals -(bR^2 - bL^2) sigma0 / 6.  Returns 0 for
    models analytic at F0.
    """
    if not any(abs(F0 - bp) < 1e-14 * max(1.0, abs(F0)) for bp in model.breakpoints):
        return 0.0
    right = model.branch_for(1.0)
    left = model.branch_for(-1.0)
    vr, _, _ = sigma1_series_atm(right, F0, mu0=0.0)
    vl, _, _ = sigma1_series_atm(left, F0, mu0=0.0)
    return vr - vl


def expansion_coefficient(model: LocalVolModel, setup: MarketSetup, K: float, order: int,
                          spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """sigma0, sigma1 or sigma2 at strike K; the coefficients do not depend on T."""
    F0 = setup.S0
    if order == 0:
        return sigma0(model, F0, K, spec)
    if order == 1:
        return sigma1(model, F0, setup.mu0, K, spec)
    if order == 2:
        return sigma2(model, F0, setup.mu0, setup.mu1, K, spec)
    raise ValueError("order must be 0, 1 or 2")


def smile_from_coefficients(coeffs, T: float) -> float:
    """sigma0 + sigma1 T + sigma2 T^2 truncated after the coefficients given."""
    out = coeffs[0]
    if len(coeffs) > 1:
        out += coeffs[1] * T
    if len(coeffs) > 2:
        out += coeffs[2] * T * T
    return out


def smile(model: LocalVolModel, setup: MarketSetup, K: float, T: float, order: int,
          spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Truncated fixed-strike expansion sigma0 + sigma1 T + sigma2 T^2.

    y = K - F0 throughout; the drift enters through the mu-dependent terms of
    the coefficients, not through a moving moneyness.  Warns for models with
    breakpoints, whose smiles carry sqrt(T) terms the series misses.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    if model.breakpoints:
        warnings.warn(
            "power-series-in-T smile for a non-analytic local vol: the expansion "
            "misses sqrt(T) terms (use the sqrt-T detector)", NonAnalyticWarning,
            stacklevel=2)
    coeffs = [expansion_coefficient(model, setup, K, k, spec) for k in range(order + 1)]
    return smile_from_coefficients(coeffs, T)
