"""Small-maturity expansion of the normal implied volatility at fixed strike.

sigma_N(K, T) = sigma_0(K) + sigma_1(K) T + sigma_2(K) T^2 + ...

sigma_0 is the harmonic-type average of the local vol between forward and
strike; sigma_1 and sigma_2 follow from a recursion whose solution is closed
form in two antiderivatives, J = int dL/sigma_D and the drift integral
I2 = int (1/sigma_0 - 1/sigma_D)^2, both from F0.  `expansion` returns the
coefficients of an array of strikes from one composite Gauss-Legendre rule
per side of F0, with every strike on a panel edge, and one cumulative pass
over it: sigma_0 and sigma_1 read the values at each strike, and sigma_2 a
cumulative sum over the rule's nodes.  Every coefficient has a removable 0/0
at the money, so inside a small switch radius the coefficients are replaced
by their Taylor polynomials in y = K - F0 built from local-vol derivatives
at the forward.  `sigma0`, `sigma1`, `sigma2` and `smile` are one-strike
views of `expansion` that return floats.
"""

from __future__ import annotations

import warnings

import numpy as np

from .models import LocalVolModel, MarketSetup
from .quadrature import gauss_legendre_rule, legendre_cumulative


class DomainError(ValueError):
    """Local vol not positive somewhere on the integration range."""


class BreakpointError(ValueError):
    """Analytic ATM series requested at a non-analytic point."""


class NonAnalyticWarning(UserWarning):
    """Power-series-in-T output for a model with a derivative jump."""


# inside this fraction of sigma_D(F0) from the money every coefficient is its
# Taylor polynomial: the closed forms are a removable 0/0 at K = F0
_ATM_SWITCH_RADIUS = 1e-4

# second derivatives of sigma0/sigma1 switch to their Taylor forms on a wider
# window than plain values: the closed forms cancel like 1/y^2 .. 1/y^4
_DERIV_RADIUS_FACTOR = 100.0


def _require_domain(model: LocalVolModel, F0: float, strikes) -> None:
    lo, hi = model.positivity_domain
    for K in strikes:
        a, b = (F0, K) if F0 <= K else (K, F0)
        if not (lo < a and b < hi):
            raise DomainError(f"[{a}, {b}] leaves the positivity domain ({lo}, {hi}) "
                              f"of {model.label or 'model'}")


def _on_breakpoint(model: LocalVolModel, F0: float) -> bool:
    """True when the forward sits on one of the model's breakpoints."""
    return any(abs(F0 - bp) < 1e-14 * max(1.0, abs(F0)) for bp in model.breakpoints)


def _atm_derivs(model: LocalVolModel, F0: float, order: int) -> list[float]:
    """sigma_D(F0) and its derivatives there up to `order`, as Python floats."""
    if _on_breakpoint(model, F0):
        raise BreakpointError(
            "sigma_D is non-analytic at the forward; expand the one-sided branches instead"
        )
    return [float(model.vol(F0))] + [float(model.deriv(F0, k)) for k in range(1, order + 1)]


def sigma0_series_atm(model: LocalVolModel, F0: float) -> tuple[float, float, float, float]:
    """(sigma0, sigma0', sigma0'', sigma0''') at K = F0 from sigma_D derivatives."""
    a0, a1, a2, a3 = _atm_derivs(model, F0, 3)
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
    a0, a1, a2, a3, a4 = _atm_derivs(model, F0, 4)
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


def _sigma1_taylor(series: tuple[float, float, float], y):
    """(sigma1, sigma1', sigma1'') at y from sigma1_series_atm; y may be an ndarray."""
    v0, v1, v2 = series
    return (v0 + y * (v1 + 0.5 * y * v2), v1 + y * v2, v2)


def _sigma0_derivs(y, J, sDd):
    """(sigma0, sigma0', sigma0'') at y = K - F0 off the money, from J(K) and
    sDd = (sigma_D, sigma_D', sigma_D'') at K; every input may be an ndarray.

    J = int_{F0}^{K} dL/sigma_D has J' = 1/sigma_D and J'' = -sigma_D'/sigma_D^2,
    so the derivatives of sigma0 = y/J need no numerical differentiation.
    """
    sD, sDp, _ = sDd
    Jp = 1.0 / sD
    Jpp = -sDp / sD ** 2
    val = y / J
    dval = 1.0 / J - y * Jp / (J * J)
    ddval = -2.0 * Jp / (J * J) + 2.0 * y * Jp * Jp / J ** 3 - y * Jpp / (J * J)
    return (val, dval, ddval)


def _sigma1_with_derivs(mu0: float, y, s0d, I2, sDd, s00):
    """(sigma1, sigma1', sigma1'') at y = K - F0 off the money; arrays work element-wise.

    s0d is (sigma0, sigma0', sigma0'') from _sigma0_derivs, I2 the drift
    integral at K, sDd = (sigma_D, sigma_D', sigma_D'') at K and s00 =
    sigma_D(F0).  Writing sigma1 = P * G with P = sigma0^3/y^2 and G the
    bracket (-1/2 log + mu0 I2), both factors differentiate in closed form:
    the log term needs only sigma0', sigma0'', sigma_D', sigma_D'', and the
    drift integral's derivative is its integrand.
    """
    s0, s0p, s0pp = s0d
    sD, sDp, sDpp = sDd
    G = -0.5 * np.log(s0 * s0 / (sD * s00))
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


def _h2_mu(mu0: float, mu1: float, y, sD, s0d, s1d):
    """Drift part of the O(T^2) inhomogeneity at y = L - F0, sigma_D = sD(L);
    arrays work element-wise.

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


def _chain(model: LocalVolModel, F0: float, mu0: float, far: float, cuts, series0, radius: float):
    """The rule on [F0, far] with `cuts` as panel edges, and J and I2 along it.

    One cumulative pass over 16-point Gauss-Legendre gaps between consecutive
    edges and nodes; the I2 integrand takes sigma0 = y/J in each gap from the
    spectral integration matrix, or from series0 if |y| < radius.  J and I2
    are (panels, 17): column k < 16 at node k, column 16 at the panel's end.
    The (panels, 17, 16) gap arrays are released on return.
    """
    edges, nodes, weights = gauss_legendre_rule(F0, far, breakpoints=cuts)
    t, w, Q = legendre_cumulative()
    chain = np.concatenate([edges[:-1, None], nodes, edges[1:, None]], axis=1)
    a, b = chain[:, :-1], chain[:, 1:]
    half = 0.5 * (b - a)
    gap_nodes = (0.5 * (a + b))[..., None] + half[..., None] * t
    inv_vol = 1.0 / model.vol(gap_nodes)
    dJ = half * (inv_vol @ w)
    J = np.cumsum(dJ).reshape(dJ.shape)
    I2 = np.zeros_like(J)
    if mu0 != 0.0:
        J_gap = (J - dJ)[..., None] + half[..., None] * (inv_vol @ Q.T)
        y = gap_nodes - F0
        s0_gap = y / J_gap
        near = np.abs(y) < radius
        s0_gap[near] = _sigma0_taylor(series0, y[near])[0]
        d = 1.0 / s0_gap - inv_vol
        I2 = np.cumsum(half * ((d * d) @ w)).reshape(dJ.shape)
    return edges, nodes, weights, J, I2


# the closed forms are 0/0 at K = F0 and along a chain of zero length, where
# np.where keeps the Taylor values instead
@np.errstate(divide="ignore", invalid="ignore")
def expansion(model: LocalVolModel, setup: MarketSetup, strikes, order: int
              ) -> tuple[np.ndarray, ...]:
    """(sigma0, ..., sigma_order) for order 0, 1 or 2, one float64 array per
    order over `strikes` (a 1-d sequence); none depends on T.

    With y = K - F0 and J = int_{F0}^{K} dL / sigma_D(L):

    sigma0 = y / J(K)
    sigma1 = sigma0^3/y^2 * ( -1/2 log(sigma0(K)^2 / (sigma_D(K) sigma0(F0)))
                              + mu0 * int_{F0}^{K} (1/sigma0 - 1/sigma_D)^2 )
    sigma2 = -sigma0^4/y^3 * int_0^y z^2 dz { 3 sigma1^2/(2 sigma_D sigma0^4)
             - sigma_D^3 sigma0''^2/(8 sigma0^4) - sigma_D sigma1''/(2 sigma0^3)
             + H2_mu/(2 sigma_D sigma0^2) }

    The integrals start at F0 and the z-integrand does not depend on K, so one
    _chain per side of F0 gives every strike's values at its panel's end; its
    edges are the strikes, the breakpoints and sigma2's Taylor handover at
    _DERIV_RADIUS_FACTOR switch radii, inside which the closed forms of
    sigma0'' and sigma1'' cancel like 1/y^2 .. 1/y^4.  Within the switch
    radius every coefficient is its Taylor polynomial in y (sigma2 its ATM
    value) on the analytic branch of the strike's side.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    K = np.asarray(strikes, dtype=float)
    if K.ndim != 1:
        raise ValueError("strikes must be a 1-d sequence")
    F0, mu1 = setup.S0, setup.mu1
    mu0 = setup.mu0 if order else 0.0
    _require_domain(model, F0, K.tolist())
    coeffs = np.empty((order + 1, K.size))
    for sign in (1.0, -1.0):
        side = K >= F0 if sign > 0 else K < F0
        if not side.any():
            continue
        Ks = K[side]
        y = Ks - F0
        branch = model.branch_for(sign) if _on_breakpoint(model, F0) else model
        radius = _ATM_SWITCH_RADIUS * branch.vol(F0)
        r_taylor = _DERIV_RADIUS_FACTOR * radius
        near = np.abs(y) < radius
        series0 = sigma0_series_atm(branch, F0)
        # a strike that takes its Taylor values is no edge, so it does not
        # move the others' panels
        edges, nodes, weights, J, I2 = _chain(
            model, F0, mu0, float(Ks.max() if sign > 0 else Ks.min()),
            (*model.breakpoints, F0 + r_taylor, F0 - r_taylor, *Ks[~near].tolist()),
            series0, radius)
        # the panel each strike ends; a strike within the radius reads a value
        # that np.where drops
        at = np.searchsorted(sign * edges, sign * Ks) - 1
        coeffs[0, side] = s0K = np.where(near, _sigma0_taylor(series0, y)[0], y / J[at, -1])
        if order:
            sDd = (model.vol(Ks), model.deriv(Ks, 1), model.deriv(Ks, 2))
            s0d = _sigma0_derivs(y, J[at, -1], sDd)
            closed = _sigma1_with_derivs(mu0, y, s0d, I2[at, -1], sDd, model.vol(F0))[0]
            series1 = sigma1_series_atm(branch, F0, mu0)
            coeffs[1, side] = np.where(near, _sigma1_taylor(series1, y)[0], closed)
        if order == 2:
            z = nodes - F0
            sDd = (model.vol(nodes), model.deriv(nodes, 1), model.deriv(nodes, 2))
            closed0 = _sigma0_derivs(z, J[:, :-1], sDd)
            closed1 = _sigma1_with_derivs(mu0, z, closed0, I2[:, :-1], sDd, model.vol(F0))
            taylor = np.abs(z) < r_taylor
            s0d = tuple(np.where(taylor, t, c)
                        for t, c in zip(_sigma0_taylor(series0, z), closed0))
            s1d = tuple(np.where(taylor, t, c)
                        for t, c in zip(_sigma1_taylor(series1, z), closed1))
            (s0, _, s0pp), (s1, _, s1pp), sD = s0d, s1d, sDd[0]
            core = (1.5 * s1 * s1 / (sD * s0 ** 4)
                    - sD ** 3 * s0pp * s0pp / (8.0 * s0 ** 4)
                    - sD * s1pp / (2.0 * s0 ** 3))
            if mu0 != 0.0 or mu1 != 0.0:
                core += _h2_mu(mu0, mu1, z, sD, s0d, s1d) / (2.0 * sD * s0 * s0)
            # summed node by node outwards from F0, as np.cumsum is sequential
            zint = np.cumsum(weights * (z * z * core)).reshape(z.shape)[at, -1]
            coeffs[2, side] = np.where(near, sigma2_atm(branch, F0, mu0, mu1),
                                       -s0K ** 4 / y ** 3 * zint)
    return tuple(coeffs)


# one-coefficient views of expansion, looked up by the tests and the perfbench tracer

def sigma0(model: LocalVolModel, F0: float, K: float) -> float:
    """Leading-order normal vol: (K - F0) / int_{F0}^{K} dL / sigma_D(L)."""
    return float(expansion(model, MarketSetup(F0), [K], 0)[0][0])


def sigma1(model: LocalVolModel, F0: float, mu0: float, K: float) -> float:
    """O(T) coefficient at fixed strike."""
    return float(expansion(model, MarketSetup(F0, mu0), [K], 1)[1][0])


def sigma2(model: LocalVolModel, F0: float, mu0: float, mu1: float, K: float) -> float:
    """O(T^2) coefficient at fixed strike."""
    return float(expansion(model, MarketSetup(F0, mu0, mu1), [K], 2)[2][0])


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
        a0, a1 = _atm_derivs(model, F0, 1)
        base += -mu1 * a1 / 12.0 + mu0 * mu0 * a1 * a1 / (24.0 * a0)
    return base


def sigma1_jump(model: LocalVolModel, F0: float) -> float:
    """One-sided difference sigma1(0+) - sigma1(0-) across a breakpoint at F0.

    For linear pieces this equals -(bR^2 - bL^2) sigma0 / 6.  Returns 0 for
    models analytic at F0.
    """
    if not _on_breakpoint(model, F0):
        return 0.0
    right = model.branch_for(1.0)
    left = model.branch_for(-1.0)
    vr, _, _ = sigma1_series_atm(right, F0, mu0=0.0)
    vl, _, _ = sigma1_series_atm(left, F0, mu0=0.0)
    return vr - vl


@np.errstate(over="ignore", invalid="ignore")
def smile_from_coefficients(coeffs, T: float):
    """sigma0 + sigma1 T + sigma2 T^2 truncated after the coefficients given,
    floats or arrays; nothing is added in place, so arrays stay unchanged.
    A T large enough to overflow a term gives +-inf or nan, not a warning."""
    out = coeffs[0]
    if len(coeffs) > 1:
        out = out + coeffs[1] * T
    if len(coeffs) > 2:
        out = out + coeffs[2] * T * T
    return out


def smile(model: LocalVolModel, setup: MarketSetup, K: float, T: float, order: int) -> float:
    """Truncated fixed-strike expansion sigma0 + sigma1 T + sigma2 T^2.

    y = K - F0 throughout; the drift enters through the mu-dependent terms of
    the coefficients, not through a moving moneyness.  Warns for models with
    breakpoints, whose smiles carry sqrt(T) terms the series misses.
    """
    if model.breakpoints:
        warnings.warn(
            "power-series-in-T smile for a non-analytic local vol: the expansion "
            "misses sqrt(T) terms (use the sqrt-T detector)", NonAnalyticWarning,
            stacklevel=2)
    return float(smile_from_coefficients(expansion(model, setup, [K], order), T)[0])
