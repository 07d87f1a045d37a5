"""Small-maturity expansion of the normal implied volatility at fixed strike.

sigma_N(K, T) = sigma_0(K) + sigma_1(K) T + sigma_2(K) T^2 + ...

sigma_0 is the harmonic-type average of the local vol between forward and
strike; sigma_1 and sigma_2 follow from a recursion whose solution is closed
form in two antiderivatives, J = int dL/sigma_D and the drift integral
I2 = int (1/sigma_0 - 1/sigma_D)^2, both from F0.  `expansion` returns the
coefficients of an array of strikes from one composite Gauss-Legendre rule
per side of F0, with every strike on a panel edge, and one cumulative pass
over it: sigma_0 and sigma_1 read the values at each strike, and sigma_2 a
cumulative sum over the rule's nodes.  The pass walks the rule in blocks of
at most _BLOCK_POINTS evaluation points, so its working set does not grow
with the number of strikes; each running sum carries its last value into the
next block's np.cumsum, which adds in sequence, so every sum has the bits of
one pass over the whole rule.  Every coefficient has a removable 0/0
at the money, so inside a small switch radius the coefficients are replaced
by their Taylor polynomials in y = K - F0 built from the local vol's jet
at the forward, `atm_jet`.  `sigma0`, `sigma1`, `sigma2` and `smile` are
one-strike views of `expansion` that return floats.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .models import LocalVolModel, MarketSetup
from .quadrature import N_NODES, gauss_legendre_rule, legendre_cumulative


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


def atm_jet(model: LocalVolModel, F0: float, side: float = 0.0) -> tuple[float, ...]:
    """(sigma_D, sigma_D', ..., sigma_D^(4)) at F0 as Python floats.  On a
    breakpoint it is the kink jet of the piece on `side` of it (side > 0 the
    right one), and side 0 raises BreakpointError."""
    if _on_breakpoint(model, F0):
        if side == 0.0 or not model.kink_jets:
            raise BreakpointError(
                "sigma_D is non-analytic at the forward; expand the one-sided jets instead")
        return model.kink_jets[1] if side > 0.0 else model.kink_jets[0]
    return tuple(float(a) for a in model.jet(F0, 4))


def sigma0_series_atm(jet) -> tuple[float, float, float, float]:
    """(sigma0, sigma0', sigma0'', sigma0''') at K = F0 from atm_jet."""
    a0, a1, a2, a3 = jet[:4]
    return (a0, 0.5 * a1, a2 / 3.0 - a1 * a1 / (6.0 * a0),
            a3 / 4.0 - a1 * a2 / (2.0 * a0) + a1 ** 3 / (4.0 * a0 * a0))


def sigma1_series_atm(jet, mu0: float = 0.0) -> tuple[float, float, float]:
    """(sigma1, sigma1', sigma1'') at K = F0 from atm_jet, including the drift terms.

    The value and slope reduce to rational combinations of sigma_D
    derivatives; the curvature is taken from an independent re-derivation of
    the fixed-strike recursion (the shifted-log-normal check gives the
    11 b^4 / (90 sigma) coefficient).
    """
    a0, a1, a2, a3, a4 = jet
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


# evaluation points per block of a chain walk: 16 panels of the gap section
# (17 gaps of N_NODES points each), 272 of sigma2's node section, so the
# working set is the same whatever the number of strikes
_BLOCK_POINTS = 16 * (N_NODES + 1) * N_NODES


def _blocks(panels: int, points_per_panel: int):
    """Slices of consecutive panels, at most _BLOCK_POINTS points (one panel
    at least) each, in order outwards from F0."""
    step = max(1, _BLOCK_POINTS // points_per_panel)
    return (slice(i, i + step) for i in range(0, panels, step))


def _running_sum(carry: float, d: np.ndarray) -> np.ndarray:
    """carry + d[0], carry + d[0] + d[1], ... over d in C order, in d's shape.

    np.cumsum adds in sequence, so starting it from the previous block's last
    sum gives each element the bits of one cumsum over the whole chain; adding
    the carry after a block-local cumsum would round differently.  A chain
    starts from -0.0, which leaves every first term as it is.
    """
    return np.cumsum(np.concatenate([(carry,), d.ravel()]))[1:].reshape(d.shape)


def _chain(model: LocalVolModel, F0: float, mu0: float, far: float, cuts, series0, radius: float):
    """The rule on [F0, far] with `cuts` as panel edges, and J and I2 along it.

    One cumulative pass over 16-point Gauss-Legendre gaps between consecutive
    edges and nodes; the I2 integrand takes sigma0 = y/J in each gap from the
    spectral integration matrix, or from series0 if |y| < radius.  J and I2
    are (panels, 17): column k < 16 at node k, column 16 at the panel's end.
    The pass walks _blocks of 16 panels, so its gap arrays are (16, 17, 16)
    whatever the number of panels; J and I2 carry their running sums from
    one block into the next.
    """
    edges, nodes, weights = gauss_legendre_rule(F0, far, breakpoints=cuts)
    t, w, Q = legendre_cumulative()
    starts, ends = edges[:-1, None], edges[1:, None]
    J = np.empty((len(nodes), N_NODES + 1))
    I2 = np.zeros_like(J)
    J_end = I2_end = -0.0
    for blk in _blocks(len(nodes), (N_NODES + 1) * N_NODES):
        chain = np.concatenate([starts[blk], nodes[blk], ends[blk]], axis=1)
        a, b = chain[:, :-1], chain[:, 1:]
        half = 0.5 * (b - a)
        gap_nodes = (0.5 * (a + b))[..., None] + half[..., None] * t
        inv_vol = 1.0 / model.vol(gap_nodes)
        dJ = half * (inv_vol @ w)
        J[blk] = Jb = _running_sum(J_end, dJ)
        J_end = Jb[-1, -1]
        if mu0 != 0.0:
            J_gap = (Jb - dJ)[..., None] + half[..., None] * (inv_vol @ Q.T)
            y = gap_nodes - F0
            s0_gap = y / J_gap
            near = np.abs(y) < radius
            s0_gap[near] = _sigma0_taylor(series0, y[near])[0]
            d = 1.0 / s0_gap - inv_vol
            I2[blk] = I2b = _running_sum(I2_end, half * ((d * d) @ w))
            I2_end = I2b[-1, -1]
    return edges, nodes, weights, J, I2


def _z_integral(model: LocalVolModel, F0: float, mu0: float, mu1: float, nodes, weights,
                J, I2, s00, series0, series1, r_taylor: float) -> np.ndarray:
    """sigma2's z-integral from F0 to each panel's end of a _chain.

    At each node z = L - F0 it takes sigma0 and sigma1 with their derivatives
    from the closed forms, or from the Taylor series within r_taylor, and sums
    node by node outwards from F0.  The nodes are walked in _blocks of 272
    panels, and the sum carries from one block into the next.
    """
    ends = np.empty(len(nodes))
    total = -0.0
    for blk in _blocks(len(nodes), N_NODES):
        z = nodes[blk] - F0
        sDd = model.jet(nodes[blk], 2)
        closed0 = _sigma0_derivs(z, J[blk, :-1], sDd)
        closed1 = _sigma1_with_derivs(mu0, z, closed0, I2[blk, :-1], sDd, s00)
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
        sums = _running_sum(total, weights[blk] * (z * z * core))
        ends[blk] = sums[:, -1]
        total = sums[-1, -1]
    return ends


# the closed forms are 0/0 at K = F0 and along a chain of zero length, where
# np.where keeps the Taylor values instead; a value that overflows is
# left to the callers' row flags
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
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
    value) from atm_jet on the strike's side.
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
    s00 = model.vol(F0)
    for sign in (1.0, -1.0):
        side = K >= F0 if sign > 0 else K < F0
        if not side.any():
            continue
        Ks = K[side]
        y = Ks - F0
        jet = atm_jet(model, F0, sign)
        try:
            series0 = sigma0_series_atm(jet)
            series1 = sigma1_series_atm(jet, mu0) if order else None
            atm2 = sigma2_atm(jet, mu0, mu1) if order == 2 else None
        except OverflowError as e:
            raise DomainError(f"the ATM series overflow at sigma_D(F0) = {jet[0]!r} "
                              f"of {model.label or 'model'}") from e
        radius = _ATM_SWITCH_RADIUS * jet[0]
        r_taylor = _DERIV_RADIUS_FACTOR * radius
        near = np.abs(y) < radius
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
            sDd = model.jet(Ks, 2)
            s0d = _sigma0_derivs(y, J[at, -1], sDd)
            closed = _sigma1_with_derivs(mu0, y, s0d, I2[at, -1], sDd, s00)[0]
            coeffs[1, side] = np.where(near, _sigma1_taylor(series1, y)[0], closed)
        if order == 2:
            zint = _z_integral(model, F0, mu0, mu1, nodes, weights, J, I2, s00,
                               series0, series1, r_taylor)[at]
            coeffs[2, side] = np.where(near, atm2, -s0K ** 4 / y ** 3 * zint)
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


def sigma2_atm(jet, mu0: float = 0.0, mu1: float = 0.0) -> float:
    """ATM value of the O(T^2) coefficient from atm_jet (no integration needed).

    Drift-free part: -sigma1(0)^2/(2 sigma0) + sigma0^3 sigma0''(0)^2/24
    + sigma0^2 sigma1''(0)/6.  The drift adds -mu1 sigma_D'(F0)/12
    + mu0^2 sigma_D'(F0)^2/(24 sigma_D(F0)); the terms linear in mu0 cancel
    at the money.
    """
    s0, _, s0pp, _ = sigma0_series_atm(jet)
    v0, _, v2 = sigma1_series_atm(jet)
    base = (-v0 * v0 / (2.0 * s0) + s0 ** 3 * s0pp * s0pp / 24.0
            + s0 * s0 * v2 / 6.0)
    if mu0 != 0.0 or mu1 != 0.0:
        a0, a1 = jet[:2]
        base += -mu1 * a1 / 12.0 + mu0 * mu0 * a1 * a1 / (24.0 * a0)
    return base


def sigma1_jump(model: LocalVolModel, F0: float) -> float:
    """One-sided difference sigma1(0+) - sigma1(0-) across a breakpoint at F0,
    from its two kink jets.

    For linear pieces this equals -(bR^2 - bL^2) sigma0 / 6.  It is 0 for
    models analytic at F0, whose jet is the same on either side.
    """
    return (sigma1_series_atm(atm_jet(model, F0, 1.0))[0]
            - sigma1_series_atm(atm_jet(model, F0, -1.0))[0])


def sqrt_t_coefficient(model: LocalVolModel, F0: float) -> float:
    """The paper's sqrt(T) coefficient c of the ATM normal vol at a kink,
    sigma_N(F0, T) = sigma_D(F0) + c sqrt(T) + O(T).

    A first-order (Duhamel) expansion around the Bachelier model with vol
    sigma_D(F0) gives c = (sqrt(2 pi)/16) sigma_D(F0) [sigma_D'], with
    [sigma_D'] the jump of sigma_D' across F0 from its two kink jets.  It is
    0 for models analytic at F0.
    """
    if not _on_breakpoint(model, F0):
        return 0.0
    left, right = atm_jet(model, F0, -1.0), atm_jet(model, F0, 1.0)
    return math.sqrt(2.0 * math.pi) / 16.0 * right[0] * (right[1] - left[1])


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
