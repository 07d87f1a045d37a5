"""Forward Dupire solver for normal dynamics, used as the numerical oracle.

The call-price surface evolves in maturity under

    dC/dT = 1/2 sigma_D(K)^2 d2C/dK2 - mu(T) dC/dK

from the payoff C(K, 0) = (S0 - K)+.  Crank-Nicolson with a Rannacher
(implicit) start damps the kink oscillation; breakpoints of sigma_D and the
initial level S0 are snapped onto grid nodes so the derivative jump driving
the sqrt(T) anomaly is not smeared, and a price between nodes is interpolated
from nodes on one side of them only.
"""

from __future__ import annotations

import bisect
import ctypes
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.linalg import LinAlgError

from .bachelier import implied_vol_and_flag
from .models import LocalVolModel, MarketSetup


@dataclass(frozen=True)
class PdeSolution:
    strikes: np.ndarray
    times: tuple[float, ...]
    prices: np.ndarray  # shape (n_times, n_space)
    meta: dict = field(default_factory=dict)
    # nodes at S0 and at the breakpoints of sigma_D, where the price has a kink
    kinks: tuple[int, ...] = ()

    def price_at(self, T: float) -> np.ndarray:
        for i, t in enumerate(self.times):
            if abs(t - T) <= 1e-12 * max(T, 1.0):
                return self.prices[i]
        raise KeyError(f"maturity {T} not among solved levels {self.times}")

    def price_at_strikes(self, T: float, strikes: Sequence[float]) -> np.ndarray:
        """Prices of level T at arbitrary strikes, nan off the grid.

        Cubic Lagrange interpolation through the 4 nodes around each strike,
        with the stencil kept on one side of every kink node; a strike on a
        node gets that node's price exactly.
        """
        prices = self.price_at(T)
        ks = self.strikes
        n = len(ks)
        bounds = sorted({0, n - 1, *self.kinks})
        out = []
        for k in np.asarray(strikes, dtype=float).tolist():
            if not ks[0] <= k <= ks[-1]:
                out.append(math.nan)
                continue
            j = min(int(np.searchsorted(ks, k, side="right")) - 1, n - 2)
            # the stretch [a, b] between kink nodes that holds [ks[j], ks[j+1]]
            i = bisect.bisect_right(bounds, j)
            a, b = bounds[i - 1], bounds[i]
            lo = max(a, min(j - 1, b - 3))
            nodes = range(lo, min(lo + 4, b + 1))
            p = 0.0
            for m in nodes:
                w = 1.0
                for q in nodes:
                    if q != m:
                        w *= (k - ks[q]) / (ks[m] - ks[q])
                p += w * prices[m]
            out.append(p)
        return np.array(out)


def _build_strike_grid(model: LocalVolModel, setup: MarketSetup, T_max: float,
                       n_space: int, width_stdevs: float
                       ) -> tuple[np.ndarray, tuple[int, ...], tuple[bool, bool]]:
    """Uniform grid spanning width_stdevs local standard deviations either
    side of S0, clipped to the positivity domain of the model, with S0 (and
    thus any breakpoint placed at S0) on a node.

    Returns the nodes, the indices of the nodes at S0 and at the breakpoints,
    and whether the positivity domain moved the left and right ends inwards.
    """
    if n_space < 51:
        raise ValueError("need at least 51 space nodes")
    s0 = setup.S0
    stdev = model.vol(s0) * math.sqrt(T_max)
    want_min, want_max = s0 - width_stdevs * stdev, s0 + width_stdevs * stdev
    lo, hi = model.positivity_domain
    eps = 1e-12 * max(1.0, abs(s0))
    k_min = max(want_min, lo + eps if math.isfinite(lo) else -math.inf)
    k_max = min(want_max, hi - eps if math.isfinite(hi) else math.inf)
    if math.isfinite(lo):
        k_min = max(k_min, lo + 1e-9 * (k_max - lo))
    if k_min >= k_max:
        raise ValueError("K_min must be below K_max")
    clipped = (bool(k_min != want_min), bool(k_max != want_max))
    dx = (k_max - k_min) / (n_space - 1)
    # move the grid so that s0 lands exactly on a node, never out through a
    # clipped end: shift it inwards from one, shrink dx between two
    offset = (s0 - k_min) / dx
    if all(clipped):
        j = min(max(round(offset), 1), n_space - 2)
        dx *= min(offset / j, (n_space - 1 - offset) / (n_space - 1 - j))
        k_min, shift = s0 - j * dx, 0.0
    else:
        nearest = math.floor if clipped[0] else math.ceil if clipped[1] else round
        shift = (offset - nearest(offset)) * dx
    ks = k_min + shift + dx * np.arange(n_space)
    kinks = {int(round((s0 - ks[0]) / dx))}
    # snap remaining breakpoints onto the nearest node
    for bp in model.breakpoints:
        if ks[0] < bp < ks[-1] and abs(bp - s0) > 1e-14:
            j = int(round((bp - ks[0]) / dx))
            ks[j] = bp
            kinks.add(j)
    return ks, tuple(sorted(k for k in kinks if 0 <= k < n_space)), clipped


# numpy's OpenBLAS exports LAPACK with 64-bit integers under these names
_OPENBLAS_SYMBOLS = ("scipy_dgttrf_64_", "scipy_dgttrs_64_")


@functools.cache
def _tridiagonal() -> tuple[str, Callable, Callable]:
    """LAPACK's tridiagonal LU, dgttrf and dgttrs, as (source, factor, solver).

    factor(dl, d, du) factors the matrix with sub-, main and super-diagonals
    dl, d, du in place and returns its LU, whose first item is dgttrf's
    (dl, d, du, du2, ipiv), or raises LinAlgError if it is singular.
    solver(b) binds a right-hand-side buffer once and returns solve(lu), which
    overwrites b with the solution of the factored system.  The routines come
    through ctypes from the OpenBLAS that numpy has already loaded (source
    "numpy-openblas"), so the PDE imports no scipy; where that library lacks
    the symbols (numpy 1.x, Accelerate or MKL builds, Windows) they come from
    scipy.linalg.lapack (source "scipy"), with the same bits.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        gttrf, gttrs = (getattr(lib, name) for name in _OPENBLAS_SYMBOLS)
    except (AttributeError, OSError):
        return ("scipy", *_scipy_tridiagonal())
    # Fortran ABI: every argument by reference, then the hidden length of
    # TRANS.  The arguments are ctypes objects built once per factor or
    # buffer and passed as they are; declaring argtypes would convert all 12
    # on every dgttrs call, +2 us on a 15 us solve of 801 nodes.
    gttrf.restype = gttrs.restype = None
    trans, nrhs, trans_len = ctypes.c_char(b"N"), ctypes.c_int64(1), ctypes.c_size_t(1)

    def address(a: np.ndarray):
        # through the buffer protocol, which refuses a non-contiguous or
        # read-only array; about half the cost of a.ctypes.data
        return ctypes.byref(ctypes.c_char.from_buffer(a))

    def factor(dl: np.ndarray, d: np.ndarray, du: np.ndarray) -> tuple:
        if not (dl.dtype == d.dtype == du.dtype == np.float64
                and dl.size == du.size == d.size - 1):
            raise ValueError("dgttrf takes float64 diagonals of n - 1, n and n - 1 entries")
        n, info = ctypes.c_int64(d.size), ctypes.c_int64()
        arrays = (dl, d, du, np.empty(d.size - 2), np.empty(d.size, dtype=np.int64))
        pointers = [address(a) for a in arrays]
        gttrf(ctypes.byref(n), *pointers, ctypes.byref(info))
        if info.value > 0:
            raise LinAlgError("singular matrix")
        # the arrays stay referenced for as long as their pointers are used
        return arrays, (ctypes.byref(trans), ctypes.byref(n), ctypes.byref(nrhs), *pointers)

    def solver(b: np.ndarray) -> Callable:
        if b.dtype != np.float64:
            raise ValueError("dgttrs takes a float64 right-hand side")
        size = b.size
        tail = (address(b), ctypes.byref(ctypes.c_int64(size)),
                ctypes.byref(ctypes.c_int64()), trans_len)

        def solve(lu: tuple) -> None:
            if lu[0][1].size != size:
                raise ValueError(f"right-hand side of {size} entries for a system of "
                                 f"{lu[0][1].size}")
            gttrs(*lu[1], *tail)
        return solve

    return "numpy-openblas", factor, solver


def _scipy_tridiagonal() -> tuple[Callable, Callable]:
    """factor and solver of `_tridiagonal` from scipy.linalg.lapack."""
    from scipy.linalg.lapack import dgttrf, dgttrs

    def factor(dl: np.ndarray, d: np.ndarray, du: np.ndarray) -> tuple:
        *arrays, info = dgttrf(dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        if info > 0:
            raise LinAlgError("singular matrix")
        return (arrays,)

    def solver(b: np.ndarray) -> Callable:
        def solve(lu: tuple) -> None:
            x, _ = dgttrs(*lu[0], b, overwrite_b=1)
            if x is not b:
                b[:] = x
        return solve

    return factor, solver


def solve_forward(model: LocalVolModel, setup: MarketSetup, T: float | Sequence[float],
                  n_space: int = 1601, n_time_per_year: int = 40,
                  width_stdevs: float = 10.0, min_time_steps: int = 64) -> PdeSolution:
    """Evolve call prices to the largest maturity in T, storing every level of T.

    The grid has n_space nodes over width_stdevs local stdevs either side of
    S0 at the largest maturity, clipped to the positivity domain of the
    model (`meta["clipped"]`); the march takes n_time_per_year steps a year,
    at least min_time_steps.  The span does not depend on the drift.  The
    `pde` rows and `sqrt-t` fix the step counts via `richardson_prices`.
    `meta["lapack"]` names where the tridiagonal solver came from.
    """
    lapack, lu_factor, solver = _tridiagonal()
    levels = sorted(set(np.ravel(np.asarray(T, dtype=float)).tolist()))
    T_max = levels[-1]
    ks, kinks, clipped = _build_strike_grid(model, setup, T_max, n_space, width_stdevs)
    n = len(ks)
    dx = ks[1] - ks[0]
    sig2 = model.vol(ks) ** 2
    if not np.all(np.isfinite(sig2) & (sig2 > 0.0)):
        raise ValueError("sigma_D not finite and positive on the whole grid")

    n_steps = max(int(math.ceil(n_time_per_year * T_max)), min_time_steps)
    # build the step schedule so that every output level is hit exactly
    times = np.linspace(0.0, T_max, n_steps + 1).tolist() + levels
    times = sorted(set(round(t, 15) for t in times))

    diff = 0.5 * sig2 / (dx * dx)          # diffusion coefficient on d2/dK2
    diff_max = float(np.max(diff))
    # interior rows of L C = diff*(C[i+1] - 2C[i] + C[i-1]) - mu*(C[i+1] - C[i-1])/(2dx)
    diff_in = diff[1:-1]
    mid_c = -2.0 * diff_in

    def factor(dt: float, theta: float, lo_c: np.ndarray, hi_c: np.ndarray) -> tuple:
        """LU factors of I - theta dt L; Dirichlet rows stay identity rows."""
        d = np.ones(n)
        d[1:-1] = 1.0 - theta * dt * mid_c
        du = np.zeros(n - 1)
        du[1:] = -theta * dt * hi_c
        dl = np.zeros(n - 1)
        dl[:-1] = -theta * dt * lo_c
        return lu_factor(dl, d, du)

    # The operator changes only with the advection coefficient, so a constant
    # drift factors each distinct (dt, theta) once and mu1 != 0 every step.
    # The linspace schedule has a dozen or so step sizes that differ in the
    # last bits; keying on the exact float keeps every step's matrix, and thus
    # every output bit, as if built afresh.
    adv = lo_c = hi_c = None
    factors: dict[tuple[float, float], tuple] = {}
    acc = np.empty(n - 2)
    tmp = np.empty(n - 2)
    out: dict[float, np.ndarray] = {}
    max_ratio = 0.0
    # two buffers with their solvers bound once: each step reads the prices
    # in the first and solves for the next ones in the second, then swaps them
    buffers = [(b, solver(b)) for b in (np.maximum(setup.S0 - ks, 0.0), np.empty(n))]

    def step(t0: float, t1: float, theta: float) -> None:
        nonlocal adv, lo_c, hi_c
        (c_in, _), (rhs, solve) = buffers
        dt = t1 - t0
        adv_step = setup.drift(0.5 * (t0 + t1)) / (2.0 * dx)  # central first derivative
        if adv_step != adv:
            adv = adv_step
            lo_c, hi_c = diff_in + adv, diff_in - adv       # C[i-1], C[i+1]
            factors.clear()
        lu = factors.get((dt, theta))
        if lu is None:
            lu = factors[(dt, theta)] = factor(dt, theta, lo_c, hi_c)
        # (I - theta dt L) c_new = (I + (1-theta) dt L) c_old  (interior rows),
        # summed in the order c + w*((lo*c[i-1] + mid*c[i]) + hi*c[i+1])
        if theta < 1.0:
            np.multiply(lo_c, c_in[:-2], out=acc)
            np.multiply(mid_c, c_in[1:-1], out=tmp)
            np.add(acc, tmp, out=acc)
            np.multiply(hi_c, c_in[2:], out=tmp)
            np.add(acc, tmp, out=acc)
            np.multiply(acc, (1.0 - theta) * dt, out=acc)
            np.add(c_in[1:-1], acc, out=rhs[1:-1])
        else:
            rhs[1:-1] = c_in[1:-1]
        # Dirichlet boundaries: deep ITM C = F(t1) - K, far OTM C = 0
        rhs[0] = setup.forward(t1) - ks[0]
        rhs[-1] = 0.0
        solve(lu)
        buffers.reverse()

    t_prev = times[0]
    rannacher_left = 2  # implicit half-steps damping the payoff kink
    for t_next in times[1:]:
        if rannacher_left > 0:
            tm = 0.5 * (t_prev + t_next)
            step(t_prev, tm, theta=1.0)
            step(tm, t_next, theta=1.0)
            rannacher_left -= 1
        else:
            step(t_prev, t_next, theta=0.5)
        max_ratio = max(max_ratio, diff_max * (t_next - t_prev))
        for t in levels:
            if abs(t - t_next) <= 1e-12 * max(t, 1.0):
                out[t] = buffers[0][0].copy()
        t_prev = t_next

    prices = np.array([out[t] for t in levels])
    meta = {"dx": dx, "n_steps": len(times) - 1, "max_diffusion_number": max_ratio,
            "clipped": clipped, "lapack": lapack}
    return PdeSolution(strikes=ks, times=tuple(levels), prices=prices, meta=meta,
                       kinks=kinks)


class ForwardOffGrid(ValueError):
    """The forward at T lies off the strike grid, which is centred on S0."""


def richardson_prices(model: LocalVolModel, setup: MarketSetup, T: float,
                      strikes: Sequence[float], width_stdevs: float) -> np.ndarray:
    """Call prices at T and the requested strikes, nan off either grid, from
    two solves over width_stdevs stdevs: 401 nodes in 32 steps and 801 in 64,
    whatever T.  The error is about a dx^2 + b dt^2; halving dx and dt
    together divides both terms by 4, so (4 fine - coarse) / 3 cancels both.
    A forward off either grid raises ForwardOffGrid.
    """
    F = setup.forward(T)
    prices = []
    for n_space, n_steps in ((401, 32), (801, 64)):
        sol = solve_forward(model, setup, T, n_space=n_space, n_time_per_year=0,
                            width_stdevs=width_stdevs, min_time_steps=n_steps)
        ks = sol.strikes
        if not ks[0] <= F <= ks[-1]:
            raise ForwardOffGrid(f"the drifted forward {F:.6g} at T = {T} lies off the "
                                 f"PDE grid [{ks[0]:.6g}, {ks[-1]:.6g}] around S0")
        prices.append(sol.price_at_strikes(T, strikes))
    return (4.0 * prices[1] - prices[0]) / 3.0


def implied_smile_from_pde(model: LocalVolModel, setup: MarketSetup, T: float,
                           strikes: Sequence[float]) -> list[tuple[float, str]]:
    """(sigma_N, flag) per strike at T, the `pde` rows of `nvol smile`: the
    `richardson_prices` over 10 stdevs mapped by `implied_vol_and_flag`, and
    ok rows far (> 6 sigma_ATM sqrt(T)) from the forward low_confidence.
    """
    F = setup.forward(T)
    wanted = np.asarray(strikes, dtype=float)
    *prices, atm = richardson_prices(model, setup, T, np.append(wanted, F), 10.0).tolist()
    band = 6.0 * implied_vol_and_flag(atm, F, F, T)[0] * math.sqrt(T)
    out = []
    for k, p in zip(wanted.tolist(), prices):
        vol, flag = implied_vol_and_flag(p, F, k, T)
        # an ATM price without time value has no vol, and its band (nan) holds no strike
        if flag == "ok" and not abs(k - F) <= band:
            flag = "low_confidence"
        out.append((vol, flag))
    return out


def atm_implied_vol(sol: PdeSolution, setup: MarketSetup, T: float) -> float:
    """Implied normal vol at K = F_T, the price interpolated in strike by
    `PdeSolution.price_at_strikes` and mapped by `implied_vol_and_flag`:
    nan for a forward off the grid or a price without time value."""
    F = setup.forward(T)
    return implied_vol_and_flag(float(sol.price_at_strikes(T, [F])[0]), F, F, T)[0]


def atm_implied_vol_richardson(model: LocalVolModel, setup: MarketSetup, T: float) -> float:
    """ATM implied normal vol at T, the `richardson_prices` price over 8 stdevs
    inverted once: +3.1e-10 from the closed forms of configs/sqrtt_*.ini at
    each T in 1/256..1/4 (16/32 steps leave +2.2e-9, 64/128 steps +1.5e-10)."""
    F = setup.forward(T)
    return implied_vol_and_flag(float(richardson_prices(model, setup, T, [F], 8.0)[0]),
                                F, F, T)[0]


def extract_local_vol(surface, setup: MarketSetup, K: float, T: float,
                      dT: float | None = None) -> float:
    """Invert the forward equation for sigma_D(K, T) from a vol surface.

    `surface` maps (K, T) -> sigmaN.  Central differences in strike (step
    max(1e-4 |F|, 5e-3 sigmaN sqrt(T))), forward difference in maturity.  Raises on a non-positive denominator (the
    arbitrage-like regime where the inversion is singular).
    """
    F = setup.forward(T)
    y = K - F
    s = surface(K, T)
    dy = max(1e-4 * max(abs(F), 1e-8), 5e-3 * s * math.sqrt(T))
    if dT is None:
        dT = max(1e-4, 0.05 * T)
    sp = surface(K + dy, T)
    sm = surface(K - dy, T)
    ds_dy = (sp - sm) / (2.0 * dy)
    d2s_dy2 = (sp - 2.0 * s + sm) / (dy * dy)
    s_up = surface(K, T + dT)
    dvar_dT = (s_up * s_up * (T + dT) - s * s * T) / dT - s * s
    # dvar_dT above is T * d(sigma^2)/dT; numerator wants sigma^2 + T dT(sigma^2) + mu T dy(sigma^2)
    mu = setup.drift(T)
    num = s * s + dvar_dT + mu * T * 2.0 * s * ds_dy
    den = (1.0 - y / s * ds_dy) ** 2 + T * s * d2s_dy2
    if den <= 0.0:
        raise ValueError("singular surface: non-positive denominator in local-vol extraction")
    if num <= 0.0:
        raise ValueError("negative total-variance slope in local-vol extraction")
    return math.sqrt(num / den)
