"""Forward Dupire solver for normal dynamics, used as the numerical oracle.

The call-price surface evolves in maturity under

    dC/dT = 1/2 sigma_D(K)^2 d2C/dK2 - mu(T) dC/dK

from the payoff C(K, 0) = (S0 - K)+, on nodes uniform in the Lamperti
distance y = int_S0^K dk / sigma_D(k), in which the density is close to
Gaussian for any sigma_D, with the three-point stencil for unequal
spacings.  Crank-Nicolson with a Rannacher (implicit) start damps the kink
oscillation; the initial level S0, the only place inside the grid where
sigma_D may have a breakpoint, is a grid node so the derivative jump
driving the sqrt(T) anomaly is not smeared, and a price between nodes is
interpolated from nodes on one side of it only.

`march` takes every maturity of a config at once: each maturity's grid is one
block of a single tridiagonal system, so one march per grid size prices them
all, each block to the bits it gets alone.  A step is two LAPACK calls on
the stacked vector, through ctypes from the OpenBLAS numpy has loaded: dlagtm
forms the explicit half L c, and dgttrs solves the implicit half.  Where that
library lacks them, dgttrf and dgttrs come from scipy and numpy ufuncs form
L c in dlagtm's order, with the same bits.  `richardson_prices`,
`implied_smile_from_pde` and `atm_implied_vol_richardson` take a tuple of
maturities and give one result per maturity, equal to the one-maturity call;
each march is read at every strike of every maturity in one call.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError

from .bachelier import implied_vol_and_flag
from .models import LocalVolModel, MarketSetup


@dataclass(frozen=True)
class PdeSolution:
    """Call prices at maturity T on the strike grid, one per node, and the
    index of the node at S0, where the payoff has its kink and the only
    breakpoint of sigma_D inside the grid may sit."""
    strikes: np.ndarray
    T: float
    prices: np.ndarray  # shape (n_space,)
    s0_node: int
    meta: dict = field(default_factory=dict)

    def price_at_strikes(self, strikes: Sequence[float]) -> np.ndarray:
        """Prices at arbitrary strikes, nan off the grid: the one-row view of
        `_prices_at`."""
        return _prices_at(self.strikes[None], self.prices[None], [self.s0_node], strikes)[0]


def _prices_at(ks: np.ndarray, prices: np.ndarray, s0_nodes: Sequence[int],
               strikes: Sequence[float]) -> np.ndarray:
    """Prices at the 1-d `strikes` on each row of the (m, n) grids `ks`,
    (m, len(strikes)), nan off a row's grid.

    Cubic Lagrange interpolation through the 4 nodes around each strike,
    with the stencil kept on the strike's side of the row's S0 node; a strike
    on a node gets that node's price exactly.  Each weight is the product of
    its 3 factors in node order, and the price the sum of the 4 terms in node
    order, from 0.0.
    """
    n = ks.shape[1]
    k = np.asarray(strikes, dtype=float)
    on = (ks[:, :1] <= k) & (k <= ks[:, -1:])
    k = np.where(on, k, ks[:, :1])  # off the grid: priced at a node, then dropped
    j = np.minimum([np.searchsorted(row, x, side="right") for row, x in zip(ks, k)], n - 1) - 1
    # the stretch [a, b], either side of the S0 node, that holds [ks[j], ks[j+1]]
    j0 = np.asarray(s0_nodes)[:, None]
    a, b = np.where(j < j0, 0, j0), np.where(j < j0, j0, n - 1)
    # the stencil, a leading axis of 4 nodes; a stretch of fewer than 4 nodes
    # masks the rest: their factors are 1 and their terms 0, which changes no
    # sum that starts from 0.0 (a nan node keeps them quiet)
    nodes = np.maximum(a, np.minimum(j - 1, b - 3)) + np.arange(4)[:, None, None]
    real = nodes <= b
    at = np.arange(len(ks))[:, None], np.minimum(nodes, n - 1)
    x = np.where(real, ks[at], math.nan)
    others = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]  # of each node, in order
    xq = x[others]
    f = np.where(real[others], (k - xq) / (x[:, None] - xq), 1.0)
    terms = np.where(real, f[:, 0] * f[:, 1] * f[:, 2] * prices[at], 0.0)
    p = 0.0 + terms[0] + terms[1] + terms[2] + terms[3]
    return np.where(on, p, math.nan)


# the span of the `pde` rows and of `sqrt-t`, in stdevs sqrt(T) of the
# Lamperti distance y either side of S0, and their (nodes, steps) pair: the
# coarse march, then the fine one
SPAN_STDEVS = 5.0
RICHARDSON_PAIR = ((217, 32), (433, 64))
# a `richardson_prices` strike this many stdevs sqrt(T) of y from an end of
# the grid may be biased by it: 1.9e-6 at 4.5 stdevs from S0, 4.9e-8 at 4,
# and 2.8e-9 at 3.5 in the normal vol of the symmetric kink (0.008, 0.1) at
# T = 0.01
EDGE_STDEVS = 1.5
# and every strike may be, once the drift takes the forward path this close
# to an end: the ATM vol of a constant vol is 5.2e-8 off with the forward 2
# stdevs of y from an end, 1.1e-8 at 3 and 4.3e-9 at 3.5, at T = 1 and 0.01
FORWARD_EDGE_STDEVS = 3.5


class GridFailure(ValueError):
    """No PDE grid at maturity T can be marched; the error carries that T."""

    def __init__(self, message: str, T: float):
        super().__init__(message)
        self.T = T


class GridTooNarrow(GridFailure, ArithmeticError):
    """The grid's span or node spacing about S0 at maturity T rounds away (T
    too short for |S0|, or S0 at the edge of the positivity domain) or
    overflows: a numerical failure, and invalid input."""


# the pilot table's offsets from S0, in units of sigma_D(S0) sqrt(T), in
# ratios of e^0.2: from far inside a grid step out to far past where the
# bundled models' y reaches the span (e^10 stdevs for the fattest tail)
_PILOT_OFFSETS = np.exp(np.arange(-40, 201) / 5.0)
# the y step of the table that places the nodes, in units of sqrt(T): about
# half the fine `richardson_prices` grid's.  Half or twice this step moved no
# figure row's vol by more than 1.1e-10 or 1.8e-10
_TABLE_STEP = 0.01


def _lamperti_table(model: LocalVolModel, s0: float, T: float, width_stdevs: float,
                    ends: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Strikes K and their Lamperti distances y(K) = int_S0^K dk / sigma_D(k),
    the table that places the nodes of the grid at T: y in steps of
    _TABLE_STEP sqrt(T) out to 1.1 width_stdevs sqrt(T) either side of S0, its
    middle entry, or to `ends`, the domain ends a grid may reach, where y
    stays short of that (both ends: the table spans the longer side).

    A pilot table, its strikes geometric in their offset from S0 and from a
    finite end, finds the strikes at those y; the table is the trapezoid
    rule on the strikes so found, which lie as densely as the nodes.  Its
    accuracy enters no price: the march solves the forward equation in K on
    whatever nodes it is given.
    """
    with np.errstate(over="ignore"):
        x = (float(model.vol(s0)) * math.sqrt(T)) * _PILOT_OFFSETS
    x = x[np.isfinite(x)]
    left, right = (x / (1.0 + x / abs(end - s0)) for end in ends)
    pilot = np.concatenate([s0 - left[::-1], [s0], s0 + right])
    y = _trapezoid_y(model, T, pilot, left.size)
    half = math.ceil(1.1 * width_stdevs / _TABLE_STEP)
    reach = min(1.1 * width_stdevs * math.sqrt(T), max(-y[0], y[-1]))
    ks = np.interp(reach / half * np.arange(-half, half + 1.0), y, pilot)
    return ks, _trapezoid_y(model, T, ks, half)


def _trapezoid_y(model: LocalVolModel, T: float, ks: np.ndarray, s0_index: int
                 ) -> np.ndarray:
    """int_S0^K dk / sigma_D(k) at the sorted `ks` by the trapezoid rule, 0 at
    ks[s0_index] = S0; GridFailure at T unless sigma_D is positive at each."""
    sig = model.vol(ks)
    if not (sig > 0.0).all():
        raise GridFailure("sigma_D not finite and positive on the whole grid", T)
    inv = 1.0 / sig
    dy = 0.5 * np.diff(ks) * (inv[:-1] + inv[1:])
    # summed outwards from S0 (s0_index > 0), so that a far end's |y| does
    # not round away the steps near S0
    left, right = np.cumsum(dy[s0_index - 1::-1]), np.cumsum(dy[s0_index:])
    return np.concatenate([-left[::-1], [0.0], right])


def _build_strike_grid(model: LocalVolModel, setup: MarketSetup, T: float,
                       n_space: int, width_stdevs: float, stride: int = 1
                       ) -> tuple[np.ndarray, int, tuple[bool, bool], float]:
    """Grid uniform in the Lamperti distance y = int_S0^K dk / sigma_D(k),
    spanning width_stdevs stdevs sqrt(T) of y either side of S0, with S0 on
    a node whose index is a multiple of `stride`: its every stride-th node
    is the grid of (n_space - 1) / stride + 1 nodes.

    A finite end of the positivity domain where y stays finite, as at a
    tabulated model's last sample, clips the span; where sigma_D falls to 0
    at the end, y runs to infinity and the span stays inside.  An S0 outside
    that domain is refused, and so is a breakpoint of sigma_D inside the
    grid but off S0: the stencil would smear its kink.

    Returns the nodes, the index of the node at S0, whether the domain moved
    the left and right ends inwards, and the y step.
    """
    if n_space < 51:
        raise ValueError("need at least 51 space nodes")
    s0 = setup.S0
    if not model.in_domain(s0):
        raise ValueError(f"S0 = {s0!r} lies outside the positivity domain "
                         f"{model.positivity_domain} of the model")
    s0_vol = float(model.vol(s0))
    if not math.isfinite(2.0 * width_stdevs * s0_vol * math.sqrt(T)):
        raise GridTooNarrow(f"the span about S0 = {s0!r} is not finite: sigma_D(S0) = "
                            f"{s0_vol!r} at T = {T!r}", T)
    narrow = GridTooNarrow(f"K_min must be below K_max: the span about S0 = {s0!r} at T = "
                           f"{T!r}, inside the domain {model.positivity_domain}, rounds away", T)
    # where the grid may reach: inside each finite end by a rounding margin
    lo, hi = model.positivity_domain
    eps = 1e-12 * max(1.0, abs(s0))
    ends = (lo + max(eps, 1e-9 * (s0 - lo)) if math.isfinite(lo) else lo,
            hi - max(eps, 1e-9 * (hi - s0)) if math.isfinite(hi) else hi)
    if not ends[0] < s0 < ends[1]:
        raise narrow
    k_tab, y_tab = _lamperti_table(model, s0, T, width_stdevs, ends)
    want = width_stdevs * math.sqrt(T)
    y_min, y_max = max(-want, float(y_tab[0])), min(want, float(y_tab[-1]))
    clipped = (bool(y_min != -want), bool(y_max != want))
    k_min, k_max = np.interp([y_min, y_max], y_tab, k_tab)
    if k_min >= k_max:
        raise narrow
    dy = (y_max - y_min) / (n_space - 1)
    # put y = 0 on a node, at a multiple of stride, never out through a
    # clipped end: move the grid inwards from one, shrink dy between two
    offset = -y_min / dy
    if all(clipped):
        j = stride * min(max(round(offset / stride), 1), (n_space - 1) // stride - 1)
        dy *= min(offset / j, (n_space - 1 - offset) / (n_space - 1 - j))
    else:
        nearest = math.floor if clipped[0] else math.ceil if clipped[1] else round
        j = stride * nearest(offset / stride)
    ks = np.interp(dy * np.arange(-j, n_space - j), y_tab, k_tab)
    ks[j] = s0
    if not np.all(ks[1:] > ks[:-1]):
        raise GridTooNarrow(f"the node spacing {s0_vol * dy!r} rounds away at S0 = {s0!r}, "
                            f"T = {T!r}", T)
    for bp in model.breakpoints:
        if ks[0] < bp < ks[-1] and abs(bp - s0) > 1e-14:
            raise ValueError(f"sigma_D has a breakpoint at {bp!r}, inside the PDE grid "
                             f"but off S0 = {s0!r}; only a breakpoint at S0 sits on a node")
    return ks, j, clipped, dy


# numpy's OpenBLAS exports LAPACK with 64-bit integers under these names
_OPENBLAS_SYMBOLS = ("scipy_dgttrf_64_", "scipy_dgttrs_64_", "scipy_dlagtm_64_")


@functools.cache
def _openblas_lapack() -> tuple | None:
    """dgttrf, dgttrs and dlagtm from the OpenBLAS that numpy has already
    loaded, or None where that library lacks them (numpy 1.x, Accelerate or
    MKL builds, Windows)."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        routines = tuple(getattr(lib, name) for name in _OPENBLAS_SYMBOLS)
    except (AttributeError, OSError):
        return None
    for routine in routines:
        routine.restype = None
    return routines


class _Tridiagonal:
    """One n x n tridiagonal system, held for a whole march: its float64 sub-,
    main and super-diagonals dl, d, du, which the march fills in place through
    `blocks`, the right-hand side b, and dgttrf's pivot storage du2, ipiv;
    and a second tridiagonal matrix L, the explicit operator, with diagonals
    l_dl, l_d, l_du and the product lb = L b.

    The LAPACK routines come through ctypes from the OpenBLAS that numpy has
    already loaded (source "numpy-openblas"): dgttrf and dgttrs factor and
    solve, and dlagtm (alpha 1, beta 0) forms L b, so the PDE imports no
    scipy.  Where `_openblas_lapack` finds none, dgttrf and dgttrs come from
    scipy.linalg.lapack (source "scipy"), which has no dlagtm, and numpy
    ufuncs sum L b in dlagtm's order.  Both give the same bits, but where a
    row's three products are all -0.0: dlagtm adds them to +0.0.
    """

    def __init__(self, n: int):
        # the sub- and super-diagonals are views of buffers one longer, which
        # `blocks` reshapes; L and lb start at zero
        self._dl, self.d, self._du, self.b = (np.empty(n) for _ in range(4))
        self.dl, self.du = self._dl[:-1], self._du[:-1]
        self._l_dl, self.l_d, self._l_du, self.lb = np.zeros((4, n))
        self.l_dl, self.l_du = self._l_dl[:-1], self._l_du[:-1]
        self.du2, self.ipiv = np.empty(n - 2), np.empty(n, dtype=np.int64)
        lapack = _openblas_lapack()
        if lapack is None:
            from scipy.linalg.lapack import dgttrf, dgttrs
            self.source, self._gttrf, self._gttrs = "scipy", dgttrf, dgttrs
            self._tmp = np.empty(n - 1)
            return
        self.source = "numpy-openblas"
        # Fortran ABI: every argument by reference, then the hidden length of
        # TRANS.  The pointers into this object's buffers are formed here, once,
        # and passed as they are; declaring argtypes would convert all 12 on
        # every dgttrs call, +2 us on a 15 us solve of 801 nodes.
        self._info = ctypes.c_int64()
        size, info = ctypes.byref(ctypes.c_int64(n)), ctypes.byref(self._info)
        one, trans = ctypes.byref(ctypes.c_int64(1)), ctypes.byref(ctypes.c_char(b"N"))
        *lu, b, l_dl, l_d, l_du, lb = (
            ctypes.byref(ctypes.c_char.from_buffer(a))
            for a in (self.dl, self.d, self.du, self.du2, self.ipiv, self.b,
                      self.l_dl, self.l_d, self.l_du, self.lb))
        gttrf, gttrs, lagtm = lapack
        self._gttrf = functools.partial(gttrf, size, *lu, info)
        self._gttrs = functools.partial(gttrs, trans, size, one, *lu, b, size, info,
                                        ctypes.c_size_t(1))
        # lb := 1.0 L b + 0.0 lb
        self._lagtm = functools.partial(
            lagtm, trans, size, one, ctypes.byref(ctypes.c_double(1.0)), l_dl, l_d, l_du,
            b, size, ctypes.byref(ctypes.c_double(0.0)), lb, size, ctypes.c_size_t(1))

    def blocks(self, m: int) -> tuple[np.ndarray, ...]:
        """dl, d, du, b, l_dl, l_d and l_du as (m, n / m) views, one row per
        block of n / m rows: d[j, i] and b[j, i] are those of row i of block
        j, du[j, i] couples it to the row after, and dl[j, i] couples the row
        after it to it; likewise for L.  The last entries of dl[-1], du[-1],
        l_dl[-1] and l_du[-1] lie past the system."""
        return tuple(a.reshape(m, -1) for a in (self._dl, self.d, self._du, self.b,
                                                self._l_dl, self.l_d, self._l_du))

    def factor(self) -> None:
        """Overwrite dl, d, du, du2 and ipiv with dgttrf's LU of the matrix;
        LinAlgError if it is singular."""
        if self.source == "scipy":
            # f2py factors the float64 diagonals in place; the pivots come back new
            *_, self.du2, self.ipiv, info = self._gttrf(
                self.dl, self.d, self.du, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        else:
            self._gttrf()
            info = self._info.value
        if info > 0:
            raise LinAlgError("singular matrix")

    def solve(self) -> None:
        """Overwrite b with the solution of the factored system."""
        if self.source == "scipy":
            self._gttrs(self.dl, self.d, self.du, self.du2, self.ipiv, self.b, overwrite_b=1)
        else:
            self._gttrs()

    def multiply(self) -> None:
        """Overwrite lb with L b."""
        if self.source == "scipy":
            # dlagtm sums (l_dl b[i-1] + l_d b[i]) + l_du b[i+1]; the first
            # sum commutes
            lb, b, tmp = self.lb, self.b, self._tmp
            np.multiply(self.l_d, b, out=lb)
            np.multiply(self.l_dl, b[:-1], out=tmp)
            np.add(lb[1:], tmp, out=lb[1:])
            np.multiply(self.l_du, b[1:], out=tmp)
            np.add(lb[:-1], tmp, out=lb[:-1])
        else:
            self._lagtm()


def _schedule(maturities: Sequence[float], n_steps: int) -> tuple[np.ndarray, ...]:
    """(t0, t1, h) of every (half-)step, one row per maturity T, and the
    theta of each step, in steps of T / n_steps: two Rannacher (implicit)
    steps, each in two halves, damp the payoff kink; Crank-Nicolson after
    them."""
    T = np.array(maturities, dtype=float)[:, None]
    dt = T / n_steps
    r = min(2, n_steps)
    # np.linspace(0, T, n_steps + 1): i dt, and T itself at the end
    times = np.arange(n_steps + 1.0) * dt
    times[:, -1:] = T
    t0, t1, h = np.empty((3, len(T), n_steps + r))
    t0[:, :2 * r:2] = times[:, :r]
    t0[:, 1:2 * r:2] = 0.5 * (times[:, :r] + times[:, 1:r + 1])
    t0[:, 2 * r:] = times[:, r:-1]
    t1[:, :-1], t1[:, -1:] = t0[:, 1:], T
    h[:, :2 * r], h[:, 2 * r:] = 0.5 * dt, dt
    return t0, t1, h, np.where(np.arange(n_steps + r) < 2 * r, 1.0, 0.5)


def march(model: LocalVolModel, setup: MarketSetup, maturities: Sequence[float],
          n_space: int = 1601, n_steps: int = 64, width_stdevs: float = 10.0
          ) -> tuple[PdeSolution, ...]:
    """Evolve call prices to each of `maturities` in n_steps equal steps, one
    PdeSolution per maturity, in the order given.

    Each grid has n_space nodes, uniform in the Lamperti distance y over
    width_stdevs stdevs sqrt(T) of y either side of S0 (`_build_strike_grid`),
    with S0 on a node: `meta["dy"]` is its y step, and `meta["clipped"]`
    says whether a domain end where y stays finite cut either end.  The
    span does not depend on the drift; an S0 outside the domain raises
    ValueError, a T too short for n_space distinct nodes GridTooNarrow, and
    a grid on which sigma_D^2 is not finite and positive GridFailure, each
    naming the first T that fails.  The first two steps are each taken as
    two implicit half-steps, the rest by Crank-Nicolson.

    Every grid is one block of n_space rows of one held tridiagonal system,
    factored again only when some block's operator changes.  A block's first
    and last rows are Dirichlet rows without couplings, so dgttrf's multiplier
    at each block edge is 0 and every block factors and solves to the bits it
    gets alone (`solve_forward`).  The `pde` rows and `sqrt-t` fix the sizes
    via `richardson_prices`.  `meta["lapack"]` names where the system's
    LAPACK came from.
    """
    grids = [_build_strike_grid(model, setup, T, n_space, width_stdevs) for T in maturities]
    ks, prices, source = _march(model, setup, maturities, grids, n_steps)
    return tuple(
        PdeSolution(strikes=ks[i], T=T, prices=prices[i], s0_node=s0_node,
                    meta={"dy": dy, "n_steps": n_steps, "clipped": clipped,
                          "lapack": source})
        for i, (T, (_, s0_node, clipped, dy)) in enumerate(zip(maturities, grids)))


def _march(model: LocalVolModel, setup: MarketSetup, maturities: Sequence[float],
           grids: Sequence[tuple], n_steps: int) -> tuple[np.ndarray, np.ndarray, str]:
    """`march` on the `_build_strike_grid` grids of `maturities`: the (m, n)
    nodes and prices, and where the system's LAPACK came from."""
    m = len(grids)
    ks = np.array([g[0] for g in grids])
    with np.errstate(over="ignore"):  # the check below refuses an overflow
        sig2 = model.vol(ks) ** 2
    bad = ~np.all(np.isfinite(sig2) & (sig2 > 0.0), axis=1)
    if bad.any():  # the first maturity whose grid fails
        raise GridFailure("sigma_D not finite and positive on the whole grid",
                          maturities[int(bad.argmax())])

    # the three-point stencil of each interior row on its spacings h-, h+:
    # C_KK by 2 (C[i-1]/(h- s) - C[i]/(h- h+) + C[i+1]/(h+ s)), s = h- + h+,
    # and C_K by (-h+ C[i-1]/(h- s) + (h+ - h-) C[i]/(h- h+) + h- C[i+1]/(h+ s))
    dk = np.diff(ks, axis=1)
    h_lo, h_hi = dk[:, :-1], dk[:, 1:]
    g_lo, g_hi = 1.0 / (h_lo * (h_lo + h_hi)), 1.0 / (h_hi * (h_lo + h_hi))
    diff_lo, diff_hi = sig2[:, 1:-1] * g_lo, sig2[:, 1:-1] * g_hi
    adv_lo, adv_hi = h_hi * g_lo, h_lo * g_hi
    # the held system: its diagonals are those of I - theta h L, refilled in
    # place and factored again only when (h, theta, drift) changes: twice for
    # a constant drift, every (half-)step for mu1 != 0.  Each step builds the
    # right-hand side in its b, the prices, and solves there.  Interior rows
    # of L C = 1/2 sigma_D^2 C_KK - mu C_K, the diagonal the negated sum of
    # the off-diagonals, so L takes a constant to 0.  The system holds w L,
    # each block's L weighted by its explicit weight w = (1 - theta) h once
    # the implicit half is built; L's Dirichlet rows stay 0, so the explicit
    # half runs over the stacked vector at once
    system = _Tridiagonal(m * ks.shape[1])
    dl, d, du, c, l_dl, l_d, l_du = system.blocks(m)
    b, lb = system.b, system.lb
    np.maximum(setup.S0 - ks, 0.0, out=c)
    # the (half-)steps: a row per block, a column per step, theta shared
    t0, t1, h, theta = _schedule(maturities, n_steps)
    mu = setup.drift(0.5 * (t0 + t1))
    itm = (setup.forward(t1) - ks[:, :1]).T.copy()    # deep ITM C = F(t1) - K, a row per step
    changes = np.any((h[:, 1:] != h[:, :-1]) | (mu[:, 1:] != mu[:, :-1]), axis=0)
    changes |= theta[1:] != theta[:-1]
    explicit = (theta < 1.0).tolist()
    for k, change in enumerate((True, *changes.tolist())):
        if change:
            th, hk = float(theta[k]), h[:, k:k + 1]
            np.multiply(adv_lo, mu[:, k:k + 1], out=l_dl[:, :-2])       # C[i-1]
            np.add(diff_lo, l_dl[:, :-2], out=l_dl[:, :-2])
            np.multiply(adv_hi, mu[:, k:k + 1], out=l_du[:, 1:-1])      # C[i+1]
            np.subtract(diff_hi, l_du[:, 1:-1], out=l_du[:, 1:-1])
            np.add(l_dl[:, :-2], l_du[:, 1:-1], out=l_d[:, 1:-1])
            np.negative(l_d[:, 1:-1], out=l_d[:, 1:-1])
            # Dirichlet rows stay identity rows, coupled to no other block
            d[:, 0] = d[:, -1] = 1.0
            np.multiply(l_d[:, 1:-1], th * hk, out=d[:, 1:-1])
            np.subtract(1.0, d[:, 1:-1], out=d[:, 1:-1])
            du[:, 0] = du[:, -1] = dl[:, -2] = dl[:, -1] = 0.0
            np.multiply(l_du[:, 1:-1], -th * hk, out=du[:, 1:-1])
            np.multiply(l_dl[:, :-2], -th * hk, out=dl[:, :-2])
            system.factor()
            for row in (l_dl[:, :-2], l_d[:, 1:-1], l_du[:, 1:-1]):
                np.multiply(row, (1.0 - th) * hk, out=row)
        # (I - theta h L) c_new = (I + (1-theta) h L) c_old, summed in the
        # order c + ((w l_dl)*c[i-1] + (w l_d)*c[i]) + (w l_du)*c[i+1]
        if explicit[k]:
            system.multiply()
            np.add(b, lb, out=b)
        # Dirichlet boundaries: deep ITM, and far OTM, where C = +0 stays
        # from the payoff (a zero row of L, an identity row of the system)
        c[:, 0] = itm[k]
        system.solve()
    return ks, c, system.source


def solve_forward(model: LocalVolModel, setup: MarketSetup, T: float,
                  n_space: int = 1601, n_steps: int = 64,
                  width_stdevs: float = 10.0) -> PdeSolution:
    """Call prices at maturity T: the one-maturity view of `march`."""
    return march(model, setup, (T,), n_space, n_steps, width_stdevs)[0]


class ForwardOffGrid(ValueError):
    """The forward at T lies off the strike grid, which is centred on S0, or
    (for `atm_implied_vol_richardson`) where an end of the grid may bias its
    price."""


def richardson_prices(model: LocalVolModel, setup: MarketSetup,
                      maturities: tuple[float, ...], strikes: Sequence[float]
                      ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Call prices at the requested strikes, nan off the grid, one array per
    maturity, and per maturity the mask of the strikes whose price an end of
    the grid may bias: those within EDGE_STDEVS stdevs of y of either end,
    and every strike where the forward path F(t), 0 <= t <= T, comes within
    FORWARD_EDGE_STDEVS of an end or a domain end clipped the grid, cutting
    off the probability past it.

    Two marches over SPAN_STDEVS stdevs of y, whatever T: RICHARDSON_PAIR's
    coarse grid in its steps, and the fine grid, every other node of which
    is a coarse node, in twice as many.  The error is about a dy^2 + b dt^2;
    halving dy and dt together divides both terms by 4, so (4 fine - coarse)
    / 3 cancels both.  A forward off the grid raises ForwardOffGrid before
    either march, and each march is read at every strike in one call.
    """
    (_, coarse_steps), (n_fine, fine_steps) = RICHARDSON_PAIR
    fine = [_build_strike_grid(model, setup, T, n_fine, SPAN_STDEVS, stride=2)
            for T in maturities]
    for T, (ks, *_) in zip(maturities, fine):
        F = setup.forward(T)
        if not ks[0] <= F <= ks[-1]:
            raise ForwardOffGrid(f"the drifted forward {F:.6g} at T = {T} lies off "
                                 f"the PDE grid [{ks[0]:.6g}, {ks[-1]:.6g}] around S0")
    coarse = [(ks[::2], j0 // 2, clipped, 2.0 * dy) for ks, j0, clipped, dy in fine]
    prices = []
    for grids, n_steps in ((coarse, coarse_steps), (fine, fine_steps)):
        ks, c, _ = _march(model, setup, maturities, grids, n_steps)
        prices.append(_prices_at(ks, c, [g[1] for g in grids], strikes))
    coarse_prices, fine_prices = prices
    # the forward path F(t), 0 <= t <= T, at each fine step: its lowest and highest
    paths = setup.forward(np.multiply.outer(maturities, np.linspace(0.0, 1.0, fine_steps + 1)))
    biased = []
    for T, lo, hi, (ks, _, clipped, dy) in zip(maturities, paths.min(axis=1),
                                               paths.max(axis=1), fine):
        # each strike's y, and the path's, measured from the grid's first
        # node; a path off the grid reads as an end
        y = np.interp(np.append(strikes, (lo, hi)), ks, dy * np.arange(n_fine))
        end = dy * (n_fine - 1)
        edge, far = EDGE_STDEVS * math.sqrt(T), FORWARD_EDGE_STDEVS * math.sqrt(T)
        whole = any(clipped) or y[-2] < far or y[-1] > end - far
        biased.append(whole | (y[:-2] < edge) | (y[:-2] > end - edge))
    return tuple((4.0 * fine_prices - coarse_prices) / 3.0), tuple(biased)


def implied_smile_from_pde(model: LocalVolModel, setup: MarketSetup,
                           maturities: tuple[float, ...], strikes: Sequence[float]
                           ) -> tuple[list[tuple[float, str]], ...]:
    """(sigma_N, flag) per strike, one list per maturity T, the `pde` rows of
    `nvol smile`: the `richardson_prices` mapped by `implied_vol_and_flag`,
    and ok rows low_confidence where an end of the grid may bias the price
    or far (> 6 sigma_ATM sqrt(T)) from the forward.
    """
    forwards = [setup.forward(t) for t in maturities]
    wanted = np.asarray(strikes, dtype=float)
    # every maturity's prices come at every forward; each reads its own
    prices, biased = richardson_prices(model, setup, maturities, np.append(wanted, forwards))
    smiles = []
    for i, (t, F, p) in enumerate(zip(maturities, forwards, prices)):
        atm = float(p[wanted.size + i])
        band = 6.0 * implied_vol_and_flag(atm, F, F, t)[0] * math.sqrt(t)
        smile = []
        for k, price, doubt in zip(wanted.tolist(), p[:wanted.size].tolist(),
                                   biased[i].tolist()):
            vol, flag = implied_vol_and_flag(price, F, k, t)
            # an ATM price without time value has no vol, and its band (nan) holds no strike
            if flag == "ok" and (doubt or not abs(k - F) <= band):
                flag = "low_confidence"
            smile.append((vol, flag))
        smiles.append(smile)
    return tuple(smiles)


def atm_implied_vol(sol: PdeSolution, setup: MarketSetup) -> float:
    """Implied normal vol at K = F(sol.T), the price interpolated in strike by
    `PdeSolution.price_at_strikes` and mapped by `implied_vol_and_flag`:
    nan for a forward off the grid or a price without time value."""
    T = sol.T
    F = setup.forward(T)
    return implied_vol_and_flag(float(sol.price_at_strikes([F])[0]), F, F, T)[0]


def atm_implied_vol_richardson(model: LocalVolModel, setup: MarketSetup,
                               maturities: tuple[float, ...]) -> tuple[float, ...]:
    """ATM implied normal vol at each T, the `richardson_prices` price
    inverted once: +4.1e-10 to +4.3e-10 from the closed forms of
    configs/sqrtt_*.ini at each T in 1/256..1/4 (16/32 steps leave +2.5e-9,
    64/128 steps +2.5e-10).  A forward whose price an end of the grid may
    bias, as one the drift moves more than SPAN_STDEVS - FORWARD_EDGE_STDEVS
    stdevs of y from S0, raises ForwardOffGrid naming the first such T:
    these vols carry no flag."""
    forwards = [setup.forward(t) for t in maturities]
    prices, biased = richardson_prices(model, setup, maturities, forwards)
    for i, (t, F) in enumerate(zip(maturities, forwards)):
        if biased[i][i]:
            raise ForwardOffGrid(f"the forward {F:.6g} at T = {t} lies where an end of the "
                                 f"PDE grid may bias its price: its path comes within "
                                 f"{FORWARD_EDGE_STDEVS} stdevs of y of an end, or a domain "
                                 f"end cut the grid")
    return tuple(implied_vol_and_flag(float(p[i]), F, F, t)[0]
                 for i, (t, F, p) in enumerate(zip(maturities, forwards, prices)))


def extract_local_vol(surface, setup: MarketSetup, K: float, T: float,
                      dT: float | None = None) -> float:
    """Invert the forward equation for sigma_D(K, T) from a vol surface.

    `surface` maps (K, T) -> sigmaN.  Central differences in strike (step
    max(1e-4 |F|, 5e-3 sigmaN sqrt(T))), forward difference in maturity.  Raises
    ValueError on a non-positive denominator (the arbitrage-like regime where
    the inversion is singular) and on a local vol that is not finite.
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
    vol = math.sqrt(num / den)
    if not math.isfinite(vol):
        raise ValueError(f"the local vol {vol!r} is not finite")
    return vol
