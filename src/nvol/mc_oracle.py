"""Euler-Maruyama Monte-Carlo oracle for dS = sigma_D(S) dW + mu(t) dt.

Deliberately independent of the PDE machinery: explicit path simulation with
normals drawn by numpy's seeded PCG64 generator (`standard_normal`), so a
seed gives the same bits on every run with a given numpy version; numpy
does not promise that stream across versions.  Euler rather than Milstein
because the kinked models have no well-defined sigma_D' at the breakpoint.

Every draw drives three paths at once:

- the fine march, in n steps of dt;
- the coarse march, in n/2 steps of 2 dt, each driven by the sum z1 + z2
  of two consecutive fine draws (its Brownian increment, sqrt(dt) (z1 + z2));
- the Bachelier shadow B = S0 + sigma_D(S0) sqrt(dt) sum(z)
  + sum(mu(t_mid) dt), a normal variable whose call price is known exactly.

A call is priced from Y = 2 (S_fine - K)+ - (S_coarse - K)+, the
Talay-Tubaro extrapolation that cancels the O(dt) weak error of Euler, with
X = (B - K)+ as a control variate: price = mean(Y) - beta (mean(X) - E[X]),
beta the regression slope of Y on X over the same samples.  The shadow is
the small-time limit of the path, so it absorbs most of the payoff's
variance; `std_error` is the standard error of this estimator, over the
pair averages of Y - beta X.  An array of strikes is priced in one pass
over a (strikes, pairs) layout, each row equal to the one-strike call.
The default 4096 paths give every row of the `mc_exact` benchmark a
smaller standard error than the plain mean of the fine payoff had at 1e5
paths, and without the extrapolation the control would expose Euler's
bias: two of those rows would sit 8-9 standard errors off their closed
forms at 1e5 paths.

On a model whose positivity domain is bounded, each Euler step evaluates
the vol on levels clamped to the domain, and keeps every path's running
minimum and maximum over both marches; the exit count `n_boundary_hits`
is the number of paths whose extremes ever left the domain.

A maturity T is marched in n = 2 ceil(T * steps_per_year / 2) steps of
dt = T / n (n is even, so the coarse march takes whole steps; more than
MAX_STEPS is refused before any march), and every
march starts the generator afresh from the seed, so the march to a shorter
maturity with the same float dt is a bit-for-bit prefix of the march to a
longer one (with 200 steps a year, T = 0.25, 0.3, 0.5 and 1.0 all step by
0.005).  `mc_call` given several maturities runs one march per distinct dt,
to the longest of them, and prices each maturity when the march passes its
step count; every result equals that of a call with the one maturity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .bachelier import NormalQuote, bachelier_call
from .models import LocalVolModel, MarketSetup

# the most Euler steps one march may take: about 5000 years at the default
# 200 steps a year
MAX_STEPS = 10**6
# the most paths one march may take: each of its ~9 path arrays is then 32 MB
MAX_PATHS = 2**22


@dataclass(frozen=True)
class McSpec:
    n_paths: int = 4096
    steps_per_year: int = 200
    seed: int = 0

    def __post_init__(self):
        # the second half of the paths mirrors the first: its draws are negated
        if self.n_paths < 2 or self.n_paths % 2:
            raise ValueError("n_paths must be even and >= 2")
        if self.n_paths > MAX_PATHS:
            raise ValueError(f"n_paths must be at most MAX_PATHS = {MAX_PATHS}")
        if self.steps_per_year < 1:
            raise ValueError("steps_per_year must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def steps(self, T: float) -> int:
        """The even step count n = 2 ceil(T steps_per_year / 2) of a march to
        T; ValueError where it exceeds MAX_STEPS."""
        half = T * self.steps_per_year / 2
        if not half <= MAX_STEPS // 2:
            raise ValueError(f"T = {T!r} at {self.steps_per_year} steps a year needs more "
                             f"than {MAX_STEPS} Euler steps in one march")
        return 2 * max(1, math.ceil(half))


class McResult(NamedTuple):
    price: float | np.ndarray  # an array when mc_call was given an array of strikes
    std_error: float | np.ndarray
    n_boundary_hits: int  # paths that ever left the positivity domain


class _Paths(NamedTuple):
    """Terminal levels of one march at one step count (the march's own buffers)."""

    fine: np.ndarray
    coarse: np.ndarray
    shadow: np.ndarray
    shadow_forward: float  # the shadow is normal: this mean, shadow_vol**2 * T variance
    shadow_vol: float
    T: float
    n_hits: int  # paths that left the positivity domain in either march


def _march(model: LocalVolModel, setup: MarketSetup, dt: float, stops: Sequence[int],
           spec: McSpec) -> Iterator[tuple[int, _Paths]]:
    """Seeded fine, coarse and shadow march in steps of dt; yields (n, paths)
    after each (even) step count n in `stops`, ending at the largest.

    The arrays are the march's own buffers: read them before asking for the
    next stop.  The local vol is evaluated on levels clamped to the
    positivity domain (vol frozen at the boundary value for excursions
    beyond it); the exit count, read from the running extremes at each
    stop, reports how many paths ever needed the clamp.
    """
    sqdt = math.sqrt(dt)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n_draw = spec.n_paths // 2

    lo, hi = model.positivity_domain
    bounded = math.isfinite(lo) or math.isfinite(hi)
    scale = max(1.0, abs(setup.S0),
                abs(lo) if math.isfinite(lo) else 0.0,
                abs(hi) if math.isfinite(hi) else 0.0)
    pad = 1e-12 * scale
    lo_c = lo + pad if math.isfinite(lo) else lo
    hi_c = hi - pad if math.isfinite(hi) else hi

    fine = np.full(spec.n_paths, setup.S0)
    coarse = np.full(spec.n_paths, setup.S0)
    shadow = np.empty(spec.n_paths)
    z = np.empty(spec.n_paths)
    z_pair = np.empty(spec.n_paths)  # z1 + z2 of the coarse step
    z_sum = np.zeros(spec.n_paths)
    dS = np.empty(spec.n_paths)
    if bounded:
        # per-path running extremes over both marches, so a stop reads which
        # paths ever left the domain
        low = np.full(spec.n_paths, setup.S0)
        high = np.full(spec.n_paths, setup.S0)

    # a march that explodes overflows to inf and then nan; the callers see the
    # non-finite price and flag its rows
    @np.errstate(over="ignore", invalid="ignore")
    def euler(S, dW, drift_dt):
        """S + vol*sqdt*dW + drift_dt in place, in that operand order; returns vol."""
        if bounded:
            # fmin/fmax skip a nan level, as the comparisons < and > would
            np.fmin(low, S, out=low)
            np.fmax(high, S, out=high)
            # dS holds the clamped levels until the vol is evaluated on them
            np.maximum(S, lo_c, out=dS)
            vol = model.vol(np.minimum(dS, hi_c, out=dS))
        else:
            vol = model.vol(S)
        np.multiply(vol, sqdt, out=dS)
        np.multiply(dS, dW, out=dS)
        np.add(S, dS, out=S)
        np.add(S, drift_dt, out=S)
        return vol

    n_hits = 0
    drift_sum = 0.0
    pending = sorted(set(stops), reverse=True)
    for k in range(pending[0]):
        rng.standard_normal(out=z[:n_draw])
        np.negative(z[:n_draw], out=z[n_draw:])
        np.add(z_sum, z, out=z_sum)
        drift_dt = setup.drift((k + 0.5) * dt) * dt
        drift_sum += drift_dt
        vol = euler(fine, z, drift_dt)
        if k == 0:
            # every path starts at S0: the shadow's vol is sigma_D(S0)
            shadow_vol = float(vol[0])
        if k % 2 == 0:
            np.copyto(z_pair, z)
            continue
        np.add(z_pair, z, out=z_pair)
        euler(coarse, z_pair, setup.drift(k * dt) * (2.0 * dt))
        if k + 1 == pending[-1]:
            n = pending.pop()
            np.multiply(z_sum, shadow_vol * sqdt, out=shadow)
            np.add(shadow, setup.S0, out=shadow)
            np.add(shadow, drift_sum, out=shadow)
            if bounded:
                n_hits = int(np.count_nonzero((low < lo_c) | (high > hi_c)))
            yield n, _Paths(fine, coarse, shadow, setup.S0 + drift_sum, shadow_vol,
                            n * dt, n_hits)


def _price(p: _Paths, K: float | np.ndarray) -> McResult:
    """Price and standard error of the call payoff (S_T - K)+ over mirrored
    pairs, for every strike at once: one row of pair averages per strike.

    Unless some shadow pair straddles a strike, the control's pair averages
    on its row all take one value (0, or the shadow's forward less K), so it
    carries no information and its slope is 0; one pair gives no spread to
    estimate, so its standard error is nan.
    """
    strikes = np.asarray(K, dtype=float).reshape(-1)
    Ks = strikes[:, None]
    half = p.fine.size // 2
    y = 2.0 * np.maximum(p.fine - Ks, 0.0) - np.maximum(p.coarse - Ks, 0.0)
    y = 0.5 * (y[:, :half] + y[:, half:])
    x = np.maximum(p.shadow - Ks, 0.0)
    x = 0.5 * (x[:, :half] + x[:, half:])
    y_mean = y.mean(axis=1)
    x_mean = x.mean(axis=1)
    beta = np.zeros(strikes.size)
    if half > 1:
        straddles = ((p.shadow[:half] > Ks) != (p.shadow[half:] > Ks)).any(axis=1)
        # one dot per row: a batched product would sum in another order
        for i in np.flatnonzero(straddles):
            dx = x[i] - x_mean[i]
            beta[i] = np.dot(dx, y[i] - y_mean[i]) / np.dot(dx, dx)
    exact = np.array([bachelier_call(NormalQuote(F=p.shadow_forward, K=k, T=p.T,
                                                 sigmaN=p.shadow_vol))
                      for k in strikes.tolist()])
    price = y_mean - beta * (x_mean - exact)
    if half > 1:
        se = (y - beta[:, None] * x).std(axis=1, ddof=1) / math.sqrt(half)
    else:
        se = np.full(strikes.size, math.nan)
    if np.ndim(K) == 0:
        return McResult(price=float(price[0]), std_error=float(se[0]),
                        n_boundary_hits=p.n_hits)
    return McResult(price=price, std_error=se, n_boundary_hits=p.n_hits)


def mc_call(model: LocalVolModel, setup: MarketSetup, K: float | np.ndarray,
            T: float | tuple[float, ...], spec: McSpec = McSpec()
            ) -> McResult | tuple[McResult, ...]:
    """Monte-Carlo call price E[(S_T - K)+] with standard error.

    The price is the extrapolated, control-variate estimator of the module
    docstring.  Every path is paired with the path of the negated draws, and
    the standard error is that of the estimator, computed over pair averages
    of Y - beta X.  A 1-d array of strikes is priced on one path set, in
    one pass, and gives price and std_error arrays equal to the one-strike
    calls.  A tuple of maturities gives a tuple of results, one per
    maturity, each equal to the one-maturity call; maturities that share
    a step size share one march.
    """
    maturities = (T,) if np.ndim(T) == 0 else tuple(T)
    # maturity indices by step count, grouped by the exact float step size
    groups: dict[float, dict[int, list[int]]] = {}
    for i, t in enumerate(maturities):
        n = spec.steps(t)
        groups.setdefault(t / n, {}).setdefault(n, []).append(i)
    results: list[McResult] = [None] * len(maturities)
    for dt, by_n in groups.items():
        for n, paths in _march(model, setup, dt, tuple(by_n), spec):
            res = _price(paths, K)
            for i in by_n[n]:
                results[i] = res
    return results[0] if np.ndim(T) == 0 else tuple(results)
