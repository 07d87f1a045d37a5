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
the vol on levels clamped to the domain's finite sides, and keeps every
path's running minimum (maximum) over both marches where the domain has a
finite lower (upper) end; the exit count `n_boundary_hits` is the number of
paths whose extremes ever left the domain.  The drift is added only where
mu0 or mu1 is nonzero.

The normals are drawn one block of up to 16 steps ahead (at most 256 KB of
draws, and at least one step) on a helper thread, into the second of two
buffers while the march reads the first; numpy's fill releases the
interpreter lock, so the draws overlap the Euler steps.  A block the helper
has not begun when the march needs it is drawn on the march's thread.  The
draws are those of one `standard_normal` call per step, in step order, so
the bits are the same as drawing each step in turn.  Every vol evaluation,
the negation and the sums stay on the caller's thread.

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

import itertools
import math
import threading
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .bachelier import NormalQuote, bachelier_call
from .models import LocalVolModel, MarketSetup

# the most Euler steps one march may take: about 5000 years at the default
# 200 steps a year
MAX_STEPS = 10**6
# the most paths one march may take: each of its ~10 path arrays (the two
# buffers of draws, one step each, make one) is then 32 MB
MAX_PATHS = 2**22
# the normals are drawn a block of steps ahead: at most this many steps, and
# this many bytes (but at least one step), per buffer of draws
_BLOCK_STEPS = 16
_BLOCK_BYTES = 2**18


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


def _normals(rng: np.random.Generator, n_draw: int, n_steps: int) -> Iterator[np.ndarray]:
    """The normals of n_steps steps, n_draw a step, drawn from rng as one
    `standard_normal` call a step in step order would draw them: yields
    blocks of up to _BLOCK_STEPS rows in _BLOCK_BYTES (at least one row),
    one row a step.

    A helper thread draws the next block into the second of two buffers
    while the caller reads this one (numpy's fill releases the interpreter
    lock); a block the helper has not begun when it is asked for is drawn
    on the caller's thread.  A block is valid until the next is asked for.
    The helper is joined when the generator ends or is closed, and an
    exception it raised is raised here.
    """
    block = max(1, min(_BLOCK_STEPS, _BLOCK_BYTES // (8 * n_draw)))
    bufs = np.empty((2, block, n_draw))
    sizes = [min(block, n_steps - start) for start in range(0, n_steps, block)]
    drawn = 0  # blocks drawn; block j goes into bufs[j % 2]
    allowed = 0  # the helper may draw the blocks below this one
    stop = False
    failure: list[BaseException] = []
    drawing = threading.Lock()  # held while a block is drawn
    wake = threading.Lock()  # released by the caller to wake the helper
    wake.acquire()

    def draw_below(limit):
        nonlocal drawn
        if drawn < limit:
            rng.standard_normal(out=bufs[drawn % 2, :sizes[drawn]])
            drawn += 1

    def helper_loop():
        while True:
            wake.acquire()
            if stop:
                return
            with drawing:
                try:
                    draw_below(allowed)
                except BaseException as e:  # raised in the caller
                    failure.append(e)
                    return

    # a daemon, so that a march never closed cannot hold up interpreter exit
    helper = threading.Thread(target=helper_loop, name="nvol-mc-normals", daemon=True)
    helper.start()
    try:
        for i, n in enumerate(sizes):
            # waits while the helper draws block i, or draws it here if the
            # helper has not begun it: a helper that is not scheduled costs
            # no more than drawing on this thread
            with drawing:
                if failure:
                    raise failure[0]
                draw_below(i + 1)
            # block i + 1 goes into the buffer of block i - 1, read by now
            allowed = min(i + 2, len(sizes))
            # only this thread releases `wake`: unlocked, it holds a wake-up
            # the helper has not taken yet
            if wake.locked():
                wake.release()
            yield bufs[i % 2, :n]
    finally:
        stop = True
        if wake.locked():
            wake.release()
        helper.join()


def _march(model: LocalVolModel, setup: MarketSetup, dt: float, stops: Sequence[int],
           spec: McSpec) -> Iterator[tuple[int, _Paths]]:
    """Seeded fine, coarse and shadow march in steps of dt; yields (n, paths)
    after each (even) step count n in `stops`, ending at the largest.

    The arrays are the march's own buffers: read them before asking for the
    next stop.  The local vol is evaluated on levels clamped to the finite
    sides of the positivity domain (vol frozen at the boundary value for
    excursions beyond it); the exit count, read from the running extremes
    at each stop, reports how many paths ever needed the clamp.
    """
    sqdt = math.sqrt(dt)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n_draw = spec.n_paths // 2

    lo, hi = model.positivity_domain
    has_lo, has_hi = math.isfinite(lo), math.isfinite(hi)
    scale = max(1.0, abs(setup.S0), abs(lo) if has_lo else 0.0, abs(hi) if has_hi else 0.0)
    pad = 1e-12 * scale
    lo_c, hi_c = lo + pad, hi - pad
    drifted = setup.mu0 != 0.0 or setup.mu1 != 0.0

    fine = np.full(spec.n_paths, setup.S0)
    coarse = np.full(spec.n_paths, setup.S0)
    shadow = np.empty(spec.n_paths)
    z = np.empty(spec.n_paths)
    z_pair = np.empty(spec.n_paths)  # z1 + z2 of the coarse step
    z_sum = np.zeros(spec.n_paths)
    dS = np.empty(spec.n_paths)
    # per-path running extremes over both marches on each finite side, so a
    # stop reads which paths ever left the domain
    low = np.full(spec.n_paths, setup.S0) if has_lo else None
    high = np.full(spec.n_paths, setup.S0) if has_hi else None

    # a march that explodes overflows to inf and then nan; the callers see the
    # non-finite price and flag its rows
    @np.errstate(over="ignore", invalid="ignore")
    def euler(S, dW, drift_dt):
        """S + vol*sqdt*dW (+ drift_dt) in place, in that operand order; returns vol."""
        level = S
        # fmin/fmax skip a nan level, as the comparisons < and > would; dS
        # holds the clamped levels until the vol is evaluated on them
        if has_lo:
            np.fmin(low, S, out=low)
            level = np.maximum(level, lo_c, out=dS)
        if has_hi:
            np.fmax(high, S, out=high)
            level = np.minimum(level, hi_c, out=dS)
        vol = model.vol(level)
        np.multiply(vol, sqdt, out=dS)
        np.multiply(dS, dW, out=dS)
        np.add(S, dS, out=S)
        if drifted:
            np.add(S, drift_dt, out=S)
        return vol

    n_hits = 0
    drift_sum = 0.0
    pending = sorted(set(stops), reverse=True)
    draws = _normals(rng, n_draw, pending[0])
    try:
        for k, row in enumerate(itertools.chain.from_iterable(draws)):
            np.copyto(z[:n_draw], row)
            np.negative(row, out=z[n_draw:])
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
                if has_lo or has_hi:
                    exited = low < lo_c if has_lo else np.zeros(spec.n_paths, dtype=bool)
                    if has_hi:
                        exited |= high > hi_c
                    n_hits = int(np.count_nonzero(exited))
                yield n, _Paths(fine, coarse, shadow, setup.S0 + drift_sum, shadow_vol,
                                n * dt, n_hits)
    finally:
        draws.close()


def _payoff(S: np.ndarray, Ks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(S - K)+ into out, one row per strike of the column Ks."""
    return np.maximum(np.subtract(S, Ks, out=out), 0.0, out=out)


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
    first, second = slice(None, half), slice(half, None)
    # the pair averages are built one half of the paths at a time, in place,
    # so at most three (strikes, pairs) arrays are live; x holds the second
    # half's Y = 2 (fine - K)+ - (coarse - K)+ until y has Y's pair averages
    y, x, scratch = (np.empty((strikes.size, half)) for _ in range(3))
    for h, out in ((first, y), (second, x)):
        np.multiply(_payoff(p.fine[h], Ks, out), 2.0, out=out)
        np.subtract(out, _payoff(p.coarse[h], Ks, scratch), out=out)
    np.multiply(np.add(y, x, out=y), 0.5, out=y)
    np.add(_payoff(p.shadow[first], Ks, x), _payoff(p.shadow[second], Ks, scratch), out=x)
    np.multiply(x, 0.5, out=x)
    del scratch
    y_mean = y.mean(axis=1)
    x_mean = x.mean(axis=1)
    beta = np.zeros(strikes.size)
    if half > 1:
        straddles = ((p.shadow[first] > Ks) != (p.shadow[second] > Ks)).any(axis=1)
        # one dot per row: a batched product would sum in another order
        for i in np.flatnonzero(straddles):
            dx = x[i] - x_mean[i]
            beta[i] = np.dot(dx, y[i] - y_mean[i]) / np.dot(dx, dx)
    exact = np.array([bachelier_call(NormalQuote(F=p.shadow_forward, K=k, T=p.T,
                                                 sigmaN=p.shadow_vol))
                      for k in strikes.tolist()])
    price = y_mean - beta * (x_mean - exact)
    if half > 1:
        # x becomes the estimator's pair samples Y - beta X
        np.subtract(y, np.multiply(beta[:, None], x, out=x), out=x)
        se = x.std(axis=1, ddof=1) / math.sqrt(half)
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
