"""Euler-Maruyama Monte-Carlo oracle for dS = sigma_D(S) dW + mu(t) dt.

Deliberately independent of the PDE machinery: explicit path simulation with
a seeded counter-based generator and inverse-cdf normals, so runs are
bit-reproducible across platforms.  Euler rather than Milstein because the
kinked models have no well-defined sigma_D' at the breakpoint.

A maturity T is marched in n = ceil(T * steps_per_year) steps of
dt = T / n, and every march starts the generator afresh from the seed, so
the march to a shorter maturity with the same float dt is a bit-for-bit
prefix of the march to a longer one (with 200 steps a year, T = 0.25, 0.3,
0.5 and 1.0 all step by 0.005).  `mc_call` given several maturities runs one
march per distinct dt, to the longest of them, and prices each maturity when
the march passes its step count; every result equals that of a call with
the one maturity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .models import LocalVolModel, MarketSetup


@dataclass(frozen=True)
class McSpec:
    n_paths: int = 100_000
    steps_per_year: int = 200
    seed: int = 0

    def __post_init__(self):
        # the second half of the paths mirrors the first: its draws are negated
        if self.n_paths < 2 or self.n_paths % 2:
            raise ValueError("n_paths must be even and >= 2")
        if self.steps_per_year < 1:
            raise ValueError("steps_per_year must be >= 1")


class McResult(NamedTuple):
    price: float | np.ndarray  # an array when mc_call was given an array of strikes
    std_error: float | np.ndarray
    n_boundary_hits: int  # paths that ever left the positivity domain


def _n_steps(T: float, spec: McSpec) -> int:
    return max(1, int(math.ceil(T * spec.steps_per_year)))


def _march(model: LocalVolModel, setup: MarketSetup, dt: float, stops: Sequence[int],
           spec: McSpec) -> Iterator[tuple[int, np.ndarray, int]]:
    """Seeded Euler march in steps of dt; yields (n, S, boundary exits so far)
    after each step count n in `stops`, ending at the largest.

    S is the march's own buffer: read it before asking for the next stop.
    The local vol is evaluated on levels clamped to the positivity domain
    (vol frozen at the boundary value for excursions beyond it); the exit
    count reports how many paths ever needed the clamp.
    """
    # imported on first use: `import nvol` costs numpy only
    from scipy.special import ndtri

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

    S = np.full(spec.n_paths, setup.S0)
    z = np.empty(spec.n_paths)
    dS = np.empty(spec.n_paths)
    if bounded:
        exited = np.zeros(spec.n_paths, dtype=bool)
        outside = np.empty(spec.n_paths, dtype=bool)
    n_hits = 0
    pending = sorted(set(stops), reverse=True)
    for k in range(pending[0]):
        t_mid = (k + 0.5) * dt
        rng.random(out=z[:n_draw])
        ndtri(z[:n_draw], out=z[:n_draw])
        np.negative(z[:n_draw], out=z[n_draw:])
        if bounded:
            np.less(S, lo_c, out=outside)
            exited |= outside
            np.greater(S, hi_c, out=outside)
            exited |= outside
            # dS holds the clamped levels until the vol is evaluated on them
            vol = model.vol(np.clip(S, lo_c, hi_c, out=dS))
        else:
            vol = model.vol(S)
        # S + vol*sqdt*z + drift*dt, in that operand order
        np.multiply(vol, sqdt, out=dS)
        np.multiply(dS, z, out=dS)
        np.add(S, dS, out=S)
        np.add(S, setup.drift(t_mid) * dt, out=S)
        if k + 1 == pending[-1]:
            if bounded:
                n_hits = int(exited.sum())
            yield pending.pop(), S, n_hits


def simulate_terminal(model: LocalVolModel, setup: MarketSetup, T: float,
                      spec: McSpec) -> tuple[np.ndarray, int]:
    """Terminal asset levels S_T for all paths, plus the boundary-exit count."""
    n = _n_steps(T, spec)
    (_, S, n_hits), = _march(model, setup, T / n, (n,), spec)
    return S, n_hits


def _call_stats(S: np.ndarray, K: float) -> tuple[float, float]:
    """(price, standard error) of the call payoff (S_T - K)+ over mirrored pairs;
    one pair gives no spread to estimate, so its standard error is nan."""
    payoff = np.maximum(S - K, 0.0)
    half = S.size // 2
    samples = 0.5 * (payoff[:half] + payoff[half:])
    se = samples.std(ddof=1) / math.sqrt(half) if half > 1 else math.nan
    return float(samples.mean()), float(se)


def _price(S: np.ndarray, K: float | np.ndarray, n_hits: int) -> McResult:
    if np.ndim(K) == 0:
        price, se = _call_stats(S, K)
        return McResult(price=price, std_error=se, n_boundary_hits=n_hits)
    stats = np.array([_call_stats(S, k) for k in np.asarray(K, dtype=float)],
                     dtype=float).reshape(-1, 2)
    return McResult(price=stats[:, 0], std_error=stats[:, 1], n_boundary_hits=n_hits)


def mc_call(model: LocalVolModel, setup: MarketSetup, K: float | np.ndarray,
            T: float | tuple[float, ...], spec: McSpec = McSpec()
            ) -> McResult | tuple[McResult, ...]:
    """Monte-Carlo call price E[(S_T - K)+] with standard error.

    Every path is paired with the path of the negated draws, and the
    standard error is computed over pair averages, which is the correct
    estimate for the paired scheme.  A 1-d array of strikes is priced on one
    path set, strike by strike, and gives price and std_error arrays equal to
    the one-strike calls.  A tuple of
    maturities gives a tuple of results, one per maturity, each equal to the
    one-maturity call; maturities that share a step size share one march.
    """
    maturities = (T,) if np.ndim(T) == 0 else tuple(T)
    # maturity indices by step count, grouped by the exact float step size
    groups: dict[float, dict[int, list[int]]] = {}
    for i, t in enumerate(maturities):
        n = _n_steps(t, spec)
        groups.setdefault(t / n, {}).setdefault(n, []).append(i)
    results: list[McResult] = [None] * len(maturities)
    for dt, by_n in groups.items():
        for n, S, n_hits in _march(model, setup, dt, tuple(by_n), spec):
            res = _price(S, K, n_hits)
            for i in by_n[n]:
                results[i] = res
    return results[0] if np.ndim(T) == 0 else tuple(results)
