"""Euler-Maruyama Monte-Carlo oracle for dS = sigma_D(S) dW + mu(t) dt.

Deliberately independent of the PDE machinery: explicit path simulation with
a seeded counter-based generator and inverse-cdf normals, so runs are
bit-reproducible across platforms.  Euler rather than Milstein because the
kinked models have no well-defined sigma_D' at the breakpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .models import LocalVolModel, MarketSetup


@dataclass(frozen=True)
class McSpec:
    n_paths: int = 100_000
    steps_per_year: int = 200
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("n_paths must be >= 2")
        if self.antithetic and self.n_paths % 2:
            raise ValueError("antithetic pairing needs an even n_paths")
        if self.steps_per_year < 1:
            raise ValueError("steps_per_year must be >= 1")


class McResult(NamedTuple):
    price: float | np.ndarray  # an array when mc_call was given an array of strikes
    std_error: float | np.ndarray
    n_boundary_hits: int  # paths that ever left the positivity domain


def simulate_terminal(model: LocalVolModel, setup: MarketSetup, T: float,
                      spec: McSpec) -> tuple[np.ndarray, int]:
    """Terminal asset levels S_T for all paths, plus the boundary-exit count.

    The local vol is evaluated on levels clamped to the positivity domain
    (vol frozen at the boundary value for excursions beyond it); the count
    reports how many paths ever needed the clamp.
    """
    # imported on first use: `import nvol` costs numpy only
    from scipy.special import ndtri

    n_steps = max(1, int(math.ceil(T * spec.steps_per_year)))
    dt = T / n_steps
    sqdt = math.sqrt(dt)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n_draw = spec.n_paths // 2 if spec.antithetic else spec.n_paths

    lo, hi = model.positivity_domain
    scale = max(1.0, abs(setup.S0),
                abs(lo) if math.isfinite(lo) else 0.0,
                abs(hi) if math.isfinite(hi) else 0.0)
    pad = 1e-12 * scale
    lo_c = lo + pad if math.isfinite(lo) else lo
    hi_c = hi - pad if math.isfinite(hi) else hi

    S = np.full(spec.n_paths, setup.S0)
    exited = np.zeros(spec.n_paths, dtype=bool)
    for k in range(n_steps):
        t_mid = (k + 0.5) * dt
        z = ndtri(rng.random(n_draw))
        if spec.antithetic:
            z = np.concatenate([z, -z])
        outside = (S < lo_c) | (S > hi_c)
        exited |= outside
        S_eval = np.clip(S, lo_c, hi_c)
        S = S + model.vol_array(S_eval) * sqdt * z + setup.drift(t_mid) * dt
    return S, int(exited.sum())


def _call_stats(S: np.ndarray, K: float, spec: McSpec) -> tuple[float, float]:
    """(price, standard error) of the call payoff (S_T - K)+ over the paths S."""
    payoff = np.maximum(S - K, 0.0)
    if spec.antithetic:
        half = spec.n_paths // 2
        samples = 0.5 * (payoff[:half] + payoff[half:])
    else:
        samples = payoff
    n = samples.size
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(n))


def mc_call(model: LocalVolModel, setup: MarketSetup, K: float | np.ndarray, T: float,
            spec: McSpec = McSpec()) -> McResult:
    """Monte-Carlo call price E[(S_T - K)+] with standard error.

    With antithetic pairing the standard error is computed over pair
    averages, which is the correct estimate for the paired scheme.  A 1-d
    array of strikes is priced on one path set, strike by strike, and gives
    price and std_error arrays equal to the one-strike calls.
    """
    S, n_hits = simulate_terminal(model, setup, T, spec)
    if np.ndim(K) == 0:
        price, se = _call_stats(S, K, spec)
        return McResult(price=price, std_error=se, n_boundary_hits=n_hits)
    stats = np.array([_call_stats(S, k, spec) for k in np.asarray(K, dtype=float)],
                     dtype=float).reshape(-1, 2)
    return McResult(price=stats[:, 0], std_error=stats[:, 1], n_boundary_hits=n_hits)
