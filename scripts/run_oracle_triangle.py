"""Cross-check the three oracles (PDE, Monte-Carlo, closed form) pairwise.

Randomized (model, K, T) cases; each pair of prices must agree within three
Monte-Carlo standard errors.  Exits non-zero if any case fails.
"""

import math
import random
import sys

from nvol.dupire_pde import richardson_prices
from nvol.exact_solutions import model2b_call_by_density, shifted_ln_exact_call
from nvol.mc_oracle import McSpec, mc_call
from nvol.models import MarketSetup, make_piecewise_linear, make_shifted_lognormal


def pde_price(model, setup, K, T):
    # the rule of the `pde` rows: the 401/801-node pair over 10 stdevs, extrapolated
    return float(richardson_prices(model, setup, (T,), [K], 10.0)[0][0])


def run(n_cases: int = 10, seed: int = 2024) -> int:
    rng = random.Random(seed)
    failures = 0
    for i in range(n_cases):
        S0 = rng.uniform(0.02, 0.06)
        sigma0 = rng.uniform(0.005, 0.02)
        T = rng.uniform(0.25, 2.0)
        K = S0 + rng.uniform(-1.2, 1.2) * sigma0 * math.sqrt(T)
        if i % 2 == 0:
            b = rng.uniform(0.05, 0.2)
            model = make_shifted_lognormal(sigma0 - 2 * b * S0, b, S0)
            exact = shifted_ln_exact_call(sigma0 - 2 * b * S0, b, S0, K, T)
            kind = "shifted_ln"
        else:
            b = rng.uniform(0.05, 0.15)
            model = make_piecewise_linear(sigma0, -b, b, S0)
            exact = float(model2b_call_by_density(sigma0, b, S0, [K], T)[0])
            kind = "kink"
        setup = MarketSetup(S0=S0)
        mc = mc_call(model, setup, K, T, McSpec(seed=seed + i))
        pde = pde_price(model, setup, K, T)
        tol = 3.0 * mc.std_error
        ok = (abs(mc.price - exact) <= tol and abs(mc.price - pde) <= tol
              and abs(pde - exact) <= tol)
        failures += not ok
        print(f"{kind:10s} K={K:.4f} T={T:.2f}: exact={exact:.3e} "
              f"pde={pde:.3e} mc={mc.price:.3e}+-{mc.std_error:.1e} "
              f"{'ok' if ok else 'FAIL'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
