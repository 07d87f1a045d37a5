"""Small-maturity asymptotics of the normal implied volatility in local
volatility models, with PDE / Monte-Carlo / closed-form oracles."""

from .asymptotics import (BreakpointError, DomainError, NonAnalyticWarning,
                          expansion, sigma0, sigma0_series_atm, sigma1,
                          sigma1_jump, sigma1_series_atm, sigma2, sigma2_atm,
                          smile)
from .bachelier import (NormalQuote, atm_lognormal_from_normal,
                        atm_normal_from_lognormal, bachelier_call,
                        bachelier_vega, black_scholes_call, implied_normal_vol,
                        short_time_normal_from_lognormal_smile)
from .dupire_pde import (PdeSolution, atm_implied_vol, extract_local_vol,
                         implied_smile_from_pde, solve_forward)
from .exact_solutions import (FitReport, drifted_ln_atm_call,
                              model2b_atm_exact, model2b_call_by_density,
                              model2b_density, model2b_y_of_z, model2b_z_of_y,
                              shifted_ln_atm_exact_vol, shifted_ln_atm_series,
                              shifted_ln_drift_atm_call, shifted_ln_exact_call,
                              sqrt_t_detector)
from .mc_oracle import McResult, McSpec, mc_call
from .models import (LocalVolModel, MarketSetup, load_tabulated_csv,
                     make_piecewise_linear, make_quadratic_sabr,
                     make_shifted_lognormal, make_tabulated)
from .quadrature import integrate

__all__ = [
    "BreakpointError", "DomainError", "FitReport",
    "LocalVolModel", "MarketSetup", "McResult", "McSpec",
    "NonAnalyticWarning", "NormalQuote", "PdeSolution",
    "atm_implied_vol", "atm_lognormal_from_normal",
    "atm_normal_from_lognormal", "bachelier_call", "bachelier_vega",
    "black_scholes_call", "drifted_ln_atm_call", "expansion",
    "extract_local_vol", "implied_normal_vol", "implied_smile_from_pde",
    "integrate", "load_tabulated_csv", "make_piecewise_linear",
    "make_quadratic_sabr", "make_shifted_lognormal", "make_tabulated",
    "mc_call", "model2b_atm_exact", "model2b_call_by_density", "model2b_density", "model2b_y_of_z",
    "model2b_z_of_y", "short_time_normal_from_lognormal_smile", "sigma0",
    "sigma0_series_atm", "sigma1", "sigma1_jump", "sigma1_series_atm",
    "sigma2", "sigma2_atm", "shifted_ln_atm_exact_vol",
    "shifted_ln_atm_series", "shifted_ln_drift_atm_call",
    "shifted_ln_exact_call", "smile", "solve_forward",
    "sqrt_t_detector",
]

__version__ = "0.1.0"
