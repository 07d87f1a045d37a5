"""Small-maturity asymptotics of the normal implied volatility in local
volatility models, with PDE / Monte-Carlo / closed-form oracles."""

__version__ = "0.1.0"
