"""Normal (Bachelier) pricing, implied-vol inversion and normal/log-normal maps."""

from __future__ import annotations

import math
from dataclasses import dataclass

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


@dataclass(frozen=True)
class NormalQuote:
    """An option quote in normal-vol terms (undiscounted, forward measure)."""

    F: float
    K: float
    T: float
    sigmaN: float

    def __post_init__(self):
        if not (self.T > 0.0):
            raise ValueError(f"maturity must be positive, got {self.T}")
        if self.sigmaN < 0.0:
            raise ValueError(f"normal vol must be >= 0, got {self.sigmaN}")


def bachelier_call(q: NormalQuote) -> float:
    """Undiscounted call price under a normal terminal distribution."""
    F, K, T, s = q.F, q.K, q.T, q.sigmaN
    for v in (F, K, T, s):
        if not math.isfinite(v):
            raise ValueError("non-finite input to bachelier_call")
    stdev = s * math.sqrt(T)
    if stdev == 0.0:
        return max(F - K, 0.0)
    h = (F - K) / stdev
    return (F - K) * norm_cdf(h) + stdev * norm_pdf(h)


def bachelier_vega(q: NormalQuote) -> float:
    stdev = q.sigmaN * math.sqrt(q.T)
    if stdev == 0.0:
        return 0.0
    h = (q.F - q.K) / stdev
    return math.sqrt(q.T) * norm_pdf(h)


def implied_normal_vol(price: float, F: float, K: float, T: float) -> float:
    """Invert the Bachelier formula for sigmaN.

    Bracketed Brent root-find on sigmaN.  The time value is strictly
    increasing in sigmaN and bounded by stdev/sqrt(2*pi), so doubling the ATM
    inverse of the time value always closes a bracket; Newton variants are
    fragile here because the vega underflows for deep in/out quotes.
    """
    if not (T > 0.0):
        raise ValueError("maturity must be positive")
    intrinsic = max(F - K, 0.0)
    if price < intrinsic - 1e-16 * max(abs(F), 1.0):
        raise ValueError(f"price {price} below intrinsic {intrinsic}")
    if price <= intrinsic:
        return 0.0
    if F == K:
        return price * math.sqrt(2.0 * math.pi / T)

    tve = price - intrinsic  # time value, > 0

    def obj(s: float) -> float:
        return bachelier_call(NormalQuote(F=F, K=K, T=T, sigmaN=s)) - price

    # lower edge of the bracket: sigma = ATM inverse of the time value prices
    # below `price` whenever K != F.  A time value as small as the least
    # subnormal double starts it near 1e-323, and 1100 doublings take it
    # past a vol of 1e8
    hi = tve * math.sqrt(2.0 * math.pi / T)
    for _ in range(1100):
        if obj(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise RuntimeError("implied_normal_vol failed to bracket")
    return _brentq(obj, 0.0, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)


def implied_vol_and_flag(price: float, F: float, K: float, T: float,
                         noise: float = 0.0) -> tuple[float, str]:
    """Implied normal vol and row flag of an oracle price.

    A nan price (a strike the oracle cannot price) gives nan flagged
    off_grid; a time value over intrinsic no larger than the price's noise
    level, a price below intrinsic included, has no implied vol and gives nan
    flagged no_time_value; any other price gives its implied vol flagged ok.
    """
    if math.isnan(price):
        return math.nan, "off_grid"
    if price - max(F - K, 0.0) <= noise:
        return math.nan, "no_time_value"
    return implied_normal_vol(price, F, K, T), "ok"


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4).

    A step-for-step transcription of scipy's `brentq.c`: the same branches
    and operation order, so it evaluates f at the same points and returns the
    same bits as `scipy.optimize.brentq`, without importing scipy.optimize.
    """
    xpre, xcur = xa, xb
    fpre = f(xpre)
    fcur = f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # C divides by an underflowed zero to an infinite step, which
                # the test below turns into bisection
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method failed to converge after {maxiter} iterations, "
                       f"value is {xcur}")


def black_scholes_call(F: float, K: float, sigmaBS: float, T: float) -> float:
    """Undiscounted Black-Scholes call on the forward."""
    if F <= 0.0 or K <= 0.0:
        raise ValueError("forward and strike must be positive")
    stdev = sigmaBS * math.sqrt(T)
    if stdev <= 0.0:
        return max(F - K, 0.0)
    d1 = math.log(F / K) / stdev + 0.5 * stdev
    d2 = d1 - stdev
    return F * norm_cdf(d1) - K * norm_cdf(d2)


def atm_normal_from_lognormal(F: float, sigmaBS: float, T: float) -> float:
    """Exact ATM conversion log-normal -> normal vol.

    Equates the ATM Black-Scholes price F*Erf(sigmaBS*sqrt(T)/(2*sqrt(2)))
    with the ATM Bachelier price sigmaN*sqrt(T/(2*pi)); exact for all T.
    """
    if F <= 0.0 or T <= 0.0:
        raise ValueError("forward and maturity must be positive")
    return F * math.sqrt(2.0 * math.pi / T) * math.erf(sigmaBS * math.sqrt(T) / (2.0 * math.sqrt(2.0)))


def atm_lognormal_from_normal(F: float, sigmaN: float, T: float) -> float:
    """Inverse of atm_normal_from_lognormal (closed form via inverse erf)."""
    if F <= 0.0 or T <= 0.0:
        raise ValueError("forward and maturity must be positive")
    r = sigmaN / (F * math.sqrt(2.0 * math.pi / T))
    if r >= 1.0:
        raise ValueError("normal vol at or above the Erf saturation bound F*sqrt(2*pi/T)")
    if r < 0.0:
        raise ValueError("normal vol must be >= 0")
    from scipy.special import erfinv

    return float(erfinv(r)) * 2.0 * math.sqrt(2.0) / math.sqrt(T)


def short_time_normal_from_lognormal_smile(K: float, F: float, sigmaBS: float) -> float:
    """Leading-order (T -> 0) smile map: sigmaN(K) = sigmaBS(K) * (K-F)/log(K/F).

    Valid only for the short-maturity limit of the smile; at K = F the
    removable limit sigmaN = F * sigmaBS is used.
    """
    if K <= 0.0 or F <= 0.0:
        raise ValueError("strike and forward must be positive")
    x = math.log(K / F)
    if abs(x) < 1e-8:
        # (K-F)/log(K/F) = F*(1 + x/2 + x^2/12 + O(x^3))
        return sigmaBS * F * (1.0 + 0.5 * x + x * x / 12.0)
    return sigmaBS * (K - F) / x
