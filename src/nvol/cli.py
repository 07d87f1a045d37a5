"""Command-line reproduction harness.

Subcommands:
  smile       smiles from a config file, one row per (K, T, method)
  table1      ATM deviation table for the shifted log-normal benchmark
  sqrt-t      small-time power-law fit of the ATM vol deviation
  convert     exact ATM normal <-> log-normal vol conversion
  extract-lv  local vol extracted from a CSV vol surface

Config files are INI-style (`key = value` sections); see configs/ for the
checked-in experiment definitions.  Exit codes: 0 ok, 2 config/usage error,
3 numerical domain error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

from .asymptotics import (DomainError, expansion_coefficient, sigma1_jump,
                          smile_from_coefficients)
from .bachelier import (atm_lognormal_from_normal, atm_normal_from_lognormal,
                        implied_normal_vol)
from .dupire_pde import (default_grid, extract_local_vol,
                         implied_smile_from_pde, solve_forward)
from .exact_solutions import (model2b_call_by_density, shifted_ln_atm_exact_vol,
                              shifted_ln_exact_call, sqrt_t_detector)
from .mc_oracle import McSpec, mc_call
from .models import (LocalVolModel, MarketSetup, load_tabulated_csv,
                     make_piecewise_linear, make_quadratic_sabr,
                     make_shifted_lognormal)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_METHODS = ("asympt0", "asympt1", "asympt2", "pde", "mc", "exact")


class ConfigError(Exception):
    """Invalid experiment configuration; reported with section/key context."""


@dataclass
class ExperimentConfig:
    model: LocalVolModel
    model_kind: str
    model_params: dict
    setup: MarketSetup
    strikes: list[float]
    maturities: list[float]
    methods: list[str]
    out: str | None = None
    fmt: str = "csv"
    pde_opts: dict = field(default_factory=dict)
    mc_opts: dict = field(default_factory=dict)


def _floats(raw: str, where: str) -> list[float]:
    toks = [t for t in raw.replace(",", " ").split() if t]
    try:
        vals = [float(t) for t in toks]
    except ValueError as e:
        raise ConfigError(f"{where}: not a number list: {raw!r}") from e
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"{where}: numbers must be finite: {raw!r}")
    return vals


def _get(section, key: str, where: str, cast=float, default=None):
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"{where}: missing key '{key}'")
    try:
        value = cast(section[key])
    except ValueError as e:
        raise ConfigError(f"{where}: bad value for '{key}': {section[key]!r}") from e
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"{where}: '{key}' must be finite, got {section[key]!r}")
    return value


def _build_model(kind: str, sec, S0: float) -> tuple[LocalVolModel, dict]:
    """sigma0 always means the local vol at S0; slopes are the b of 2b(S-S0)."""
    if kind == "shifted_lognormal":
        p = {"sigma0": _get(sec, "sigma0", "[model]"), "b": _get(sec, "b", "[model]")}
        return make_shifted_lognormal(p["sigma0"] - 2.0 * p["b"] * S0, p["b"], S0), p
    if kind == "quadratic_sabr":
        p = {"sigma0": _get(sec, "sigma0", "[model]"),
             "gamma": _get(sec, "gamma", "[model]"),
             "rho": _get(sec, "rho", "[model]")}
        return make_quadratic_sabr(p["sigma0"], p["gamma"], p["rho"], S0), p
    if kind == "piecewise_linear":
        p = {"sigma0": _get(sec, "sigma0", "[model]"),
             "bL": _get(sec, "bL", "[model]"), "bR": _get(sec, "bR", "[model]")}
        return make_piecewise_linear(p["sigma0"], p["bL"], p["bR"], S0), p
    if kind == "tabulated":
        path = _get(sec, "path", "[model]", cast=str)
        try:
            return load_tabulated_csv(path), {"path": path}
        except (OSError, ValueError) as e:
            raise ConfigError(f"[model]: cannot load tabulated vol {path!r}: {e}") from e
    raise ConfigError(f"[model]: unknown type {kind!r} "
                      f"(expected shifted_lognormal, quadratic_sabr, "
                      f"piecewise_linear or tabulated)")


def load_config(path: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from e
    except configparser.Error as e:
        raise ConfigError(f"config parse error in {path!r}: {e}") from e

    for name in ("model", "market"):
        if name not in cp:
            raise ConfigError(f"missing [{name}] section in {path!r}")

    mkt = cp["market"]
    setup = MarketSetup(S0=_get(mkt, "S0", "[market]"),
                        mu0=_get(mkt, "mu0", "[market]", default=0.0),
                        mu1=_get(mkt, "mu1", "[market]", default=0.0))

    kind = _get(cp["model"], "type", "[model]", cast=str)
    try:
        model, params = _build_model(kind, cp["model"], setup.S0)
    except ValueError as e:
        raise ConfigError(f"[model]: {e}") from e

    strikes: list[float] = []
    if "strikes" in cp:
        sec = cp["strikes"]
        if "list" in sec:
            strikes = _floats(sec["list"], "[strikes] list")
        elif "min" in sec or "max" in sec or "count" in sec:
            lo = _get(sec, "min", "[strikes]")
            hi = _get(sec, "max", "[strikes]")
            n = _get(sec, "count", "[strikes]", cast=int)
            if n < 2 or hi <= lo:
                raise ConfigError("[strikes]: need count >= 2 and max > min")
            strikes = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    if not strikes:
        raise ConfigError("[strikes]: empty strike list")
    bad = [k for k in strikes if not model.in_domain(k)]
    if bad:
        raise ConfigError(f"[strikes]: outside positivity domain "
                          f"{model.positivity_domain}: {bad}")

    if "maturities" not in cp or "list" not in cp["maturities"]:
        raise ConfigError("missing [maturities] list")
    maturities = _floats(cp["maturities"]["list"], "[maturities] list")
    if not maturities or any(t <= 0.0 for t in maturities):
        raise ConfigError("[maturities]: need a non-empty list of positive maturities")

    if "methods" not in cp or "list" not in cp["methods"]:
        raise ConfigError("missing [methods] list")
    methods = [m.strip() for m in cp["methods"]["list"].replace(",", " ").split() if m.strip()]
    if not methods:
        raise ConfigError("[methods]: need at least one method")
    unknown = [m for m in methods if m not in _METHODS]
    if unknown:
        raise ConfigError(f"[methods]: unknown {unknown}; choose from {_METHODS}")

    out = fmt = None
    if "output" in cp:
        out = cp["output"].get("path") or None
        fmt = cp["output"].get("format") or None
    if fmt is not None and fmt not in ("csv", "json"):
        raise ConfigError("[output]: format must be csv or json")

    pde_opts = {}
    if "pde" in cp:
        sec = cp["pde"]
        for key, cast, valid, need in (
                ("n_space", int, lambda v: v >= 51, ">= 51"),
                ("n_time_per_year", int, lambda v: v >= 1, ">= 1"),
                ("width_stdevs", float, lambda v: math.isfinite(v) and v > 0.0,
                 "finite and > 0"),
                ("min_time_steps", int, lambda v: v >= 1, ">= 1")):
            if key in sec:
                value = _get(sec, key, "[pde]", cast=cast)
                if not valid(value):
                    raise ConfigError(f"[pde]: '{key}' must be {need}, got {value!r}")
                pde_opts[key] = value
    mc_opts = {}
    if "mc" in cp:
        sec = cp["mc"]
        # the CLI pairs paths antithetically, so n_paths must be even
        for key, valid, need in (
                ("n_paths", lambda v: v >= 2 and v % 2 == 0, "even and >= 2"),
                ("steps_per_year", lambda v: v >= 1, ">= 1")):
            if key in sec:
                value = _get(sec, key, "[mc]", cast=int)
                if not valid(value):
                    raise ConfigError(f"[mc]: '{key}' must be {need}, got {value!r}")
                mc_opts[key] = value

    return ExperimentConfig(model=model, model_kind=kind, model_params=params,
                            setup=setup, strikes=strikes, maturities=maturities,
                            methods=methods, out=out, fmt=fmt or "csv",
                            pde_opts=pde_opts, mc_opts=mc_opts)


def _emit_rows(rows: list[dict], out: str | None, fmt: str,
               columns: list[str]) -> None:
    if fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        for r in rows:
            w.writerow([r[c] if isinstance(r[c], str) else f"{r[c]:.12g}"
                        for c in columns])
        text = buf.getvalue()
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _exact_price(cfg: ExperimentConfig, K: float, T: float) -> tuple[float, float]:
    """Closed-form price and the noise level of its time value."""
    p = cfg.model_params
    if cfg.model_kind == "shifted_lognormal":
        return shifted_ln_exact_call(p["sigma0"] - 2.0 * p["b"] * cfg.setup.S0,
                                     p["b"], cfg.setup.S0, K, T), 0.0
    if cfg.model_kind == "piecewise_linear" and p["bR"] > 0.0 and p["bL"] == -p["bR"]:
        price = model2b_call_by_density(p["sigma0"], p["bR"], cfg.setup.S0, K, T)
        # its rule is within 1.4e-17 absolute and 3.5e-15 relative of
        # scipy's quad on 48 strikes and maturities; this level is 7x and 30x that
        return price, max(1e-16, 1e-13 * price)
    raise ConfigError("method 'exact' needs a shifted_lognormal or a symmetric "
                      "piecewise_linear (bL = -bR) model")


def _vol_and_flag(price: float, F: float, K: float, T: float,
                  noise: float = 0.0) -> tuple[float, str]:
    """Implied vol and flag of an oracle price; a price whose time value over
    intrinsic is no larger than the price's noise level has no implied vol."""
    if price - max(F - K, 0.0) <= noise:
        return math.nan, "no_time_value"
    return implied_normal_vol(price, F, K, T), "ok"


def cmd_smile(args) -> int:
    cfg = load_config(args.config)
    out = args.out or cfg.out
    fmt = args.format or cfg.fmt
    rows: list[dict] = []
    current = {"K": None, "T": None, "method": None}
    # each expansion coefficient once per strike, reused across orders and
    # maturities; the flag marks the models for which smile() warns
    coeffs: dict[float, list[float]] = {}
    asympt_flag = "low_confidence" if cfg.model.breakpoints else "ok"
    # every maturity's MC result, from one march per step size
    mc_results = None
    try:
        for i, T in enumerate(cfg.maturities):
            F = cfg.setup.forward(T)
            for method in cfg.methods:
                current["T"] = T
                current["method"] = method
                if method.startswith("asympt"):
                    order = int(method[-1])
                    for K in cfg.strikes:
                        current["K"] = K
                        c = coeffs.setdefault(K, [])
                        while len(c) <= order:
                            c.append(expansion_coefficient(cfg.model, cfg.setup, K, len(c)))
                        rows.append({"K": K, "T": T, "method": method,
                                     "sigma_N": smile_from_coefficients(c[:order + 1], T),
                                     "flag": asympt_flag})
                elif method == "pde":
                    current["K"] = cfg.strikes[0]
                    grid = default_grid(cfg.model, cfg.setup, T, **cfg.pde_opts)
                    sol = solve_forward(cfg.model, cfg.setup, grid, T)
                    for pt in implied_smile_from_pde(sol, cfg.setup, T, cfg.strikes):
                        rows.append({"K": pt.strike, "T": T, "method": method,
                                     "sigma_N": pt.sigmaN, "flag": pt.flag})
                elif method == "mc":
                    current["K"] = cfg.strikes[0]
                    if mc_results is None:
                        mc_results = mc_call(cfg.model, cfg.setup, cfg.strikes,
                                             tuple(cfg.maturities),
                                             McSpec(seed=args.seed, **cfg.mc_opts))
                    for K, price in zip(cfg.strikes, mc_results[i].price):
                        current["K"] = K
                        price = float(price)
                        if price < max(F - K, 0.0):
                            vol, flag = 0.0, "clamped"
                        else:
                            vol, flag = _vol_and_flag(price, F, K, T)
                        rows.append({"K": K, "T": T, "method": method,
                                     "sigma_N": vol, "flag": flag})
                elif method == "exact":
                    for K in cfg.strikes:
                        current["K"] = K
                        price, noise = _exact_price(cfg, K, T)
                        vol, flag = _vol_and_flag(price, F, K, T, noise)
                        rows.append({"K": K, "T": T, "method": method,
                                     "sigma_N": vol, "flag": flag})
    except (DomainError, ArithmeticError, RuntimeError) as e:
        print(f"numerical failure at K={current['K']}, T={current['T']}, "
              f"method={current['method']}: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    _emit_rows(rows, out, fmt, ["K", "T", "method", "sigma_N", "flag"])
    return EXIT_OK


_TABLE1_MATURITIES = (1.0, 2.0, 5.0, 10.0, 20.0, 30.0)


def table1_rows(sigma0bar: float = 0.03, b: float = 0.2,
                maturities=_TABLE1_MATURITIES) -> list[dict]:
    """ATM deviations (orders 0/1/2 minus exact) for sigma_D = sigma0bar + 2bY."""
    from .asymptotics import sigma1_series_atm, sigma2_atm

    model = make_shifted_lognormal(sigma0bar, b, 0.0)
    s1 = sigma1_series_atm(model, 0.0)[0]
    s2 = sigma2_atm(model, 0.0)
    rows = []
    for T in maturities:
        ex = shifted_ln_atm_exact_vol(sigma0bar, b, T)
        rows.append({"T": T,
                     "dev_order0": sigma0bar - ex,
                     "dev_order1": sigma0bar + s1 * T - ex,
                     "dev_order2": sigma0bar + s1 * T + s2 * T * T - ex})
    return rows


def cmd_table1(args) -> int:
    rows = table1_rows(args.sigma0bar, args.b)
    print(f"ATM normal-vol deviations, sigma0bar={args.sigma0bar}, b={args.b}")
    print(f"{'T':>4}  {'order0-exact':>13}  {'order1-exact':>13}  {'order2-exact':>13}")
    for r in rows:
        print(f"{r['T']:4.0f}  {100*r['dev_order0']:12.4f}%  "
              f"{100*r['dev_order1']:12.4f}%  {100*r['dev_order2']:12.4f}%")
    if args.out:
        _emit_rows(rows, args.out, args.format or "csv",
                   ["T", "dev_order0", "dev_order1", "dev_order2"])
    return EXIT_OK


_SQRT_T_GRID = tuple(0.25 / 2 ** k for k in reversed(range(7)))  # 1/256 .. 1/4


def cmd_sqrt_t(args) -> int:
    cfg = load_config(args.config)
    T_grid = cfg.maturities if len(cfg.maturities) >= 5 else _SQRT_T_GRID
    try:
        report = sqrt_t_detector(cfg.model, cfg.setup, None, T_grid)
    except (ValueError, RuntimeError) as e:
        print(f"numerical failure in sqrt-t fit: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    p = report.exponent
    if abs(p - 0.5) <= 0.15:
        print(f"sqrt-T anomaly (p~1/2: fitted p={p:.3f}, "
              f"c={report.coefficient:.6g})")
    elif p >= 0.8:
        print(f"analytic (p~1: fitted p={p:.3f})")
    else:
        print(f"unclassified (fitted p={p:.3f})")
    if cfg.model_kind == "piecewise_linear":
        jump = sigma1_jump(cfg.model, cfg.setup.S0)
        print(f"sigma1 jump across the forward: {jump:.6g}")
    text = report.to_json() + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_convert(args) -> int:
    if args.F <= 0.0 or args.T <= 0.0:
        print("convert: F and T must be positive", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.direction == "ln2n":
            out = atm_normal_from_lognormal(args.F, args.value, args.T)
        else:
            out = atm_lognormal_from_normal(args.F, args.value, args.T)
    except ValueError as e:
        print(f"convert: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"{out:.12g}")
    return EXIT_OK


def _surface_from_csv(path: str):
    """(K, T) -> sigmaN interpolator from a `K,T,price,sigmaN` CSV.

    Cubic spline in strike on each maturity level, linear between levels.
    Returns (surface, strikes_by_level, sorted maturities).
    """
    from scipy.interpolate import CubicSpline

    levels: dict[float, list[tuple[float, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"K", "T", "sigmaN"}
        if reader.fieldnames is None or not need.issubset(set(reader.fieldnames)):
            raise ConfigError(f"surface CSV {path!r} must have columns K,T,sigmaN")
        for rec in reader:
            k, t, v = float(rec["K"]), float(rec["T"]), float(rec["sigmaN"])
            # drop unusable wings: failed inversions (nan) and strikes with no
            # time value (vol clamped to zero)
            if math.isfinite(v) and v > 0.0:
                levels.setdefault(t, []).append((k, v))
    ts = sorted(levels)
    if len(ts) < 2:
        raise ConfigError("surface needs at least two maturity levels")
    splines = {}
    strikes = {}
    for t in ts:
        pts = sorted(levels[t])
        ks = [p[0] for p in pts]
        vs = [p[1] for p in pts]
        if len(ks) < 4:
            raise ConfigError(f"maturity level T={t} has fewer than 4 usable strikes")
        splines[t] = CubicSpline(ks, vs)
        strikes[t] = ks

    def surface(K: float, T: float) -> float:
        if T <= ts[0]:
            lo, hi = ts[0], ts[1]
        elif T >= ts[-1]:
            lo, hi = ts[-2], ts[-1]
        else:
            j = max(i for i, t in enumerate(ts) if t <= T)
            lo, hi = ts[j], ts[min(j + 1, len(ts) - 1)]
        if hi == lo:
            return float(splines[lo](K))
        w = (T - lo) / (hi - lo)
        return float((1.0 - w) * splines[lo](K) + w * splines[hi](K))

    return surface, strikes, ts


def cmd_extract_lv(args) -> int:
    try:
        surface, strikes_by_level, ts = _surface_from_csv(args.surface)
    except (OSError, ValueError) as e:
        print(f"extract-lv: cannot read surface: {e}", file=sys.stderr)
        return EXIT_CONFIG
    setup = MarketSetup(S0=args.s0, mu0=args.mu0, mu1=args.mu1)
    T = args.T
    if not ts[0] <= T < ts[-1]:
        raise ConfigError(f"T={T} must lie in [{ts[0]}, {ts[-1]}) so the "
                          f"maturity derivative can look forward")
    if args.K:
        strikes = args.K
    else:
        level = min(ts, key=lambda t: abs(t - T))
        F = setup.forward(T)
        s_atm = surface(F, T)
        band = 2.0 * s_atm * math.sqrt(T)
        strikes = [k for k in strikes_by_level[level] if abs(k - F) <= band]
        if not strikes:
            raise ConfigError("no surface strikes within 2 stdev of the forward; "
                              "pass explicit --K values")
    dT = min(0.05 * T, 0.5 * (ts[-1] - T))
    rows = []
    try:
        for K in strikes:
            sd = extract_local_vol(surface, setup, K, T, dT=dT)
            rows.append({"K": K, "T": T, "sigma_D": sd})
    except ValueError as e:
        print(f"extract-lv: numerical failure at K={K}, T={T}: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    _emit_rows(rows, args.out, args.format or "csv", ["K", "T", "sigma_D"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nvol", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--seed", type=int, default=0, help="Monte-Carlo seed")

    p = sub.add_parser("smile", help="smiles per (K, T, method) from a config")
    common(p)
    p.set_defaults(func=cmd_smile)

    p = sub.add_parser("table1", help="ATM deviation table, shifted log-normal")
    common(p, config_required=False)
    p.add_argument("--sigma0bar", type=float, default=0.03,
                   help="at-the-money local vol (default 0.03)")
    p.add_argument("--b", type=float, default=0.2, help="half slope (default 0.2)")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("sqrt-t", help="small-time power-law fit of the ATM deviation")
    common(p)
    p.set_defaults(func=cmd_sqrt_t)

    p = sub.add_parser("convert", help="exact ATM normal <-> log-normal vol")
    p.add_argument("F", type=float, help="forward")
    p.add_argument("T", type=float, help="maturity")
    p.add_argument("value", type=float, help="vol to convert")
    p.add_argument("--direction", choices=("ln2n", "n2ln"), required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("extract-lv", help="local vol from a K,T,price,sigmaN CSV")
    p.add_argument("surface", help="surface CSV path")
    common(p, config_required=False)
    p.add_argument("--s0", type=float, required=True)
    p.add_argument("--mu0", type=float, default=0.0)
    p.add_argument("--mu1", type=float, default=0.0)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--K", type=float, action="append", default=None,
                   help="strike (repeatable; default: surface strikes near ATM)")
    p.set_defaults(func=cmd_extract_lv)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
