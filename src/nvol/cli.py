"""Command-line reproduction harness.

Subcommands:
  smile       smiles from a config file, one row per (K, T, method)
  table1      ATM deviation table for the shifted log-normal benchmark
  sqrt-t      small-time power-law fit of the ATM vol deviation
  convert     exact ATM normal <-> log-normal vol conversion
  extract-lv  local vol from the `nvol smile` CSV of one method

Config files are INI-style (`key = value` sections); see configs/ for the
checked-in experiment definitions.  Every config command reads [model],
[market] and [maturities]; `smile` also reads [strikes], [methods] and [mc].
A key that the command does not read in one of those sections is refused,
and so is a section that no command reads.
The output goes to stdout or the --out file, as CSV or JSON by --format
(`sqrt-t` always writes JSON); a config with an [output] section is refused.
Exit codes: 0 ok, 2 config/usage error, 3 numerical domain error.
"""

from __future__ import annotations

import argparse
import bisect
import configparser
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

from .asymptotics import (expansion, sigma1_jump, smile_from_coefficients,
                          sqrt_t_coefficient)
from .bachelier import (atm_lognormal_from_normal, atm_normal_from_lognormal,
                        implied_vol_and_flag)
from .dupire_pde import (ForwardOffGrid, extract_local_vol, implied_smile_from_pde,
                         solve_forward)  # unused here; perfbench's self-check reads it
from .exact_solutions import (model2b_call_by_density, shifted_ln_atm_exact_vol,
                              shifted_ln_exact_call, sqrt_t_detector)
from .models import (LocalVolModel, MarketSetup, load_tabulated_csv,
                     make_piecewise_linear, make_quadratic_sabr,
                     make_shifted_lognormal)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# `[strikes]` at most this many strikes, and an `mc` run at most this
# many n_paths x strikes, so one (strikes, pairs) payoff array stays <= 128 MB
MAX_STRIKES = 10_000
MAX_MC_ELEMENTS = 2**25


class ConfigError(Exception):
    """Invalid experiment configuration; reported with section/key context."""


@dataclass
class ExperimentConfig:
    """The sections every command reads; strikes, methods and mc_opts only
    `smile` reads (load_config)."""
    model: LocalVolModel
    # see _build_model
    exact_call: Callable[[list[float], float], list[float]] | None
    setup: MarketSetup
    maturities: tuple[float, ...]
    strikes: list[float] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    mc_opts: dict = field(default_factory=dict)

    @functools.cached_property
    def coefficients(self) -> tuple:
        """(sigma0, ..., sigma_top) over the strikes, top the highest order
        of the asymptK methods: one `expansion` call per config, whose first
        K + 1 arrays are those of an order-K call bit for bit."""
        top = max(int(m[-1]) for m in self.methods if m.startswith("asympt"))
        return expansion(self.model, self.setup, self.strikes, top)


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


# the sections some command reads; [pde] is ignored with a note, [output] refused
_SECTIONS = ("model", "market", "strikes", "maturities", "methods", "mc")


def _refuse_unknown_sections(cp: configparser.ConfigParser, path: str) -> None:
    """ConfigError naming a section of the file that no command reads; called
    after the command's required-section checks, which name a misspelt one."""
    unknown = [name for name in cp.sections() if name not in (*_SECTIONS, "pde")]
    if unknown:
        raise ConfigError(f"[{unknown[0]}] in {path!r} is not read by any command "
                          f"(the sections are {', '.join(_SECTIONS)})")


def _refuse_unread(sec, where: str, keys: tuple[str, ...]) -> None:
    """ConfigError naming a key of the section that is not among `keys`, the
    ones the command reads (configparser lower-cases the keys it stores)."""
    read = {k.lower() for k in keys}
    unread = [key for key in sec if key not in read]
    if unread:
        raise ConfigError(f"{where}: key {unread[0]!r} is not read "
                          f"(the keys are {', '.join(keys)})")


# the keys of [model] besides `type`, by type
_MODEL_KEYS = {"shifted_lognormal": ("sigma0", "b"),
               "quadratic_sabr": ("sigma0", "gamma", "rho"),
               "piecewise_linear": ("sigma0", "bL", "bR"), "tabulated": ("path",)}


def _build_model(kind: str, sec, S0: float):
    """The model, and its driftless closed-form pricer (strikes, T) -> prices, or
    None; sigma0 always means the local vol at S0, slopes are the b of 2b(S-S0)."""
    if kind not in _MODEL_KEYS:
        raise ConfigError(f"[model]: unknown type {kind!r} "
                          f"(expected shifted_lognormal, quadratic_sabr, "
                          f"piecewise_linear or tabulated)")
    _refuse_unread(sec, "[model]", ("type",) + _MODEL_KEYS[kind])
    if kind == "tabulated":
        path = _get(sec, "path", "[model]", cast=str)
        try:
            return load_tabulated_csv(path), None
        except (OSError, ValueError) as e:
            raise ConfigError(f"[model]: cannot load tabulated vol {path!r}: {e}") from e
    params = [_get(sec, key, "[model]") for key in _MODEL_KEYS[kind]]
    if kind == "quadratic_sabr":
        return make_quadratic_sabr(*params, S0), None
    if kind == "shifted_lognormal":
        sigma0, b = params
        model = make_shifted_lognormal(sigma0 - 2.0 * b * S0, b, S0)
    else:
        sigma0, b, bR = params  # b is bL
        model = make_piecewise_linear(sigma0, b, bR, S0)
        if bR > 0.0 and b == -bR:
            return model, lambda strikes, T: model2b_call_by_density(
                sigma0, bR, S0, strikes, T).tolist()
        if b != bR:
            return model, None
    # a shifted log-normal, as make_piecewise_linear builds it for bL = bR
    shifted = sigma0 - 2.0 * b * S0
    return model, lambda strikes, T: [shifted_ln_exact_call(shifted, b, S0, K, T)
                                      for K in strikes]


def _read_shared(path: str) -> tuple[configparser.ConfigParser, ExperimentConfig]:
    """The parsed file and its [model], [market] and [maturities]."""
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
    if "output" in cp:
        raise ConfigError(f"[output] in {path!r} is not read: set the output file with "
                          f"--out and, except for sqrt-t, its format with --format")

    mkt = cp["market"]
    _refuse_unread(mkt, "[market]", ("S0", "mu0", "mu1"))
    setup = MarketSetup(S0=_get(mkt, "S0", "[market]"),
                        mu0=_get(mkt, "mu0", "[market]", default=0.0),
                        mu1=_get(mkt, "mu1", "[market]", default=0.0))

    kind = _get(cp["model"], "type", "[model]", cast=str)
    try:
        model, exact_call = _build_model(kind, cp["model"], setup.S0)
    except ValueError as e:
        raise ConfigError(f"[model]: {e}") from e
    if not model.in_domain(setup.S0):
        raise ConfigError(f"[market]: S0 = {setup.S0!r} lies outside the positivity "
                          f"domain {model.positivity_domain} of the model")
    s0_vol = float(model.vol(setup.S0))
    if not 0.0 < s0_vol < math.inf:
        raise ConfigError(f"[model]: sigma_D(S0) = {s0_vol!r} at S0 = {setup.S0!r}; "
                          f"it must be finite and positive")

    if "maturities" not in cp or "list" not in cp["maturities"]:
        raise ConfigError("missing [maturities] list")
    _refuse_unread(cp["maturities"], "[maturities]", ("list",))
    maturities = tuple(_floats(cp["maturities"]["list"], "[maturities] list"))
    if not maturities or any(t <= 0.0 for t in maturities):
        raise ConfigError("[maturities]: need a non-empty list of positive maturities")

    if "pde" in cp:
        print(f"note: the [pde] section of {path!r} is ignored; pde rows come from "
              f"fixed 401- and 801-node grids", file=sys.stderr)
    return cp, ExperimentConfig(model=model, exact_call=exact_call, setup=setup,
                                maturities=maturities)


def load_config(path: str) -> ExperimentConfig:
    """A `smile` experiment: the shared sections, then [strikes], [methods] and [mc]."""
    cp, cfg = _read_shared(path)
    model, setup = cfg.model, cfg.setup
    strikes: list[float] = []
    n = 0
    sec = cp["strikes"] if "strikes" in cp else {}
    if "list" in sec:
        _refuse_unread(sec, "[strikes] with a list", ("list",))
        strikes = _floats(sec["list"], "[strikes] list")
        n, size = len(strikes), f"a list of {len(strikes)} strikes"
    elif sec:
        _refuse_unread(sec, "[strikes]", ("list", "min", "max", "count"))
        lo = _get(sec, "min", "[strikes]")
        hi = _get(sec, "max", "[strikes]")
        n = _get(sec, "count", "[strikes]", cast=int)
        if n < 2 or hi <= lo:
            raise ConfigError("[strikes]: need count >= 2 and max > min")
        size = f"count = {n}"
    # one cap for both forms, checked before a count's strikes are made
    if n > MAX_STRIKES:
        raise ConfigError(f"[strikes]: {size} is above the cap of {MAX_STRIKES}")
    if n and not strikes:
        strikes = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    if not strikes:
        raise ConfigError("[strikes]: empty strike list")
    bad = [k for k in strikes if not model.in_domain(k)]
    if bad:
        raise ConfigError(f"[strikes]: outside positivity domain "
                          f"{model.positivity_domain}: {bad}")

    if "methods" not in cp or "list" not in cp["methods"]:
        raise ConfigError("missing [methods] list")
    _refuse_unknown_sections(cp, path)
    _refuse_unread(cp["methods"], "[methods]", ("list",))
    methods = [m.strip() for m in cp["methods"]["list"].replace(",", " ").split() if m.strip()]
    if not methods:
        raise ConfigError("[methods]: need at least one method")
    unknown = [m for m in methods if m not in _METHODS]
    if unknown:
        raise ConfigError(f"[methods]: unknown {unknown}; choose from {tuple(_METHODS)}")
    if "exact" in methods:
        if cfg.exact_call is None:
            raise ConfigError("[methods]: 'exact' needs a shifted_lognormal, or a "
                              "piecewise_linear with bL = bR or bL = -bR < 0")
        for key in ("mu0", "mu1"):
            if getattr(setup, key) != 0.0:
                raise ConfigError(f"[market]: method 'exact' prices the driftless model; "
                                  f"'{key}' must be 0, got {getattr(setup, key)!r}")

    mc_opts = {}
    if "mc" in cp or "mc" in methods:
        from .mc_oracle import McSpec  # the MC layer loads only where a config uses it

        if "mc" in cp:
            _refuse_unread(cp["mc"], "[mc]", ("n_paths", "steps_per_year"))
            mc_opts = {key: _get(cp["mc"], key, "[mc]", cast=int)
                       for key in ("n_paths", "steps_per_year") if key in cp["mc"]}
        try:
            spec = McSpec(**mc_opts)
        except ValueError as e:
            raise ConfigError(f"[mc]: {e}, got {mc_opts}") from e
        if "mc" in methods:
            if spec.n_paths * len(strikes) > MAX_MC_ELEMENTS:
                raise ConfigError(f"[mc]: n_paths = {spec.n_paths} times {len(strikes)} "
                                  f"strikes is above the cap of {MAX_MC_ELEMENTS} path-strike "
                                  f"elements")
            for T in cfg.maturities:
                try:
                    spec.steps(T)
                except ValueError as e:
                    raise ConfigError(f"[mc] steps_per_year: {e}") from e
    cfg.strikes, cfg.methods, cfg.mc_opts = strikes, methods, mc_opts
    return cfg


def _rows_text(rows: list[dict], fmt: str, columns: list[str]) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for r in rows:
        w.writerow([r[c] if isinstance(r[c], str) else f"{r[c]:.12g}" for c in columns])
    return buf.getvalue()


def _write(text: str, out: str | None) -> None:
    """The one output path of every command: the --out file, or stdout."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write --out {out!r}: {e}") from e


# A method maps (cfg, seed) to one list of (sigma_N, flag) per maturity, in strike order.

def _asympt(order: int):
    def smiles(cfg: ExperimentConfig, seed: int):
        # low_confidence on a breakpoint, which expansion does not warn about, on a
        # value a truncated series left off the positive reals, and on a strike whose
        # rounding eps |K| is above 1e-6 of its distance to a finite domain end, where
        # sigma_D(K) is mostly rounding: on shifted log-normals with sigma_D(S0) = 1e-2
        # .. 1e-6, sigma0 was within 5.3e-9 relative of 40 digits up to 1e-6, and up
        # to 3.4e-3 off above it
        ends = [end for end in cfg.model.positivity_domain if math.isfinite(end)]
        doubt = [bool(cfg.model.breakpoints)
                 or any(sys.float_info.epsilon * abs(K) > 1e-6 * abs(K - end) for end in ends)
                 for K in cfg.strikes]
        vols = [smile_from_coefficients(cfg.coefficients[:order + 1], T).tolist()
                for T in cfg.maturities]
        return [[(vol, "ok" if 0.0 < vol < math.inf and not low else "low_confidence")
                 for vol, low in zip(smile, doubt)] for smile in vols]
    return smiles


def _pde(cfg: ExperimentConfig, seed: int):
    # every maturity from one march per grid size
    return implied_smile_from_pde(cfg.model, cfg.setup, cfg.maturities, cfg.strikes)


def _oracle_smile(cfg: ExperimentConfig, T: float, priced, hits: int = 0
                  ) -> list[tuple[float, str]]:
    """The rows at T of one (price, noise level) per strike; a price that is
    not finite, as from an Euler march that exploded, is nan low_confidence,
    and so is an ok row whose paths left the model's domain (`hits` > 0).
    A failure carries T, which cmd_smile names."""
    F = cfg.setup.forward(T)
    rows = []
    try:
        for K, (price, noise) in zip(cfg.strikes, priced):
            vol, flag = (implied_vol_and_flag(price, F, K, T, noise) if math.isfinite(price)
                         else (math.nan, "low_confidence"))
            rows.append((vol, "low_confidence" if flag == "ok" and hits else flag))
    except (ValueError, ArithmeticError, RuntimeError) as e:
        e.T = T
        raise
    return rows


def _mc(cfg: ExperimentConfig, seed: int):
    from .mc_oracle import McSpec, mc_call

    # one march per step size; a time value within 3 standard errors has no vol
    results = mc_call(cfg.model, cfg.setup, cfg.strikes, cfg.maturities,
                      McSpec(seed=seed, **cfg.mc_opts))
    return [_oracle_smile(cfg, T, zip(res.price.tolist(), (3.0 * res.std_error).tolist()),
                          res.n_boundary_hits)
            for T, res in zip(cfg.maturities, results)]


def _exact(cfg: ExperimentConfig, seed: int):
    # one noise level for both closed forms, each an out-of-the-money price plus the
    # intrinsic value: on K = 0.01 .. 0.08 x T = 0.01 .. 1, S0 = 0.03, the kink (0.008, 0.1)
    # is within 6.9e-18 absolute, 6.4e-15 relative of scipy's quad, the shifted log-normal
    # (0.014, +-0.1) 7.9e-18, 2.8e-15 (price > 1e-3) of 50 digits; the level is 13x to 36x these
    return [_oracle_smile(cfg, T, [(price, max(1e-16, 1e-13 * price))
                                   for price in cfg.exact_call(cfg.strikes, T)])
            for T in cfg.maturities]


_METHODS = {"asympt0": _asympt(0), "asympt1": _asympt(1), "asympt2": _asympt(2),
            "pde": _pde, "mc": _mc, "exact": _exact}


def cmd_smile(args) -> int:
    cfg = load_config(args.config)
    smiles = []
    for method in cfg.methods:
        try:
            smiles.append(_METHODS[method](cfg, args.seed))
        except ForwardOffGrid:
            raise  # a config error, reported by main
        except (ValueError, ArithmeticError, RuntimeError) as e:
            # a failure names a maturity only when it failed at one
            at = f" at T={e.T}" if hasattr(e, "T") else ""
            print(f"numerical failure{at}, method={method}: {e}", file=sys.stderr)
            return EXIT_NUMERICAL
    rows = [{"K": K, "T": T, "method": method, "sigma_N": vol, "flag": flag}
            for i, T in enumerate(cfg.maturities)
            for method, by_T in zip(cfg.methods, smiles)
            for K, (vol, flag) in zip(cfg.strikes, by_T[i])]
    _write(_rows_text(rows, args.format, ["K", "T", "method", "sigma_N", "flag"]), args.out)
    return EXIT_OK


_TABLE1_MATURITIES = (1.0, 2.0, 5.0, 10.0, 20.0, 30.0)


def table1_rows(sigma0bar: float = 0.03, b: float = 0.2) -> list[dict]:
    """ATM deviations (orders 0/1/2 minus exact) for sigma_D = sigma0bar + 2bY."""
    coeffs = expansion(make_shifted_lognormal(sigma0bar, b, 0.0), MarketSetup(0.0), [0.0], 2)
    exact = {T: shifted_ln_atm_exact_vol(sigma0bar, b, T) for T in _TABLE1_MATURITIES}
    return [{"T": T, **{f"dev_order{k}": float(smile_from_coefficients(coeffs[:k + 1], T)[0])
                        - ex for k in range(3)}}
            for T, ex in exact.items()]


def cmd_table1(args) -> int:
    try:
        rows = table1_rows(args.sigma0bar, args.b)
    except ValueError as e:
        raise ConfigError(f"table1: sigma0bar={args.sigma0bar}, b={args.b}: {e}") from e
    print(f"ATM normal-vol deviations, sigma0bar={args.sigma0bar}, b={args.b}")
    print(f"{'T':>4}  {'order0-exact':>13}  {'order1-exact':>13}  {'order2-exact':>13}")
    for r in rows:
        print(f"{r['T']:4.0f}  {100*r['dev_order0']:12.4f}%  "
              f"{100*r['dev_order1']:12.4f}%  {100*r['dev_order2']:12.4f}%")
    if args.out:
        _write(_rows_text(rows, args.format, ["T", "dev_order0", "dev_order1", "dev_order2"]),
               args.out)
    return EXIT_OK


def cmd_sqrt_t(args) -> int:
    cp, cfg = _read_shared(args.config)
    _refuse_unknown_sections(cp, args.config)
    ts = cfg.maturities
    repeated = sorted({t for t in ts if ts.count(t) > 1})
    if repeated or len(ts) < 5:
        raise ConfigError(f"[maturities]: sqrt-t needs at least 5 distinct maturities, "
                          f"got {len(set(ts))}, repeated: {repeated}")
    try:
        report = sqrt_t_detector(cfg.model, cfg.setup, ts)
    except ForwardOffGrid:
        raise  # a config error, reported by main
    except (ValueError, RuntimeError) as e:
        print(f"numerical failure in sqrt-t fit: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    # the whole report is built before its first line is printed
    p = report.exponent
    if abs(p - 0.5) <= 0.15:
        lines = [f"sqrt-T anomaly (p~1/2: fitted p={p:.3f}, c={report.coefficient:.6g})"]
    elif p >= 0.8:
        lines = [f"analytic (p~1: fitted p={p:.3f})"]
    else:
        lines = [f"unclassified (fitted p={p:.3f})"]
    try:
        predicted = sqrt_t_coefficient(cfg.model, cfg.setup.S0)
        if predicted:
            lines.append(f"predicted c={predicted:.6g} (kink at S0), "
                         f"fitted/predicted={report.coefficient / predicted:.4g}")
        if cfg.model.breakpoints:
            jump = sigma1_jump(cfg.model, cfg.setup.S0)
            lines.append(f"sigma1 jump across the forward: {jump:.6g}")
    except ArithmeticError as e:
        print(f"numerical failure in the sqrt-t report: {type(e).__name__}: {e}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    print("\n".join(lines))
    _write(report.to_json() + "\n", args.out)
    return EXIT_OK


def cmd_convert(args) -> int:
    if args.F <= 0.0 or args.T <= 0.0:
        print("convert: F and T must be positive", file=sys.stderr)
        return EXIT_CONFIG
    if args.value < 0.0:
        print(f"convert: the vol must be >= 0, got {args.value!r}", file=sys.stderr)
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
    """(K, T) -> sigma_N interpolator from the CSV `nvol smile` writes, which
    must hold the rows of exactly one method.

    Cubic spline in strike on each maturity level, linear between levels.
    Returns (surface, strikes_by_level, sorted maturities).
    """
    from scipy.interpolate import CubicSpline

    levels: dict[float, list[tuple[float, float]]] = {}
    methods = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"K", "T", "method", "sigma_N"}
        if reader.fieldnames is None or not need.issubset(set(reader.fieldnames)):
            raise ConfigError(f"surface CSV {path!r} must have columns K,T,method,sigma_N")
        for rec in reader:
            methods.add(rec["method"])
            k, t, v = float(rec["K"]), float(rec["T"]), float(rec["sigma_N"])
            if not (math.isfinite(k) and math.isfinite(t) and t > 0.0):
                raise ConfigError(f"surface CSV {path!r} line {reader.line_num}: K = {k!r} "
                                  f"and T = {t!r} must be finite and T > 0")
            # drop the rows without a vol (off the PDE grid, no time value)
            if math.isfinite(v) and v > 0.0:
                levels.setdefault(t, []).append((k, v))
    if len(methods) != 1:
        raise ConfigError(f"surface CSV {path!r} must hold one method, "
                          f"found {sorted(methods)}")
    ts = sorted(levels)
    if len(ts) < 2:
        raise ConfigError("surface needs at least two maturity levels")
    splines = {}
    strikes = {}
    for t in ts:
        ks, vs = zip(*sorted(levels[t]))
        if len(ks) < 4:
            raise ConfigError(f"maturity level T={t} has fewer than 4 usable strikes")
        splines[t] = CubicSpline(ks, vs)
        strikes[t] = ks

    def surface(K: float, T: float) -> float:
        # the two levels around T, or the first or last two outside them
        j = min(max(bisect.bisect_right(ts, T) - 1, 0), len(ts) - 2)
        lo, hi = ts[j], ts[j + 1]
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
    # the strikes every level covers: outside them a spline extrapolates
    k_lo = max(ks[0] for ks in strikes_by_level.values())
    k_hi = min(ks[-1] for ks in strikes_by_level.values())
    if args.K:
        strikes = args.K
        outside = [K for K in strikes if not k_lo <= K <= k_hi]
        if outside:
            raise ConfigError(f"--K {outside[0]!r} lies outside [{k_lo}, {k_hi}], the "
                              f"strike range that every maturity level covers")
    else:
        level = min(ts, key=lambda t: abs(t - T))
        F = setup.forward(T)
        s_atm = surface(F, T)
        band = 2.0 * s_atm * math.sqrt(T)
        strikes = [k for k in strikes_by_level[level]
                   if abs(k - F) <= band and k_lo <= k <= k_hi]
        if not strikes:
            raise ConfigError(f"no surface strikes within 2 stdev of the forward and in "
                              f"[{k_lo}, {k_hi}]; pass explicit --K values")
    dT = min(0.05 * T, 0.5 * (ts[-1] - T))
    rows = []
    try:
        for K in strikes:
            sd = extract_local_vol(surface, setup, K, T, dT=dT)
            rows.append({"K": K, "T": T, "sigma_D": sd})
    except ValueError as e:
        print(f"extract-lv: numerical failure at K={K}, T={T}: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write(_rows_text(rows, args.format, ["K", "T", "sigma_D"]), args.out)
    return EXIT_OK


def _finite(text: str) -> float:
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type: a non-negative integer, as the generator's seed must be."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: each parse_args call makes a new
    namespace from its defaults."""
    ap = argparse.ArgumentParser(prog="nvol", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, config_required=True, formats=True):
        if config_required:
            p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        if formats:
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("smile", help="smiles per (K, T, method) from a config")
    common(p)
    p.add_argument("--seed", type=_seed, default=0, help="Monte-Carlo seed (>= 0)")
    p.set_defaults(func=cmd_smile)

    p = sub.add_parser("table1", help="ATM deviation table, shifted log-normal")
    common(p, config_required=False)
    p.add_argument("--sigma0bar", type=_finite, default=0.03,
                   help="at-the-money local vol (default 0.03)")
    p.add_argument("--b", type=_finite, default=0.2, help="half slope (default 0.2)")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("sqrt-t", help="small-time power-law fit of the ATM deviation")
    common(p, formats=False)
    p.set_defaults(func=cmd_sqrt_t)

    p = sub.add_parser("convert", help="exact ATM normal <-> log-normal vol")
    p.add_argument("F", type=_finite, help="forward")
    p.add_argument("T", type=_finite, help="maturity")
    p.add_argument("value", type=_finite, help="vol to convert")
    p.add_argument("--direction", choices=("ln2n", "n2ln"), required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("extract-lv",
                       help="local vol from the `nvol smile` CSV of one method")
    p.add_argument("surface", help="`nvol smile` CSV path (columns K,T,method,sigma_N)")
    common(p, config_required=False)
    p.add_argument("--s0", type=_finite, required=True)
    p.add_argument("--mu0", type=_finite, default=0.0)
    p.add_argument("--mu1", type=_finite, default=0.0)
    p.add_argument("--T", type=_finite, required=True)
    p.add_argument("--K", type=_finite, action="append", default=None,
                   help="strike (repeatable; default: surface strikes near ATM)")
    p.set_defaults(func=cmd_extract_lv)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ForwardOffGrid) as e:
        where = "[market]: " if isinstance(e, ForwardOffGrid) else ""
        print(f"config error: {where}{e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
