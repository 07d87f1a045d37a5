"""Benchmark workloads: the CLI invocations of one pass and their gates.

There are four parts, each with its own purpose (see README.md), and the
benchmark's two workloads each run two of them in one pass: `pde` is
`figures` + `sqrt_t`, `expansion_mc` is `expansion_drift` + `mc_exact`.
Fewer, longer workloads keep the run-to-run spread of the timings within
their bounds on a machine whose speed drifts; a part can still be run alone.

A part is built from the benchmark seed into a work directory.  The seed
only permutes the order of configs and of strikes inside a config, so every
seed does the same amount of work (the cost of a drifted `sigma2` varies by
25x across strikes, and a seed that picked strikes would mostly measure its
own choice) and the expansion rows can be checked against one reference
table.  The program sees nothing but INI files and CLI arguments.

Each invocation carries a gate that turns the CLI exit code and the bytes it
wrote into (rows attempted, rows failed, messages).  No gate is looser than
the tolerance the repository's tests state for the same quantity.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).resolve().parent / "reference" / "expansion_drift.json"

# Monte-Carlo seed handed to `nvol smile --seed`: the CLI default.  It is fixed
# rather than drawn from the benchmark seed so that the 3-standard-error gate
# is deterministic; a drawn seed would fail ~1% of honest runs.
MC_SEED = 0

# relative tolerances of tests/test_asymptotics.py for each coefficient
COEFF_REL_TOL = (1e-9, 1e-5, 2e-4)  # sigma0, sigma1, sigma2

Gate = Callable[[int, bytes], "tuple[int, int, list[str]]"]


@dataclass
class Invocation:
    name: str
    argv: list[str]
    out: Path
    gate: Gate
    part: str = ""


@dataclass
class Plan:
    """One pass of a workload, plus what the set-up probe needs."""

    invocations: list[Invocation]
    configs: list[str]                 # parsed at set-up
    first_calls: list[list[str]]       # toy CLI runs paying the first-call costs
    prepare: Callable[[], None] = field(default=lambda: None)


def _ini(model: dict, S0: float, strikes, maturities, methods, extra: str = "",
         mu0: float = 0.0, mu1: float = 0.0) -> str:
    lines = ["[model]"] + [f"{k} = {v}" for k, v in model.items()]
    lines += ["", "[market]", f"S0 = {S0!r}", f"mu0 = {mu0!r}", f"mu1 = {mu1!r}",
              "", "[strikes]", "list = " + " ".join(repr(k) for k in strikes),
              "", "[maturities]", "list = " + " ".join(repr(t) for t in maturities),
              "", "[methods]", "list = " + " ".join(methods), ""]
    return "\n".join(lines) + extra


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _csv_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _failed_exit(rc: int, expected: int, name: str) -> tuple[int, int, list[str]]:
    return expected, max(expected, 1), [f"{name}: nvol exited with code {rc}"]


# --------------------------------------------------------------------- figures

def figures(root: Path, work: Path, rng: random.Random) -> Plan:
    """The seven checked-in figure configs, byte-compared with out/*.csv."""
    cfgs = sorted((root / "configs").glob("fig*.ini"))
    if not cfgs:
        raise FileNotFoundError(f"no configs/fig*.ini under {root}")
    rng.shuffle(cfgs)
    invs = []
    for cfg in cfgs:
        want = (root / "out" / (cfg.stem + ".csv")).read_bytes()
        out = work / (cfg.stem + ".csv")

        def gate(rc, got, want=want, name=cfg.stem):
            want_lines = want.decode().splitlines()[1:]
            if rc != 0:
                return _failed_exit(rc, len(want_lines), name)
            got_lines = got.decode().splitlines()
            bad = sum(a != b for a, b in zip(got_lines[1:], want_lines))
            bad += abs(len(got_lines) - 1 - len(want_lines))
            if got_lines[:1] != want.decode().splitlines()[:1]:
                bad = len(want_lines)
            msgs = [f"{name}: {bad} rows differ from out/{name}.csv"] if bad else []
            return len(want_lines), bad, msgs

        invs.append(Invocation(cfg.stem, ["smile", "--config", str(cfg), "--out", str(out)],
                               out, gate))
    toy = _write(work / "toy_figures.ini",
                 _ini({"type": "shifted_lognormal", "sigma0": 0.014, "b": 0.1}, 0.03,
                      [0.035], [1.0], ["asympt0", "asympt1", "exact", "pde"],
                      "\n[pde]\nn_space = 51\nn_time_per_year = 4\nmin_time_steps = 4\n"))
    return Plan(invs, [str(c) for c in cfgs],
                [["smile", "--config", toy, "--out", str(work / "toy.csv")]])


# ---------------------------------------------------------------------- sqrt_t

def sqrt_t(root: Path, work: Path, rng: random.Random) -> Plan:
    """Both sqrt-T configs through `nvol sqrt-t`, gated like test_acceptance."""
    cfgs = sorted((root / "configs").glob("sqrtt_*.ini"))
    if not cfgs:
        raise FileNotFoundError(f"no configs/sqrtt_*.ini under {root}")
    rng.shuffle(cfgs)
    invs = []
    for cfg in cfgs:
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        cp.read(cfg)
        model = cp["model"]
        out = work / (cfg.stem + ".json")

        if model["type"] == "piecewise_linear":
            sigma0, b = float(model["sigma0"]), float(model["bR"])
            target = 0.5 * math.sqrt(math.pi / 2.0) * sigma0 * b

            def ok(rep, target=target):
                return (abs(rep["exponent"] - 0.5) <= 0.05
                        and abs(rep["coefficient"] / target - 1.0) <= 0.05)
        else:
            def ok(rep):
                return rep["exponent"] >= 0.9

        def gate(rc, got, ok=ok, name=cfg.stem):
            if rc != 0:
                return _failed_exit(rc, 1, name)
            try:
                rep = json.loads(got)
            except ValueError:
                return 1, 1, [f"{name}: no fit report written"]
            if ok(rep):
                return 1, 0, []
            return 1, 1, [f"{name}: fit out of tolerance: {rep}"]

        invs.append(Invocation(cfg.stem, ["sqrt-t", "--config", str(cfg), "--out", str(out)],
                               out, gate))
    toy = _write(work / "toy_sqrt_t.ini",
                 _ini({"type": "piecewise_linear", "sigma0": 0.008, "bL": -0.1, "bR": 0.1},
                      0.03, [0.03], [0.01], ["pde"],
                      "\n[pde]\nn_space = 51\nn_time_per_year = 400\nmin_time_steps = 4\n"))
    return Plan(invs, [str(c) for c in cfgs],
                [["smile", "--config", toy, "--out", str(work / "toy.csv")]])


# ------------------------------------------------------------- expansion_drift

STRIKES_NEAR = (0.025, 0.028, 0.0295, 0.031, 0.033, 0.035)

EXPANSION_CASES = {
    "sabr_drift": dict(model={"type": "quadratic_sabr", "sigma0": 0.01, "gamma": 0.3,
                              "rho": -0.3},
                       mu0=0.002, mu1=-0.001),
    "sln_drift": dict(model={"type": "shifted_lognormal", "sigma0": 0.014, "b": 0.1},
                      mu0=0.001, mu1=0.0005),
}
EXPANSION_T = (0.5, 1.0)
EXPANSION_METHODS = ("asympt0", "asympt1", "asympt2")


def expansion_config(case: str, strikes=STRIKES_NEAR) -> str:
    c = EXPANSION_CASES[case]
    return _ini(c["model"], 0.03, strikes, EXPANSION_T, EXPANSION_METHODS,
                mu0=c["mu0"], mu1=c["mu1"])


def _row_tolerances(ref: dict) -> dict:
    """Absolute tolerance per (K, T, method) from the reference rows.

    asympt1 - asympt0 is sigma1*T and asympt2 - asympt1 is sigma2*T^2, so each
    coefficient gets its own test tolerance and the row the sum of its terms.
    """
    tol = {}
    for (K, T, method), v in ref.items():
        order = int(method[-1])
        terms = [ref[(K, T, "asympt0")]] + [
            ref[(K, T, f"asympt{k}")] - ref[(K, T, f"asympt{k - 1}")]
            for k in range(1, order + 1)]
        tol[(K, T, method)] = sum(r * abs(t) for r, t in zip(COEFF_REL_TOL, terms))
    return tol


def expansion_drift(root: Path, work: Path, rng: random.Random) -> Plan:
    """Drifted smiles through asympt0/1/2, checked against the seed commit."""
    reference = json.loads(REFERENCE.read_text())
    cases = sorted(EXPANSION_CASES)
    rng.shuffle(cases)
    invs, paths = [], []
    for case in cases:
        strikes = list(STRIKES_NEAR)
        rng.shuffle(strikes)
        path = _write(work / f"{case}.ini", expansion_config(case, strikes))
        paths.append(path)
        ref = {(float(K), float(T), method): float(vol)
               for K, T, method, vol, _flag in reference[case]}
        tol = _row_tolerances(ref)
        out = work / f"{case}.csv"

        def gate(rc, got, ref=ref, tol=tol, name=case):
            if rc != 0:
                return _failed_exit(rc, len(ref), name)
            seen, msgs = set(), []
            for r in _csv_rows(got):
                key = (float(r["K"]), float(r["T"]), r["method"])
                v = float(r["sigma_N"])
                if key in ref and r["flag"] == "ok" and abs(v - ref[key]) <= tol[key]:
                    seen.add(key)
                else:
                    msgs.append(f"{name}: row {key} = {v} flag {r['flag']}: "
                                f"reference {ref.get(key)} +- {tol.get(key)}")
            bad = len(ref) - len(seen)
            return len(ref), bad, msgs if bad else []

        invs.append(Invocation(case, ["smile", "--config", path, "--out", str(out)],
                               out, gate))
    c = EXPANSION_CASES["sabr_drift"]
    toy = _write(work / "toy_expansion.ini",
                 _ini(c["model"], 0.03, [0.03], [1.0], EXPANSION_METHODS,
                      mu0=c["mu0"], mu1=c["mu1"]))
    return Plan(invs, paths, [["smile", "--config", toy, "--out", str(work / "toy.csv")]])


# -------------------------------------------------------------------- mc_exact

MC_CASES = {
    "sln": dict(model={"type": "shifted_lognormal", "sigma0": 0.014, "b": 0.1},
                strikes=(0.02, 0.025, 0.028, 0.032, 0.035, 0.04)),
    "kink": dict(model={"type": "piecewise_linear", "sigma0": 0.008, "bL": -0.1, "bR": 0.1},
                 strikes=(0.022, 0.026, 0.029, 0.031, 0.034, 0.038)),
}
MC_T = (0.25, 0.5)


def _mc_stderr_vol(cfg_path: str) -> dict:
    """MC standard error in vol units per (K, T): price error over vega.

    Uses the program's own `mc_call` with the spec `nvol smile` builds, since
    the CLI does not report the standard error.  Run once, before timing.
    """
    from nvol import cli
    from nvol.bachelier import NormalQuote, bachelier_vega, implied_normal_vol
    from nvol.mc_oracle import McSpec, mc_call

    cfg = cli.load_config(cfg_path)
    spec = McSpec(seed=MC_SEED, **cfg.mc_opts)
    se = {}
    for T in cfg.maturities:
        F = cfg.setup.forward(T)
        for K in cfg.strikes:
            res = mc_call(cfg.model, cfg.setup, K, T, spec)
            vol = implied_normal_vol(max(res.price, max(F - K, 0.0)), F, K, T)
            se[(K, T)] = res.std_error / bachelier_vega(NormalQuote(F=F, K=K, T=T, sigmaN=vol))
    return se


def mc_exact(root: Path, work: Path, rng: random.Random) -> Plan:
    """MC against closed forms on two models; MC within 3 standard errors."""
    cases = sorted(MC_CASES)
    rng.shuffle(cases)
    invs, paths, stderr = [], [], {}
    for case in cases:
        c = MC_CASES[case]
        strikes = list(c["strikes"])
        rng.shuffle(strikes)
        path = _write(work / f"mc_{case}.ini",
                      _ini(c["model"], 0.03, strikes, MC_T, ["exact", "mc"]))
        paths.append(path)
        out = work / f"mc_{case}.csv"
        n_rows = 2 * len(strikes) * len(MC_T)
        first: list[bytes] = []

        def gate(rc, got, path=path, first=first, name=case, n_rows=n_rows):
            if rc != 0:
                return _failed_exit(rc, n_rows, name)
            if not first:
                first.append(got)
            elif got != first[0]:
                return n_rows, n_rows, [f"{name}: output differs from the first pass"]
            rows = _csv_rows(got)
            exact = {(float(r["K"]), float(r["T"])): float(r["sigma_N"])
                     for r in rows if r["method"] == "exact"}
            se = stderr[path]
            msgs = []
            for r in rows:
                key = (float(r["K"]), float(r["T"]))
                v = float(r["sigma_N"])
                if r["method"] == "mc":
                    good = (key in exact and r["flag"] == "ok"
                            and abs(v - exact[key]) <= 3.0 * se.get(key, math.nan))
                else:
                    good = math.isfinite(v) and v > 0.0
                if not good:
                    msgs.append(f"{name}: {r['method']} row {key} = {v}, exact "
                                f"{exact.get(key)}, 3 se = {3.0 * se.get(key, math.nan)}")
            bad = len(msgs) + abs(n_rows - len(rows))
            return n_rows, bad, msgs

        invs.append(Invocation(case, ["smile", "--config", path, "--out", str(out),
                                      "--seed", str(MC_SEED)], out, gate))

    def prepare():
        for p in paths:
            stderr[p] = _mc_stderr_vol(p)

    toy = _write(work / "toy_mc.ini",
                 _ini(MC_CASES["kink"]["model"], 0.03, [0.031], [0.25], ["exact", "mc"],
                      "\n[mc]\nn_paths = 2\nsteps_per_year = 4\n"))
    return Plan(invs, paths, [["smile", "--config", toy, "--out", str(work / "toy.csv")]],
                prepare)


PARTS = {"figures": figures, "sqrt_t": sqrt_t, "expansion_drift": expansion_drift,
         "mc_exact": mc_exact}
# the benchmark's workloads; why each exists is recorded in BENCHMARK.json
WORKLOADS = {"pde": ("figures", "sqrt_t"), "expansion_mc": ("expansion_drift", "mc_exact")}


def make_plan(name: str, root: Path, work: Path, rng: random.Random) -> Plan:
    """The plan of a workload (its parts in turn) or of a single part."""
    plans = []
    for part in WORKLOADS.get(name, (name,)):
        plan = PARTS[part](root, work, rng)
        for inv in plan.invocations:
            inv.part = part
        plans.append(plan)

    def prepare():
        for plan in plans:
            plan.prepare()

    return Plan([inv for p in plans for inv in p.invocations],
                [c for p in plans for c in p.configs],
                [argv for p in plans for argv in p.first_calls], prepare)
