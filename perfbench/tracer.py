"""Spans and work counters recorded from outside the program.

`Tracer.install` replaces public `nvol` functions by wrappers, in every
`nvol` module that holds them, so a call is seen wherever the name is looked
up (`nvol.cli.solve_forward`, `nvol.exact_solutions.solve_forward`, ...).
`uninstall` puts the originals back.  Nothing under `src/` is edited.

Spans (name, start, end, parent, pass) sit at the calls from the CLI into a
layer and at the top-level `sigma0`/`sigma1`/`sigma2` calls of `smile`.
Work nested below those -- the thousands of coefficient calls inside one
drifted `sigma2`, integrand and local-vol evaluations -- only bumps counters,
because a span each would cost more than the work it measures.  The
counters depend on the inputs alone, so they repeat exactly from run to run.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("cli.load_config_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("import.nvol_cli_s", "s", "lower"),
    ("import.lazy_s", "s", "lower"),
    ("dupire_pde.solve_forward.calls", "count", "lower"),
    ("dupire_pde.solve_forward.s", "s", "lower"),
    ("dupire_pde.node_steps", "count", "lower"),
    ("dupire_pde.ns_per_node_step", "ns", "lower"),
    ("dupire_pde.smile_extract_s", "s", "lower"),
    ("dupire_pde.bytes_computed", "B", "lower"),
    ("asymptotics.smile.calls", "count", "lower"),
    ("asymptotics.sigma0.calls", "count", "lower"),
    ("asymptotics.sigma1.calls", "count", "lower"),
    ("asymptotics.sigma2.calls", "count", "lower"),
    ("asymptotics.sigma2.s", "s", "lower"),
    ("asymptotics.coeff_reuse", "ratio", "higher"),
    ("quadrature.integrand_evals", "count", "lower"),
    ("quadrature.s", "s", "lower"),
    ("models.vol_evals", "count", "lower"),
    ("bachelier.implied_normal_vol.calls", "count", "lower"),
    ("bachelier.implied_normal_vol.s", "s", "lower"),
    ("bachelier.price_evals", "count", "lower"),
    ("mc_oracle.mc_call.calls", "count", "lower"),
    ("mc_oracle.mc_call.s", "s", "lower"),
    ("mc_oracle.path_steps", "count", "lower"),
    ("mc_oracle.ns_per_path_step", "ns", "lower"),
    ("mc_oracle.path_reuse", "ratio", "higher"),
    ("exact_solutions.price_s", "s", "lower"),
    ("exact_solutions.sqrt_t_detector.s", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


def _label(model) -> str:
    return getattr(model, "label", "") or repr(model)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, pass]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._coef_depth = 0
        self._quad_depth = 0
        self._factory_depth = 0
        self._in_mc = 0
        self.begin_pass(-1)

    # ------------------------------------------------------------ recording

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counts: Counter = Counter()
        self.quad_s = 0.0
        self._keys: dict[str, set] = defaultdict(set)
        # hot counters, bumped up to millions of times a pass: plain attributes
        self.vol_evals = self.integrand_evals = self.path_steps = 0

    def pass_counts(self) -> dict:
        """The work counters of the current pass."""
        return {**self.counts, "models.vol_evals": self.vol_evals,
                "quadrature.integrand_evals": self.integrand_evals,
                "mc_oracle.path_steps": self.path_steps}

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _span(self, name, fn):
        calls = name + ".calls"

        def wrapper(*a, **k):
            self.counts[calls] += 1
            idx = self.open(name)
            try:
                return fn(*a, **k)
            finally:
                self.close(idx)
        return wrapper

    def _coefficient(self, name, fn):
        """Every call counts; only calls from outside a coefficient get a span."""
        calls = name + ".calls"

        def wrapper(*a, **k):
            self.counts[calls] += 1
            if self._coef_depth:
                return fn(*a, **k)
            key = (name, _label(a[0]) if a else "",
                   *(v for v in a[1:] if isinstance(v, (int, float))),
                   *sorted((kk, v) for kk, v in k.items() if isinstance(v, (int, float))))
            self._keys["coef"].add(key)
            self.counts["asymptotics.top_level_calls"] += 1
            idx = self.open(name)
            self._coef_depth += 1
            try:
                return fn(*a, **k)
            finally:
                self._coef_depth -= 1
                self.close(idx)
        return wrapper

    def _quadrature(self, fn):
        """Counts integrand evaluations; times the outermost quadrature only."""
        def wrapper(f, *a, **k):
            def counted(x):
                self.integrand_evals += 1 if isinstance(x, float) else int(np.size(x))
                return f(x)
            t0 = time.perf_counter() if self._quad_depth == 0 else 0.0
            self._quad_depth += 1
            try:
                return fn(counted, *a, **k)
            finally:
                self._quad_depth -= 1
                if self._quad_depth == 0:
                    self.quad_s += time.perf_counter() - t0
        return wrapper

    def _solve_forward(self, fn):
        span = self._span("dupire_pde.solve_forward", fn)

        def wrapper(*a, **k):
            sol = span(*a, **k)
            steps = getattr(sol, "meta", {}).get("n_steps", 0)
            self.counts["dupire_pde.node_steps"] += steps * len(sol.strikes)
            return sol
        return wrapper

    def _banded(self, fn):
        def wrapper(l_and_u, ab, b, *a, **k):
            x = fn(l_and_u, ab, b, *a, **k)
            self.counts["dupire_pde.bytes_computed"] += ab.nbytes + b.nbytes + x.nbytes
            return x
        return wrapper

    def _counter(self, name, fn):
        def wrapper(*a, **k):
            self.counts[name] += 1
            return fn(*a, **k)
        return wrapper

    def _mc_call(self, fn):
        span = self._span("mc_oracle.mc_call", fn)

        def wrapper(model, setup, K, T, *a, **k):
            # one path set per (model, market, T, spec: seed, paths, steps)
            self._keys["paths"].add((_label(model), repr(setup), T, repr(a), repr(k)))
            self._in_mc += 1
            try:
                return span(model, setup, K, T, *a, **k)
            finally:
                self._in_mc -= 1
        return wrapper

    def _counted_vol(self, fn):
        def vol(s):
            n = 1 if isinstance(s, float) else int(np.size(s))
            self.vol_evals += n
            if self._in_mc:
                self.path_steps += n
            return fn(s)
        return vol

    def _instrument(self, model):
        if not dataclasses.is_dataclass(model):
            return model
        changes = {f: self._counted_vol(getattr(model, f))
                   for f in ("vol", "vol_vec") if getattr(model, f, None) is not None}
        if getattr(model, "branches", ()):
            changes["branches"] = tuple(self._instrument(b) for b in model.branches)
        return dataclasses.replace(model, **changes)

    def _factory(self, fn):
        """Model constructors: the outermost call returns a counting model."""
        def wrapper(*a, **k):
            self._factory_depth += 1
            try:
                model = fn(*a, **k)
            finally:
                self._factory_depth -= 1
            return model if self._factory_depth else self._instrument(model)
        return wrapper

    # ------------------------------------------------------------- patching

    def _wrappers(self) -> dict:
        import scipy.linalg

        from nvol import (asymptotics, bachelier, cli, dupire_pde, exact_solutions,
                          mc_oracle, models, quadrature)
        w = {
            cli.load_config: self._span("cli.load_config", cli.load_config),
            asymptotics.smile: self._span("asymptotics.smile", asymptotics.smile),
            dupire_pde.solve_forward: self._solve_forward(dupire_pde.solve_forward),
            scipy.linalg.solve_banded: self._banded(scipy.linalg.solve_banded),
            bachelier.implied_normal_vol: self._span("bachelier.implied_normal_vol",
                                                     bachelier.implied_normal_vol),
            bachelier.bachelier_call: self._counter("bachelier.price_evals",
                                                    bachelier.bachelier_call),
            mc_oracle.mc_call: self._mc_call(mc_oracle.mc_call),
            exact_solutions.sqrt_t_detector: self._span("exact_solutions.sqrt_t_detector",
                                                        exact_solutions.sqrt_t_detector),
        }
        for name in ("sigma0", "sigma1", "sigma2"):
            fn = getattr(asymptotics, name)
            w[fn] = self._coefficient("asymptotics." + name, fn)
        for name in ("implied_smile_from_pde", "atm_implied_vol"):
            fn = getattr(dupire_pde, name)
            w[fn] = self._span("dupire_pde." + name, fn)
        for name in ("shifted_ln_exact_call", "model2b_call_by_density"):
            fn = getattr(exact_solutions, name)
            w[fn] = self._span("exact_solutions.price", fn)
        for name in ("integrate", "gauss_legendre"):
            fn = getattr(quadrature, name)
            w[fn] = self._quadrature(fn)
        for name in ("make_shifted_lognormal", "make_quadratic_sabr",
                     "make_piecewise_linear", "make_tabulated"):
            fn = getattr(models, name)
            w[fn] = self._factory(fn)
        return w

    def install(self) -> None:
        wrappers = self._wrappers()
        by_id = {id(fn): (fn, wrapped) for fn, wrapped in wrappers.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "nvol" and not modname.startswith("nvol."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = by_id.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    # -------------------------------------------------------------- summary

    def pass_summary(self, pass_id: int) -> dict:
        """Per-layer metrics of one traced pass: counts, self times, ratios.

        Self time is a span's duration minus that of its direct children.
        `quadrature.s` is the time inside outermost quadrature calls, so it
        overlaps the asymptotics and exact_solutions times that contain it.
        """
        self_s: Counter = Counter()
        for name, start, end, parent, p in self.spans:
            if p != pass_id:
                continue
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        c = Counter(self.pass_counts())
        out = {name: float(c[name]) for name, unit, _ in PER_LAYER if unit == "count"}
        out.update({
            "cli.self_s": self_s["cli.main"],
            "dupire_pde.solve_forward.s": self_s["dupire_pde.solve_forward"],
            "dupire_pde.smile_extract_s": (self_s["dupire_pde.implied_smile_from_pde"]
                                           + self_s["dupire_pde.atm_implied_vol"]),
            "dupire_pde.bytes_computed": float(c["dupire_pde.bytes_computed"]),
            "asymptotics.sigma2.s": self_s["asymptotics.sigma2"],
            "quadrature.s": self.quad_s,
            "bachelier.implied_normal_vol.s": self_s["bachelier.implied_normal_vol"],
            "mc_oracle.mc_call.s": self_s["mc_oracle.mc_call"],
            "exact_solutions.price_s": self_s["exact_solutions.price"],
            "exact_solutions.sqrt_t_detector.s": self_s["exact_solutions.sqrt_t_detector"],
        })
        out["dupire_pde.ns_per_node_step"] = _ratio(
            1e9 * out["dupire_pde.solve_forward.s"], c["dupire_pde.node_steps"])
        out["mc_oracle.ns_per_path_step"] = _ratio(
            1e9 * out["mc_oracle.mc_call.s"], c["mc_oracle.path_steps"])
        out["asymptotics.coeff_reuse"] = _ratio(len(self._keys["coef"]),
                                                c["asymptotics.top_level_calls"])
        out["mc_oracle.path_reuse"] = _ratio(len(self._keys["paths"]),
                                             c["mc_oracle.mc_call.calls"])
        return out

    def spans_json(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "pass": q}
                for n, s, e, p, q in self.spans]


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when the layer did no work on this workload."""
    return num / den if den else 0.0
