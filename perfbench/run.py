#!/usr/bin/env python3
"""Benchmark of the nvol CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # every workload in turn

NAME is a workload (`pde`, `expansion_mc`) or one of its parts (`figures`,
`sqrt_t`, `expansion_drift`, `mc_exact`).  Run from the repository root.
The configs are built from the seed; `nvol.cli.main` runs them in this
process, pass after pass, for S seconds, and every row a pass writes goes
through its part's gate.

--trace 0 reports the end-to-end metrics setup_s, wall_s, peak_rss_mb and
prints fail_frac; no wrapper is installed.  --trace 1 alternates untraced
passes with passes under the tracer, reports the per-layer metrics and
writes the spans to .perfbench/trace-<workload>-seed<N>.json.  The last
line of output is one JSON object; the exit code is 0 only if every gate
passed.  See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import os

# one single-threaded process: pin BLAS pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

import workloads  # noqa: E402

# fresh interpreters per run for setup_s, the first half before the timed
# passes and the rest after them; their median absorbs a slow start and
# some of the machine's drift over the run
SETUP_REPEATS = 9

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class PassResult:
    wall: float
    cpu: float
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    parts: dict = field(default_factory=dict)    # wall time of each part
    layers: dict = field(default_factory=dict)   # per-layer metrics, traced passes
    counts: dict = field(default_factory=dict)   # raw work counters, traced passes


def probe_setup(plan: workloads.Plan) -> tuple[float, dict]:
    """Wall time of one fresh interpreter's set-up, and its phase times."""
    spec = json.dumps({"src": str(SRC), "configs": plan.configs,
                       "first_calls": plan.first_calls})
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), spec],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(cli, plan: workloads.Plan, tracer=None, pass_id: int = 0) -> PassResult:
    """One pass over the workload's invocations; gates run after the clock stops."""
    for inv in plan.invocations:
        inv.out.unlink(missing_ok=True)
    codes, errors, parts = [], [], {}
    if tracer is not None:
        tracer.begin_pass(pass_id)
        root_span = tracer.open("pass")
    c0, t0 = time.process_time(), time.perf_counter()
    for inv in plan.invocations:
        err = io.StringIO()
        t_inv = time.perf_counter()
        span = tracer.open("cli.main") if tracer is not None else None
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                codes.append(cli.main(inv.argv))
        except Exception as e:  # a crash is a failed invocation, not a failed benchmark
            codes.append(-1)
            err.write(f"{type(e).__name__}: {e}")
        finally:
            if span is not None:
                tracer.close(span)
        parts[inv.part] = parts.get(inv.part, 0.0) + time.perf_counter() - t_inv
        errors.append(err.getvalue().strip())
    res = PassResult(wall=time.perf_counter() - t0, cpu=time.process_time() - c0,
                     parts=parts)
    if tracer is not None:
        tracer.close(root_span)
        res.layers = tracer.pass_summary(pass_id)
        res.counts = tracer.pass_counts()
    for inv, rc, err in zip(plan.invocations, codes, errors):
        got = inv.out.read_bytes() if rc == 0 and inv.out.exists() else b""
        attempted, failed, msgs = inv.gate(rc, got)
        res.attempted += attempted
        res.failed += failed
        res.messages += msgs + ([f"{inv.name}: {err}"] if rc != 0 and err else [])
    return res


def timed_passes(cli, plan, budget: float) -> list[PassResult]:
    """Untraced passes until the next one would overrun the budget; at least one."""
    out: list[PassResult] = []
    t0 = time.perf_counter()
    while True:
        out.append(run_pass(cli, plan))
        if time.perf_counter() - t0 + out[-1].wall > budget:
            return out


def alternating_passes(cli, plan, budget: float) -> tuple[list, list, object]:
    """Untraced and traced passes in turn, the tracer installed only for the
    traced ones, so both see the same machine drift.  Pairs go untraced-first
    and traced-first by turns, so neither kind always follows the other; at
    least two pairs, so the traced work counts can be compared."""
    from tracer import Tracer

    plain: list[PassResult] = []
    traced: list[PassResult] = []
    tracer = Tracer()

    def traced_pass():
        tracer.install()
        try:
            traced.append(run_pass(cli, plan, tracer, len(traced)))
        finally:
            tracer.uninstall()

    t0 = time.perf_counter()
    while True:
        if len(traced) % 2 == 0:
            plain.append(run_pass(cli, plan))
            traced_pass()
        else:
            traced_pass()
            plain.append(run_pass(cli, plan))
        pair = plain[-1].wall + traced[-1].wall
        if len(traced) >= 2 and time.perf_counter() - t0 + pair > budget:
            return plain, traced, tracer


def counts_differ(traced: list[PassResult]) -> bool:
    """Whether the work counters of the traced passes differ: they must
    repeat exactly, so a traced run makes this one more check."""
    return any(p.counts != traced[0].counts for p in traced)


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def tail_percentile(xs: list[float]) -> str:
    """Highest standard percentile with at least ten samples beyond it."""
    n = len(xs)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            v = statistics.quantiles(xs, n=1000, method="inclusive")[int(p * 10) - 1]
            return f"p{p:g} {v:.4f}"
    return "no percentile has 10 samples beyond it"


def machine_info() -> dict:
    import numpy
    import scipy

    blas = {}
    with contextlib.suppress(Exception):
        cfg = numpy.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def run(args) -> int:
    if not (SRC / "nvol" / "cli.py").is_file():
        print(f"no nvol sources at {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        plan = workloads.make_plan(args.workload, ROOT, work, random.Random(args.seed))
        probes = [probe_setup(plan) for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]

        sys.path.insert(0, str(SRC))
        import nvol
        from nvol import cli
        if Path(nvol.__file__).resolve().parent != (SRC / "nvol").resolve():
            print(f"imported nvol from {nvol.__file__}, not {SRC}", file=sys.stderr)
            return 2
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in plan.first_calls:
                cli.main(argv)
        plan.prepare()

        if args.trace:
            plain, traced, tracer = alternating_passes(cli, plan, args.seconds)
        else:
            plain, traced = timed_passes(cli, plan, args.seconds), []
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes += [probe_setup(plan) for _ in range(SETUP_REPEATS // 2)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    messages = list(dict.fromkeys(m for p in passes for m in p.messages))
    if args.trace:
        attempted += 1
        if counts_differ(traced):
            failed += 1
            messages.append("work counts differ between traced passes")
    walls = [p.wall for p in plain]
    setups = [w for w, _ in probes]

    print(f"nvol benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(machine_info()))
    q1, setup_s, q3 = quartiles(setups)
    print(f"  setup_s      {setup_s:10.4f} s   median of {len(setups)} fresh interpreters "
          f"(q1 {q1:.4f}, q3 {q3:.4f})")
    q1, wall_s, q3 = quartiles(walls)
    print(f"  wall_s       {wall_s:10.4f} s   median of {len(walls)} warm passes "
          f"(q1 {q1:.4f}, q3 {q3:.4f}; {tail_percentile(walls)})")
    for part in plain[0].parts:
        print(f"    {part:18s} {statistics.median(p.parts[part] for p in plain):8.4f} s   "
              f"median time of this part in a pass")
    print(f"  peak_rss_mb  {peak_rss_mb:10.1f} MB  peak resident set of this process")
    print(f"  fail_frac    {failed / max(attempted, 1):10.4f}     "
          f"{failed} of {attempted} rows over {len(passes)} passes")
    for m in messages[:20]:
        print(f"  FAIL {m}")

    if args.trace:
        values, units = _layer_metrics(traced, plain, probes)
        for name, value in values.items():
            print(f"  {name:36s} {value:16.6g} {units[name]}")
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "metrics": values,
            "counts_per_pass": [p.counts for p in traced], "spans": tracer.spans_json()}))
        print(f"  spans and per-layer metrics written to {trace_path.relative_to(ROOT)}")
    else:
        values = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def _layer_metrics(traced: list[PassResult], plain: list[PassResult],
                   probes: list) -> tuple[dict, dict]:
    """Per-layer values: counts and ratios of the first traced pass (they repeat
    exactly), medians over traced passes for times, set-up phases from the
    fresh-interpreter probes."""
    from tracer import PER_LAYER

    values = {}
    for name, unit, _ in PER_LAYER:
        if name in traced[0].layers:
            if unit == "s" or unit == "ns":
                values[name] = statistics.median(p.layers[name] for p in traced)
            else:
                values[name] = traced[0].layers[name]
        elif name in probes[0][1]:
            values[name] = statistics.median(phases[name] for _, phases in probes)
    values["process.cpu_s"] = statistics.median(p.cpu for p in plain)
    values["trace.overhead_frac"] = (statistics.median(p.wall for p in traced)
                                     / statistics.median(p.wall for p in plain) - 1.0)
    return values, {name: unit for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, *workloads.PARTS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload != "all":
        return run(args)
    worst = 0
    for name in workloads.WORKLOADS:
        rc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                             "--seed", str(args.seed), "--seconds", str(args.seconds),
                             "--trace", str(args.trace)], cwd=ROOT).returncode
        worst = worst or rc
    return worst


if __name__ == "__main__":
    sys.exit(main())
