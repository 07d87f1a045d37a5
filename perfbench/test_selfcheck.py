"""Toy-size self-check of the benchmark harness.

    python3 -m pytest perfbench

Checks that BENCHMARK.json names what the harness reports, that the tracer
records spans and repeatable counters and removes itself, that the gates
catch a wrong row, and that one short traced run meets the output contract.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from nvol import cli, dupire_pde  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TOY = """
[model]
type = quadratic_sabr
sigma0 = 0.01
gamma = 0.3
rho = -0.3
[market]
S0 = 0.03
mu0 = 0.002
mu1 = -0.001
[strikes]
list = 0.0295 0.031
[maturities]
list = 0.25 0.5
[methods]
list = asympt0 asympt2 pde mc
[pde]
n_space = 51
n_time_per_year = 16
min_time_steps = 8
[mc]
n_paths = 200
steps_per_year = 8
"""


def test_benchmark_json_names_what_the_harness_reports(tmp_path):
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    parts = [p for ps in workloads.WORKLOADS.values() for p in ps]
    assert sorted(parts) == sorted(workloads.PARTS)
    for name, ps in workloads.WORKLOADS.items():
        plan = workloads.make_plan(name, ROOT, tmp_path, random.Random(0))
        assert {inv.part for inv in plan.invocations} == set(ps)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert ([(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
            == list(tracer.PER_LAYER))


def _traced_pass(tr: tracer.Tracer, cfg: Path, pass_id: int) -> dict:
    tr.begin_pass(pass_id)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["smile", "--config", str(cfg)]) == 0
    return tr.pass_counts()


def test_tracer_counts_repeat_and_uninstall_restores(tmp_path):
    cfg = tmp_path / "toy.ini"
    cfg.write_text(TOY)
    original = cli.solve_forward
    tr = tracer.Tracer()
    tr.install()
    try:
        assert cli.solve_forward is not original
        first = _traced_pass(tr, cfg, 0)
        second = _traced_pass(tr, cfg, 1)
        layers = tr.pass_summary(1)
    finally:
        tr.uninstall()
    assert cli.solve_forward is original is dupire_pde.solve_forward
    assert first == second
    for name in ("asymptotics.sigma2.calls", "dupire_pde.solve_forward.calls",
                 "mc_oracle.mc_call.calls", "quadrature.integrand_evals",
                 "models.vol_evals", "mc_oracle.path_steps", "dupire_pde.node_steps"):
        assert first[name] > 0, name
    # each (coefficient, K) is computed once per order and T it is needed for
    assert layers["asymptotics.coeff_reuse"] == pytest.approx(6 / 16)
    assert layers["mc_oracle.path_reuse"] == pytest.approx(2 / 4)
    assert layers["asymptotics.sigma2.s"] > 0.0


def test_self_time_subtracts_direct_children():
    tr = tracer.Tracer()
    tr.spans = [["cli.main", 0.0, 10.0, -1, 0],
                ["asymptotics.sigma2", 2.0, 5.0, 0, 0],
                ["mc_oracle.mc_call", 6.0, 7.0, 0, 0]]
    layers = tr.pass_summary(0)
    assert layers["cli.self_s"] == pytest.approx(6.0)
    assert layers["asymptotics.sigma2.s"] == pytest.approx(3.0)
    assert layers["mc_oracle.mc_call.s"] == pytest.approx(1.0)


def test_differing_work_counts_fail_the_check():
    same = [run.PassResult(1.0, 1.0, counts={"a": 3}) for _ in range(2)]
    assert not run.counts_differ(same)
    assert run.counts_differ(same + [run.PassResult(1.0, 1.0, counts={"a": 4})])


def test_gates_catch_wrong_rows(tmp_path):
    plan = workloads.figures(ROOT, tmp_path, random.Random(0))
    inv = plan.invocations[0]
    good = (ROOT / "out" / (inv.name + ".csv")).read_bytes()
    n = len(good.splitlines()) - 1
    assert inv.gate(0, good) == (n, 0, [])
    assert inv.gate(0, good.replace(b",ok", b",xx", 1))[1] == 1
    assert inv.gate(3, b"")[1] == n

    plan = workloads.expansion_drift(ROOT, tmp_path, random.Random(0))
    inv = plan.invocations[0]
    case = inv.name
    rows = json.loads(workloads.REFERENCE.read_text())[case]
    text = "K,T,method,sigma_N,flag\n" + "".join(",".join(r) + "\n" for r in rows)
    assert inv.gate(0, text.encode())[:2] == (len(rows), 0)
    K, T, method, vol, flag = rows[-1]   # an asympt2 row
    off = f"{float(vol) * (1 + 1e-3):.12g}"
    bad = text.replace(f"{K},{T},{method},{vol},", f"{K},{T},{method},{off},")
    assert inv.gate(0, bad.encode())[1] == 1


def test_short_traced_run_meets_the_output_contract():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "sqrt_t",
                           "--seed", "3", "--seconds", "0", "--trace", "1"],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # two untraced and two traced passes of 2 rows, and the count-repeat check
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 9
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert result["metrics"]["dupire_pde.solve_forward.calls"]["value"] == 28


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pde",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
