import importlib.util
import pathlib
import sys

import pytest

import nvol.dupire_pde
from nvol.cli import _surface_from_csv, load_config, main

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def perfbench_workloads():
    """perfbench/workloads.py loaded from its file: the benchmark's configs and
    gates, read by the tests and never edited by them."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def lapack_calls(monkeypatch):
    """Sizes of the systems `solve_forward` factors and solves from now on, in
    call order: {"factor": [...], "solve": [...]}."""
    system = nvol.dupire_pde._Tridiagonal
    factor, solve = system.factor, system.solve
    calls = {"factor": [], "solve": []}

    def counted_factor(self):
        calls["factor"].append(self.d.size)
        factor(self)

    def counted_solve(self):
        calls["solve"].append(self.b.size)
        solve(self)

    monkeypatch.setattr(system, "factor", counted_factor)
    monkeypatch.setattr(system, "solve", counted_solve)
    return calls


@pytest.fixture()
def smile_surface(tmp_path):
    """(kind, sigma0, model params, maturities) -> (extract-lv surface, model)
    from the `nvol smile` pde rows of a driftless model (S0 = 0.03) on 61
    strikes within 3 sigma0 of S0."""
    def build(kind: str, sigma0: float, params: str, maturities: str):
        cfg = tmp_path / f"{kind}.ini"
        cfg.write_text(f"[model]\ntype = {kind}\nsigma0 = {sigma0!r}\n{params}\n"
                       f"[market]\nS0 = 0.03\n[strikes]\nmin = {0.03 - 3 * sigma0!r}\n"
                       f"max = {0.03 + 3 * sigma0!r}\ncount = 61\n"
                       f"[maturities]\nlist = {maturities}\n[methods]\nlist = pde\n")
        path = tmp_path / f"{kind}.csv"
        assert main(["smile", "--config", str(cfg), "--out", str(path)]) == 0
        surface, _, _ = _surface_from_csv(str(path))
        return surface, load_config(str(cfg)).model
    return build
