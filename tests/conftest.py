import pytest

import nvol.dupire_pde
from nvol.cli import _surface_from_csv, load_config, main


@pytest.fixture()
def lapack_calls(monkeypatch):
    """Sizes of the systems `solve_forward` factors and solves from now on, in
    call order: {"factor": [...], "solve": [...]}."""
    source, factor, solver = nvol.dupire_pde._tridiagonal()
    calls = {"factor": [], "solve": []}

    def counted_factor(dl, d, du):
        calls["factor"].append(d.size)
        return factor(dl, d, du)

    def counted_solver(b):
        solve = solver(b)

        def counted(lu):
            calls["solve"].append(b.size)
            solve(lu)
        return counted

    monkeypatch.setattr(nvol.dupire_pde, "_tridiagonal",
                        lambda: (source, counted_factor, counted_solver))
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
