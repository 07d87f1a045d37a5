"""The benchmark's tracer wraps `nvol` functions by name; every name it looks
up must still exist, or `perfbench/run.py --trace 1` breaks."""

import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_tracer_wrappers_resolve_without_installing():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    import nvol.dupire_pde

    solve_forward = nvol.dupire_pde.solve_forward
    t = tracer.Tracer()
    wrappers = t._wrappers()
    assert wrappers and all(callable(w) for w in wrappers.values())
    assert solve_forward in wrappers
    # building the wrappers patches nothing
    assert t._patches == []
    assert nvol.dupire_pde.solve_forward is solve_forward
    assert sys.modules["nvol.cli"].solve_forward is solve_forward
