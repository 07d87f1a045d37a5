"""Every top-level function and class of `nvol` has a caller.

A name passes when the program uses it: a reference by identifier from
src/nvol outside its own definition, or any reference from scripts/ or
perfbench/, where a string constant counts too, since perfbench's tracer
looks functions up by name.  A mention in a docstring or comment is no
reference.  The only other way to pass is the allow-list below, of the
closed forms that the tests compare the program against.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nvol"

# names only the tests call, each a reference that a test checks the program against
TEST_REFERENCES = {
    # acceptance criterion 6: the drifted PDE's ATM price against it
    "drifted_ln_atm_call",
    # criterion 7 and the sqrt-t checks: the symmetric kink's exact ATM vol
    "model2b_atm_exact",
    # criterion 7 and test_kink_density_price_vs_quad, which prices the kink
    # by quad over this density and map
    "model2b_density", "model2b_z_of_y", "model2b_y_of_z",
    # the paper's leading-order normal/log-normal map, kept for comparing the
    # two expansions (ROADMAP item 7)
    "short_time_normal_from_lognormal_smile",
}


def _definitions():
    """(module, name) of every top-level function and class in src/nvol."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path.stem, node.name


def _local_names(fn):
    """The names a function binds itself: its parameters and assignments."""
    args = fn.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    stored = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
              and isinstance(n.ctx, (ast.Store, ast.Del))}
    return {a.arg for a in params if a is not None} | stored


def _src_references(module: str):
    """Names of `module`'s top-level scope that src/nvol loads, each with the
    top-level definition it is loaded from (None at module level).

    In `module` itself a bare name counts; elsewhere it counts where the file
    imports it from `module`.  A name a function binds itself is local there.
    Any attribute `x.name` counts.
    """
    refs = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem == module:
            visible = None  # every name
        else:
            visible = {alias.asname or alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)
                       and (node.module or "").rsplit(".", 1)[-1] == module
                       for alias in node.names}
        for top in tree.body:
            owner = getattr(top, "name", None) if path.stem == module else None
            scopes = [(top, set())]
            while scopes:
                node, local = scopes.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    local = local | _local_names(node)
                for child in ast.iter_child_nodes(node):
                    scopes.append((child, local))
                if isinstance(node, ast.Attribute):
                    refs.add((node.attr, owner))
                elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                      and node.id not in local and (visible is None or node.id in visible)):
                    refs.add((node.id, owner))
    return refs


def _outside_references():
    """Identifiers, and the dotted parts of string constants, in scripts/ and perfbench/."""
    names = set()
    for path in sorted([*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))
    return names


def _uncalled():
    """module.name of every definition that nothing outside the tests uses."""
    outside = _outside_references()
    refs = {}
    uncalled = []
    for module, name in _definitions():
        if module not in refs:
            refs[module] = _src_references(module)
        if name not in outside and not any(n == name and owner != name
                                           for n, owner in refs[module]):
            uncalled.append(f"{module}.{name}")
    return uncalled


def test_every_top_level_name_has_a_caller():
    # the allow-list too must be exact: an entry the program now calls, or
    # whose name is gone, is stale
    assert _uncalled() == [f"{module}.{name}" for module, name in _definitions()
                           if name in TEST_REFERENCES]
