"""Every public library name has a caller outside the tests, or a reason.

A public module-level function or class of ``src/ergolab``, and a public
method or property of such a class, must be named by the code of another
library module (``__init__.py`` aside), of a demo or of ``perfbench/``, or
by code of its own module outside its own definition.  A name counts when
it is read as a variable, an attribute or an import, or appears as a whole
string constant (``perfbench/tracing.py`` patches functions by their name);
a method counts by its attribute name.  An attribute read on a name the
file imported as an ergolab module (``odometer.step``, ``rot.Rotation``)
names that module's module-level definition, and no method: a module
function does not hide a method of the same name.  The few names only the
tests use are listed in TEST_ONLY, a method as ``Class.method``, with the
reason they stay; the oracles themselves live in ``tests/oracles.py``.
The names whose only callers are in ``perfbench/`` are listed in
BENCH_ONLY, with the reason; the check fails when such a name is unlisted,
and when a listed name gains another caller or loses its ``perfbench/``
one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for path in (ROOT / "src" / "ergolab").glob("*.py")
                 if path.name != "__init__.py")
CALLERS = MODULES + sorted((ROOT / "demos").glob("*.py")) \
    + sorted((ROOT / "perfbench").glob("*.py"))

TEST_ONLY = {
    "BinaryPoint.periodic": "oracle: builds periodic and eventually "
                            "constant expansions; its _PeriodicSource is "
                            "also the zero tail of BinaryPoint.from_dyadic",
}

BENCH_ONLY = {
    "CellCounts": "the tracer patches its from_pairs by name",
    "CellCounts.from_pairs": "the tracer patches it by name",
    "hitting_paths": "perfbench/gate.py checks the exact route's atoms "
                     "with it",
    "integral_abs_error_on_interval": "the tracer patches it by name; the "
                                      "thm4 runner integrates by CellError",
    "Rotation.step": "the tracer patches it by name",
}


def _module_aliases(tree) -> dict:
    """Name -> ergolab module, for every name the file binds to one by an
    import (``from ergolab import odometer``, ``from . import rotation as
    rot``)."""
    stems = {path.stem for path in MODULES}
    return {alias.asname or alias.name: alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module == "ergolab" and node.level == 0
                 or node.module is None and node.level == 1)
            for alias in node.names if alias.name in stems}


def _references(node, modules) -> set:
    """The words `node` names: a variable or import as ``name``, an
    attribute read on a module alias as ``module.attribute``, and any other
    attribute read or whole string constant both as ``name`` and as
    ``.name``, the form a method is named in."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        elif isinstance(sub, ast.Attribute) \
                and isinstance(sub.value, ast.Name) \
                and sub.value.id in modules:
            out.add(f"{modules[sub.value.id]}.{sub.attr}")
        elif isinstance(sub, ast.Attribute):
            out.update((sub.attr, f".{sub.attr}"))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update((sub.value, f".{sub.value}"))
    return out


def _units(tree):
    """(top-level statement, class member or None, names referenced) for
    the code of a file; a class is split into its members."""
    modules = _module_aliases(tree)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                yield node, member, _references(member, modules)
        else:
            yield node, None, _references(node, modules)


def _definitions(module, tree):
    """(listed name, defining node, words a caller reads) for every public
    module-level function and class, and every public method and property
    of a public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield node.name, node, {node.name, f"{module.stem}.{node.name}"}
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) \
                        and not member.name.startswith("_"):
                    yield (f"{node.name}.{member.name}", member,
                           {f".{member.name}"})


def _callers() -> dict:
    """Public name -> the files whose code names it."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in CALLERS}
    units = {path: list(_units(tree)) for path, tree in trees.items()}
    found = {}
    for module in MODULES:
        for name, node, words in _definitions(module, trees[module]):
            found[name] = [
                path.relative_to(ROOT).as_posix()
                for path, triples in units.items()
                if any(words & refs for top, member, refs in triples
                       if node is not top and node is not member)]
    return found


def test_every_public_name_has_a_caller():
    uncalled = sorted(name for name, users in _callers().items()
                      if not users and name not in TEST_ONLY)
    assert not uncalled, f"no caller outside the tests: {uncalled}"


def test_test_only_names_exist_and_have_no_caller():
    callers = _callers()
    for name in TEST_ONLY:
        assert name in callers, f"{name} is no longer defined"
        assert not callers[name], f"{name} is called by {callers[name]}"


def test_bench_only_names_are_those_only_perfbench_names():
    callers = _callers()
    bench_only = {name for name, users in callers.items()
                  if users and all(user.startswith("perfbench/")
                                   for user in users)}
    unlisted = sorted(bench_only - set(BENCH_ONLY))
    assert not unlisted, f"only perfbench/ calls {unlisted}"
    for name in BENCH_ONLY:
        assert name in callers, f"{name} is no longer defined"
        assert name in bench_only, \
            f"{name} is called by {callers[name] or 'nothing'}"
