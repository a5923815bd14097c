"""Every name a library module imports is read in that module, so a route
that loses its last use takes its import with it."""

import ast
from pathlib import Path

import ergolab


def imported_names(tree):
    """(name, line) for each name the module's import statements bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def read_names(tree):
    """The names the module reads, and those its ``__all__`` re-exports."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def test_library_has_no_unused_import():
    sources = sorted(Path(ergolab.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        used = read_names(tree)
        found += [f"{path.name}:{line} {name}"
                  for name, line in imported_names(tree) if name not in used]
    assert found == [], f"imports never read: {found}"


def test_an_unused_import_is_found():
    tree = ast.parse("import math\nfrom .surd import compare, triple\n"
                     "from .intervals import IntervalSet as Sets\n"
                     "__all__ = ['triple']\nprint(math.pi)\n")
    used = read_names(tree)
    assert sorted(name for name, _ in imported_names(tree)
                  if name not in used) == ["Sets", "compare"]
