"""Library invariants are ErgolabErrors, never asserts, so they hold under
``python -O``."""

import ast
from pathlib import Path

import ergolab


def test_library_has_no_assert():
    sources = sorted(Path(ergolab.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements in the library: {found}"
