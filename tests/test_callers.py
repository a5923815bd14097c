"""Every public library name has a caller outside the tests, or a reason.

A public module-level function or class of ``src/ergolab`` must be named
by the code of another library module (``__init__.py`` aside), of a demo
or of ``perfbench/``, or by code of its own module outside its own
definition.  A name counts when it is read as a variable, an attribute or
an import, or appears as a whole string constant (``perfbench/tracing.py``
patches functions by their name).  The few names only the tests use are
listed in TEST_ONLY with the reason they stay.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for path in (ROOT / "src" / "ergolab").glob("*.py")
                 if path.name != "__init__.py")
CALLERS = MODULES + sorted((ROOT / "demos").glob("*.py")) \
    + sorted((ROOT / "perfbench").glob("*.py"))

TEST_ONLY = {
    "stationary_pmf": "oracle: the closed-form stationary law of the chain",
    "transition_prob": "oracle: the chain's transition kernel, for the "
                       "stationarity check",
    "sample_path": "oracle: a plain forward sample of the chain, for the "
                   "empirical checks of its law",
    "expected_next_filtered": "oracle: the exact conditional expectation "
                              "by forward filtering",
    "expected_next_at_hit": "oracle: the conditional expectation at a "
                            "first visit, in closed form",
    "expected_next_relabeled": "oracle: the conditional expectation under "
                               "the injective labeling",
    "sample_series": "oracle: the odometer process by repeated steps",
    "l1_error_exact": "oracle: the exact L1 error by integration over "
                      "pieces, against the runner's per-cell closed form",
    "golden_conjugate": "a second rotation angle, so the tests do not only "
                        "see sqrt(2) - 1",
    "rational_set": "builds rational-domain interval sets for tests",
}


def _references(node) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _callers() -> dict:
    """Public name -> the files whose code names it, for every public
    module-level function and class of the package."""
    statements = {}   # file -> [(top-level statement, names it references)]
    for path in CALLERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        statements[path] = [(node, _references(node)) for node in tree.body]
    found = {}
    for module in MODULES:
        for node, _ in statements[module]:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            found[node.name] = [
                path.relative_to(ROOT).as_posix()
                for path, pairs in statements.items()
                if any(node.name in refs
                       for other, refs in pairs if other is not node)]
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
