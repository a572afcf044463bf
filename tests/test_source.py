"""Guards over the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spinroot"


def test_no_assert_statements():
    # `python -O` strips assert statements, so every guard must raise explicitly
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_small_float_literals_are_named_constants():
    # a tolerance below 1e-3 in the root, pin, McKay and Coxeter layers is a
    # named module-level UPPER_CASE constant, never a literal inside a function
    found = []
    for name in ("coxplane.py", "induction.py", "mckay.py", "rootsys.py"):
        tree = ast.parse((PACKAGE / name).read_text(), filename=name)
        named = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
                 and all(isinstance(t, ast.Name) and t.id == t.id.upper() for t in stmt.targets)
                 for node in ast.walk(stmt.value)}
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  and 0 < abs(node.value) < 1e-3 and id(node) not in named]
    assert found == []
