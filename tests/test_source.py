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
