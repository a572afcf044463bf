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


def _shared_generator_use(node) -> bool:
    """numpy.random in any form, or the process-wide generator of the random
    module: a call random.f(...) or an import of f from random, for any f but
    the Random class."""
    if isinstance(node, ast.Attribute) and node.attr == "random":
        return isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.random") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return (module.startswith("numpy.random")
                or module == "numpy" and any(a.name == "random" for a in node.names)
                or module == "random" and any(a.name != "Random" for a in node.names))
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "random"
            and node.func.attr != "Random")


def test_no_process_global_state():
    # a result never depends on which call ran before it: no module global is
    # rebound, no process-wide numpy setting is changed, and every random draw
    # comes from a local random.Random(seed)
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Global) or _shared_generator_use(node) or (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "set_printoptions"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_shared_generator_uses_are_found():
    bad = ["np.random.default_rng(0)", "numpy.random.seed(1)", "import numpy.random",
           "from numpy import random", "from numpy.random import default_rng",
           "random.random()", "random.seed(3)", "random.shuffle(x)", "from random import choice"]
    good = ["random.Random(3).random()", "rng.random()", "from random import Random",
            "import random", "x.random"]
    def flagged(src):
        return any(_shared_generator_use(node) for node in ast.walk(ast.parse(src)))
    assert [src for src in bad if not flagged(src)] == []
    assert [src for src in good if flagged(src)] == []


def test_small_float_literals_are_named_constants():
    # a tolerance below 1e-3 is a named module-level UPPER_CASE constant, never
    # a literal inside a function; verify.py pins its fixtures where it checks them
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "verify.py":
            continue
        name = path.name
        tree = ast.parse(path.read_text(), filename=name)
        named = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
                 and all(isinstance(t, ast.Name) and t.id == t.id.upper() for t in stmt.targets)
                 for node in ast.walk(stmt.value)}
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  and 0 < abs(node.value) < 1e-3 and id(node) not in named]
    assert found == []


#: definitions kept without a caller in the package: Multivector stays in
#: clifford.py, exported, while bench/tracer.py counts its products
KEPT_WITHOUT_CALLER = {"clifford.py Multivector"}


def test_every_definition_is_used_in_src():
    # a function, method or class that no code in the package names outside its
    # own body has no caller: move it into the tests that use it, or delete it
    defs, refs = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.append((path, node))
            elif isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr))
    unused = [f"{path.name}:{node.lineno} {node.name}" for path, node in defs
              if f"{path.name} {node.name}" not in KEPT_WITHOUT_CALLER
              and not any(name == node.name
                          and (where != path or not node.lineno <= line <= node.end_lineno)
                          for where, line, name in refs)]
    assert unused == []


def _files_naming(name: str) -> set:
    """The package files whose code names ``name``: as a name, an attribute or an import."""
    named = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            found = (node.id if isinstance(node, ast.Name)
                     else node.attr if isinstance(node, ast.Attribute)
                     else node.name if isinstance(node, ast.alias) else None)
            if found == name:
                named.add(path.name)
    return named


def test_multivector_stays_at_the_boundary():
    # rows are the data: Multivector is named only where it is defined and exported
    allowed = {"clifford.py", "__init__.py"}
    named = _files_naming("Multivector")
    assert "clifford.py" in named
    assert named <= allowed, sorted(named - allowed)


def test_quadtower_stays_at_the_boundary():
    # exact products and quotients run on rows: QuadTower is named only where
    # it is defined and exported, by Multivector, and by the catalog literals
    allowed = {"scalars.py", "clifford.py", "rootsys.py", "__init__.py"}
    named = _files_naming("QuadTower")
    assert "scalars.py" in named
    assert named <= allowed, sorted(named - allowed)


def test_integer_tiers_are_decided_in_scalars():
    # the tier limits and the dtype choice are named only in scalars.py, and
    # every exact_matmul bounds itself from its two operands
    tier_names = {"kernel_dtype", "_kernel_dtype", "FIELD_TENSOR_MAX",
                  "FLOAT64_LIMIT", "INT64_LIMIT"}
    named, calls = set(), []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in tier_names:
                named.add(path.name)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "exact_matmul"):
                calls.append((f"{path.name}:{node.lineno}", len(node.args), len(node.keywords)))
    assert named == {"scalars.py"}
    assert len(calls) > 5
    assert [c for c in calls if c[1:] != (2, 0)] == []
