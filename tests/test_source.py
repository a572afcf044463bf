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


#: the tolerance ledger of scalars.py, by name: every float tolerance of the
#: package; a row that moves is re-pinned here on purpose
LEDGER = {
    "INT_TOL": 1e-6, "NOISE_TOL": 1e-9, "RESIDUAL_TOL": 1e-8, "PLANE_TOL": 1e-6,
    "EIGEN_MATCH_TOL": 1e-6, "WEDGE_FLOOR": 1e-8, "BASIS_FLOOR": 1e-6, "PF_RESIDUAL": 1e-12,
    "ANGLE_TOL": 1e-12, "UNIT_ROOT_TOL": 1e-12, "ORTHO_TOL": 1e-6, "ORTHO_RTOL": 1e-5,
    "EIG_SEP_TOL": 1e-8, "PIVOT_TOL": 1e-12, "CSV_ZERO_TOL": 1e-10,
    "FIXTURE_TOL": 1e-9, "FIXTURE_RTOL": 1e-9, "FIXTURE_RESIDUAL_TOL": 1e-8,
    "FIXTURE_CANCEL_RTOL": 1e-6, "FIXTURE_PRINTED_TOL": 1e-3,
}


def _small_floats(tree, stem: str) -> tuple[dict, list[str]]:
    """The float literals below 1e-2 of a module: those a module-level UPPER_CASE
    constant is set to, by its name, and every other one by its line."""
    def small(node):
        return (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0 < abs(node.value) < 1e-2)
    named = {f"{stem}.{stmt.targets[0].id}": stmt.value for stmt in tree.body
             if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
             and isinstance(stmt.targets[0], ast.Name)
             and stmt.targets[0].id == stmt.targets[0].id.upper() and small(stmt.value)}
    rows = {id(node) for node in named.values()}
    loose = [f"{stem}:{node.lineno}" for node in ast.walk(tree)
             if small(node) and id(node) not in rows]
    return {name: node.value for name, node in named.items()}, loose


def test_small_float_literals_are_named_constants():
    # every float tolerance below 1e-2 is a row of the scalars ledger: no other
    # module names one, and no float literal below 1e-2 stands anywhere else
    rows, loose = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        named, found = _small_floats(ast.parse(path.read_text(), filename=str(path)), path.stem)
        rows.update(named)
        loose += found
    assert loose == []
    assert rows == {f"scalars.{name}": value for name, value in LEDGER.items()}


def test_small_floats_are_found():
    src = ("A_TOL = 1e-9\nb_tol = 1e-9\nC = 0.5\nD = (1e-3, 2)\nE = F = 2e-5\n"
           "def f(x):\n    G_TOL = 1e-4\n    return x < 1e-12 or x > -5e-3\n"
           "H = 1e-2\nI = 9.9e-3\n")
    named, loose = _small_floats(ast.parse(src), "m")
    assert named == {"m.A_TOL": 1e-9, "m.I": 9.9e-3}
    assert sorted(loose) == ["m:2", "m:4", "m:5", "m:7", "m:8", "m:8"]


#: the module-level caches of the package, each with why it is process-wide;
#: every result formed from a catalog system is held by its SimpleRootSet
MODULE_CACHES = {
    "rootsys._catalog_set": "the cache root: one SimpleRootSet per system and backend",
    "induction._reference_fingerprints": "a query by dimension and root count, not by system",
    "ade._ade_root_data": "ADE data are not catalog systems",
    "mckay._draw_stream": "a seed's draws, shared by the tables of every group",
}


def _module_caches(tree, stem: str) -> list[str]:
    """Each use of functools' lru_cache or cache in a module: as a decorator,
    the function it caches; anywhere else, the line it is on."""
    decorated = {id(d.func if isinstance(d, ast.Call) else d): f"{stem}.{node.name}"
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for d in node.decorator_list}
    return [decorated.get(id(node), f"{stem}:{node.lineno}") for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in ("lru_cache", "cache")
            or isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
            and isinstance(node.value, ast.Name) and node.value.id == "functools"]


def test_module_caches_are_listed():
    # a process-wide cache is added to MODULE_CACHES on purpose, with its reason
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _module_caches(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert sorted(found) == sorted(MODULE_CACHES)


def test_module_caches_are_found():
    src = ("import functools\nfrom functools import lru_cache, cache\n"
           "@lru_cache(maxsize=None)\ndef a(): pass\n"
           "@functools.lru_cache\ndef b(): pass\n"
           "@cache\ndef c(): pass\n"
           "@functools.cache\ndef d(): pass\n"
           "e = lru_cache(maxsize=None)(len)\n"
           "@cached_property\ndef f(self): pass\n")
    assert sorted(_module_caches(ast.parse(src), "m")) == ["m.a", "m.b", "m.c", "m.d", "m:11"]


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


#: the package's layers, lowest first; the modules of one layer are siblings
LAYERS = [{"scalars"}, {"clifford"}, {"rootsys"}, {"induction"}, {"coxplane", "mckay"},
          {"ade"}, {"output"}, {"verify"}, {"cli"}]


def _package_imports(tree) -> set:
    """The spinroot modules a module's code imports, relative or absolute, by
    module or by name; a name that is no module stands for the package's
    ``__init__``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "") if not node.level else \
                "spinroot" + (f".{node.module}" if node.module else "")
            names += [f"{module}.{a.name}" for a in node.names]
    found = set()
    for parts in (name.split(".") for name in names):
        if parts[0] == "spinroot":
            module = parts[1] if len(parts) > 1 else "__init__"
            found.add(module if (PACKAGE / f"{module}.py").exists() else "__init__")
    return found


def test_layers_import_downward():
    # each module imports only modules of lower layers, never a sibling or a
    # higher layer; any module may read __version__ from the package __init__
    rank = {m: i for i, layer in enumerate(LAYERS) for m in layer}
    files = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert {p.stem for p in files} == set(rank)
    upward = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for target in sorted(_package_imports(tree) - {"__init__"}):
            if rank[target] >= rank[path.stem]:
                upward.append(f"{path.stem} -> {target}")
    assert upward == []


def test_upward_imports_are_found():
    def imports(src):
        return _package_imports(ast.parse(src))
    assert imports("from .mckay import components") == {"mckay"}
    assert imports("from . import ade, coxplane") == {"ade", "coxplane"}
    assert imports("from . import __version__") == {"__init__"}
    assert imports("import spinroot.verify") == {"verify"}
    assert imports("from spinroot.cli import main") == {"cli"}
    assert imports("from spinroot import mckay") == {"mckay"}
    assert imports("import numpy as np\nfrom math import lcm") == set()


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node) -> str:
    """The dotted name a chain of attributes on a name reads, else ''."""
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def _private_crossings(tree, stem: str) -> list[str]:
    """Each underscore name (not a dunder) a module takes from another spinroot
    module, imported by name or read as ``module._name`` off a name bound to
    that module, as 'line module._name'."""
    bound, found = {}, []              # a dotted name bound to a module -> its stem
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({a.asname or a.name: a.name.split(".")[-1] for a in node.names
                          if a.name.startswith("spinroot.")})
        elif isinstance(node, ast.ImportFrom):
            module = ("spinroot" + (f".{node.module}" if node.module else "") if node.level
                      else node.module or "")
            if module == "spinroot":
                bound.update({a.asname or a.name: a.name for a in node.names
                              if (PACKAGE / f"{a.name}.py").exists()})
            elif module.startswith("spinroot.") and module != f"spinroot.{stem}":
                found += [f"{node.lineno} {module[9:]}.{a.name}" for a in node.names
                          if _private(a.name)]
    found += [f"{node.lineno} {bound[_dotted(node.value)]}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and _private(node.attr)
              and _dotted(node.value) in bound and bound[_dotted(node.value)] != stem]
    return found


def test_no_private_name_crosses_a_module():
    # a module's underscore names are its own: what another module needs is
    # public where it lives
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.stem}:{entry}" for entry in _private_crossings(tree, path.stem)]
    assert found == []


def test_private_crossings_are_found():
    src = ("from .induction import _a, b, __version__\n"
           "from spinroot.coxplane import _c as c\n"
           "from . import mckay, rootsys as rs, __version__\n"
           "import spinroot.ade as sa\nimport spinroot.output\n"
           "from numpy import _d\nfrom .verify import _own\nfrom . import verify\n"
           "x = mckay._e + rs._f + sa._g + spinroot.output._h + verify._i\n"
           "y = mckay.__doc__ + rs.public + np._j + obj._k + mckay.x._l\n"
           "def f():\n    from .scalars import _m\n")
    assert sorted(_private_crossings(ast.parse(src), "verify")) == [
        "1 induction._a", "12 scalars._m", "2 coxplane._c", "9 ade._g", "9 mckay._e",
        "9 output._h", "9 rootsys._f"]
