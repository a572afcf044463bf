"""Same-behaviour gate: SHA-256 digests of outputs that do not depend on the platform.

Each digest covers one family of outputs, serialized with ``repr`` of Python
values, so any change of an order, a value or a dtype moves it.  A change that
means to move one of them re-pins it and says why in CHANGES.md.
"""

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import itertools
import json
from pathlib import Path

import pytest

from spinroot import coxplane
from spinroot.cli import main
from spinroot.induction import pin_group, spin_group
from spinroot.mckay import class_matrices, conjugacy_classes
from spinroot.rootsys import catalog, root_system

EXACT = ("A1^3", "A3", "B3", "H3", "A1^4", "A4", "B4", "D4", "F4", "H4")
FAMILY_N = range(2, 17)
SYSTEMS = [(name, None) for name in EXACT] + [
    (key, n) for key in ("I2", "A1xI2", "I2xI2") for n in FAMILY_N]
#: the 2D/3D sources: their pin and spin groups, 34 of each
SOURCES = [(name, None) for name in ("A1^3", "A3", "B3", "H3")] + [
    (key, n) for key in ("I2", "A1xI2") for n in FAMILY_N]


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def closure_digest() -> str:
    """Every root closure and pin closure, its rows in canonical order."""
    items = []
    for name, n in SYSTEMS:
        system = root_system(name, n)
        items.append((system.name, system.num.dtype.str, system.num.tolist(), system.den))
    for name, n in SOURCES:
        G = pin_group(name, n)
        items.append((G.name, G.rows.dtype.str, G.rows.tolist()))
    return _digest(items)


def closure_value_digest() -> str:
    """Every root closure and pin closure as ``closure_digest`` reads it, with
    the float rows' denominator column 1.0 dropped and their coordinates read
    off their one field column: the values, in a form that does not depend
    on the float row layout."""
    items = []
    for name, n in SYSTEMS:
        system = root_system(name, n)
        num = system.num[..., 0] if system.num.dtype.kind == "f" else system.num
        items.append((system.name, num.dtype.str, num.tolist(), system.den))
    for name, n in SOURCES:
        G = pin_group(name, n)
        rows = G.rows[:, :-1] if G.rows.dtype.kind == "f" else G.rows
        items.append((G.name, rows.dtype.str, rows.tolist()))
    return _digest(items)


#: float spin groups past the n <= 16 of SOURCES, up to the largest that
#: mckay.MCKAY_CAP admits
LARGE_SOURCES = [("I2", n) for n in (17, 31, 60, 120)] + [("A1xI2", n) for n in (17, 31, 60)]


def large_cayley_digest() -> str:
    """The Cayley tables of the spin groups of LARGE_SOURCES."""
    items = []
    for name, n in LARGE_SOURCES:
        G = spin_group(name, n)
        items.append((G.name, G.order, G.cayley.tolist()))
    return _digest(items)


def class_digest() -> str:
    """The classes and the class tensor of each of the 34 spin groups."""
    items = []
    for name, n in SOURCES:
        G = spin_group(name, n)
        classes = conjugacy_classes(G)
        mats = class_matrices(G, classes)
        items.append((G.name, dataclasses.astuple(classes), mats.dtype.str, mats.tolist()))
    return _digest(items)


def word_digest() -> str:
    """Word, Coxeter number and exponents of the default word and of every
    permutation word of each system."""
    items = []
    for name, n in SYSTEMS:
        simple = catalog(name, n)
        words = [None, *itertools.permutations(range(1, simple.rank + 1))]
        for cd in coxplane.coxeter_versors(simple, words):
            items.append((simple.name, cd.word, cd.h,
                          coxplane.exponents_via_matrix(cd.matrix, cd.h)))
    return _digest(items)


SWEEP_PATH = Path(__file__).resolve().parent.parent / "bench" / "sweep.py"
#: two rounds of the family-sweep plan
SWEEP_SEEDS = (3, 11)


def _load_sweep():
    """``bench/sweep.py``, loaded from its file and not changed."""
    spec = importlib.util.spec_from_file_location("bench_sweep", SWEEP_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_digest() -> str:
    """The results of every operation of the family-sweep plan at SWEEP_SEEDS:
    integers and names only, serialized as JSON."""
    sweep = _load_sweep()
    items = []
    for seed in SWEEP_SEEDS:
        for record in sweep.run(seed)["ops"]:
            items.append(json.dumps({key: record[key] for key in
                                     ("op", "family", "n", "arg", "error", "result")},
                                    sort_keys=True))
    return _digest(items)


def verify_json() -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify-all", "--n-max", "12", "--format", "json"])
    return out.getvalue(), code


PINNED = {
    "closures": "e5809ea09c51ee2b9fda33d4483df8b8d216ab51fbb92ecce61b6606f62e4ecc",
    "closure values": "cc79f4901138d78b0e9205a3cbb832fc0df26e28b350cd7cc21e3bf49608102b",
    "large cayley": "68bf765966afa8546db07837811bed5d265d0ee9edfaad4340c1ee944bcba7d9",
    "classes": "97553601e36a4614952c927ece319c585ee8e9e4cdf8f9df7dd745ca9681a626",
    "words": "36ab22c9ad79d94c0cfa6d859e786a78843db1db967f1153f89bd51cdae48739",
    "sweep": "e356d0a92c8a11ce6511bd142fc77443bf51d20340cd0f07ac7c86f1ca6363e0",
    "verify-all": "7ffb9172f341df41db3e194c9641e9067fbe9001ee37086e89dddf78d14817c7",
}


@pytest.mark.parametrize("what, digest", [
    ("closures", closure_digest), ("closure values", closure_value_digest),
    ("large cayley", large_cayley_digest), ("classes", class_digest),
    ("words", word_digest), ("sweep", sweep_digest)])
def test_outputs_keep_their_digest(what, digest):
    assert digest() == PINNED[what]


def test_verify_all_json_keeps_its_digest():
    text, code = verify_json()
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED["verify-all"]


if __name__ == "__main__":
    print({"closures": closure_digest(), "closure values": closure_value_digest(),
           "large cayley": large_cayley_digest(), "classes": class_digest(),
           "words": word_digest(), "sweep": sweep_digest(),
           "verify-all": hashlib.sha256(verify_json()[0].encode()).hexdigest()})
