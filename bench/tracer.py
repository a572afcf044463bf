"""Traced-run harness: spans and counters recorded from outside spinroot.

    PYTHONPATH=src python3 bench/tracer.py --spans spans.json cli induce H3
    PYTHONPATH=src python3 bench/tracer.py --spans spans.json sweep --seed 7 --out sweep.json

`install()` wraps the public functions of the layers below at every module
that binds them, so `from .x import f` call sites are traced too.  Each call
becomes a span (name, parent, start, end) kept in memory; counters add up work
done at the same boundaries.  Nothing under src/ changes.  The spans, counters
and lru_cache totals are written as JSON when the traced command ends.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Nested spans and counters for one process; single-threaded by design."""

    def __init__(self):
        self.spans: list[list] = []          # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, time.perf_counter(), None])
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[idx][3] = time.perf_counter()


TRACER = Tracer()

# (module, attribute, span name, counter name, how much one call adds to the counter)
FUNCTIONS = [
    ("rootsys", "generate_roots", "rootsys.generate_roots",
     "rootsys.roots_generated", lambda r, a: r.count),
    ("rootsys", "validate_root_system", "rootsys.validate_root_system",
     "rootsys.reflections_checked", lambda r, a: len(a[0]) ** 2),
    ("rootsys", "rotation_orders", "rootsys.rotation_orders", None, None),
    ("induction", "_reference_fingerprints", "induction.reference_fingerprints", None, None),
    ("induction", "identify_root_system", "induction.identify_root_system", None, None),
    ("induction", "generate_pin_group", "induction.generate_pin_group",
     "induction.pin_elements", lambda r, a: r.order),
    ("mckay", "conjugacy_classes", "mckay.conjugacy_classes", None, None),
    ("mckay", "class_matrices", "mckay.class_matrices", None, None),
    ("mckay", "character_table", "mckay.character_table",
     "mckay.character_tables", lambda r, a: 1),
    ("mckay", "match_affine_ade", "mckay.match_affine_ade", None, None),
    ("coxplane", "coxeter_versor", "coxplane.coxeter_versor", None, None),
    ("coxplane", "coxeter_plane", "coxplane.coxeter_plane", None, None),
    ("coxplane", "plane_from_matrix", "coxplane.plane_from_matrix", None, None),
    ("coxplane", "factorize", "coxplane.factorize", None, None),
    ("coxplane", "exponents_via_matrix", "coxplane.exponents_via_matrix", None, None),
    ("coxplane", "springer_identities", "coxplane.springer_identities", None, None),
    ("ade", "ade_root_data", "ade.ade_root_data", None, None),
    ("ade", "correspondence_row", "ade.correspondence_row", None, None),
    ("output", "export_files", "output.export_files",
     "output.bytes_written", lambda r, a: sum(p.stat().st_size for p in r)),
]

MODULES = ("scalars", "clifford", "rootsys", "induction", "mckay", "coxplane",
           "ade", "output", "verify", "cli")


def _span_wrapper(orig, name, counter, amount):
    def wrapper(*args, **kwargs):
        result = TRACER.call(name, orig, *args, **kwargs)
        if counter:
            TRACER.counts[counter] += amount(result, args)
        return result

    return wrapper


class _CriterionSpan:
    """Span around one verify criterion.  `run_all` reads the check function's
    `__code__` to choose its keyword arguments, so the original code is exposed."""

    def __init__(self, fn, name):
        self.fn, self.name, self.__code__ = fn, name, fn.__code__

    def __call__(self, *args, **kwargs):
        return TRACER.call(self.name, self.fn, *args, **kwargs)


def _rebind(orig, replacement, modules) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


def _lru_entry_points(modules) -> list:
    seen = {}
    for mod in modules:
        for value in vars(mod).values():
            if callable(getattr(value, "cache_info", None)) and hasattr(value, "__wrapped__"):
                seen[id(value)] = value
    return list(seen.values())


def install(extra_modules=()) -> list:
    """Wrap the layer boundaries; returns the lru_cache entry points to read at the end."""
    mods = {m: importlib.import_module(f"spinroot.{m}") for m in MODULES}
    bound = [sys.modules["spinroot"], *mods.values(), *extra_modules]
    caches = _lru_entry_points(bound)

    for mod, attr, name, counter, amount in FUNCTIONS:
        orig = getattr(mods[mod], attr)
        _rebind(orig, _span_wrapper(orig, name, counter, amount), bound)

    verify = mods["verify"]
    for num, (title, fn) in list(verify.CRITERIA.items()):
        verify.CRITERIA[num] = (title, _CriterionSpan(fn, f"verify.c{num:02d}"))

    group_cls = mods["induction"].VersorGroup
    cayley = group_cls.cayley.fget

    def cayley_first_build(self):
        if self._cayley is not None:
            return cayley(self)
        table = TRACER.call("induction.cayley", cayley, self)
        TRACER.counts["induction.cayley_products"] += self.order ** 2
        return table

    group_cls.cayley = property(cayley_first_build, doc=group_cls.cayley.__doc__)

    root_data_cls = mods["ade"].ADERootData
    roots = root_data_cls.roots

    def roots_first_build(self):
        if self._roots is not None:
            return roots(self)
        out = TRACER.call("ade.closure", roots, self)
        TRACER.counts["ade.closure_roots"] += len(out)
        return out

    root_data_cls.roots = roots_first_build

    multivector = mods["clifford"].Multivector
    mv_mul = multivector.__mul__

    def counted_mv_mul(self, other):
        if isinstance(other, multivector):
            TRACER.counts["clifford.geometric_products"] += 1
        return mv_mul(self, other)

    multivector.__mul__ = counted_mv_mul

    quad = mods["scalars"].QuadTower
    qt_mul = quad.__mul__

    def counted_qt_mul(self, other):
        TRACER.counts["scalars.exact_products"] += 1
        return qt_mul(self, other)

    quad.__mul__ = quad.__rmul__ = counted_qt_mul
    return caches


def write(path: str, caches) -> None:
    info = [c.cache_info() for c in caches]
    payload = {
        "spans": TRACER.spans,
        "counts": dict(TRACER.counts),
        "cache": {"hits": sum(i.hits for i in info), "misses": sum(i.misses for i in info)},
    }
    Path(path).write_text(json.dumps(payload))


def self_times(spans) -> dict[str, float]:
    """Per span name: total duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, _, start, end), inner in zip(spans, child):
        out[name] += (end - start) - inner
    return dict(out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--spans", required=True, help="where to write spans and counters")
    sub = p.add_subparsers(dest="target", required=True)
    sp = sub.add_parser("cli", help="run spinroot.cli.main on the remaining arguments")
    sp.add_argument("argv", nargs=argparse.REMAINDER)
    sp = sub.add_parser("sweep", help="run one family-sweep round")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", required=True)
    args = p.parse_args(argv)

    if args.target == "sweep":
        import sweep

        caches = install([sweep])
        try:
            Path(args.out).write_text(json.dumps(sweep.run(args.seed)))
        finally:
            write(args.spans, caches)
        return 0

    from spinroot import cli

    caches = install()
    try:
        return TRACER.call("cli.main", cli.main, args.argv)
    finally:
        sys.stdout.flush()
        write(args.spans, caches)


if __name__ == "__main__":
    sys.exit(main())
