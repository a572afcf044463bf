"""One round of the family-sweep workload, run in its own process.

    PYTHONPATH=src python3 bench/sweep.py --seed 7 --out sweep.json

Calls the spinroot library over I2(n), A1xI2(n) and I2(n)xI2(n) for n = 2..16,
including their rows of the three-way correspondence report for n <= 12, and
enumerates the roots of the matched ADE systems.  Each operation is timed
on its own; the library caches stay warm across the operations of the round.
The raw results go to --out as JSON and are checked by the parent process
against closed forms (oracles.py); nothing is checked here.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from spinroot import ade, coxplane, induction, mckay, rootsys

N_RANGE = range(2, 17)
ADE_N_MAX = 8
ADE_MAP_N_MAX = 12            # the cap of correspondence_report and `spinroot ade-map`


def plan(seed: int) -> list[tuple]:
    """The round's operations in order, as (kind, family, n, argument)."""
    rng = random.Random(seed)
    ops = []
    for n in N_RANGE:
        for family, rank in (("I2", 2), ("A1xI2", 3)):
            ops.append(("groups", family, n, None))
            ops.append(("mckay", family, n, rng.randrange(2**31)))
            ops.append(("diagram", family, n, None))
            ops.append(("coxplane", family, n, tuple(rng.sample(range(1, rank + 1), rank))))
            ops.append(("induced", family, n, None))
            ops.append(("springer", family, n, None))
            if n <= ADE_MAP_N_MAX:
                ops.append(("ade_row", family, n, rng.randrange(2**31)))
        ops.append(("coxplane", "I2xI2", n, tuple(rng.sample(range(1, 5), 4))))
    for n in range(2, ADE_N_MAX + 1):
        ops.append(("ade_roots", "A", 2 * n - 1, None))
        ops.append(("ade_roots", "D", n + 2, None))
    for m in (6, 7, 8):
        ops.append(("ade_roots", "E", m, None))
    return ops


def _groups(family, n, _):
    P, S = induction.pin_group(family, n), induction.spin_group(family, n)
    return {"pin": P.order, "spin": S.order, "parity": S.parity}


def _mckay(family, n, seed):
    G = induction.spin_group(family, n)
    classes = mckay.conjugacy_classes(G)
    table = mckay.character_table(G, classes, seed=seed)
    graph = mckay.mckay_graph(table, mckay.spinor_character(G, classes))
    return {"order": G.order, "classes": classes.count, "dims": list(table.dims),
            "affine": mckay.match_affine_ade(graph)}


def _diagram(family, n, _):
    d = ade.triple_to_diagram(rootsys.rotation_orders(rootsys.catalog(family, n)))
    return {"name": d.name, "nodes": d.nodes}


def _coxplane(family, n, word):
    simple = rootsys.catalog(family, n)
    cd = coxplane.coxeter_versor(simple, word)
    out = {"h": cd.h, "exponents": list(coxplane.exponents_via_matrix(cd.matrix, cd.h))}
    if simple.rank in (2, 4):
        B = coxplane.plane_from_matrix(cd.versor, cd.matrix, cd.h)
        out["factorization_exponents"] = list(coxplane.factorize(cd.versor, B, cd.h).exponents)
    try:
        plane = coxplane.coxeter_plane(simple)
    except coxplane.DegeneratePlaneError:
        out["plane"] = "degenerate"
    else:
        out["plane"] = "invariant"
        if simple.rank in (2, 4):
            base = coxplane.coxeter_versor(simple)
            f = coxplane.factorize(base.versor, plane.bivector, base.h)
            out["default_factorization_exponents"] = list(f.exponents)
    return out


def _induced(family, n, _):
    return {"name": induction.induced_name(family, n)}


def _springer(family, n, _):
    rep = coxplane.springer_identities(family, n)
    return {"ok": rep.ok, "group_order": rep.group_order, "exponents": list(rep.exponents)}


def _ade_roots(kind, m, _):
    data = ade.ade_root_data(kind, m)
    doubled = [[int(round(2 * c)) for c in r] for r in data.roots()]
    return {"name": data.name, "rank": data.rank, "h": data.h, "roots2": doubled}


def _ade_row(family, n, seed):
    return vars(ade.correspondence_row(family, n, seed=seed))


OPS = {"groups": _groups, "mckay": _mckay, "diagram": _diagram, "coxplane": _coxplane,
       "induced": _induced, "springer": _springer, "ade_roots": _ade_roots,
       "ade_row": _ade_row}


def run(seed: int) -> dict:
    """Run every operation of the round; a failure is recorded and the round goes on."""
    records = []
    t_round = time.perf_counter()
    for kind, family, n, arg in plan(seed):
        t0 = time.perf_counter()
        try:
            result, error = OPS[kind](family, n, arg), None
        except Exception as exc:  # an operation that raises is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        records.append({"op": kind, "family": family, "n": n,
                        "arg": list(arg) if isinstance(arg, tuple) else arg,
                        "seconds": time.perf_counter() - t0,
                        "error": error, "result": result})
    return {"wall_s": time.perf_counter() - t_round, "ops": records}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    with open(args.out, "w") as fh:
        json.dump(run(args.seed), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
