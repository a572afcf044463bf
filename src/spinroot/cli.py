"""Command-line interface.

Subcommands: catalog, induce, coxplane, project, mckay, ade-map, export,
verify-all.  All configuration is flag-based; every JSON payload carries a
metadata block echoing the version and, where the command takes them, the seed
and backend, and outputs are deterministic at fixed flags.  Exit codes: 0 success, 1 verification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__, ade, coxplane, mckay, output, verify
from .clifford import blade_name
from .induction import induced_name, pin_group, spin_group
from .rootsys import (
    RankError,
    UnknownSystemError,
    binary_group_name,
    catalog,
    catalog_entries,
    display_name,
    expected_root_count,
    parse_name,
    root_system,
)
from .scalars import scalar_to_json


def _meta(args) -> dict:
    return output.metadata(
        seed=getattr(args, "seed", None),
        backend=getattr(args, "backend", None),
    )


def _emit(args, payload: dict) -> None:
    payload["meta"] = _meta(args)
    print(output.json_dumps(payload), end="")


def cmd_catalog(args) -> int:
    if args.family_n is not None:
        catalog("I2", args.family_n)  # rejects n < 2 as every family does
    rows = []
    for entry in catalog_entries():
        key = entry["key"]
        if entry["family"] and args.family_n is not None:
            name = display_name(key, args.family_n)
            count = str(expected_root_count(key, args.family_n))
        else:
            name = f"{key}(n)" if entry["family"] else key
            count = entry["count"]
        rows.append({"name": name, "rank": entry["rank"],
                     "backend": entry["backend"], "roots": count})
    if args.format == "json":
        _emit(args, {"systems": rows})
    else:
        for r in rows:
            print(f"{r['name']:<14} rank {r['rank']}  backend {r['backend']:<5}  "
                  f"roots {r['roots']}")
    return 0


def cmd_induce(args) -> int:
    key, n = parse_name(args.name, args.n)
    P = pin_group(key, n)
    S = spin_group(key, n)
    payload = {
        "source": display_name(key, n),
        "pin_order": P.order,
        "spin_order": S.order,
        "parity": S.parity,
        "binary_group": binary_group_name(key, n),
        "induced_root_count": S.order,
        "induced": induced_name(key, n),
    }
    if args.format == "text":
        for k, v in payload.items():
            print(f"{k}: {v}")
    else:
        _emit(args, payload)
    return 0


def _bivector_json(B: np.ndarray) -> dict:
    """A bivector row as printed: its nonzero coefficients by blade name, in blade-mask order."""
    return {"dim": len(B).bit_length() - 1,
            "coeffs": {blade_name(m): scalar_to_json(c) for m, c in enumerate(B.tolist())
                       if c != 0.0}}


def cmd_coxplane(args) -> int:
    key, n = parse_name(args.name, args.n)
    simple = catalog(key, n, backend=args.backend)
    word = None
    if args.word is not None:
        try:
            word = tuple(int(w) for w in args.word.split(","))
        except ValueError:
            word = ()
        if sorted(word) != list(range(1, simple.rank + 1)):
            print(f"error: --word {args.word} is not a permutation of 1..{simple.rank}",
                  file=sys.stderr)
            return 2
    cd = coxplane.coxeter_versor(simple, word)
    payload = {
        "system": simple.name,
        "word": list(cd.word),
        "h": cd.h,
        "exponents": list(coxplane.exponents_via_matrix(cd.matrix, cd.h)),
    }
    try:
        # the bicoloured PF plane also detects the degenerate A1-power systems;
        # any other word stabilizes a conjugate plane, read from its spectrum
        B = coxplane.coxeter_plane(simple).bivector
        if word is not None:
            B = coxplane.plane_from_matrix(cd.versor, cd.matrix, cd.h)
        payload["plane"] = _bivector_json(B)
        if simple.rank in (2, 4):
            f = coxplane.factorize(cd.versor, B, cd.h, simple.field)
            payload.update({
                "theta1": f.theta1, "theta2": f.theta2,
                "residual": f.residual,
                "factorization_exponents": list(f.exponents),
            })
    except coxplane.DegeneratePlaneError as exc:
        payload["plane"] = None
        payload["plane_note"] = str(exc)
    _emit(args, payload)
    return 0


def cmd_project(args) -> int:
    key, n = parse_name(args.name, args.n)
    # held by the root set; a degenerate plane fails before --out is made
    plane = coxplane.coxeter_plane_for(key, n)
    if args.out:
        for p in output.export_files("projection", key, n, args.out, seed=args.seed):
            print(p)
        return 0
    system = root_system(key, n)
    points = coxplane.project_to_plane(system.num, system.den, system.field, plane.bivector)
    print(output.projection_csv(points, _meta(args)), end="")
    return 0


def cmd_mckay(args) -> int:
    key, n = parse_name(args.name, args.n)
    G = spin_group(key, n)
    classes = mckay.conjugacy_classes(G)
    table = mckay.character_table(G, classes, seed=args.seed)
    graph = mckay.mckay_graph(table, mckay.spinor_character(G, classes))
    if args.format == "csv":
        print(f"# {output.meta_comment(_meta(args))}")
        print(mckay.character_table_csv(table), end="")
        return 0
    if args.format == "dot":
        print(mckay.mckay_graph_dot(graph, name="mckay"), end="")
        return 0
    _emit(args, {
        "source": display_name(key, n),
        "group": binary_group_name(key, n),
        "order": G.order,
        "classes": classes.count,
        "dims": list(table.dims),
        "sum_dims": int(sum(table.dims)),
        "affine": mckay.match_affine_ade(graph),
    })
    return 0


def cmd_ade_map(args) -> int:
    if not 2 <= args.n_max <= ade.N_MAX:
        print(f"error: --n-max must be in 2..{ade.N_MAX}", file=sys.stderr)
        return 2
    rows = ade.correspondence_report(n_max=args.n_max, seed=args.seed)
    if args.format == "json":
        _emit(args, {"rows": [vars(r) for r in rows]})
        return 0
    hdr = f"{'source':<12}{'|roots|':>8}  {'4D':<14}{'group':<14}{'sum_d':>6}  " \
          f"{'affine':<7}{'direct':<8}{'h':>4}  note"
    print(hdr)
    print("-" * len(hdr))
    for r in rows:
        print(f"{r.source:<12}{r.root_count:>8}  {r.induced:<14}{r.group:<14}"
              f"{r.sum_dims:>6}  {r.affine:<7}{r.direct_diagram:<8}{r.ade_h:>4}  {r.note}")
    return 0


def cmd_export(args) -> int:
    key, n = parse_name(args.name, args.n)
    paths = output.export_files(args.kind, key, n, args.out, seed=args.seed)
    for p in paths:
        print(p)
    return 0


def cmd_verify_all(args) -> int:
    if not 2 <= args.n_max <= ade.N_MAX:
        print(f"error: --n-max must be in 2..{ade.N_MAX}", file=sys.stderr)
        return 2
    results = verify.run_all(n_max=args.n_max, seed=args.seed)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        _emit(args, {
            "checks": [vars(r) for r in results],
            "passed": len(results) - len(failed),
            "failed": len(failed),
        })
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"[{r.criterion:>2}] {mark} {r.name}: measured {r.measured} | "
                  f"expected {r.expected}")
        print(f"\n{len(results) - len(failed)}/{len(results)} checks passed")
        if failed:
            f = failed[0]
            print(f"first failure: [{f.criterion}] {f.name}: {f.measured}")
    return 1 if failed else 0


def _seed(text: str) -> int:
    """A --seed value: a nonnegative integer, since ``random.Random(-s)`` draws as s."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spinroot",
        description="Root systems, spinor groups, Coxeter planes, McKay/ADE diagrams.",
    )
    p.add_argument("--version", action="version", version=f"spinroot {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def formats(sp, *choices):
        # only the formats the subcommand prints; the first is the default
        sp.add_argument("--format", choices=choices, default=choices[0])

    def seed(sp):
        sp.add_argument("--seed", type=_seed, default=mckay.DEFAULT_SEED)

    def common(sp, *choices):
        sp.add_argument("name", help="system name, e.g. H3, I2(7), A1xI2(4)")
        sp.add_argument("--n", type=int, default=None, help="family parameter")
        seed(sp)
        if choices:
            formats(sp, *choices)
        return sp

    sp = sub.add_parser("catalog", help="list the 2D/3D/4D catalog")
    sp.add_argument("--family-n", type=int, default=None)
    formats(sp, "text", "json")
    sp.set_defaults(fn=cmd_catalog)

    sp = common(sub.add_parser("induce", help="pin/spin groups and induced system"),
                "json", "text")
    sp.set_defaults(fn=cmd_induce)

    sp = common(sub.add_parser("coxplane", help="Coxeter element, plane, factorization"),
                "json")
    sp.add_argument("--word", default=None, help="comma-separated permutation, e.g. 3,1,2,4")
    sp.add_argument("--backend", choices=("exact", "float"), default=None)
    sp.set_defaults(fn=cmd_coxplane)

    sp = common(sub.add_parser("project", help="project roots onto the Coxeter plane"))
    sp.add_argument("--out", default=None, help="directory for CSV/SVG files")
    sp.set_defaults(fn=cmd_project)

    sp = common(sub.add_parser("mckay", help="character table and McKay graph"),
                "json", "csv", "dot")
    sp.set_defaults(fn=cmd_mckay)

    sp = sub.add_parser("ade-map", help="full three-way correspondence table")
    sp.add_argument("--n-max", dest="n_max", type=int, default=ade.N_MAX)
    seed(sp)
    formats(sp, "text", "json")
    sp.set_defaults(fn=cmd_ade_map)

    sp = sub.add_parser("export", help="write roots/projection/mckay-graph/diagram files")
    sp.add_argument("kind", choices=("roots", "projection", "mckay-graph", "diagram"))
    sp.add_argument("name")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--out", default=".")
    seed(sp)
    sp.set_defaults(fn=cmd_export)

    sp = sub.add_parser("verify-all", help="run the full acceptance suite")
    sp.add_argument("--n-max", dest="n_max", type=int, default=ade.N_MAX)
    seed(sp)
    formats(sp, "text", "json")
    sp.set_defaults(fn=cmd_verify_all)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UnknownSystemError, RankError, OSError) as exc:
        # RankError: a system of a rank the command does not take; OSError:
        # an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
