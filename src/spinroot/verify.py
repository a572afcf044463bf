"""The acceptance suite behind `spinroot verify-all`.

Each criterion is a function returning CheckResult records with the measured
and expected values side by side; `run_all` executes every criterion (a
failure never short-circuits the rest).  When two CPUs are usable it runs the
CHILD_CRITERIA in one forked child process beside the others, with the
same output and no flag to set.  Tolerances are pinned here, not
configurable per check: exact fixtures compare exactly, angle/plane fixtures
at 1e-9, the numerically printed plane at 1e-3, residuals at 1e-8, spectral
integrality at 1e-6.
"""

from __future__ import annotations

import filecmp
import math
import os
import pickle
import tempfile
from dataclasses import dataclass
from itertools import permutations, product
from pathlib import Path

import numpy as np

from . import ade, coxplane, mckay, output
from .induction import induced_set, pin_group, spin_group
from .rootsys import catalog, root_system, rotation_orders, validate_root_system
from .scalars import INV_SQRT2, QT_HALF, QT_ONE, QT_ZERO, TAU, QuadTower

PI = math.pi


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    measured: str
    expected: str


def _res(criterion: int, name: str, passed, measured, expected) -> CheckResult:
    return CheckResult(criterion, name, bool(passed), str(measured), str(expected))


# -- 1: group orders, induced counts, axiom validation -----------------------------


def check_group_orders(n_max: int = ade.N_MAX) -> list[CheckResult]:
    out = []
    fixtures = [("A1^3", None, 16, 8, 8), ("A3", None, 48, 24, 24),
                ("B3", None, 96, 48, 48), ("H3", None, 240, 120, 120)]
    for name, n, pin_n, spin_n, count in fixtures:
        P, S, I = pin_group(name, n), spin_group(name, n), induced_set(name, n)
        out.append(_res(1, f"{name} pin/spin/induced",
                        (P.order, S.order, I.count) == (pin_n, spin_n, count),
                        (P.order, S.order, I.count), (pin_n, spin_n, count)))
        rep = validate_root_system(I.vectors)
        out.append(_res(1, f"{name} induced set axioms", rep.ok,
                        f"{rep.violation_count} violations", "0 violations"))
    for n in range(2, n_max + 1):
        I = induced_set("A1xI2", n)
        rep = validate_root_system(I.vectors)
        out.append(_res(1, f"A1xI2({n}) induced count+axioms",
                        I.count == 4 * n and rep.ok,
                        (I.count, rep.violation_count), (4 * n, 0)))
    return out


# -- 2: explicit coordinate fixtures ------------------------------------------------


def _perm_parity(p) -> int:
    par = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                par ^= 1
    return par


def _signed(vals):
    idx = [i for i, v in enumerate(vals) if not v.is_zero()]
    for signs in product((1, -1), repeat=len(idx)):
        out = list(vals)
        for s, i in zip(signs, idx):
            if s < 0:
                out[i] = -out[i]
        yield tuple(out)


def _perms_signed(base, even_only: bool = False):
    out = set()
    for p in permutations(range(len(base))):
        if even_only and _perm_parity(p):
            continue
        out.update(_signed(tuple(base[i] for i in p)))
    return out


def expected_induced_vectors(name: str) -> set:
    """The printed spinor coordinate forms for the exceptional inductions."""
    one, zero, half = QT_ONE, QT_ZERO, QT_HALF
    unit8 = _perms_signed((one, zero, zero, zero))
    half16 = set(_signed((half, half, half, half)))
    if name == "A1^4":
        return unit8
    if name == "D4":
        return unit8 | half16
    if name == "F4":
        return unit8 | half16 | _perms_signed((INV_SQRT2, INV_SQRT2, zero, zero))
    if name == "H4":
        icos = _perms_signed((zero, half, (1 - TAU) * half, TAU * half), even_only=True)
        return unit8 | half16 | icos
    raise ValueError(name)


def check_coordinate_fixtures() -> list[CheckResult]:
    out = []
    for src, tgt in [("B3", "F4"), ("H3", "H4")]:
        got = set(induced_set(src).vectors)
        want = expected_induced_vectors(tgt)
        out.append(_res(2, f"{src} -> {tgt} exact coordinate set",
                        got == want,
                        f"{len(got & want)}/{len(got)} shared", f"all {len(want)}"))
    return out


# -- 3: factorization table ----------------------------------------------------------


#: printed angle pairs of the 4D Coxeter versor factorizations
FACTORIZATION_TABLE = {
    "A4": ((PI / 5, -2 * PI / 5), (1, 2, 3, 4)),
    "B4": ((-PI / 8, 3 * PI / 8), (1, 3, 5, 7)),
    "D4": ((-PI / 6, PI / 2), (1, 3, 3, 5)),
    "F4": ((-PI / 12, 5 * PI / 12), (1, 5, 7, 11)),
    "H4": ((-PI / 30, -11 * PI / 30), (1, 11, 19, 29)),
}


def check_factorizations() -> list[CheckResult]:
    out = []
    for name, (angles, exps) in FACTORIZATION_TABLE.items():
        cd = coxplane.coxeter_data(name)
        plane = coxplane.coxeter_plane_for(name)
        f = coxplane.factorize(cd.versor, plane.bivector, cd.h)
        e1, e2, *_ = coxplane.canonical_angle_pair(*angles)
        ok = (abs(f.theta1 - e1) < 1e-9 and abs(f.theta2 - e2) < 1e-9
              and f.residual < 1e-8 and f.exponents == exps)
        out.append(_res(3, f"{name} factorization", ok,
                        f"angles=({f.theta1:.9f},{f.theta2:.9f}) "
                        f"res={f.residual:.2e} m={f.exponents}",
                        f"angles=({e1:.9f},{e2:.9f}) res<1e-8 m={exps}"))
    return out


# -- 4: matrix spectrum vs factorization on random words -----------------------------


ORACLE_WORDS = 20   # random words per system beside the default word


def check_exponent_oracles(n_max: int = ade.N_MAX,
                           seed: int = mckay.DEFAULT_SEED) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(seed)
    systems = [("A1^4", None), ("A4", None), ("B4", None), ("D4", None),
               ("F4", None), ("H4", None)]
    systems += [("I2xI2", n) for n in range(2, n_max + 1)]
    for name, n in systems:
        simple = catalog(name, n)
        base = coxplane.coxeter_data(name, n)
        expected = coxplane.exponents_via_matrix(base.matrix, base.h)
        bad = []
        words = [None] + [
            tuple(int(x) + 1 for x in rng.permutation(simple.rank))
            for _ in range(ORACLE_WORDS)
        ]
        # every stage runs once for all the words of the system
        cds = coxplane.coxeter_versors(simple, words)
        Ms, hs = np.stack([cd.matrix for cd in cds]), [cd.h for cd in cds]
        planes = coxplane.planes_from_matrices(Ms, hs)
        factors = coxplane.factorizations(np.stack([cd.versor for cd in cds]), planes, hs)
        for word, m_exps, f in zip(words, coxplane.exponents_via_matrices(Ms, hs), factors):
            if not (m_exps == f.exponents == expected):
                bad.append((word, m_exps, f.exponents))
        out.append(_res(4, f"{simple.name} exponent oracles ({len(words)} words)",
                        not bad, bad[:2] or f"all agree: {expected}",
                        f"matrix == factorization == {expected}"))
    return out


# -- 5: plane fixtures and invariance -------------------------------------------------


def check_planes(n_max: int = ade.N_MAX) -> list[CheckResult]:
    out = []
    # D4 plane is (e14+e24+e34)/sqrt(3) up to sign
    B = coxplane.coxeter_plane_for("D4").bivector
    want = np.zeros(16)
    want[[0b1001, 0b1010, 0b1100]] = 1.0 / math.sqrt(3.0)
    d4_ok = np.abs(B - want).max() <= 1e-9 or np.abs(B + want).max() <= 1e-9
    out.append(_res(5, "D4 plane bivector", d4_ok,
                    {m: round(c, 9) for m, c in enumerate(B.tolist()) if abs(c) > 1e-9},
                    "(e14+e24+e34)/sqrt3 up to sign"))
    # H4 plane, printed numerically to 3 decimals
    B = coxplane.coxeter_plane_for("H4").bivector
    got = B[[0b0011, 0b0101, 0b1010, 0b1100]].tolist()
    want_vals = [-0.204, -0.247, -0.604, -0.73]
    h4_ok = (all(abs(g - w) < 1e-3 for g, w in zip(got, want_vals))
             or all(abs(g + w) < 1e-3 for g, w in zip(got, want_vals)))
    out.append(_res(5, "H4 plane bivector", h4_ok,
                    [round(g, 4) for g in got], f"{want_vals} up to overall sign"))
    # invariance across the catalog
    systems = [("I2", n) for n in range(2, n_max + 1)]
    systems += [("A1xI2", n) for n in range(2, n_max + 1)]
    systems += [("I2xI2", n) for n in range(2, n_max + 1)]
    systems += [(k, None) for k in ("A3", "B3", "H3", "A4", "B4", "D4", "F4", "H4")]
    failures = []
    degenerate = 0
    for name, n in systems:
        simple = catalog(name, n)
        try:
            coxplane.coxeter_plane(simple)  # validates invariance at 1e-6
        except coxplane.DegeneratePlaneError as exc:
            # edgeless Coxeter graphs (the A1-power points, incl. n = 2 family
            # members) have an empty colour class and no coloured plane
            if coxplane.bicolor(simple)[1]:
                failures.append((simple.name, str(exc)))
            else:
                degenerate += 1
        except Exception as exc:
            failures.append((simple.name, str(exc)))
    out.append(_res(5, f"plane invariance ({len(systems)} systems)", not failures,
                    failures or f"all invariant; {degenerate} A1-power points degenerate",
                    "invariant within 1e-6 (A1-only systems are degenerate by design)"))
    for name in ("A1^3", "A1^4"):
        try:
            coxplane.coxeter_plane(catalog(name))
            ok, got = False, "plane built"
        except coxplane.DegeneratePlaneError:
            ok, got = True, "degenerate wedge error"
        out.append(_res(5, f"{name} degenerate plane", ok, got, "degenerate wedge error"))
    return out


# -- 6: Perron-Frobenius fixtures ------------------------------------------------------


def check_pf() -> list[CheckResult]:
    out = []
    tau = float(TAU)
    fixtures = [
        ("A4", (1.0, tau, tau, 1.0), 1e-9),
        ("D4", (1.0, 1.0, 1.0, math.sqrt(3.0)), 1e-9),
        ("H4", (1.0, 1.989, 2.956, 2.405), 1e-3),
    ]
    for name, want, tol in fixtures:
        pf = coxplane.coxeter_plane_for(name).pf
        ok = all(abs(g - w) <= tol for g, w in zip(pf, want))
        out.append(_res(6, f"{name} Perron-Frobenius", ok,
                        tuple(round(v, 6) for v in pf), f"{want} within {tol}"))
    return out


# -- 7: H4 appendix fixtures -----------------------------------------------------------


def _z5_str(x: QuadTower) -> str:
    """An element p + q*sqrt5 of Q(sqrt5), printed as (p+q*r5)."""
    return f"({x.a}{'+' if x.c >= 0 else ''}{x.c}*r5)"


class _Z5R:
    """a + b*R with a, b in Q(sqrt5) and R^2 = 30 + 6*sqrt5."""

    __slots__ = ("a", "b")
    R_SQ = QuadTower(30, 0, 6)

    def __init__(self, a: QuadTower, b: QuadTower):
        self.a, self.b = a, b

    def __add__(self, o):
        return _Z5R(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return _Z5R(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return _Z5R(self.a * o.a + self.b * o.b * self.R_SQ,
                    self.a * o.b + self.b * o.a)

    def __eq__(self, o):
        return self.a == o.a and self.b == o.b

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(30.0 + 6.0 * math.sqrt(5.0))

    def __repr__(self):
        return f"{_z5_str(self.b)}*R + {_z5_str(self.a)}"


def _z5r(p: int, q: int, r: int, s: int) -> _Z5R:
    """(p + q*sqrt5) + (r + s*sqrt5)*R"""
    return _Z5R(QuadTower(p, 0, q), QuadTower(r, 0, s))


def check_h4_appendix() -> list[CheckResult]:
    out = []
    # weight basis (inverse basis of the simple roots)
    tau = TAU
    weights = coxplane.weight_basis(catalog("H4"))
    z, one = QT_ZERO, QT_ONE
    expected = [
        (z, z, z, 2 * tau),
        (-tau, one, z, 3 * tau + 1),
        (-2 * tau, z, z, 4 * tau + 2),
        (-(1 + tau), z, one, 3 * tau + 2),
    ]
    diffs = []
    for w, want in zip(weights, expected):
        diffs.extend(abs(float(g) - float(e)) for g, e in zip(w, want))
    out.append(_res(7, "H4 weight basis", max(diffs) < 1e-9,
                    f"max coordinate error {max(diffs):.2e}",
                    "2tau*e4, -tau*e1+e2+(3tau+1)*e4, ... within 1e-9"))

    # printed coloured vectors, taken verbatim, in Z[sqrt5][R]
    a1 = _z5r(-28, -12, -6, -2)
    a4 = _z5r(96, 40, 14, 6)
    b1 = _z5r(14, 6, 3, 1)
    b2 = _z5r(-4, -4, 0, 0)
    b3 = _z5r(2, -2, -2, 0)
    b4 = _z5r(-48, -20, -7, -3)
    c14 = a1 * b4 - a4 * b1
    rel = abs(float(c14)) / abs(float(a1 * b4))
    zero = c14 == _z5r(0, 0, 0, 0)
    out.append(_res(7, "wedge e1e4 component cancels", zero and rel < 1e-6,
                    f"exact zero: {zero}, relative {rel:.1e}", "0 (|coef| < 1e-6 rel)"))

    # B^2 = (a.b)^2 - a^2 b^2 for the wedge of those two vectors
    adotb = a1 * b1 + a4 * b4
    asq = a1 * a1 + a4 * a4
    bsq = b1 * b1 + b2 * b2 + b3 * b3 + b4 * b4
    bsq_bivector = adotb * adotb - asq * bsq
    want = _z5r(-15421440, -6893568, -2334720, -1044480)
    float_rel = abs(float(bsq_bivector) - float(want)) / abs(float(want))
    out.append(_res(7, "plane bivector norm squared",
                    bsq_bivector == want and float_rel < 1e-9,
                    f"exact equal: {bsq_bivector == want}, rel err {float_rel:.1e}",
                    "(-1044480*r5-2334720)*R - 6893568*r5 - 15421440"))
    reduced = _Z5R(bsq_bivector.a / 12288, bsq_bivector.b / 12288)
    out.append(_res(7, "coefficients divide by 12288",
                    reduced == _z5r(-1255, -561, -190, -85),
                    repr(reduced), "(-85*r5-190)*R - 561*r5 - 1255"))
    # the appendix also simplifies two of the products
    out.append(_res(7, "a1*b3 and a4*b3 products",
                    a1 * b3 == _z5r(544, 224, 64, 32)
                    and a4 * b3 == _z5r(-1408, -640, -224, -96),
                    (repr(a1 * b3), repr(a4 * b3)),
                    "(32r5+64)R+224r5+544 and (-96r5-224)R-640r5-1408"))
    return out


# -- 8: order decompositions ------------------------------------------------------------


def check_springer(n_max: int = ade.N_MAX) -> list[CheckResult]:
    out = []
    for rep in ade.springer_suite(n_max):
        out.append(_res(8, f"{rep.name} order decomposition", rep.ok,
                        f"|W|={rep.group_order}, m={rep.exponents}, degrees={rep.degrees}",
                        rep.formula))
    return out


# -- 9: McKay suite over seeds -----------------------------------------------------------


MCKAY_SEEDS = 32    # seeds 0..MCKAY_SEEDS-1 whose character tables must agree


def mckay_verdicts(G, classes: mckay.ClassData) -> set:
    """The verdict (classes, dims, sum d^2 == |G|, sum d, affine type) of the
    character table of each seed 0..MCKAY_SEEDS-1.

    The tables come from one stacked eigenproblem and their McKay graphs from
    one stacked product.  Equal graphs have equal affine types, so each
    distinct graph is matched once.
    """
    tables = mckay.character_tables(G, classes, range(MCKAY_SEEDS))
    graphs = mckay.mckay_graphs(tables, mckay.spinor_character(G, classes))
    affine_of = {}
    verdicts = set()
    for table, graph in zip(tables, graphs):
        key = (table.dims, graph.adjacency.tobytes())
        if key not in affine_of:
            affine_of[key] = mckay.match_affine_ade(graph)
        verdicts.add((len(table.dims), table.dims, sum(d * d for d in table.dims) == G.order,
                      sum(table.dims), affine_of[key]))
    return verdicts


def check_mckay(n_max: int = ade.N_MAX) -> list[CheckResult]:
    out = []
    systems = [("A3", None, 7, "E~6"), ("B3", None, 8, "E~7"), ("H3", None, 9, "E~8")]
    systems += [("I2", n, 2 * n, f"A~{2 * n - 1}") for n in range(2, n_max + 1)]
    systems += [("A1xI2", n, n + 3, f"D~{n + 2}") for n in range(2, n_max + 1)]
    for name, n, k_want, affine_want in systems:
        G = spin_group(name, n)
        verdicts = mckay_verdicts(G, mckay.conjugacy_classes(G))
        stable = len(verdicts) == 1
        k, dims, sq_ok, sum_d, affine = next(iter(verdicts))
        src_count = root_system(name, n).count
        ok = (stable and k == k_want and sq_ok and affine == affine_want
              and sum_d == src_count)
        out.append(_res(
            9, f"{catalog(name, n).name} McKay ({MCKAY_SEEDS} seeds)", ok,
            f"classes={k} sum_d={sum_d} affine={affine} stable={stable}",
            f"classes={k_want} sum_d={src_count} affine={affine_want} stable=True",
        ))
    return out


# -- 10: direct diagram map and ADE Coxeter numbers ---------------------------------------


def check_direct_map(n_max: int = ade.N_MAX) -> list[CheckResult]:
    out = []
    failures = []
    for n in range(2, n_max + 1):
        d = ade.triple_to_diagram(rotation_orders(catalog("I2", n)))
        if d.name != f"A{n}":
            failures.append((f"I2({n})", d.name))
        d = ade.triple_to_diagram(rotation_orders(catalog("A1xI2", n)))
        if d.name != f"D{n + 2}":
            failures.append((f"A1xI2({n})", d.name))
    for src, want in [("A3", "E6"), ("B3", "E7"), ("H3", "E8")]:
        d = ade.triple_to_diagram(rotation_orders(catalog(src)))
        if d.name != want:
            failures.append((src, d.name))
    out.append(_res(10, "rotation triples -> diagrams", not failures,
                    failures or "A_n, D_{n+2}, E6/E7/E8 all reproduced",
                    "A_n from n; D_{n+2} from (2,2,n); E6/E7/E8 from (2,3,3/4/5)"))
    h_fail = []
    for n in range(2, n_max + 1):
        if ade.ade_root_data("A", 2 * n - 1).h != 2 * n:
            h_fail.append(f"A{2 * n - 1}")
        if ade.ade_root_data("D", n + 2).h != 2 * (n + 1):
            h_fail.append(f"D{n + 2}")
    for name, want in [("E6", 12), ("E7", 18), ("E8", 30)]:
        if ade.ade_root_data(name).h != want:
            h_fail.append(name)
    out.append(_res(10, "computed ADE Coxeter numbers", not h_fail,
                    h_fail or "h(A_{2n-1})=2n, h(D_{n+2})=2(n+1), h(E6/7/8)=12/18/30",
                    "column formulas for n=2..12"))
    return out


# -- 11: projection property and export determinism ----------------------------------------


def check_projection_and_exports(seed: int = mckay.DEFAULT_SEED) -> list[CheckResult]:
    out = []
    plane = coxplane.coxeter_plane_for("A4")
    points = coxplane.project_to_plane(root_system("A4").vectors, plane.bivector)
    radii = sorted(math.hypot(x, y) for x, y in points)
    classes: list[list[float]] = []
    for r in radii:
        if classes and abs(classes[-1][0] - r) < 1e-9:
            classes[-1].append(r)
        else:
            classes.append([r])
    ratio = classes[-1][0] / classes[0][0] if len(classes) == 2 else float("nan")
    ok = (len(classes) == 2 and all(len(c) == 10 for c in classes)
          and abs(ratio - float(TAU)) < 1e-9)
    out.append(_res(11, "A4 projection: two decagons at ratio tau", ok,
                    f"{len(classes)} radii, sizes {[len(c) for c in classes]}, "
                    f"ratio {ratio:.12f}",
                    f"2 radii, 10+10 points, ratio {float(TAU):.12f} within 1e-9"))
    exports = [("roots", "F4", None), ("projection", "A4", None),
               ("mckay-graph", "H3", None), ("diagram", "H3", None)]
    with tempfile.TemporaryDirectory() as tmp:
        dir_a, dir_b = Path(tmp) / "a", Path(tmp) / "b"
        names = []
        for kind, name, n in exports:
            for p in output.export_files(kind, name, n, dir_a, seed=seed):
                names.append(p.name)
            output.export_files(kind, name, n, dir_b, seed=seed)
        mismatched = [
            f for f in names if not filecmp.cmp(dir_a / f, dir_b / f, shallow=False)
        ]
    out.append(_res(11, "exports byte-identical across runs", not mismatched,
                    mismatched or f"{len(names)} files identical",
                    "identical bytes for JSON/CSV/DOT/SVG exports"))
    return out


# -- runner ----------------------------------------------------------------------------------


# every entry is called as fn(n_max=..., seed=...) and passes on what it uses
CRITERIA = {
    1: ("group orders and root counts",
        lambda n_max, seed: check_group_orders(n_max)),
    2: ("explicit coordinate fixtures",
        lambda n_max, seed: check_coordinate_fixtures()),
    3: ("factorization table reproduction",
        lambda n_max, seed: check_factorizations()),
    4: ("exponent oracle equivalence",
        lambda n_max, seed: check_exponent_oracles(n_max, seed)),
    5: ("Coxeter-plane fixtures and invariance",
        lambda n_max, seed: check_planes(n_max)),
    6: ("Perron-Frobenius fixtures", lambda n_max, seed: check_pf()),
    7: ("H4 exact appendix fixtures", lambda n_max, seed: check_h4_appendix()),
    8: ("order-decomposition identities", lambda n_max, seed: check_springer(n_max)),
    9: ("McKay suite", lambda n_max, seed: check_mckay(n_max)),
    10: ("direct diagram map and ADE Coxeter numbers",
         lambda n_max, seed: check_direct_map(n_max)),
    11: ("projection property and export determinism",
         lambda n_max, seed: check_projection_and_exports(seed)),
}


#: criteria that a forked child runs while this process runs the others; 9 is
#: the largest, and 8 shares its spin groups
CHILD_CRITERIA = (8, 9)


def _crashed(num: int, why: str) -> CheckResult:
    return _res(num, f"{CRITERIA[num][0]} (crashed)", False, why, "no exception")


def _run(nums, n_max: int, seed: int) -> dict[int, list[CheckResult]]:
    """The checks of each criterion in nums; a crashed criterion is one failed check."""
    out = {}
    for num in nums:
        try:
            out[num] = CRITERIA[num][1](n_max=n_max, seed=seed)
        except Exception as exc:  # a crashed check is a failed check
            out[num] = [_crashed(num, repr(exc))]
    return out


def _fork(nums, n_max: int, seed: int):
    """(pid, read end of a pipe) of a child that runs the criteria nums and
    pickles their checks into the pipe; (0, None) when no child can start."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return 0, None
    if pid == 0:
        # the child leaves by os._exit: no atexit hook, test teardown or stdio
        # flush of the parent's state runs twice
        status = 1
        try:
            os.close(rfd)
            with open(wfd, "wb") as pipe:
                pickle.dump(_run(nums, n_max, seed), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    return pid, open(rfd, "rb")


def run_all(n_max: int = ade.N_MAX, seed: int = mckay.DEFAULT_SEED) -> list[CheckResult]:
    """Every criterion's checks in criterion order; a failure never stops the rest.

    With two usable CPUs a forked child runs CHILD_CRITERIA while this process
    runs the others; the list is the same either way.
    """
    two_cpus = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
    pid, pipe = _fork(CHILD_CRITERIA, n_max, seed) if two_cpus else (0, None)
    forked = CHILD_CRITERIA if pid else ()
    data = None
    try:
        by_num = _run([num for num in CRITERIA if num not in forked], n_max, seed)
        if pid:
            data = pipe.read()
    finally:
        if pid:
            pipe.close()
            if data is None:  # interrupted: end the child before leaving
                import signal  # only here, to keep it off every start-up
                os.kill(pid, signal.SIGKILL)
            status = os.waitpid(pid, 0)[1]
    if pid:
        code = os.waitstatus_to_exitcode(status)
        if code == 0:  # the child exits 0 only after sending all its checks
            by_num.update(pickle.loads(data))
        else:
            why = f"child process ended with status {code}"
            by_num.update({num: [_crashed(num, why)] for num in forked})
    return [r for num in CRITERIA for r in by_num[num]]
