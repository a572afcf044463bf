import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from clifford_reference import (
    basis_vector,
    dot,
    mv_key,
    mv_sort_key,
    mv_vector,
    norm_sq,
    root_multivectors,
    to_float,
    vector_coords,
)
from spinroot import ade, rootsys, scalars
from spinroot.clifford import Multivector
from spinroot.induction import _coefficient_floats, induced_set, pin_group
from spinroot.rootsys import (
    ClosureCapError,
    SimpleRootSet,
    UnknownSystemError,
    canonical_order,
    cartan_matrix,
    catalog,
    display_name,
    generate_roots,
    orbit,
    parse_name,
    root_system,
    rotation_orders,
    validate_root_system,
)
from spinroot.scalars import (
    INV_SQRT2, KEY_DECIMALS, QT_HALF, QT_ZERO, QuadTower, TAU, quad_numerators,
    row_floats,
)

EXPECTED_COUNTS = {
    ("A1^3", None): 6, ("A3", None): 12, ("B3", None): 18, ("H3", None): 30,
    ("A1^4", None): 8, ("A4", None): 20, ("B4", None): 32, ("D4", None): 24,
    ("F4", None): 48, ("H4", None): 120,
}


def test_name_parsing():
    assert parse_name("H3") == ("H3", None)
    assert parse_name("I2(7)") == ("I2", 7)
    assert parse_name("A1xI2(3)") == ("A1xI2", 3)
    assert parse_name("I2(5)xI2(5)") == ("I2xI2", 5)
    assert parse_name("I2xI2", 4) == ("I2xI2", 4)
    assert parse_name("A1^3") == ("A1^3", None)
    with pytest.raises(UnknownSystemError):
        parse_name("G2")
    with pytest.raises(UnknownSystemError):
        parse_name("I2(3)xI2(4)")
    for name in ("H3", "h4", "A13", "A1^4"):
        with pytest.raises(UnknownSystemError, match="takes no family parameter"):
            parse_name(name, 5)
    with pytest.raises(UnknownSystemError):
        catalog("I2")  # family parameter missing
    assert display_name("I2xI2", 6) == "I2(6)xI2(6)"


def test_catalog_fixtures():
    h3 = catalog("H3")
    want = mv_vector(
        [-(TAU * QT_HALF), -QT_HALF, -((TAU - 1) * QT_HALF)]
    )
    assert root_multivectors(h3)[1] == want

    i2 = catalog("I2", 5)
    got = vector_coords(root_multivectors(i2)[1])
    assert abs(got[0] + math.cos(math.pi / 5)) < 1e-15
    assert abs(got[1] - math.sin(math.pi / 5)) < 1e-15

    d4 = catalog("D4")
    want = mv_vector([-QT_HALF, -QT_HALF, -QT_HALF, QT_HALF])
    assert root_multivectors(d4)[3] == want


def test_all_catalog_roots_unit():
    names = list(EXPECTED_COUNTS) + [("I2", 7), ("A1xI2", 3), ("I2xI2", 4)]
    for key, n in names:
        for r in root_multivectors(catalog(key, n)):
            assert abs(float(norm_sq(r)) - 1.0) < 1e-12


def test_root_counts():
    for (key, n), want in EXPECTED_COUNTS.items():
        assert root_system(key, n).count == want
    for n in range(2, 13):
        assert root_system("I2", n).count == 2 * n
        assert root_system("A1xI2", n).count == 2 * n + 2
        assert root_system("I2xI2", n).count == 4 * n


def test_float_key_stability(monkeypatch):
    # closure counts must not depend on the dedup rounding (6 vs 7 decimals)
    simples = [catalog(key, n) for key, n in [("I2", 7), ("I2", 12), ("A1xI2", 9), ("I2xI2", 11),
                                              ("I2", 16), ("A1xI2", 16), ("I2xI2", 16)]]
    simples.append(catalog("B4", backend="float"))
    assert scalars.KEY_DECIMALS == 6
    c6 = [generate_roots(simple).count for simple in simples]
    monkeypatch.setattr(scalars, "KEY_DECIMALS", 7)
    c7 = [generate_roots(simple).count for simple in simples]
    assert c6 == c7


def test_roots_in_canonical_order():
    for key, n in list(EXPECTED_COUNTS) + [("I2", 9), ("A1xI2", 5), ("I2xI2", 6)]:
        roots = root_multivectors(root_system(key, n))
        assert list(roots) == sorted(roots, key=mv_sort_key), (key, n)


def test_canonical_order_sorts_like_mv_sort_key_at_a_tie():
    # x is the 12-decimal tie 0.2500000000055 as stored: Python's round() sends
    # it down and the ulp above it up; np.round sends both up, so it would order
    # these two rows by their second coordinate instead
    x = 0.2500000000055
    above = float(np.nextafter(x, 1.0))
    assert round(x, 12) != round(above, 12)
    assert np.round(x, 12) == np.round(above, 12)
    rows = [[above, 0.0], [x, 1.0]]
    mvs = [mv_vector(r) for r in rows]
    assert canonical_order(rows) == sorted(range(2), key=lambda i: mv_sort_key(mvs[i])) == [1, 0]
    # exact values sort by the same rounded floats
    exact = [[QuadTower(Fraction(1, 3)), QT_ZERO], [QuadTower(0, Fraction(1, 4)), QT_ZERO]]
    mvs = [mv_vector(r) for r in exact]
    floats = row_floats(*quad_numerators(exact))
    assert canonical_order(floats) == sorted(range(2), key=lambda i: mv_sort_key(mvs[i])) == [0, 1]


def round_key_order(rows) -> list[int]:
    """The reference sort: Python ``round`` per coordinate, one tuple per row."""
    keys = [tuple(round(c, rootsys.SORT_DECIMALS) for c in row)
            for row in np.asarray(rows, dtype=float).tolist()]
    return sorted(range(len(keys)), key=keys.__getitem__)


def _tie_values() -> list[float]:
    """12-decimal ties as stored and one ulp either side, of both signs, with
    the zeros and magnitudes where x 10**12 passes 2**52."""
    ties = [0.2500000000055, 0.0000000000005, 1.0000000000015, 3.1415926535895,
            4503.5999999999995, 4504.0000000000005, 12345.6789012345675, 2.0 ** 40 + 0.5]
    values = [0.0, -0.0, 4504.0, -4504.0, 1e6 + 1e-12]
    for t in ties:
        for x in (t, -t):
            values += [x, float(np.nextafter(x, -np.inf)), float(np.nextafter(x, np.inf))]
    return values


def test_canonical_order_rounds_ties_like_python_round():
    values = _tie_values()
    # the set holds coordinates that np.round and Python round key apart
    assert any(np.round(x, 12) != round(x, 12) for x in values)
    rng = random.Random(5)
    for dim in (1, 2, 3):
        # two coordinates are often equal after rounding alone: the next
        # coordinate then decides, so any wrong key moves a row
        rows = [[rng.choice(values) for _ in range(dim)] for _ in range(400)]
        rows += [[x] + [rng.choice((-1.0, 0.0, 1.0))] * (dim - 1) for x in values]
        rng.shuffle(rows)
        assert canonical_order(rows) == round_key_order(rows), dim


def test_canonical_order_sorts_every_closure_like_python_round():
    # every catalog and family closure, n = 2..16, root sets and pin groups,
    # shuffled before sorting
    rng = random.Random(7)
    closures = [row_floats(root_system(key, None).num, root_system(key, None).den)
                for key, _ in EXPECTED_COUNTS]
    for key in ("I2", "A1xI2", "I2xI2"):
        closures += [row_floats(root_system(key, n).num, root_system(key, n).den)
                     for n in range(2, 17)]
    sources = [(key, None) for key in ("A1^3", "A3", "B3", "H3")]
    sources += [(key, n) for key in ("I2", "A1xI2") for n in range(2, 17)]
    for key, n in sources:
        G = pin_group(key, n)
        closures.append(_coefficient_floats(G.rows, G.dim))
    assert len(closures) == 10 + 45 + 34
    for floats in closures:
        rows = floats[rng.sample(range(len(floats)), len(floats))]
        assert canonical_order(rows) == round_key_order(rows)


def test_simple_root_order_does_not_change_roots():
    for key in ("B3", "F4", "H4"):
        base = catalog(key)
        want = root_multivectors(generate_roots(base))
        rank = base.rank
        for perm in (tuple(reversed(range(rank))), (1, 0) + tuple(range(2, rank))):
            shuffled = SimpleRootSet(
                name=f"{key}*", key=key, rank=rank,
                vectors=tuple(base.vectors[i] for i in perm), backend=base.backend,
            )
            assert root_multivectors(generate_roots(shuffled)) == want, (key, perm)


def test_orbit_kernel():
    def step(frontier):
        return (frontier + 3) % 7

    def keys(batch):
        return batch.tolist()

    assert orbit(np.array([0]), step, keys, cap=7).tolist() == [0, 3, 6, 2, 5, 1, 4]
    with pytest.raises(ClosureCapError):
        orbit(np.array([0]), step, keys, cap=6)


def per_generator_step(simple: SimpleRootSet):
    """The former step of ``rootsys._float_closure``: the images under one
    generator at a time, stacked generator-minor."""
    gens = row_floats(*simple.rows)
    norms = np.diagonal(simple.gram[0][..., 0])

    def step(rows: np.ndarray) -> np.ndarray:
        images = [rows - ((rootsys.ordered_dot(rows, a) * 2) / aa)[:, None] * a
                  for a, aa in zip(gens, norms)]
        return np.stack(images, axis=1).reshape(-1, gens.shape[1])

    return step


def test_float_closure_step_equals_the_per_generator_step(monkeypatch):
    # every family closure with n = 2..16, bit for bit: the closure the former
    # step gives, and both steps on the whole root set
    steps = []

    def recording_orbit(seeds, step, keys, cap):
        steps.append(step)
        return orbit(seeds, step, keys, cap)

    monkeypatch.setattr(rootsys, "orbit", recording_orbit)
    for key in ("I2", "A1xI2", "I2xI2"):
        for n in range(2, 17):
            simple = catalog(key, n)
            former = per_generator_step(simple)
            closed = orbit(row_floats(*simple.rows), former, scalars.row_keys,
                           rootsys.CLOSURE_CAP)
            num, den = rootsys._float_closure(simple)
            assert den == 1 and num[..., 0].tobytes() == closed.tobytes(), (key, n)
            roots = root_system(key, n).num[..., 0]
            assert steps[-1](roots).tobytes() == former(roots).tobytes(), (key, n)


def _reflect_general(alpha: Multivector, x: Multivector) -> Multivector:
    # s_a(x) = x - 2 (x|a)/(a|a) a: exact-friendly (no square roots) and valid
    # for mirrors of any length, unlike the unit-normal Clifford form
    coef = (dot(x, alpha) * 2) / dot(alpha, alpha)
    return x - coef * alpha


def reference_orbit(seeds, generators, act, key):
    """Breadth-first closure, one element and one generator at a time."""
    out, seen = [], set()

    def add(x):
        k = key(x)
        if k not in seen:
            seen.add(k)
            out.append(x)

    for s in seeds:
        add(s)
    i = 0
    while i < len(out):
        for g in generators:
            add(act(out[i], g))
        i += 1
    return out


def reference_roots(simple):
    """Per-element closure of a simple set by Cartesian reflections, sorted."""
    gens = root_multivectors(simple)
    roots = reference_orbit(gens, gens, lambda x, a: _reflect_general(a, x), mv_key)
    return tuple(sorted(roots, key=mv_sort_key))


def reference_ade_roots(simple):
    """Per-element float closure of ADE simple rows, keyed by their exact bytes.

    The coordinates lie in (1/2)Z and every reflection has (a|a) = 2, so each
    product, sum and the halving in (2 (x|a) / (a|a)) a is exact in float64:
    equal roots are equal bit for bit, and a 6-decimal key would find the same
    roots.  ``+ 0.0`` folds -0.0 into 0.0.
    """
    return np.array(reference_orbit(
        simple, simple, lambda x, a: x - (2.0 * (x @ a) / (a @ a)) * a,
        lambda v: (v + 0.0).tobytes()))


def _permuted(simple, perm):
    return SimpleRootSet(name=f"{simple.name}*", key=simple.key, rank=simple.rank,
                         vectors=tuple(simple.vectors[i] for i in perm), backend=simple.backend)


def test_closure_matches_per_element_reference():
    # ADE: integer coefficient rows give bitwise the float closure, in its order
    for kind, ranks in (("A", range(1, 25)), ("D", range(2, 25)), ("E", (6, 7, 8))):
        for n in ranks:
            simple = ade._simple_roots(kind, n)
            got, want = ade._closure(simple), reference_ade_roots(simple)
            assert got.tobytes() == want.tobytes(), (kind, n)
    # exact: the catalog systems, their permutations and a non-unit B2
    exact = [catalog(key) for key, _ in EXPECTED_COUNTS if catalog(key).backend == "exact"]
    exact += [_permuted(s, tuple(reversed(range(s.rank)))) for s in exact]
    exact.append(SimpleRootSet(
        name="B2 non-unit", key="B2", rank=2, backend="exact",
        vectors=((QuadTower(1), QT_ZERO), (QuadTower(-3), QuadTower(3)))))
    for simple in exact:
        assert root_multivectors(generate_roots(simple)) == reference_roots(simple), simple.name
    assert generate_roots(exact[-1]).count == 8
    # float: the families and float copies of exact systems, bitwise
    floats = [catalog(key, n) for key in ("I2", "A1xI2", "I2xI2") for n in range(2, 31)]
    floats += [catalog(k, backend="float") for k in ("A3", "B3", "H3", "B4", "H4")]
    for simple in floats:
        got = np.array([r.coeffs for r in root_multivectors(generate_roots(simple))])
        want = np.array([r.coeffs for r in reference_roots(simple)])
        assert got.tobytes() == want.tobytes(), simple.name


def test_catalog_rejects_non_unit_root(monkeypatch):
    # catalog keeps one set per system: the cache is cleared around the patch
    build = rootsys._build_roots
    rootsys._catalog_set.cache_clear()
    monkeypatch.setattr(rootsys, "_build_roots",
                        lambda key, n: [tuple(2 * c for c in r) for r in build(key, n)])
    try:
        with pytest.raises(ValueError, match="not unit"):
            catalog("H3")
        with pytest.raises(ValueError, match="not unit"):
            catalog("I2", 5)
    finally:
        rootsys._catalog_set.cache_clear()


def _one_root(vector) -> SimpleRootSet:
    exact = isinstance(vector[0], QuadTower)
    return SimpleRootSet(name="one", key="one", rank=1, vectors=(tuple(vector),),
                         backend="exact" if exact else "float")


def test_is_unit_is_exact_on_exact_coordinates():
    # (1 + 1e-20) a is unit in floats but not in the field; floats get UNIT_ROOT_TOL
    a = catalog("A4").vectors[0]
    off = tuple(c * QuadTower(Fraction(10**20 + 1, 10**20)) for c in a)
    assert _one_root(a).unit and not _one_root(off).unit
    assert _one_root(tuple(float(c) for c in off)).unit
    f = catalog("I2", 5).vectors[1]
    assert _one_root(f).unit
    assert not _one_root(tuple(c * (1 + 1e-10) for c in f)).unit


def test_cartan_fixtures():
    cm = cartan_matrix(catalog("D4"))
    want = [[2, 0, 0, -1], [0, 2, 0, -1], [0, 0, 2, -1], [-1, -1, -1, 2]]
    for row, wrow in zip(cm, want):
        for v, w in zip(row, wrow):
            assert v == QuadTower(w)

    cm = cartan_matrix(catalog("H4"))
    t = TAU
    want = [[QuadTower(2), QuadTower(-1), QT_ZERO, QT_ZERO],
            [QuadTower(-1), QuadTower(2), QuadTower(-1), QT_ZERO],
            [QT_ZERO, QuadTower(-1), QuadTower(2), -t],
            [QT_ZERO, QT_ZERO, -t, QuadTower(2)]]
    assert [list(r) for r in cm] == [list(r) for r in want]

    cm = cartan_matrix(catalog("A1^3"))
    for i in range(3):
        for j in range(3):
            assert cm[i][j] == QuadTower(2 if i == j else 0)


def test_cartan_offdiagonal_nonpositive():
    for key, n in [("A3", None), ("B3", None), ("H3", None), ("A4", None),
                   ("F4", None), ("H4", None), ("I2", 9)]:
        cm = cartan_matrix(catalog(key, n))
        k = len(cm)
        for i in range(k):
            for j in range(k):
                if i != j:
                    assert float(cm[i][j]) <= 1e-12


def test_rotation_orders():
    assert rotation_orders(catalog("H3")) == (2, 3, 5)
    assert rotation_orders(catalog("A3")) == (2, 3, 3)
    assert rotation_orders(catalog("B3")) == (2, 3, 4)
    assert rotation_orders(catalog("I2", 7)) == 7
    for n in range(2, 13):
        assert rotation_orders(catalog("A1xI2", n)) == tuple(sorted((2, 2, n)))


def test_rotation_orders_permutation_invariant():
    base = catalog("B3")
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        shuffled = SimpleRootSet(
            name="B3*", key="B3", rank=3,
            vectors=tuple(base.vectors[i] for i in perm),
            backend=base.backend,
        )
        assert rotation_orders(shuffled) == rotation_orders(base)


def test_rotation_orders_rejects_non_coxeter_pair(monkeypatch):
    bad = SimpleRootSet(
        name="bad", key="bad", rank=2,
        vectors=((1.0, 0.0), (-math.cos(1.0), math.sin(1.0))),
        backend="float",
    )
    monkeypatch.setattr(rootsys, "ROTATION_CAP", 100)
    with pytest.raises(ValueError):
        rotation_orders(bad)


def test_validate_catalog_systems():
    # every catalog entry closes to a valid root system
    names = list(EXPECTED_COUNTS) + [("I2", 6), ("A1xI2", 4), ("I2xI2", 7)]
    for key, n in names:
        rep = validate_root_system(root_system(key, n).num)
        assert rep.ok, (key, n)


def reference_direction_key(mv: Multivector, index: int):
    """A vector's direction: its coordinates over the first nonzero one."""
    coords = vector_coords(mv)
    if mv.backend == "exact":
        pivot = next((c for c in coords if not c.is_zero()), None)
    else:
        coords = [float(c) for c in coords]
        pivot = next((c for c in coords if abs(c) > 10.0 ** -KEY_DECIMALS), None)
    if pivot is None:
        raise ValueError(f"vector {index} is zero; a root system has no zero vector")
    if mv.backend == "exact":
        return tuple(c / pivot for c in coords)
    return tuple(round(c / pivot, KEY_DECIMALS) + 0.0 for c in coords)


def reference_pair_violations(roots):
    """Missing negatives and parallel violations, one Multivector at a time,
    with negatives looked up by ``mv_key``."""
    keys = {mv_key(r) for r in roots}
    missing = tuple(i for i, r in enumerate(roots) if mv_key(-r) not in keys)
    by_direction: dict = {}
    for i, r in enumerate(roots):
        by_direction.setdefault(reference_direction_key(r, i), []).append(i)
    parallel = tuple(tuple(ids) for ids in by_direction.values()
                     if len(ids) > 2 or (len(ids) == 2
                                         and mv_key(-roots[ids[0]]) != mv_key(roots[ids[1]])))
    return missing, parallel


def numerators(roots):
    return quad_numerators([vector_coords(r) for r in roots])[0]


@lru_cache(maxsize=None)
def _basis_products() -> np.ndarray:
    """F[p, q, r]: the coefficient of basis r in the product of bases p and q of
    {1, sqrt2, sqrt5, sqrt10}, by QuadTower products, as Python ints."""
    basis = [QuadTower(1), QuadTower(0, 1), QuadTower(0, 0, 1), QuadTower(0, 0, 0, 1)]
    F = np.zeros((4, 4, 4), dtype=object)
    for p, x in enumerate(basis):
        for q, y in enumerate(basis):
            z = x * y
            F[p, q] = [int(z.a), int(z.b), int(z.c), int(z.d)]
    return F


def _times(g: np.ndarray) -> np.ndarray:
    """The (4, 4) matrix of multiplication by the field numerators g: u @ it = g u."""
    return np.tensordot(g, _basis_products(), axes=(0, 0))


def _float_hits(roots) -> list:
    """Whether s_a(x) = x - ((x|a) * 2 / (a|a)) a is a root, for every pair (a, x)
    in row-major order: each image formed by the IEEE operations of the
    one-vector formula in its order, looked up by ``mv_key`` rounding."""
    X = np.array([vector_coords(r) for r in roots], dtype=float)
    # dots[a, x] = (x|a), summed in coordinate order
    dots = X[None, :, 0] * X[:, None, 0]
    for c in range(1, X.shape[1]):
        dots = dots + X[None, :, c] * X[:, None, c]
    coef = (dots * 2) / np.diag(dots)[:, None]
    images = X[None] - coef[:, :, None] * X[:, None]

    def keys(rows):
        return [tuple(round(c, KEY_DECIMALS) + 0.0 for c in row) for row in rows.tolist()]

    targets = set(keys(X))
    return [key in targets for key in keys(images.reshape(-1, X.shape[1]))]


def _exact_hits(roots) -> list:
    """Whether s_a(x) is a root, for every pair (a, x) in row-major order.

    On the numerator rows N of the roots over their common denominator D, as
    Python ints: (a|a) s_a(x) = (a|a) x - 2 (x|a) a has field numerators over
    D**3, as do the multiples (a|a) y of the roots y.  (a|a) is nonzero, so
    s_a(x) is a root exactly when its multiple is one of them.
    """
    parts = [[f for c in vector_coords(r) for f in (c.a, c.b, c.c, c.d)] for r in roots]
    den = math.lcm(*(f.denominator for row in parts for f in row))
    n, dim = len(roots), len(parts[0]) // 4
    N = np.array([[int(f * den) for f in row] for row in parts], dtype=object).reshape(n, dim, 4)
    # by_field[x, d, p] = N[x, d] times basis p
    by_field = np.tensordot(N, _basis_products(), axes=(2, 1))
    # gram[a, x] = numerators of (a|x) over D**2
    gram = N.reshape(n, dim * 4) @ by_field.transpose(1, 2, 0, 3).reshape(dim * 4, n * 4)
    gram = gram.reshape(n, n, 4)
    hits = []
    scaled: dict = {}   # (a|a) -> the multiples (a|a) y and their keys
    for a in range(n):
        aa = tuple(gram[a, a])
        if aa not in scaled:
            rows = (N @ _times(gram[a, a])).reshape(n, dim * 4)
            scaled[aa] = rows, {tuple(row) for row in rows.tolist()}
        rows, targets = scaled[aa]
        # (x|a) a for every x
        along = gram[:, a] @ by_field[a].transpose(1, 0, 2).reshape(4, dim * 4)
        hits += [tuple(row) in targets for row in (rows - 2 * along).tolist()]
    return hits


def reference_reflection_violations(roots, max_samples=16):
    """All-pairs s_i(x_j) in row-major order, as contractions on coordinate rows.

    Float images are looked up by ``mv_key`` rounding, exact ones exactly.
    """
    hits = _float_hits(roots) if roots[0].backend == "float" else _exact_hits(roots)
    return tuple(divmod(pair, len(roots)) for pair, hit in enumerate(hits) if not hit)[:max_samples]


def validation_test_sets():
    """Valid root sets of both backends, and broken ones (a root dropped, a
    non-root added, a negative missing, a parallel pair)."""
    valid = {key: root_multivectors(root_system(key)) for key, _ in EXPECTED_COUNTS
             if catalog(key).backend == "exact"}
    for name in ("A1^3", "A3", "B3", "H3"):
        valid[f"induced {name}"] = tuple(mv_vector(v) for v in induced_set(name).vectors)
    h3, d4, f4, h4 = (valid[k] for k in ("H3", "D4", "F4", "H4"))
    e1 = basis_vector(3, 0)
    broken = {
        "H3 minus a root": h3[1:],
        "D4 plus a non-root": d4 + (mv_vector([QT_HALF, QT_ZERO, TAU, QT_ZERO]),),
        "F4 minus a root": f4[:20] + f4[21:],
        "H4 minus a root": h4[:-1],
        "e1 without its negative": (e1,),
        "e1 and 2 e1": (e1, -e1, 2 * e1, -2 * e1),
    }
    # the float backend: the families and float copies of the exact sets
    floats = {f"float {label}": tuple(to_float(r) for r in roots)
              for label, roots in valid.items()}
    for key in ("I2", "A1xI2", "I2xI2"):
        for n in range(2, 17):
            floats[display_name(key, n)] = root_multivectors(root_system(key, n))
    for label, roots in floats.items():
        valid[label] = roots
        k = len(roots) // 2
        broken[f"{label} minus a root"] = roots[:k] + roots[k + 1:]
    for label in ("e1 without its negative", "e1 and 2 e1"):
        broken[f"float {label}"] = tuple(to_float(r) for r in broken[label])
    return valid, broken


def test_validate_exact_matches_reference():
    valid, broken = validation_test_sets()
    for label, roots in {**valid, **broken}.items():
        rep = validate_root_system(numerators(roots))
        assert rep.checked == len(roots)
        assert rep.reflection_violations == reference_reflection_violations(roots), label
        missing, parallel = reference_pair_violations(roots)
        assert rep.missing_negatives == missing, label
        assert rep.parallel_violations == parallel, label
        assert rep.ok == (label in valid), label
    # every violation in row-major order, and truncation at max_samples
    for label in ("F4 minus a root", "float F4 minus a root", "I2(9)xI2(9) minus a root"):
        roots = broken[label]
        full = validate_root_system(numerators(roots), max_samples=10_000).reflection_violations
        assert len(full) > 16, label
        assert full == reference_reflection_violations(roots, 10_000), label
        assert validate_root_system(numerators(roots), max_samples=5).reflection_violations == full[:5]


def test_validate_large_denominators_stay_exact(monkeypatch):
    # the tier each integer product off float64 takes, as scalars picks it
    tiers, kernel_dtype = [], scalars._kernel_dtype

    def recording(bound):
        tiers.append(kernel_dtype(bound))
        return tiers[-1]

    monkeypatch.setattr(scalars, "_kernel_dtype", recording)
    # numerators and the common denominator near 4e7: int64 could overflow
    scale = QuadTower(Fraction(10 ** 7 + 19, 10 ** 7 + 20))
    roots = tuple(scale * r for r in root_multivectors(root_system("H3")))
    broken = roots[1:] + (scale * mv_vector([QT_HALF, TAU, QT_ZERO]),)
    chosen = []
    for s in (roots, broken):
        tiers.clear()
        rep = validate_root_system(numerators(s), max_samples=10_000)
        assert rep.reflection_violations == reference_reflection_violations(s, 10_000)
        chosen.append(tiers[-1])    # the reflections of the last root
    assert chosen == [object, object]
    assert rep.reflection_violations


def test_validate_missing_negative():
    e1 = basis_vector(3, 0)
    rep = validate_root_system(numerators([e1]))
    assert not rep.ok
    assert rep.missing_negatives


def test_validate_reflection_violation():
    e1 = basis_vector(2, 0)
    diag = mv_vector([INV_SQRT2, INV_SQRT2])
    rep = validate_root_system(numerators([e1, -e1, diag, -diag]))
    assert not rep.ok
    assert rep.reflection_violations  # reflecting the diagonal in e1 escapes


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_validate_rejects_zero_vector(backend):
    e1 = mv_vector([QuadTower(1), QT_ZERO])
    zero = mv_vector([QT_ZERO, QT_ZERO])
    vectors = [e1, -e1, zero]
    if backend == "float":
        vectors = [to_float(v) for v in vectors]
    with pytest.raises(ValueError, match="vector 2 is zero"):
        validate_root_system(numerators(vectors))


def test_validate_parallel_duplicate():
    e1 = basis_vector(3, 0)
    two_e1 = 2 * e1
    rep = validate_root_system(numerators([e1, -e1, two_e1, -two_e1]))
    assert rep.parallel_violations


def test_generation_cap(monkeypatch):
    bad = SimpleRootSet(
        name="bad", key="bad", rank=2,
        vectors=((1.0, 0.0), (-math.cos(1.0), math.sin(1.0))),
        backend="float",
    )
    monkeypatch.setattr(rootsys, "CLOSURE_CAP", 50)
    with pytest.raises(ClosureCapError):
        generate_roots(bad)


def test_float_backend_override():
    simple = catalog("D4", backend="float")
    assert simple.backend == "float"
    assert generate_roots(simple).count == 24
    with pytest.raises(UnknownSystemError):
        catalog("I2", 5, backend="exact")


def test_dot_is_symmetric_bilinear():
    a, b = root_multivectors(catalog("H3"))[:2]
    assert dot(a, b) == dot(b, a)
    assert dot(a + a, b) == dot(a, b) * 2
