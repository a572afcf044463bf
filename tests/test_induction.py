import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from clifford_reference import (
    approx_eq,
    dot,
    element_rows,
    grades,
    group_elements,
    index_of,
    mv_blade,
    mv_key,
    mv_scalar,
    mv_sort_key,
    mv_vector,
    mv_zero,
    product_tensor,
    quad_field,
    reverse,
    root_multivectors,
    spinor_inner,
    vector_coords,
)
from spinroot import clifford, induction, scalars
from spinroot.coxplane import coxeter_versors, weight_basis
from spinroot.induction import (
    VersorGroup,
    even_subgroup,
    fingerprint,
    generate_pin_group,
    identify_root_system,
    induced_name,
    induced_set,
    pin_group,
    spin_group,
    spinors_to_4d,
)
from spinroot.rootsys import (
    ClosureCapError,
    RootSystem,
    SimpleRootSet,
    binary_group_name,
    catalog,
    generate_roots,
    root_system,
    validate_root_system,
)
from spinroot.scalars import (
    FLOATS, KEY_DECIMALS, QT_ONE, QuadTower, quad_numerators, row_floats, row_keys,
)

ORDERS = {
    ("A1^3", None): (16, 8),
    ("A3", None): (48, 24),
    ("B3", None): (96, 48),
    ("H3", None): (240, 120),
}


def test_pin_spin_orders():
    for (name, n), (pin_n, spin_n) in ORDERS.items():
        assert pin_group(name, n).order == pin_n
        assert spin_group(name, n).order == spin_n
    for n in range(2, 13):
        assert pin_group("I2", n).order == 4 * n
        assert spin_group("I2", n).order == 2 * n
        assert pin_group("A1xI2", n).order == 8 * n
        assert spin_group("A1xI2", n).order == 4 * n


def test_spin_group_orders_match_3d_coxeter_groups():
    # |W| for the three polyhedral groups: 24, 48, 120
    for name, w_order in [("A3", 24), ("B3", 48), ("H3", 120)]:
        assert spin_group(name).order == w_order


def product_closure(simple):
    """Reference pin closure: one Multivector product per element and generator,
    breadth first, deduplicated by mv_key and sorted by mv_sort_key."""
    seen, elements, gens = set(), [], root_multivectors(simple)
    frontier = [s for g in gens for s in (g, -g)]
    while frontier:
        fresh = []
        for e in frontier:
            if mv_key(e) not in seen:
                seen.add(mv_key(e))
                fresh.append(e)
        elements += fresh
        frontier = [e * g for e in fresh for g in gens]
    return sorted(elements, key=mv_sort_key)


def bits(mv):
    # float.hex tells -0.0 from 0.0
    return tuple(c.hex() if isinstance(c, float) else c for c in mv.coeffs)


def test_pin_closure_matches_product_closure_bitwise():
    simples = [catalog(name) for name in ("A1^3", "A3", "B3", "H3")]
    simples += [catalog(key, n) for key in ("I2", "A1xI2") for n in range(2, 31)]
    for simple in simples:
        G = generate_pin_group(simple)
        ref = product_closure(simple)
        assert [bits(e) for e in group_elements(G)] == [bits(e) for e in ref], simple.name
        assert G.parities == tuple("odd" if grades(e)[0] % 2 else "even" for e in ref)


def test_index_of_keys_like_the_cayley_table():
    # x lies one ulp below the decimal tie 0.1000015: Python's round() sends it
    # down and the ulp above it up, np.round (the key of ``row_keys``) sends
    # both up.  A product landing on either side is the same element.
    x = 0.1000015
    above = float(np.nextafter(x, 1.0))
    assert round(x, 6) != round(above, 6)
    assert row_keys(np.array([[x]])) == row_keys(np.array([[above]]))
    y = math.sqrt(1.0 - x * x)
    one, v = mv_scalar(2, 1.0), mv_vector([x, y])
    G = VersorGroup(name="tilted A1", dim=2, rows=element_rows((one, -one, v, -v)),
                    parities=("even", "even", "odd", "odd"), parity="pin", field=FLOATS)
    assert G.cayley.tolist() == [[index_of(G, a * b) for b in group_elements(G)]
                                 for a in group_elements(G)]
    assert index_of(G, mv_vector([above, y])) == index_of(G, v) == 2
    assert G.inverse_indices == (0, 1, 2, 3)


def test_pin_rejects_rank_4():
    with pytest.raises(ValueError):
        generate_pin_group(catalog("D4"))


def test_pin_rejects_non_unit_generators(monkeypatch):
    base = catalog("I2", 3)

    def scaled(s):
        return SimpleRootSet(name=f"{s}*I2(3)", key="I2",
                             vectors=tuple(tuple(s * c for c in v) for v in base.vectors))

    # slightly off: the closure stays finite, the unit check rejects it
    with pytest.raises(ValueError, match="non-unit"):
        generate_pin_group(scaled(1 + 1e-8))
    # clearly off: powers of a generator never repeat
    monkeypatch.setattr(induction, "GROUP_CAP", 200)
    with pytest.raises(ClosureCapError):
        generate_pin_group(scaled(2.0))


def test_group_elements_are_unit_versors_with_parity():
    G = pin_group("A3")
    assert G.parity == "pin"
    assert set(G.parities) == {"even", "odd"}
    S = even_subgroup(G)
    assert S.parity == "spin"
    assert set(S.parities) == {"even"}
    assert S.order * 2 == G.order


def test_cayley_table_correct():
    for name, n in [("A3", None), ("I2", 5), ("A1xI2", 3)]:
        G = pin_group(name, n)
        cay = G.cayley
        rng = random.Random(7)
        idxs = [(rng.randrange(G.order), rng.randrange(G.order)) for _ in range(40)]
        for i, j in idxs:
            prod = group_elements(G)[i] * group_elements(G)[j]
            assert index_of(G, prod) == cay[i][j]


def test_full_cayley_closure_2T():
    # a Latin square: every row and every column is a permutation (2T and 2I)
    for name in ("A3", "H3"):
        G = spin_group(name)
        n = G.order
        cay = G.cayley
        assert sorted(set(cay[0])) == list(range(n))
        for i in range(n):
            assert sorted(cay[i]) == list(range(n))
            assert sorted(row[i] for row in cay) == list(range(n))


def _reference_products(num: np.ndarray, T: np.ndarray) -> np.ndarray:
    """P[x, y] = sum over i, j of num[x, i] num[y, j] T[i, j], in num's dtype.

    Each T[i, j] has one nonzero entry at most, so each column pair (i, j)
    adds the outer product of its nonzero column entries to one output column.
    """
    out = np.zeros((len(num), len(num), num.shape[1]), dtype=num.dtype)
    rows = [np.flatnonzero(col != 0) for col in num.T]
    for i, j, k in zip(*np.nonzero(T)):
        if len(rows[i]) and len(rows[j]):
            terms = np.multiply.outer(num[rows[i], i], num[rows[j], j])
            out[rows[i][:, None], rows[j], k] += T[i, j, k] * terms
    return out


def _reference_keys(rows: np.ndarray) -> list:
    """Row tuples: exact numerators as they are, floats rounded to ``KEY_DECIMALS``."""
    if rows.dtype.kind == "f":
        rows = np.round(rows, KEY_DECIMALS) + 0.0
    return [tuple(row) for row in rows.tolist()]


def test_exact_cayley_tables_match_products():
    # one kernel for both backends: the exact groups, the float families and
    # the groups of float copies of the exact generators
    groups = [G for name in ("A1^3", "A3", "B3", "H3")
              for G in (pin_group(name), spin_group(name))]
    groups += [G for family in ("I2", "A1xI2") for n in range(2, 17)
               for G in (pin_group(family, n), spin_group(family, n))]
    for name in ("A3", "B3", "H3"):
        P = generate_pin_group(catalog(name, backend="float"))
        groups += [P, even_subgroup(P)]
    for G in groups:
        elements = group_elements(G)
        # the lookup index of the table holds one key per element
        num, den = quad_numerators([e.coeffs for e in elements])
        num, d = num.reshape(G.order, -1), num.shape[-1]
        assert len(set(row_keys(den * num))) == G.order, G.name
        # reference: products of the element rows over den**2 (Python ints on
        # the exact groups), looked up among the rows of den * E
        index = {key: i for i, key in enumerate(_reference_keys(den * num))}
        products = _reference_products(num, product_tensor(G.dim, d))
        expected = [[index[key] for key in _reference_keys(row)] for row in products]
        assert G.cayley.tolist() == expected, G.name
        assert G.cayley.dtype.kind == "i" and not G.cayley.flags.writeable, G.name
        by_mv = {mv_key(e): i for i, e in enumerate(elements)}
        assert G.inverse_indices == tuple(by_mv[mv_key(reverse(e))] for e in elements)


#: the tier limits of scalars; dropping one to 0 forces every product past it
TIER_LIMITS = {"FLOAT64_LIMIT": 1 << 53, "INT64_LIMIT": 1 << 62}


def _force_tiers_past(monkeypatch, limit: int) -> None:
    """Drop every tier limit of scalars at or below ``limit`` to 0."""
    assert limit in TIER_LIMITS.values()
    for name, value in TIER_LIMITS.items():
        assert getattr(scalars, name) == value, name
        if value <= limit:
            monkeypatch.setattr(scalars, name, 0)


def _exact_results() -> dict:
    """Every result of the integer kernels, from fresh catalog sets (no Gram,
    closure or table cached): root rows, Grams, unit checks, validation
    reports, and for rank 3 the pin rows, their unit check and Cayley table."""
    out = {}
    for name in ("A3", "B3", "H3", "D4", "F4", "H4"):
        simple = dataclasses.replace(catalog(name))
        R = generate_roots(simple)
        out[name] = [R.num, R.den, *simple.gram, simple.unit,
                     validate_root_system(R.num, R.field),
                     validate_root_system(R.num[1:], R.field, 10_000)]
        if simple.rank == 3:
            G = generate_pin_group(simple)
            out[name] += [G.rows, clifford.unit_rows(G.rows, G.dim, G.field), G.cayley]
    return out


def test_exact_cayley_with_python_ints(monkeypatch):
    # the same kernel on unbounded ints, as taken when int64 could overflow,
    # from rows held as int64 and from rows held as Python ints
    A3 = pin_group("A3")
    expected = A3.cayley.tolist()
    _force_tiers_past(monkeypatch, TIER_LIMITS["INT64_LIMIT"])
    G = generate_pin_group(catalog("A3"))
    assert G.rows.dtype == object
    assert G.cayley.tolist() == expected
    G = VersorGroup(name="A3 on Python ints", dim=3, rows=A3.rows.astype(object),
                    parities=A3.parities, parity="pin", field=A3.field)
    assert G.cayley.tolist() == expected


@pytest.mark.parametrize("limit", [1 << 53, 1 << 62])
def test_pin_rows_and_cayley_tables_on_every_integer_tier(monkeypatch, limit):
    # every product forced past 2**53 (onto int64) or past 2**62 (onto Python
    # ints) gives the results of the tiers picked from the operands (float64
    # BLAS for these systems)
    expected = _exact_results()
    _force_tiers_past(monkeypatch, limit)
    python_ints = limit == TIER_LIMITS["INT64_LIMIT"]
    got = _exact_results()
    for name, want in expected.items():
        assert len(got[name]) == len(want), name
        for a, b in zip(got[name], want):
            if isinstance(b, np.ndarray):
                assert a.shape == b.shape and (a == b).all(), name
            else:
                assert a == b, name
    # the rows are held as the tier holds them
    for name in ("A3", "B3", "H3"):
        rows, cayley = got[name][-3], got[name][-1]
        assert rows.dtype == (object if python_ints else np.int64), name
        assert cayley.tolist() == pin_group(name).cayley.tolist(), name


def test_cayley_product_escaping_the_group():
    G = spin_group("A3")
    part = VersorGroup(name="part", dim=3, rows=element_rows(group_elements(G)[1:]),
                       parities=G.parities[1:], parity="spin", field=G.field)
    with pytest.raises(ClosureCapError, match="escapes the group"):
        part.cayley
    G = spin_group("A1xI2", 5)
    part = VersorGroup(name="part", dim=3, rows=element_rows(group_elements(G)[:-1]),
                       parities=G.parities[:-1], parity="spin", field=G.field)
    with pytest.raises(ClosureCapError, match="escapes the group"):
        part.cayley


def test_identity_index_is_the_identity_row():
    # exact rows as int64 and as Python ints, and float rows
    groups = [pin_group("A3"), spin_group("H3"), pin_group("I2", 5), spin_group("A1xI2", 7)]
    B3 = pin_group("B3")
    groups.append(VersorGroup(name="B3 on Python ints", dim=3, rows=B3.rows.astype(object),
                              parities=B3.parities, parity="pin", field=B3.field))
    for G in groups:
        one = QT_ONE if G.rows.dtype.kind != "f" else 1.0
        assert G.identity_index == index_of(G, mv_scalar(G.dim, one)), G.name
        assert group_elements(G)[G.identity_index] == mv_scalar(G.dim, one), G.name


def test_identity_and_inverses():
    G = spin_group("B3")
    e = G.identity_index
    cay = G.cayley
    inv = G.inverse_indices
    for i in range(G.order):
        assert cay[i][inv[i]] == e
        assert cay[inv[i]][i] == e


def test_induced_counts_and_validity():
    for (name, n), (_, spin_n) in ORDERS.items():
        S = induced_set(name, n)
        assert S.count == spin_n
        assert validate_root_system(S.num, S.field).ok
    for n in (2, 5, 12):
        S = induced_set("I2", n)
        assert S.count == 2 * n and S.num.shape[1] == 2
        assert validate_root_system(S.num, S.field).ok


def test_spinor_coordinate_map():
    # R = a0 + a1 e2e3 + a2 e3e1 + a3 e1e2  ->  (a0, a1, a2, a3)
    G = spin_group("A3")
    S = spinors_to_4d(G)
    for mv, vec in zip(group_elements(G), S.vectors):
        assert mv.coeffs[0] == vec[0]
        assert mv.coeffs[0b110] == vec[1]
        assert -mv.coeffs[0b101] == vec[2]
        assert mv.coeffs[0b011] == vec[3]


def test_spinors_to_4d_requires_spin():
    with pytest.raises(ValueError):
        spinors_to_4d(pin_group("A3"))


def test_identification():
    assert induced_name("A3") == "D4"
    assert induced_name("B3") == "F4"
    assert induced_name("H3") == "H4"
    assert induced_name("A1^3") == "A1^4"
    assert induced_name("A1xI2", 2) == "A1^4"
    # identification has no upper bound on n
    for n in (3, 7, 12, 13, 14, 15, 16):
        assert induced_name("A1xI2", n) == f"I2({n})xI2({n})"
        assert induced_name("I2", n) == f"I2({n})"


def test_catalog_systems_identify_as_themselves():
    # covers the same-size pairs A4/I2(5)^2, D4/I2(6)^2, B4/I2(8)^2,
    # F4/I2(12)^2 and H4/I2(30)^2
    systems = [(key, None) for key in ("A1^4", "A4", "B4", "D4", "F4", "H4")]
    systems += [("I2xI2", m) for m in range(3, 31)]
    systems += [("I2", m) for m in range(2, 31)]
    for name, n in systems:
        system = root_system(name, n)
        num, den = quad_numerators([vector_coords(r) for r in root_multivectors(system)])
        S = RootSystem(name=system.name, num=num, den=den, field=quad_field(num))
        assert identify_root_system(S) == (name, n)


def test_fingerprint_matches_exact_pairwise_dots():
    def reference(vectors):
        n = len(vectors)
        dots = sorted(round(float(dot(vectors[i], vectors[j])), 6) + 0.0
                      for i in range(n) for j in range(i + 1, n))
        return (n, tuple(dots))

    sets = [root_multivectors(root_system(key)) for key in ("A1^4", "A4", "B4", "D4", "F4", "H4")]
    sets += [root_multivectors(root_system("I2xI2", m)) for m in range(3, 31)]
    sets += [tuple(mv_vector(v) for v in induced_set(name, n).vectors)
             for name in ("I2", "A1xI2") for n in range(2, 17)]
    for vectors in sets:
        num, den = quad_numerators([vector_coords(v) for v in vectors])
        assert fingerprint(num, den, quad_field(num)) == reference(vectors)


def test_fingerprint_equals_the_triu_indices_form():
    # the former pair selection, np.triu_indices, on every induced set and 4D system
    def former(num, den, field):
        X = row_floats(num, den, field)
        gram = X @ X.T
        dots = np.sort(np.round(gram[np.triu_indices(len(X), 1)], KEY_DECIMALS) + 0.0)
        return (len(X), tuple(dots.tolist()))

    sets = [root_system(key, m) for key, m in [("A1^4", None), ("A4", None), ("B4", None),
                                               ("D4", None), ("F4", None), ("H4", None)]]
    sets += [root_system("I2xI2", m) for m in range(2, 17)]
    sets += [induced_set(name, n) for name in ("I2", "A1xI2") for n in range(2, 17)]
    sets += [induced_set(name) for name in ("A1^3", "A3", "B3", "H3")]
    for S in sets:
        got, want = fingerprint(S.num, S.den, S.field), former(S.num, S.den, S.field)
        assert got == want and repr(got) == repr(want)


def test_identification_rotation_invariant():
    rng = np.random.default_rng(3)
    S = induced_set("A3")
    coords = row_floats(S.num, S.den, S.field)
    for _ in range(3):
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        rotated = coords @ Q.T
        fp = fingerprint(*quad_numerators(rotated), FLOATS)
        assert fp == fingerprint(S.num, S.den, S.field)

    class Fake:
        name = "fake"
        num, den = quad_numerators(((1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0)))
        field = FLOATS

    with pytest.raises(ValueError):
        identify_root_system(Fake())


def test_theorem_closure_properties():
    # the induced set is closed under R -> -R and under the induced reflections
    # R2 -> -R1 reverse(R2) R1, checked exhaustively for |G| <= 120
    for name in ("A1^3", "A3", "B3", "H3"):
        G = spin_group(name)
        keys = {mv_key(e) for e in group_elements(G)}
        for R in group_elements(G):
            assert mv_key(-R) in keys
        for R1 in group_elements(G):
            r1r = reverse(R1)
            for R2 in group_elements(G):
                image = -(R1 * reverse(R2) * R1)
                assert mv_key(image) in keys


def test_reflection_formula_matches_clifford_form():
    # R2 - 2 (R1,R2) R1 == -R1 reverse(R2) R1 for unit spinors
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        a /= np.linalg.norm(a)
        masks = (0, 0b110, 0b101, 0b011)
        signs = (1.0, 1.0, -1.0, 1.0)  # e3e1 stored as -e1e3

        def spinor(v):
            mv = mv_zero(3, "float")
            for coef, m, s in zip(v, masks, signs):
                mv = mv + mv_blade(3, m, s * float(coef))
            return mv

        R1, R2 = spinor(a), spinor(b)
        lhs = R2 - spinor_inner(R1, R2) * 2.0 * R1
        rhs = -(R1 * reverse(R2) * R1)
        assert approx_eq(lhs, rhs, 1e-10)
    # and exactly, on a sample of exact spinor pairs from 2O
    G = spin_group("B3")
    sample = group_elements(G)[::7]
    for R1 in sample:
        for R2 in sample:
            lhs = R2 - (spinor_inner(R1, R2) * 2) * R1
            rhs = -(R1 * reverse(R2) * R1)
            assert lhs == rhs


def test_binary_group_names():
    assert binary_group_name("A3") == "2T"
    assert binary_group_name("B3") == "2O"
    assert binary_group_name("H3") == "2I"
    assert binary_group_name("I2", 6) == "C12"
    assert binary_group_name("A1xI2", 5) == "Dic5"
    assert binary_group_name("A1^3") == "Q8"
    assert "Q8" in binary_group_name("A1xI2", 2)


def test_d4_induced_coordinate_forms():
    # 8 signed unit vectors plus 16 half-vectors, exactly
    from spinroot.verify import expected_induced_vectors

    assert set(induced_set("A3").vectors) == expected_induced_vectors("D4")


def test_quaternion_units_from_a1_cubed():
    # the eight even elements are +-1, +-e1e2, +-e2e3, +-e3e1
    G = spin_group("A1^3")
    vectors = set(spinors_to_4d(G).vectors)
    want = set()
    for i in range(4):
        for s in (1, -1):
            v = [QT_ONE * 0] * 4
            v[i] = QT_ONE if s > 0 else -QT_ONE
            want.add(tuple(v))
    assert vectors == want


def test_rows_create_no_quadtower(monkeypatch):
    # exact work runs on numerator rows from closure to verdict: once the
    # catalog literals exist, no step below builds a QuadTower
    from spinroot import coxplane, mckay, rootsys

    exact = [catalog(key) for key in ("A1^3", "A3", "B3", "H3", "A1^4", "A4", "B4", "D4",
                                      "F4", "H4")]
    made = []
    raw = QuadTower._raw.__func__
    monkeypatch.setattr(QuadTower, "_raw",
                        classmethod(lambda cls, *args: made.append(args) or raw(cls, *args)))
    induction._reference_fingerprints.cache_clear()
    rootsys._catalog_set.cache_clear()
    for simple in exact:
        rootsys.generate_roots(simple)
    for name in ("A3", "B3", "H3"):
        G = even_subgroup(generate_pin_group(catalog(name)))
        S = spinors_to_4d(G)
        identify_root_system(S)
        validate_root_system(S.num, S.field)
        mckay.spinor_character(G)
    for simple in exact:
        coxplane.weight_basis(simple)
        try:
            coxplane.coxeter_plane(simple)
        except coxplane.DegeneratePlaneError:
            assert simple.key in ("A1^3", "A1^4")
    assert made == []
    assert QuadTower(1, 2) and len(made) == 1   # the patch counts


def test_rows_the_caches_share_are_read_only():
    # one object per system is handed to every caller: writing into its rows
    # would change the verdicts of every later call
    simple = catalog("H3")
    shared = [simple.rows[0], simple.gram[0], simple.cartan[0], root_system("A3").num,
              induced_set("A3").num, pin_group("A3").rows, spin_group("I2", 5).rows,
              root_system("I2", 5).num, catalog("I2", 5).gram[0]]
    for rows in shared:
        with pytest.raises(ValueError, match="read-only"):
            rows[(0,) * rows.ndim] = 0


FAMILY_SYSTEMS = [(key, n) for key in ("I2", "A1xI2", "I2xI2") for n in range(2, 17)]
EXACT_SYSTEMS = ("A1^3", "A3", "B3", "H3", "A1^4", "A4", "B4", "D4", "F4", "H4")


def test_float_rows_are_the_d1_field():
    # one row format for both backends: float coordinate rows have the basis
    # size d = 1 over the denominator 1, and float versor rows are their
    # coefficients followed by the denominator 1.0, in the groups and in every
    # word's Coxeter versor; exact rows keep d = 4 and a positive denominator
    simples = [catalog(key, n) for key, n in FAMILY_SYSTEMS]
    simples += [catalog(key, backend="float") for key in EXACT_SYSTEMS]
    for simple in simples:
        size = 1 << simple.rank
        num, den = quad_numerators(simple.vectors)
        assert num.shape == (simple.rank, simple.rank, 1) and den == 1, simple.name
        assert simple.rows[0].shape[-1] == simple.gram[0].shape[-1] == 1, simple.name
        assert simple.cartan[0].shape[-1] == weight_basis(simple)[0].shape[-1] == 1
        roots = generate_roots(simple)
        assert roots.num.shape[-1] == 1 and roots.den == 1, simple.name
        words = [None, *itertools.permutations(range(1, simple.rank + 1))]
        for cd in coxeter_versors(simple, words):
            assert cd.versor.shape == (size + 1,) and cd.versor[-1] == 1.0, simple.name
    groups = [G for key, n in [(key, None) for key in ("A1^3", "A3", "B3", "H3")]
              + [(key, n) for key in ("I2", "A1xI2") for n in range(2, 17)]
              for G in (pin_group(key, n), spin_group(key, n))]
    assert len(groups) == 68
    for G in groups:
        size = 1 << G.dim
        if G.rows.dtype.kind == "f":
            assert G.rows.shape[1] == size + 1 and (G.rows[:, -1] == 1.0).all(), G.name
        else:
            assert G.rows.shape[1] == 4 * size + 1 and (G.rows[:, -1] > 0).all(), G.name
        if G.parity == "spin":
            d = 1 if G.rows.dtype.kind == "f" else 4
            assert spinors_to_4d(G).num.shape[-1] == d, G.name
