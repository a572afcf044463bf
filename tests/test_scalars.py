import math
import random
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, strategies as st

from clifford_reference import EQ_TOL, approx_eq, mv_vector, reflect
from spinroot import scalars
from spinroot.scalars import (
    BackendMismatchError,
    INV_SQRT2,
    QT_ONE,
    QT_ZERO,
    QuadTower,
    SIGMA,
    SQRT2,
    SQRT5,
    SQRT10,
    TAU,
    QUAD,
    Scalar,
    adjoin_sqrt,
    exact_matmul,
    exact_solve,
    field_matrix,
    field_quotients,
    is_exact,
    quad_numerators,
    row_floats,
    row_keys,
    scalar_str,
    scalar_values,
)


def galois_conjugate(x: QuadTower) -> QuadTower:
    """The field automorphism sqrt5 -> -sqrt5 (sqrt2 fixed): sends tau to sigma."""
    return QuadTower(x.a, x.b, -x.c, -x.d)


def eq_scalar(x: Scalar, y: Scalar, tol: Optional[float] = None) -> bool:
    """Backend-aware equality: exact values compare exactly, floats within tol."""
    ex, ey = is_exact(x), is_exact(y)
    if ex != ey:
        raise BackendMismatchError("cannot compare exact and float scalars")
    if ex:
        return x == y
    return abs(x - y) <= (EQ_TOL if tol is None else tol)


small_fractions = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
)


def qt_elements():
    return st.builds(QuadTower, small_fractions, small_fractions,
                     small_fractions, small_fractions)


# -- fixed arithmetic fixtures -------------------------------------------------


def test_golden_ratio_quadratic():
    assert TAU * TAU == TAU + 1
    assert SIGMA * SIGMA == SIGMA + 1


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == 2


def test_inverse_of_tau():
    assert TAU.inverse() == TAU - 1
    assert QT_ONE / TAU == TAU - 1


def test_tau_sigma_relations():
    assert TAU * SIGMA == -1
    assert TAU + SIGMA == 1


def test_sqrt_products():
    assert SQRT2 * SQRT5 == SQRT10
    assert SQRT10 * SQRT10 == 10
    assert INV_SQRT2 * SQRT2 == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QT_ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        QT_ONE / QT_ZERO


def test_mixed_backend_is_an_error():
    with pytest.raises(TypeError):
        TAU + 0.5
    with pytest.raises(TypeError):
        0.5 * TAU
    with pytest.raises(TypeError):
        TAU / 2.0


# -- galois conjugation ---------------------------------------------------------


def test_galois_sends_tau_to_sigma():
    assert galois_conjugate(TAU) == SIGMA


def test_galois_fixes_rationals():
    x = QuadTower(Fraction(3, 7))
    assert galois_conjugate(x) == x


def test_galois_respects_squaring():
    assert galois_conjugate(TAU * TAU) == SIGMA * SIGMA == SIGMA + 1


def test_galois_fixes_sqrt2():
    assert galois_conjugate(SQRT2) == SQRT2
    assert galois_conjugate(SQRT10) == -SQRT10


@given(qt_elements(), qt_elements())
def test_galois_is_ring_homomorphism(x, y):
    assert galois_conjugate(x + y) == galois_conjugate(x) + galois_conjugate(y)
    assert galois_conjugate(x * y) == galois_conjugate(x) * galois_conjugate(y)


@given(qt_elements())
def test_galois_is_involution(x):
    assert galois_conjugate(galois_conjugate(x)) == x


# -- field axioms ------------------------------------------------------------------


@given(qt_elements(), qt_elements(), qt_elements())
def test_field_associativity_distributivity(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) + z == x + (y + z)


@given(qt_elements())
def test_multiplicative_inverse(x):
    if not x.is_zero():
        assert x * x.inverse() == QT_ONE


@given(qt_elements(), qt_elements())
def test_commutativity(x, y):
    assert x * y == y * x
    assert x + y == y + x


# -- integer kernel ----------------------------------------------------------------


def from_numerators(row, den) -> QuadTower:
    return QuadTower(*(Fraction(int(c), den) for c in row))


@given(qt_elements(), qt_elements())
def test_field_tensor_product_matches_quadtower(x, y):
    num, den = quad_numerators([x, y])
    assert from_numerators(num[0], den) == x and from_numerators(num[1], den) == y
    for dtype in (object, np.int64):
        nx, ny = num.astype(dtype)
        assert from_numerators(ny @ field_matrix(nx, QUAD), den * den) == x * y


def _bit_rule_tensor() -> np.ndarray:
    """The structure tensor of Q(sqrt2, sqrt5) by the rule of basis bits: bit 0
    of a basis index marks sqrt2 and bit 1 marks sqrt5, so basis p times basis q
    is basis p^q times the squares they share (sqrt2*sqrt10 = 2 sqrt5)."""
    t = np.zeros((4, 4, 4), dtype=np.int64)
    for p in range(4):
        for q in range(4):
            shared = p & q
            t[p, q, p ^ q] = (2 if shared & 1 else 1) * (5 if shared & 2 else 1)
    return t


def test_field_tensor_is_the_bit_rule_tensor():
    t = QUAD.tensor
    assert t.dtype == np.int64 and t.shape == (4, 4, 4) and not t.flags.writeable
    assert np.array_equal(t, _bit_rule_tensor())
    assert np.array_equal(adjoin_sqrt(scalars.RATIONAL_TENSOR, [2]),
                          [[[1, 0], [0, 1]], [[0, 1], [2, 0]]])


def test_z5r_tensor_is_the_hand_expansion():
    # Z[sqrt5][R], R^2 = 30 + 6 sqrt5: (p + q sqrt5) + (r + s sqrt5) R is the
    # row [p, q, r, s], and (a + bR)(c + dR) = ac + bd R^2 + (ad + bc) R
    from spinroot.verify import Z5R

    R = np.array([0, 0, 1, 0])
    assert (R @ field_matrix(R, Z5R)).tolist() == [30, 6, 0, 0]
    r_sq = QuadTower(30, 0, 6)
    rng = random.Random(21)
    for _ in range(200):
        xs, ys = ([rng.randint(-50, 50) for _ in range(4)] for _ in range(2))
        a, b, c, d = (QuadTower(p, 0, q) for p, q in (xs[:2], xs[2:], ys[:2], ys[2:]))
        x, y = np.array(xs), np.array(ys)
        ab, cd = a * c + b * d * r_sq, a * d + b * c
        want = [ab.a, ab.c, cd.a, cd.c]
        assert ab.b == ab.d == cd.b == cd.d == 0
        assert (y @ field_matrix(x, Z5R)).tolist() == want
        assert exact_matmul(x, field_matrix(y, Z5R)).tolist() == want


def test_field_quotients_match_quadtower_division():
    # rows over one denominator, which cancels; d broadcasts along the rows of x
    rng = random.Random(5)

    def scalar():
        return QuadTower(*(Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(4)))

    for _ in range(20):
        xs = [[scalar() for _ in range(5)] for _ in range(3)]
        ds = [scalar() or QT_ONE for _ in range(5)]
        num, _ = quad_numerators(xs + [ds])
        q, den = field_quotients(num[:3], num[3], QUAD)
        assert q.dtype == (np.int64 if np.abs(q).max() < 2 ** 62 else object) and den > 0
        assert math.gcd(*q.ravel().tolist(), den) == 1
        assert scalar_values(q, den) == tuple(tuple(x / d for x, d in zip(row, ds)) for row in xs)
    # one row by one row: 1 / (2 sqrt5) = sqrt5 / 10
    q, den = field_quotients(np.array([1, 0, 0, 0]), np.array([0, 0, 2, 0]), QUAD)
    assert q.tolist() == [0, 0, 1, 0] and den == 10


#: numerator signs of the other Galois conjugates of Q(sqrt2, sqrt5): sqrt2, sqrt5, both negated
CONJUGATES = np.array([[1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])


def conjugate_quotients(x: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, int]:
    """The former ``field_quotients`` of Q(sqrt2, sqrt5): 1/d = inv / norm with
    inv the product of the other three Galois conjugates of d, so the norm
    d inv is rational, all on Python ints."""
    d = d.astype(object)
    c2, c5, c10 = (d * signs for signs in CONJUGATES)
    inv = (c2[..., None, :] @ field_matrix(c5, QUAD) @ field_matrix(c10, QUAD))[..., 0, :]
    norm = (d[..., None, :] @ field_matrix(inv, QUAD))[..., 0, :1]
    den = math.lcm(*norm.ravel().tolist())
    num = (x[..., None, :] @ field_matrix(inv, QUAD))[..., 0, :] * (den // norm)
    common = math.gcd(*num.ravel().tolist(), den)
    return num // common, den // common


def test_inverse_is_the_conjugate_product():
    # one elimination for every field gives the numerators and the denominator
    # of the Galois-conjugate product it replaced, one row and many at once
    rng = random.Random(17)
    rows = np.array([[rng.randint(-9, 9) for _ in range(4)] for _ in range(300)])
    rows = rows[rows.any(axis=1)]
    one = np.array([1, 0, 0, 0])
    for d in rows:
        q, den = field_quotients(one, d, QUAD)
        want, want_den = conjugate_quotients(one, d)
        assert q.tolist() == want.tolist() and den == want_den, d
    x = np.array([[rng.randint(-30, 30) for _ in range(4)] for _ in range(len(rows))])
    q, den = field_quotients(x, rows, QUAD)
    want, want_den = conjugate_quotients(x, rows)
    assert q.tolist() == want.tolist() and den == want_den


def fraction_solve(m, b):
    """y with y m = b, by Gauss-Jordan on Fractions: the reference of ``exact_solve``."""
    k = len(m)
    aug = [[Fraction(m[j][i]) for j in range(k)] + [Fraction(r[i]) for r in b] for i in range(k)]
    for c in range(k):
        p = next(r for r in range(c, k) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(k):
            if r != c:
                aug[r] = [v - aug[r][c] * w for v, w in zip(aug[r], aug[c])]
    return [[aug[i][k + j] for i in range(k)] for j in range(len(b))]


def exact_det(m) -> Fraction:
    """The determinant of an integer matrix, by elimination on Fractions."""
    m, det = [[Fraction(v) for v in row] for row in m], Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p], det = m[p], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            m[r] = [v - m[r][c] / m[c][c] * w for v, w in zip(m[r], m[c])]
    return det


def test_exact_solve_matches_fractions():
    # random integer systems with zero pivots to swap, several right-hand
    # sides, a batch of two, and entries past int64 mid-elimination
    rng = random.Random(23)
    for trial in range(200):
        k, n, top = rng.randint(1, 6), rng.randint(1, 3), rng.choice((3, 10 ** 6, 10 ** 30))
        ms = []
        while len(ms) < 2:
            m = [[rng.choice((0, rng.randint(-top, top))) for _ in range(k)] for _ in range(k)]
            if exact_det(m):
                ms.append(m)
        b = [[rng.randint(-top, top) for _ in range(k)] for _ in range(n)]
        y, den = exact_solve(np.array(ms, dtype=object), np.array(b, dtype=object))
        assert den > 0 and math.gcd(*np.ravel(y).tolist(), den) == 1
        for m, got in zip(ms, y.tolist()):
            assert [[Fraction(v, den) for v in row] for row in got] == fraction_solve(m, b), trial
    with pytest.raises(ZeroDivisionError):
        exact_solve(np.array([[1, 2], [2, 4]]), np.array([[1, 0]]))


@pytest.mark.parametrize("field", ["FLOATS", "QUAD", "Z5R"])
def test_every_field_record_inverts(field):
    # x * x^-1 = 1 for random nonzero elements of each record, one at a time
    # and all at once, on small and on large numerators
    from spinroot.verify import Z5R

    field = {"FLOATS": scalars.FLOATS, "QUAD": QUAD, "Z5R": Z5R}[field]
    rng = random.Random(19)
    one = field.one.astype(object)
    for top in (9, 10 ** 12, 10 ** 40):
        xs = np.array([[rng.randint(-top, top) for _ in range(field.d)] for _ in range(40)],
                      dtype=object)
        xs = xs[xs.any(axis=1)]
        inv, den = field_quotients(field.one, xs, field)
        products = (xs[:, None, :] @ field_matrix(inv, field).astype(object))[:, 0]
        assert (products == den * one).all()
        for x in xs[:5]:
            inv, den = field_quotients(field.one, x, field)
            assert (x @ field_matrix(inv, field).astype(object) == den * one).all()
    with pytest.raises(ZeroDivisionError):
        field_quotients(field.one, 0 * field.one, field)


def test_z5r_prints_criterion_7():
    # the appendix's ring prints the measured strings of criterion 7 byte for
    # byte, and its float bridge reads exact equalities as relative error 0
    from spinroot.verify import Z5R, check_h4_appendix

    assert Z5R.show(-1255, -561, -190, -85) == "(-190-85*r5)*R + (-1255-561*r5)"
    assert Z5R.show(544, 224, 64, 32) == "(64+32*r5)*R + (544+224*r5)"
    assert Z5R.show(-1408, -640, -224, -96) == "(-224-96*r5)*R + (-1408-640*r5)"
    assert [r.measured for r in check_h4_appendix()] == [
        "max coordinate error 0.00e+00",
        "exact zero: True, relative 0.0e+00",
        "exact equal: True, rel err 0.0e+00",
        "(-190-85*r5)*R + (-1255-561*r5)",
        "('(64+32*r5)*R + (544+224*r5)', '(-224-96*r5)*R + (-1408-640*r5)')",
    ]
    r = math.sqrt(30 + 6 * math.sqrt(5))
    assert Z5R.basis == (1.0, math.sqrt(5), r, r * math.sqrt(5))
    want = (1 + 2 * math.sqrt(5)) + (3 + 4 * math.sqrt(5)) * r
    assert abs(row_floats(np.array([1, 2, 3, 4]), 1, Z5R) - want) < 1e-12 * want


def test_kernel_dtype_bound():
    assert scalars._kernel_dtype(2 ** 62 - 1) is np.int64
    assert scalars._kernel_dtype(2 ** 62) is object
    with pytest.raises(TypeError):
        quad_numerators([QT_ONE, 1.0])


def _term_bound(a: np.ndarray, b: np.ndarray) -> int:
    """The largest sum of |terms| of an entry of a @ b, on Python ints."""
    return int((np.abs(a.astype(object)) @ np.abs(b.astype(object))).max())


def _tier(a, b) -> tuple[np.dtype, np.ndarray]:
    """The dtype ``exact_matmul`` converts ``a`` to, the tier of the product,
    and the product."""
    asked = []

    class Recording(np.ndarray):
        def astype(self, dtype, *args, **kwargs):
            asked.append(np.dtype(dtype))
            return np.asarray(self).astype(dtype, *args, **kwargs)

    out = exact_matmul(np.asarray(a).view(Recording), np.asarray(b))
    return asked[0], out


def test_exact_matmul_picks_its_tier_at_the_edges():
    # the tier is read off inner dim * max|a| * max|b|, at 2**53 and 2**62
    cases = [([[2 ** 53 - 1]], [[1]], np.float64),
             ([[2 ** 53]], [[1]], np.int64),
             ([[2 ** 26, 2 ** 26]], [[2 ** 26], [2 ** 26]], np.int64),
             ([[2 ** 62 - 1]], [[1]], np.int64),
             ([[2 ** 62]], [[1]], object),
             ([[2 ** 61, 2 ** 61]], [[1], [-1]], object)]
    for a, b, tier in cases:
        want = (np.array(a, dtype=object) @ np.array(b, dtype=object))[0, 0]
        for dtype in (np.int64, object):
            got_tier, out = _tier(np.array(a, dtype=dtype), np.array(b, dtype=dtype))
            assert got_tier == np.dtype(tier), (a, b, dtype)
            # int64 below 2**62, Python ints from there
            assert out.dtype == (object if tier is object else np.int64)
            assert out[0, 0] == want and isinstance(out.tolist()[0][0], int)


def test_exact_matmul_on_float64_just_below_2_53():
    rng = np.random.default_rng(5)
    for m, k, n in [(1, 16, 1024), (120, 32, 32), (120, 16, 480), (7, 3, 5)]:
        # entries as large as the bound allows: every sum of |terms| < 2**53
        top = math.isqrt((2 ** 53 - 1) // k)
        a = rng.integers(-top, top, (m, k), endpoint=True)
        b = rng.integers(-top, top, (k, n), endpoint=True)
        a[0], b[:, 0] = top, top            # one entry sums k terms of top**2
        bound = _term_bound(a, b)
        assert 2 ** 52 < bound < 2 ** 53
        want = a.astype(object) @ b.astype(object)
        tier, got = _tier(a, b)
        assert tier == np.float64
        assert got.dtype == np.int64 and (got.astype(object) == want).all()
        # Python-int operands take the same tier and give int64 too
        tier, got = _tier(a.astype(object), b.astype(object))
        assert tier == np.float64
        assert got.dtype == np.int64 and (got.astype(object) == want).all()
        assert {type(x) for x in got.tolist()[0]} == {int}


def test_exact_matmul_is_integer_from_2_53():
    # (2**27 + 1)(2**26 + 1) + 1 is even but needs 54 bits: float64 rounds it
    a = np.array([[2 ** 27 + 1, 1]])
    b = np.array([[2 ** 26 + 1], [1]])
    want = (2 ** 27 + 1) * (2 ** 26 + 1) + 1
    assert int((a.astype(float) @ b.astype(float))[0, 0]) != want
    bound = _term_bound(a, b)
    assert bound >= 2 ** 53
    for dtype in (np.int64, object):
        tier, got = _tier(a.astype(dtype), b.astype(dtype))
        assert tier == np.int64
        assert got.dtype == np.int64 and got[0, 0] == want


def test_exact_matmul_leaves_floats_alone():
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal((9, 4)), rng.standard_normal((4, 3))
    assert np.array_equal(exact_matmul(a, b), a @ b)


def test_row_keys_are_values_whatever_the_dtype():
    row, huge = [3, -2 ** 40, 0, 7, 1], [2 ** 70, 1, 0, 0, 3]
    held = row_keys(np.array([row], dtype=np.int64))[0]
    assert row_keys(np.array([row], dtype=object)) == [held]
    # in an object array where another row exceeds int64
    keys = row_keys(np.array([huge, row], dtype=object))
    assert keys[1] == held
    assert keys[0] == row_keys(np.array([huge], dtype=object))[0] != held
    # at the int64 edge: -2**63 fits, 2**63 does not and keeps its value
    edge = row_keys(np.array([[-2 ** 63], [2 ** 63]], dtype=object))
    assert edge[0] == row_keys(np.array([[-2 ** 63]], dtype=np.int64))[0]
    assert len(set(edge)) == 2


def test_representation_is_canonical():
    a = QuadTower(Fraction(1, 2), 0, Fraction(1, 2), 0)
    b = (QuadTower(1) + SQRT5) * QuadTower(Fraction(1, 2))
    assert a == b == TAU
    assert hash(a) == hash(b)


# -- float embedding ------------------------------------------------------------------


def test_to_float_constants():
    import mpmath

    mpmath.mp.dps = 40
    assert abs(float(TAU) - float((1 + mpmath.sqrt(5)) / 2)) < 1e-12
    assert abs(float(SQRT10) - float(mpmath.sqrt(10))) < 1e-12
    assert float(QT_ZERO) == 0.0


@given(qt_elements(), qt_elements())
def test_to_float_respects_products(x, y):
    lhs = float(x * y)
    rhs = float(x) * float(y)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_eq_scalar_backends():
    assert eq_scalar(TAU, TAU)
    assert eq_scalar(0.5, 0.5 + 1e-12)
    assert not eq_scalar(0.5, 0.5 + 1e-6)
    with pytest.raises(TypeError):
        eq_scalar(TAU, 1.618)


def test_reference_reflect_rejects_a_mirror_off_unit():
    # 5e-7 off unit is outside EQ_TOL, and inside an explicit 1e-5
    slightly_off = mv_vector([1.0 + 5e-7, 0.0, 0.0])
    x = mv_vector([0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="unit norm"):
        reflect(slightly_off, x)
    assert approx_eq(reflect(slightly_off, x, tol=1e-5), x, tol=1e-5)


def test_serialization_strings():
    assert scalar_str(TAU) == "1/2+1/2*r5"
    assert scalar_str(QT_ZERO) == "0"
    assert scalar_str(QuadTower(0, Fraction(-1, 2))) == "-1/2*r2"
    assert scalar_str(0.5) == "0.5"
    assert len(scalar_str(math.pi)) <= 22


def test_row_floats_are_quadtower_floats_bit_for_bit():
    # random scalars with denominators 3, 5 and 6, brought to the common 30
    rng = random.Random(11)
    values = [QuadTower(*(Fraction(rng.randint(-99, 99), rng.choice((3, 5, 6)))
                          for _ in range(4))) for _ in range(2000)]
    num, den = quad_numerators(values)
    assert den == 30
    want = np.array([float(x) for x in values])
    assert row_floats(num, den, QUAD).tobytes() == want.tobytes()
    # over a denominator 7 times as large the bridge reduces first; the
    # unreduced evaluation differs, so the reduction is what the test pins
    assert row_floats(7 * num, 7 * den, QUAD).tobytes() == want.tobytes()
    a, b, c, d = (7 * num).astype(float).T
    unreduced = (a + b * math.sqrt(2) + c * math.sqrt(5) + d * math.sqrt(10)) / (7 * den)
    assert (unreduced != want).any()
    # the non-unit B2 set: roots and Cartan matrix over a denominator scaled by 3
    from spinroot.rootsys import SimpleRootSet, cartan_matrix, generate_roots

    b2 = SimpleRootSet(name="B2 non-unit", key="B2",
                       vectors=((QuadTower(1), QT_ZERO), (QuadTower(-3), QuadTower(3))))
    roots = generate_roots(b2)
    want = np.array([[float(c) for c in v] for v in roots.vectors])
    assert row_floats(3 * roots.num, 3 * roots.den, QUAD).tobytes() == want.tobytes()
    cartan = np.array([[float(c) for c in row] for row in cartan_matrix(b2)])
    assert row_floats(*b2.cartan, QUAD).tobytes() == cartan.tobytes()


def test_row_floats_at_the_2_53_numerator_bound():
    # below 2**53 every numerator converts to float64 exactly; from 2**53 on
    # the bridge evaluates on the Python ints, as QuadTower.__float__ does
    rng = random.Random(12)
    for top in (2 ** 53 - 1, 2 ** 53, 2 ** 60):
        values = [QuadTower(*(Fraction(rng.randint(top // 2, top), 7) for _ in range(4)))
                  for _ in range(200)] + [QuadTower(Fraction(top, 7))]
        num, den = quad_numerators(values)
        assert int(np.abs(num).max()) == top
        want = np.array([float(x) for x in values])
        assert row_floats(num, den, QUAD).tobytes() == want.tobytes(), top


def test_quad_numerators_of_a_float_array_are_those_of_its_floats():
    rng = np.random.default_rng(8)
    for shape in [(0,), (3,), (4, 2), (2, 3, 4)]:
        values = rng.normal(size=shape)
        values[rng.random(shape) < 0.3] = -0.0
        num, den = quad_numerators(values)
        want, want_den = quad_numerators(values.tolist())
        assert den == want_den == 1
        assert num.shape == want.shape == shape + (1,) and num.tobytes() == want.tobytes()
        assert num[..., 0].tobytes() == values.tobytes()
