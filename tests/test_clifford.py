import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clifford_reference import (
    approx_eq,
    exp_bivector,
    grade_project,
    mv_blade,
    mv_scalar,
    mv_vector,
    mv_zero,
    norm,
    product_tensor,
    pseudoscalar,
    reflect,
    reverse,
    sandwich,
    spinor_inner,
    to_blade_dict,
    versor_action,
)
from spinroot.clifford import (
    _RIGHT_SIGN,
    _XOR,
    Multivector,
    _blade_sums,
    blade_name,
    left_matrices,
    right_products,
)
from spinroot.scalars import (
    BackendMismatchError,
    QT_HALF,
    QT_ONE,
    QuadTower,
    quad_numerators,
)

# Hand-computed Cl(3) multiplication table.  Blades by mask:
# 0:1  1:e1  2:e2  3:e12  4:e3  5:e13  6:e23  7:e123
CL3_TABLE = [
    # 1     e1      e2      e12     e3      e13     e23     e123
    ["+1", "+e1", "+e2", "+e12", "+e3", "+e13", "+e23", "+e123"],   # 1
    ["+e1", "+1", "+e12", "+e2", "+e13", "+e3", "+e123", "+e23"],   # e1
    ["+e2", "-e12", "+1", "-e1", "+e23", "-e123", "+e3", "-e13"],   # e2
    ["+e12", "-e2", "+e1", "-1", "+e123", "-e23", "+e13", "-e3"],   # e12
    ["+e3", "-e13", "-e23", "+e123", "+1", "-e1", "-e2", "+e12"],   # e3
    ["+e13", "-e3", "-e123", "+e23", "+e1", "-1", "-e12", "+e2"],   # e13
    ["+e23", "+e123", "-e3", "-e13", "+e2", "+e12", "-1", "-e1"],   # e23
    ["+e123", "+e23", "-e13", "-e3", "+e12", "+e2", "-e1", "-1"],   # e123
]

NAME_TO_MASK = {"1": 0, "e1": 1, "e2": 2, "e12": 3, "e3": 4, "e13": 5,
                "e23": 6, "e123": 7}


def blade(dim, mask, backend="exact"):
    return mv_blade(dim, mask, QT_ONE if backend == "exact" else 1.0)


def test_cl3_multiplication_table():
    for a in range(8):
        for b in range(8):
            entry = CL3_TABLE[a][b]
            sign = 1 if entry[0] == "+" else -1
            mask = NAME_TO_MASK[entry[1:]]
            got = blade(3, a) * blade(3, b)
            want = mv_blade(3, mask, QuadTower(sign))
            assert got == want, f"{blade_name(a) or '1'} * {blade_name(b) or '1'}"


def test_unit_metric_and_anticommutation():
    e1, e2 = blade(3, 1), blade(3, 2)
    assert e1 * e1 == mv_scalar(3, QT_ONE)
    assert e1 * e2 == -(e2 * e1)
    e12 = e1 * e2
    assert e12 * e12 == mv_scalar(3, QuadTower(-1))


def test_pseudoscalar_cl4():
    I = pseudoscalar(4)
    assert I * I == mv_scalar(4, QT_ONE)
    # commutes with all even basis blades, checked exhaustively
    for mask in range(16):
        if mask.bit_count() % 2 == 0:
            b = blade(4, mask)
            assert I * b == b * I


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def mv_exact(dim):
    return st.lists(small_fractions, min_size=1 << dim, max_size=1 << dim).map(
        lambda cs: Multivector(dim, [QuadTower(c) for c in cs])
    )


def mv_float(dim):
    coords = st.floats(-2, 2, allow_nan=False)
    return st.lists(coords, min_size=1 << dim, max_size=1 << dim).map(
        lambda cs: Multivector(dim, cs)
    )


def mv_quad(dim):
    field = st.builds(QuadTower, small_fractions, small_fractions,
                      small_fractions, small_fractions)
    return st.lists(field, min_size=1 << dim, max_size=1 << dim).map(
        lambda cs: Multivector(dim, cs)
    )


@given(st.sampled_from((2, 3)).flatmap(lambda d: st.tuples(mv_quad(d), mv_quad(d))))
@settings(max_examples=30)
def test_product_tensor_matches_geometric_product(pair):
    a, b = pair
    num, den = quad_numerators([a.coeffs, b.coeffs])
    x, y = num.reshape(2, -1).astype(np.int64)
    out = np.einsum("i,j,ijk->k", x, y, product_tensor(a.dim))
    # the library's matrix of left multiplication by a gives the same product
    assert (y @ left_matrices(x[None], a.dim)[0] == out).all()
    out = out.reshape(-1, 4)
    got = Multivector(a.dim, [
        QuadTower(*(Fraction(int(c), den * den) for c in row)) for row in out
    ])
    assert got == a * b


@given(mv_exact(3), mv_exact(3), mv_exact(3))
@settings(max_examples=50)
def test_associativity_exact(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(mv_float(4), mv_float(4), mv_float(4))
@settings(max_examples=50)
def test_associativity_float(a, b, c):
    assert approx_eq((a * b) * c, a * (b * c), 1e-10)


@given(mv_exact(3), mv_exact(3))
@settings(max_examples=50)
def test_reverse_antiautomorphism(a, b):
    assert reverse(a * b) == reverse(b) * reverse(a)


def test_reverse_fixtures():
    e12 = blade(3, 3)
    assert reverse(e12) == -e12
    s = mv_scalar(3, QuadTower(5))
    assert reverse(s) == s
    I4 = pseudoscalar(4)
    assert reverse(I4) == I4  # six transpositions, sign +1


def test_grade_projection():
    mv = mv_scalar(3, QuadTower(3)) + 2 * blade(3, 3)
    assert grade_project(mv, 0) == mv_scalar(3, QuadTower(3))
    assert grade_project(mv, 2) == 2 * blade(3, 3)
    assert grade_project(pseudoscalar(4), 4) == pseudoscalar(4)
    total = sum(
        (grade_project(mv, k) for k in range(4)), mv_zero(3)
    )
    assert total == mv
    with pytest.raises(ValueError):
        grade_project(mv, 5)


def test_dimension_and_backend_mismatch():
    with pytest.raises(ValueError):
        blade(3, 1) * blade(2, 1)
    with pytest.raises(BackendMismatchError):
        blade(3, 1) * blade(3, 1, "float")
    with pytest.raises(BackendMismatchError):
        Multivector(2, [QT_ONE, QT_ONE, QT_ONE, 0.5])


# -- reflections ------------------------------------------------------------------


def test_reflect_fixtures():
    e1, e2 = blade(3, 1), blade(3, 2)
    assert reflect(e1, e1) == -e1
    assert reflect(e1, e2) == e2
    assert reflect(e1, e1 + e2) == -e1 + e2


def test_reflect_requires_unit_vector():
    e1 = blade(3, 1)
    with pytest.raises(ValueError):
        reflect(2 * e1, e1)
    with pytest.raises(ValueError):
        reflect(blade(3, 3), e1)


@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=3, max_size=3),
       st.lists(st.floats(-2, 2, allow_nan=False), min_size=3, max_size=3))
@settings(max_examples=60)
def test_reflect_preserves_norm(a, x):
    na = math.sqrt(sum(v * v for v in a))
    if na < 1e-3:
        return
    alpha = mv_vector([v / na for v in a])
    vec = mv_vector([float(v) for v in x])
    image = reflect(alpha, vec)
    assert abs(norm(image) - norm(vec)) < 1e-9


# -- sandwich action ----------------------------------------------------------------


def rotor(dim, plane_mask, theta):
    return exp_bivector(blade(dim, plane_mask, "float"), theta)


def test_sandwich_identity_and_rotation():
    x = blade(3, 1, "float")
    one = mv_scalar(3, 1.0)
    assert approx_eq(sandwich(one, x), x)
    R = rotor(3, 3, math.pi / 2)  # rotation by pi in the e1e2 plane
    assert approx_eq(sandwich(R, x), -x, 1e-12)


def test_sandwich_double_cover():
    R = rotor(3, 3, 0.7)
    x = mv_vector([0.3, -1.2, 0.5])
    assert approx_eq(sandwich(R, x), sandwich(-R, x), 1e-12)


@given(st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False),
       st.lists(st.floats(-1, 1, allow_nan=False), min_size=3, max_size=3))
@settings(max_examples=60)
def test_sandwich_composition_convention(t1, t2, coords):
    R1 = rotor(3, 3, t1)
    R2 = rotor(3, 6, t2)
    x = mv_vector([float(c) for c in coords])
    lhs = sandwich(R1 * R2, x)
    rhs = sandwich(R2, sandwich(R1, x))
    assert approx_eq(lhs, rhs, 1e-10)


def test_versor_action_odd_versor_is_pointwise_reflection():
    e1 = blade(3, 1, "float")
    x = mv_vector([0.6, 0.8, 0.0])
    assert approx_eq(versor_action(e1, x), reflect(e1, x), 1e-12)


# -- bivector exponentials -------------------------------------------------------------


def test_exp_bivector_fixtures():
    B = blade(2, 3, "float")
    assert approx_eq(exp_bivector(B, 0.0), mv_scalar(2, 1.0))
    assert approx_eq(exp_bivector(B, math.pi), mv_scalar(2, -1.0))
    n = 5
    W = exp_bivector(B, math.pi / n)
    assert abs(float(W.coeffs[0]) - math.cos(math.pi / n)) < 1e-15
    assert abs(float(W.coeffs[3]) - math.sin(math.pi / n)) < 1e-15


@given(st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False))
@settings(max_examples=60)
def test_exp_bivector_addition(t1, t2):
    B = blade(4, 0b0110, "float")
    lhs = exp_bivector(B, t1) * exp_bivector(B, t2)
    assert approx_eq(lhs, exp_bivector(B, t1 + t2), 1e-12)


def test_exp_bivector_requires_unit_square():
    bad = 2.0 * blade(3, 3, "float")
    with pytest.raises(ValueError):
        exp_bivector(bad, 1.0)


# -- spinor inner product ----------------------------------------------------------------


def test_spinor_inner_fixtures():
    one = mv_scalar(3, QT_ONE)
    e12 = blade(3, 3)
    assert spinor_inner(one, one) == QT_ONE
    assert spinor_inner(one, e12).is_zero()
    R = QT_HALF * (one + blade(3, 3) + blade(3, 6) - blade(3, 5))
    # coordinate sum of squares: 4 * (1/2)^2 = 1
    assert spinor_inner(R, R) == QT_ONE


def test_spinor_inner_rejects_odd_grades():
    with pytest.raises(ValueError):
        spinor_inner(blade(3, 1), blade(3, 1))


@given(mv_float(3), mv_float(3))
@settings(max_examples=40)
def test_spinor_inner_is_coefficient_dot(a, b):
    ea = sum((grade_project(a, k) for k in (0, 2)), mv_zero(3, "float"))
    eb = sum((grade_project(b, k) for k in (0, 2)), mv_zero(3, "float"))
    got = spinor_inner(ea, eb)
    want = sum(float(x) * float(y) for x, y in zip(ea.coeffs, eb.coeffs))
    assert abs(got - want) < 1e-10


def test_blade_dict_serialization():
    mv = mv_scalar(3, QuadTower(3)) + 2 * blade(3, 3)
    assert to_blade_dict(mv) == {"": "3", "e12": "2"}


# -- the float blade sums ----------------------------------------------------------------


def blade_loop_sums(x: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The former ``clifford._blade_sums``: from +0.0, one blade at a time in
    blade order, skipping the blades that are zero in every row of x."""
    xs = x.T[..., None]
    rs = right.swapaxes(0, -2)
    out = np.zeros(np.broadcast(xs[0], rs[0]).shape)
    for a in np.flatnonzero(x.reshape(-1, x.shape[-1]).any(axis=0)):
        out += xs[a] * rs[a]
    return out


def _signed_rows(rng, shape) -> np.ndarray:
    """Random rows with +0.0, -0.0, tiny values and a zero blade in every row."""
    rows = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    rows[rng.random(shape) < 0.3] = 0.0
    rows[rng.random(shape) < 0.2] = -0.0
    rows[rng.random(shape) < 0.05] = 1e-300
    rows[..., rng.integers(shape[-1])] = 0.0
    return rows


def test_blade_sums_equal_the_blade_loop():
    # the layouts of float_products (one row, or two stacks pairwise) and of
    # right_products (rows times every generator), bit for bit
    rng = np.random.default_rng(23)
    for trial in range(3000):
        dim = int(rng.integers(1, 5))
        size = 1 << dim
        if trial % 3 == 2:
            gens = _signed_rows(rng, (int(rng.integers(1, 4)), size))
            right = (gens[:, _XOR[dim]] * _RIGHT_SIGN[dim]).transpose(1, 0, 2).reshape(size, -1)
            x = _signed_rows(rng, (int(rng.integers(1, 9)), size))
        else:
            shape = (size,) if trial % 3 else (int(rng.integers(1, 6)), size)
            x, y = _signed_rows(rng, shape), _signed_rows(rng, shape)
            right = y[..., _XOR[dim]] * _RIGHT_SIGN[dim]
        want, got = blade_loop_sums(x, right), _blade_sums(x, right)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), trial


def test_float_right_products_are_the_blade_loop_then_one():
    # float versor rows are their coefficients followed by the denominator
    # 1.0: right_products sums the coefficients as the blade loop does, bit
    # for bit, and the products end in 1.0
    def with_one(rows):
        return np.hstack([rows, np.ones((len(rows), 1))])

    rng = np.random.default_rng(31)
    for trial in range(1000):
        dim = int(rng.integers(1, 5))
        size = 1 << dim
        gens = _signed_rows(rng, (int(rng.integers(1, 4)), size))
        x = _signed_rows(rng, (int(rng.integers(1, 9)), size))
        right = (gens[:, _XOR[dim]] * _RIGHT_SIGN[dim]).transpose(1, 0, 2).reshape(size, -1)
        want = with_one(blade_loop_sums(x, right).reshape(-1, size))
        got = right_products(with_one(gens), dim)(with_one(x))
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), trial
