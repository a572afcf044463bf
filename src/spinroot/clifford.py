"""The Euclidean Clifford algebras Cl(2), Cl(3), Cl(4) on coefficient rows.

A multivector is a row of 2^dim coefficients indexed by blade bitmask: bit i
of the mask marks basis vector e_{i+1} (blade ``VECTOR_BLADES[i]``), the
blade is the ascending product of its vectors (mask 0b101 in Cl(3) is
e1e3), and its grade is the mask's bit count.  Coefficients are either all
exact (QuadTower) or all float; the two never mix.

A versor row, the pin closure's and the Coxeter versor's representation on
both backends, is the coefficients' field numerators (d of them: 4 exact, 1
float), blade-major, then one positive denominator, the whole row divided by
its gcd (``reduce_rows``): equal exact multivectors have equal rows, and a
float row ends in 1.0.  This module alone builds (``numerator_rows``,
``vector_rows``, ``negated_rows``, ``identity_row``), reads
(``blade_numerators``, ``coefficient_floats``, ``common_numerators``) and
checks (``grade_parities``, ``unit_rows``) them.  A float coefficient row is
the 2^dim floats alone, as the plane bivector: ``grade``,
``scalar_product``, ``norm``, ``wedge``, ``bivector_exp`` and
``bivector_matrix`` take one row or, pairwise, stacks of rows, and sum from
0.0 in blade order as Multivector does, so each float is the one a chain of
Multivector operations gives.

``right_products`` is the library's one geometric product on versor rows: the
pin closure and the Coxeter versor multiply rows through it.  Its float sums
are those of ``float_products``, which multiplies stacks of float coefficient
rows pairwise for the factorization and the Coxeter plane.  ``Multivector``
is the same algebra one element at a time, for the public API and the tests.

An even unit versor R acts on vectors by the sandwich x -> reverse(R) x R, so
products act left to right: R1*R2 acts as R1 first, then R2.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .scalars import (
    NOISE_TOL,
    BackendMismatchError,
    Field,
    QT_ZERO,
    QuadTower,
    Scalar,
    exact_matmul,
    field_matrix,
    ordered_dot,
    reduce_rows,
    row_floats,
)

#: the grade of each blade mask of Cl(4), and so of Cl(1..3) as its prefixes
_GRADES = np.array([m.bit_count() for m in range(16)])
#: the blade mask of each basis vector: e_(i+1) is VECTOR_BLADES[i]
VECTOR_BLADES = 1 << np.arange(4)


class DimensionMismatchError(ValueError):
    """Raised when multivectors of different algebras meet in one operation."""


def _reorder_sign(a: int, b: int) -> int:
    # parity of the number of transpositions merging blade a into blade b
    a >>= 1
    total = 0
    while a:
        total += (a & b).bit_count()
        a >>= 1
    return -1 if total & 1 else 1


def _sign_table(dim: int):
    size = 1 << dim
    return tuple(
        tuple(_reorder_sign(a, b) for b in range(size)) for a in range(size)
    )


_SIGN = {d: _sign_table(d) for d in (1, 2, 3, 4)}
# e_a e_b = sign(a, b) e_(a ^ b), so blade a becomes blade c under right
# multiplication by blade a ^ c only, with the sign _RIGHT_SIGN[dim][a, c]
_XOR = {d: np.bitwise_xor.outer(np.arange(1 << d), np.arange(1 << d)) for d in _SIGN}
_RIGHT_SIGN = {d: np.take_along_axis(np.array(_SIGN[d]), _XOR[d], axis=1) for d in _SIGN}
# and blade b becomes blade c under left multiplication by blade b ^ c only,
# with the sign _LEFT_SIGN[dim][b, c] = sign(b ^ c, b)
_LEFT_SIGN = {d: np.take_along_axis(np.array(_SIGN[d]).T, _XOR[d], axis=1) for d in _SIGN}


def _blade_sums(x: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_a x[..., a] right[..., a, :] over the blades a, for one row x or a
    stack of rows, broadcast against right.

    The terms are summed one blade at a time in blade order by
    ``np.add.accumulate``, and the + 0.0 at the end turns the -0.0 of a sum of
    zeros into 0.0: bit for bit Multivector.__mul__'s loop from +0.0, which
    skips zero blades.  BLAS may fuse multiply-adds, which would move float
    products by an ulp.
    """
    return np.add.accumulate(x[..., None] * right, axis=-2)[..., -1, :] + 0.0


def float_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Geometric products x y of float coefficient rows, broadcast along the
    leading axes (so pairwise for two stacks of rows), summed as
    ``right_products`` sums them."""
    dim = x.shape[-1].bit_length() - 1
    return _blade_sums(x, y[..., _XOR[dim]] * _RIGHT_SIGN[dim])


def right_products(gens: np.ndarray, dim: int, field: Field) -> Callable:
    """The geometric product on versor rows: a function taking rows to their
    products with each generator row on the right, element-major and
    generator-minor.

    Rows are versor rows of ``field``, on either backend.  Right
    multiplication by g sends blade a to blade c through g's blade a ^ c
    only: its matrix R_g[a, c] is sign(a, a ^ c) times the field's
    multiplication matrix of g_(a ^ c).
    The products of a batch are one product of the rows [num | den] with the
    blocks [[R_g, 0], [0, den_g]] of every generator, built once, so the
    products carry the product of the two denominators: on exact rows one
    ``exact_matmul``, and ``reduce_rows`` divides them through by their gcd;
    on float rows the sums of ``float_products``, and the denominator stays 1.0.
    """
    n = gens.shape[1] - 1
    right = _product_matrices(gens[:, :-1], dim, _RIGHT_SIGN[dim], field)
    step = np.zeros((n + 1, len(gens), n + 1), dtype=np.result_type(right, gens))
    step[:n, :, :n] = right.transpose(1, 0, 2)
    step[n, :, n] = gens[:, -1]
    step = step.reshape(n + 1, -1)
    if gens.dtype.kind == "f":
        return lambda rows: _blade_sums(rows, step).reshape(-1, n + 1)
    return lambda rows: reduce_rows(exact_matmul(rows, step).reshape(-1, n + 1))


def _product_matrices(num: np.ndarray, dim: int, sign: np.ndarray, field: Field
                      ) -> np.ndarray:
    """Matrices (n, d * 2**dim, d * 2**dim) of multiplication by the
    multivectors with numerators num (n, d * 2**dim) in ``field``,
    blade-major, on either backend: blade a goes to blade c through the
    multivector's blade a ^ c only, so the block (a, c) is sign[a, c] times
    that blade's field matrix."""
    n, size, d = len(num), 1 << dim, field.d
    mult = field_matrix(num.reshape(n, size, d), field)          # (i, blade, q, r)
    blocks = mult[:, _XOR[dim]] * sign[:, :, None, None]          # (i, a, c, q, r)
    return blocks.transpose(0, 1, 3, 2, 4).reshape(n, d * size, d * size)


def left_matrices(num: np.ndarray, dim: int, field: Field) -> np.ndarray:
    """Matrices of left multiplication by the multivectors with numerators
    num (n, d * 2**dim) in ``field``: ``y @ left_matrices(x, dim, field)[i]``
    holds x_i y, over the product of the two denominators."""
    return _product_matrices(num, dim, _LEFT_SIGN[dim], field)


def numerator_rows(num: np.ndarray, den: int) -> np.ndarray:
    """Versor rows of multivectors given as numerators (n, 2**dim, d) over ``den``."""
    rows = np.hstack([num.reshape(len(num), -1), np.full((len(num), 1), den, dtype=num.dtype)])
    return reduce_rows(rows)


def vector_rows(num: np.ndarray, den: int) -> np.ndarray:
    """Versor rows of the vectors with the coordinate numerators (n, dim, d) over ``den``."""
    n, dim, d = num.shape
    blades = np.zeros((n, 1 << dim, d), dtype=num.dtype)
    blades[:, VECTOR_BLADES[:dim]] = num
    return numerator_rows(blades, den)


def negated_rows(rows: np.ndarray) -> np.ndarray:
    """Versor rows of -V for the versor rows V."""
    return np.hstack([-rows[:, :-1], rows[:, -1:]])


def identity_row(like: np.ndarray) -> np.ndarray:
    """The versor row of 1, numerator 1 on blade 0 over the denominator 1, in
    the width and dtype of the rows ``like``."""
    one = np.zeros((1, like.shape[1]), dtype=like.dtype)
    one[0, 0] = one[0, -1] = 1
    return one


def blade_numerators(rows: np.ndarray, dim: int) -> np.ndarray:
    """The numerators (n, 2**dim, d) of versor rows."""
    return rows[:, :-1].reshape(len(rows), 1 << dim, (rows.shape[1] - 1) >> dim)


def coefficient_floats(rows: np.ndarray, dim: int, field: Field) -> np.ndarray:
    """Float coefficient rows (n, 2**dim) of versor rows of ``field``, by ``row_floats``."""
    return row_floats(blade_numerators(rows, dim), rows[:, -1:], field)


def common_numerators(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Versor rows as numerators (n, d * 2**dim) over one denominator, laid out
    as by ``quad_numerators``; exact rows are scaled as Python ints, never
    int64, and float rows are over 1 already."""
    if rows.dtype.kind == "f":
        return rows[:, :-1], 1
    rows = rows.astype(object)
    den = math.lcm(*rows[:, -1].tolist())
    return rows[:, :-1] * (den // rows[:, -1:]), den


def grade_parities(rows: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Per versor row: has it a nonzero odd-grade coefficient, has it an even-grade one?"""
    support = (blade_numerators(rows, dim) != 0).any(axis=2)
    odd_blade = _GRADES[:1 << dim] % 2 == 1
    return (support & odd_blade).any(axis=1), (support & ~odd_blade).any(axis=1)


def unit_rows(rows: np.ndarray, dim: int, field: Field) -> np.ndarray:
    """Per versor row of ``field``: is <V reverse(V)>_0, the coefficients' square sum, 1?"""
    if rows.dtype.kind == "f":
        return np.abs((rows[:, :-1] ** 2).sum(axis=1) - 1.0) < NOISE_TOL
    n, size, d = len(rows), 1 << dim, field.d
    # [num | den] @ [field_matrix of each blade; -den on basis 1]: the sum over
    # blades of num_b * num_b in the field less den**2, zero on a unit row
    last = -rows[:, -1:, None] * field.one
    mult = field_matrix(blade_numerators(rows, dim), field).reshape(n, d * size, d)
    excess = exact_matmul(rows[:, None, :], np.concatenate([mult, last], axis=1))
    return (excess == 0).all(axis=(1, 2))


def grade(x: np.ndarray, k: int) -> np.ndarray:
    """The grade-k part of float coefficient rows."""
    return np.where(_GRADES[:x.shape[-1]] == k, x, 0.0)


def scalar_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x reverse(y)>_0 of float coefficient rows, the coefficient dot: ``ordered_dot``,
    with the -0.0 of an all -0.0 sum turned into a loop from 0.0's 0.0."""
    return ordered_dot(x, y) + 0.0


def norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt(scalar_product(x, x))


def wedge(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bivector rows u ^ v of float coordinate vectors: the grade-2 part of
    their geometric product."""
    dim = u.shape[-1]
    rows = np.zeros((2,) + u.shape[:-1] + (1 << dim,))
    rows[..., VECTOR_BLADES[:dim]] = np.stack([u, v])
    return grade(float_products(rows[0], rows[1]), 2)


def squares_to_minus_one(B: np.ndarray) -> np.ndarray:
    """Per float bivector row: is B**2 = -1 within NOISE_TOL?"""
    sq = float_products(B, B)
    sq[..., 0] += 1.0
    return ~(np.abs(sq) > NOISE_TOL).any(axis=-1)


def bivector_exp(B: np.ndarray, theta: Sequence[float]) -> np.ndarray:
    """cos(theta) + sin(theta) B for unit bivector rows B (S, 2**dim) and their angles."""
    if (~B.any(axis=1) | (B != grade(B, 2)).any(axis=1)).any():
        raise ValueError("exponent must be a pure bivector")
    if not squares_to_minus_one(B).all():
        raise ValueError("bivector must square to -1")
    E = np.zeros(B.shape)
    E[:, 0] = [math.cos(t) for t in theta]
    return E + np.array([math.sin(t) for t in theta])[:, None] * B


def bivector_matrix(B: np.ndarray) -> np.ndarray:
    """Antisymmetric matrices A of bivector rows, A[i, j] = the e_(i+1) e_(j+1) coefficient.

    u ^ v has the matrix u v^T - v u^T, so an orthogonal M, acting on vectors
    as a versor does, acts on the bivector as A -> M A M^T.
    """
    blades = VECTOR_BLADES[:B.shape[-1].bit_length() - 1]
    A = np.triu(B[..., blades[:, None] | blades], 1)
    return A - np.swapaxes(A, -1, -2)


def blade_name(mask: int) -> str:
    if mask == 0:
        return ""
    return "e" + "".join(str(i + 1) for i in range(4) if mask >> i & 1)


class Multivector:
    __slots__ = ("dim", "coeffs", "_nz")

    def __init__(self, dim: int, coeffs: Iterable[Scalar]):
        if dim not in (1, 2, 3, 4):
            raise DimensionMismatchError(f"unsupported dimension {dim}")
        coeffs = tuple(coeffs)
        if len(coeffs) != 1 << dim:
            raise ValueError(f"need {1 << dim} coefficients, got {len(coeffs)}")
        exact = any(isinstance(c, QuadTower) for c in coeffs)
        if exact:
            if any(isinstance(c, float) for c in coeffs):
                raise BackendMismatchError("mixed exact/float coefficients")
            coeffs = tuple(
                c if isinstance(c, QuadTower) else QuadTower.from_rational(c)
                for c in coeffs
            )
        else:
            coeffs = tuple(float(c) for c in coeffs)
        self.dim = dim
        self.coeffs = coeffs
        self._nz = None

    # -- basics --------------------------------------------------------------

    @property
    def backend(self) -> str:
        return "exact" if isinstance(self.coeffs[0], QuadTower) else "float"

    def _zero_coeff(self):
        return QT_ZERO if self.backend == "exact" else 0.0

    @property
    def nz(self):
        if self._nz is None:
            if self.backend == "exact":
                self._nz = tuple(
                    (m, c) for m, c in enumerate(self.coeffs) if not c.is_zero()
                )
            else:
                self._nz = tuple(
                    (m, c) for m, c in enumerate(self.coeffs) if c != 0.0
                )
        return self._nz

    def _check_compat(self, other: "Multivector"):
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"Cl({self.dim}) vs Cl({other.dim}) operands"
            )
        if self.backend != other.backend:
            raise BackendMismatchError(
                f"{self.backend} vs {other.backend} backends"
            )

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_compat(other)
        return Multivector(
            self.dim, [x + y for x, y in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_compat(other)
        return Multivector(
            self.dim, [x - y for x, y in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return Multivector(self.dim, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check_compat(other)
            sign = _SIGN[self.dim]
            out = [self._zero_coeff()] * (1 << self.dim)
            for ma, ca in self.nz:
                row = sign[ma]
                for mb, cb in other.nz:
                    t = ca * cb
                    m = ma ^ mb
                    out[m] = out[m] + (-t if row[mb] < 0 else t)
            return Multivector(self.dim, out)
        return self._scale(other)

    def __rmul__(self, other):
        # scalars commute with everything here
        return self._scale(other)

    def _scale(self, s):
        if isinstance(s, float) and self.backend == "exact":
            raise BackendMismatchError("cannot scale exact multivector by float")
        if isinstance(s, QuadTower) and self.backend == "float":
            raise BackendMismatchError("cannot scale float multivector by QuadTower")
        if not isinstance(s, (int, float, QuadTower)) and not hasattr(s, "numerator"):
            return NotImplemented
        return Multivector(self.dim, [c * s for c in self.coeffs])

    def __truediv__(self, s):
        if isinstance(s, QuadTower):
            return self._scale(s.inverse())
        if isinstance(s, float):
            return self._scale(1.0 / s)
        if isinstance(s, int) or hasattr(s, "numerator"):
            if self.backend == "exact":
                return self._scale(QuadTower.from_rational(s).inverse())
            return self._scale(1.0 / float(s))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.backend == other.backend
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.dim, self.coeffs))

    def __repr__(self):
        terms = " ".join(f"{c}:{blade_name(m) or '1'}" for m, c in self.nz)
        return f"<Cl({self.dim}) {terms or '0'}>"
