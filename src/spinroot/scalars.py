"""Exact arithmetic over number fields, first of all Q(sqrt2, sqrt5).

Every exact coordinate of the root-system catalog (halves, the golden ratio
tau = (1+sqrt5)/2, 1/sqrt2 factors and their products) lies in the quadratic
tower Q(sqrt2, sqrt5), of basis {1, sqrt2, sqrt5, sqrt10} over Q.  A
``QuadTower`` is one element: four integer numerators over one positive
denominator, fully reduced, so equality and hashing are structural.  It
serves the catalog literals, exact printing and JSON.  The float backend is
plain Python ``float``; mixing the two backends in arithmetic is an error,
never a silent coercion (QuadTower returns NotImplemented for float operands).

The data of every set is numerator rows instead, on both backends: its
numerators over its field's basis, on the last axis, over one common
denominator (``quad_numerators``; ``scalar_values`` is the inverse, for
printing).  Every kernel takes the field as a ``Field`` record: its structure
tensor (``adjoin_sqrt`` adjoins a square root to a ring's), the float values
of its basis and its printer.  ``QUAD`` is Q(sqrt2, sqrt5), ``FLOATS`` the
float rows, each float its own row (x,) over 1, and ``verify`` defines the
ring Z[sqrt5][R] of the appendix.  Products go through the tensor
(``field_matrix``); ``row_floats`` is the one bridge from rows to floats,
bit for bit ``float(QuadTower)`` on QUAD; ``exact_solve``, a fraction-free
Gauss-Jordan elimination, is the one inverse, of ``field_quotients`` and of
``coxplane.weight_basis``.

Exact rows are integers, and this module alone picks how they are held and
multiplied: ``exact_matmul`` bounds each product by its own operands and runs
it on float64 BLAS below ``FLOAT64_LIMIT``, on int64 below ``INT64_LIMIT`` and
on Python ints above, so the result is exact.  The integer rows that
``exact_matmul``, ``field_matrix``, ``int_rows`` and ``reduce_rows`` return
are int64 below ``INT64_LIMIT``, and Python ints otherwise; float rows pass
through them unchanged.  ``row_keys`` hashes rows, integer rows by value
whatever their dtype, float rows rounded to ``KEY_DECIMALS`` decimals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Union

import numpy as np

#: Decimals kept by the float-backend hash keys (``row_keys``).
KEY_DECIMALS = 6
#: Largest distance |x - round(x)| of a float that is read as an integer.
INT_TOL = 1e-6
#: The tiers of ``exact_matmul``: float64 holds every integer below
#: FLOAT64_LIMIT exactly, and int64 every sum below INT64_LIMIT with room to
#: negate or double it; at or above INT64_LIMIT the products run on Python ints.
FLOAT64_LIMIT = 1 << 53
INT64_LIMIT = 1 << 62


class BackendMismatchError(TypeError):
    """Raised when exact and float values meet in one operation."""


def _ratio(x) -> tuple[int, int]:
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class QuadTower:
    """Element a + b*sqrt2 + c*sqrt5 + d*sqrt10 with rational a, b, c, d: the
    numerators ``_n`` of a, b, c, d over one positive denominator ``_q``, reduced."""

    __slots__ = ("_n", "_q")

    def __init__(self, a=0, b=0, c=0, d=0):
        ratios = [_ratio(x) for x in (a, b, c, d)]
        q = math.prod(r for _, r in ratios)
        obj = QuadTower._raw(*(n * (q // r) for n, r in ratios), q)
        self._n, self._q = obj._n, obj._q

    @classmethod
    def _raw(cls, *parts: int) -> "QuadTower":
        """The element with the numerators na, nb, nc, nd over q, the five ``parts``."""
        g = gcd(*parts) if parts[4] > 0 else -gcd(*parts)
        if g != 1:
            parts = tuple(x // g for x in parts)
        self = object.__new__(cls)
        self._n, self._q = parts[:4], parts[4]
        return self

    @classmethod
    def from_rational(cls, x) -> "QuadTower":
        n, q = _ratio(x)
        return cls._raw(n, 0, 0, 0, q)

    # rational coordinates on the basis {1, sqrt2, sqrt5, sqrt10}
    a = property(lambda self: Fraction(self._n[0], self._q))
    b = property(lambda self: Fraction(self._n[1], self._q))
    c = property(lambda self: Fraction(self._n[2], self._q))
    d = property(lambda self: Fraction(self._n[3], self._q))

    def is_zero(self) -> bool:
        return not any(self._n)

    def is_rational(self) -> bool:
        return not any(self._n[1:])

    def __bool__(self) -> bool:
        return not self.is_zero()

    @staticmethod
    def _coerce(x):
        if isinstance(x, QuadTower):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadTower.from_rational(x)
        return None

    def __add__(self, other):
        o = QuadTower._coerce(other)
        if o is None:
            return NotImplemented
        (a1, b1, c1, d1), (a2, b2, c2, d2), q1, q2 = self._n, o._n, self._q, o._q
        return QuadTower._raw(a1 * q2 + a2 * q1, b1 * q2 + b2 * q1, c1 * q2 + c2 * q1,
                              d1 * q2 + d2 * q1, q1 * q2)

    __radd__ = __add__

    def __neg__(self):
        return QuadTower._raw(*(-x for x in self._n), self._q)

    def __sub__(self, other):
        o = QuadTower._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = QuadTower._coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other):
        o = QuadTower._coerce(other)
        if o is None:
            return NotImplemented
        (a1, b1, c1, d1), (a2, b2, c2, d2) = self._n, o._n
        return QuadTower._raw(
            a1 * a2 + 2 * b1 * b2 + 5 * c1 * c2 + 10 * d1 * d2,
            a1 * b2 + b1 * a2 + 5 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
            self._q * o._q,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadTower":
        num, den = field_quotients(np.array([self._q], dtype=object) * QUAD.one,
                                   np.array(self._n, dtype=object), QUAD)
        return QuadTower._raw(*num.tolist(), den)

    def __truediv__(self, other):
        o = QuadTower._coerce(other)
        return NotImplemented if o is None else self * o.inverse()

    def __eq__(self, other):
        o = QuadTower._coerce(other)
        return NotImplemented if o is None else self._n == o._n and self._q == o._q

    def __hash__(self):
        if self.is_rational():
            return hash(Fraction(self._n[0], self._q))
        return hash((*self._n, self._q))

    def __float__(self) -> float:
        return QUAD.evaluate(self._n, self._q)

    def __repr__(self) -> str:
        return f"QuadTower({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __str__(self) -> str:
        return QUAD.show(self.a, self.b, self.c, self.d)


QT_ZERO = QuadTower(0)
QT_ONE = QuadTower(1)
QT_HALF = QuadTower(Fraction(1, 2))
SQRT2 = QuadTower(0, 1)
SQRT5 = QuadTower(0, 0, 1)
SQRT10 = QuadTower(0, 0, 0, 1)
INV_SQRT2 = QuadTower(0, Fraction(1, 2))
#: golden ratio tau = (1+sqrt5)/2, the positive solution of x^2 = x + 1
TAU = QuadTower(Fraction(1, 2), 0, Fraction(1, 2))
#: its conjugate sigma = (1-sqrt5)/2
SIGMA = QuadTower(Fraction(1, 2), 0, Fraction(-1, 2))

Scalar = Union[QuadTower, float]


def is_exact(x: Scalar) -> bool:
    return isinstance(x, QuadTower)


def scalar_str(x: Scalar) -> str:
    """Serialization form: exact as 'p/q+p/q*r2+...', float as 17-digit decimal."""
    return str(x) if is_exact(x) else FLOATS.show(float(x))


def scalar_to_json(x: Scalar):
    """JSON value for a scalar: exact values as strings, floats as numbers."""
    return str(x) if is_exact(x) else float(x)


# -- array kernel for pairwise work over whole sets ------------------------------


def quad_numerators(values) -> tuple[np.ndarray, int]:
    """Numerator rows (..., d) of an array of scalars, and their common denominator.

    ``values`` is a (nested) sequence, or an array, of QuadTower or of floats,
    not a mix.  Exact values are rows of ``QUAD``, Python int numerators in
    an object array: element x equals ``num[x] @ (1, sqrt2, sqrt5, sqrt10) / den``.
    Floats are rows of ``FLOATS``: each is its own row (x,) over ``den = 1``,
    so the same products apply to both backends.
    """
    arr = np.asarray(values, dtype=object)
    flat = arr.ravel()
    if all(isinstance(x, float) for x in flat):
        return arr.astype(np.float64)[..., None], 1
    if not all(isinstance(x, QuadTower) for x in flat):
        raise BackendMismatchError("numerator rows need all-exact or all-float scalars")
    den = lcm(*(x._q for x in flat))
    rows = [[n * (den // x._q) for n in x._n] for x in flat]
    return np.array(rows, dtype=object).reshape(arr.shape + (QUAD.d,)), den


def read_only(rows: np.ndarray) -> np.ndarray:
    """``rows``, no longer writable: rows that the caches share are never
    changed in place, so no result depends on an earlier caller."""
    rows.setflags(write=False)
    return rows


def scalar_values(num: np.ndarray, den: int) -> tuple:
    """Rows of scalars, QuadTowers or floats, of numerator rows (n, k, d) over
    ``den``: the inverse of ``quad_numerators``, for printing and JSON."""
    if num.dtype.kind == "f":
        return tuple(map(tuple, num[..., 0].tolist()))
    return tuple(tuple(QuadTower._raw(*x, den) for x in row) for row in num.tolist())


def row_floats(num: np.ndarray, den, field: Field) -> np.ndarray:
    """Floats (...) of numerator rows (..., d) of ``field`` over ``den`` (one
    denominator, or one per row): the one bridge from exact rows to floats;
    float rows (d = 1) are their own floats.

    Each scalar is divided by the gcd of its numerators and denominator, then
    evaluated by ``Field.evaluate``, on float64 when every integer is below
    FLOAT64_LIMIT (so converts exactly), else on the Python ints: bit for bit
    ``float(QuadTower)`` on Q(sqrt2, sqrt5).
    """
    if num.dtype.kind == "f":
        return num[..., 0]
    q = np.broadcast_to(np.asarray(den, dtype=object), num.shape[:-1])[..., None]
    parts = np.concatenate([num.astype(object), q], axis=-1)
    if _abs_max(parts) < FLOAT64_LIMIT:
        parts = parts.astype(np.int64)
    *coords, q = np.moveaxis(parts // np.gcd.reduce(parts, axis=-1, keepdims=True), -1, 0)
    return np.asarray(field.evaluate(coords, q), dtype=np.float64)


def _abs_max(x: np.ndarray) -> int:
    """The largest absolute value of an integer array, as a Python int (0 if empty)."""
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def _kernel_dtype(bound: int):
    """int64 for integers whose every partial sum stays below ``bound``, if it
    is below INT64_LIMIT, else Python ints."""
    return np.int64 if bound < INT64_LIMIT else object


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of integer arrays (int64 or Python ints), exactly.

    inner dim * max|a| * max|b|, on Python ints, caps the sum of the absolute
    values of the terms of every entry, so every partial sum in any order.
    Below FLOAT64_LIMIT every product and every partial sum, fused or not, is
    an integer that float64 holds exactly, so the product runs on float64 BLAS;
    below INT64_LIMIT it runs on int64; at or above, on Python ints.  The
    result is int64 below INT64_LIMIT.  Float operands, the float backend's,
    multiply as they are.
    """
    if np.result_type(a, b).kind == "f":
        return a @ b
    bound = a.shape[-1] * _abs_max(a) * _abs_max(b)
    if bound < FLOAT64_LIMIT:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    dtype = _kernel_dtype(bound)
    return a.astype(dtype) @ b.astype(dtype)


def adjoin_sqrt(t: np.ndarray, r) -> np.ndarray:
    """Structure tensor (2d, 2d, 2d) of F(sqrt r), from the tensor t (d, d, d) of
    F and the coordinates r (d) of the radicand on F's basis b: the new basis
    is b, then b sqrt r, and (b_p sqrt r)(b_q sqrt r) = (b_p b_q) r."""
    d = len(t)
    times_r = exact_matmul(np.array(r), t.reshape(d, d * d)).reshape(d, d)
    out = np.zeros((2, d, 2, d, 2, d), dtype=np.int64)
    out[0, :, 0, :, 0] = out[0, :, 1, :, 1] = out[1, :, 0, :, 1] = t
    out[1, :, 1, :, 0] = exact_matmul(t, times_r)
    return read_only(out.reshape(2 * d, 2 * d, 2 * d))


@dataclass(frozen=True, eq=False)
class Field:
    """A number field of degree d over Q on a basis whose first element is 1,
    the ring its numerator rows (..., d) live in: its structure tensor, the
    float value of each basis element and its exact printer."""

    tensor: np.ndarray           # T[p, q, r]: coefficient of basis r in (basis p)(basis q)
    basis: tuple[float, ...]     # the float value of each basis element, basis[0] = 1.0
    show: Callable[..., str]     # the printed form of one element, from its d coordinates

    @property
    def d(self) -> int:
        return len(self.basis)

    @property
    def one(self) -> np.ndarray:
        """The numerator row of 1."""
        return np.eye(1, self.d, dtype=np.int64)[0]

    def evaluate(self, coords, q):
        """sum_p coords[p] basis[p] / q, summed in basis order: the one float
        formula of the field, for Python ints or integer arrays alike."""
        return sum(c * b for c, b in zip(coords, self.basis)) / q


def _show_quad(*coords, units=("", "*r2", "*r5", "*r10")) -> str:
    """Q(sqrt2, sqrt5)'s printer, of sum_p c_p u_p: the nonzero terms only, a +
    before each that is not negative, 0 for zero."""
    terms = [f"{c}{u}" for c, u in zip(coords, units) if c]
    return "".join(t if i == 0 or t[0] == "-" else "+" + t for i, t in enumerate(terms)) or "0"


#: the structure tensor of Q itself, on the basis {1}
RATIONAL_TENSOR = np.ones((1, 1, 1), dtype=np.int64)
#: the float rows: Q on the basis {1}, each float its own row (x,) over 1
FLOATS = Field(RATIONAL_TENSOR, (1.0,), lambda x: format(x, ".17g"))
#: Q(sqrt2, sqrt5) on the basis {1, sqrt2, sqrt5, sqrt10}, QuadTower's field
QUAD = Field(adjoin_sqrt(adjoin_sqrt(RATIONAL_TENSOR, [2]), [5, 0]),
             (1.0, math.sqrt(2.0), math.sqrt(5.0), math.sqrt(10.0)),
             _show_quad)


def field_matrix(x: np.ndarray, field: Field) -> np.ndarray:
    """Matrices (..., d, d) of multiplication by numerator rows x (..., d) in
    ``field``.

    ``y @ field_matrix(x, field)`` holds the numerators of x*y, over the
    product of the two denominators.  M[q, r] = sum over p of x_p T[p, q, r],
    one ``exact_matmul`` with the structure tensor.
    """
    d = field.d
    return exact_matmul(x, field.tensor.reshape(d, d * d)).reshape(x.shape[:-1] + (d, d))


def exact_solve(m: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Numerators, held by ``int_rows``, of the rows y (..., n, k) with
    y @ m = b over one reduced least positive denominator, for integer
    matrices m (..., k, k) and integer rows b (..., n, k) that broadcast.

    Fraction-free Gauss-Jordan (Bareiss): the equations [m^T | b^T] become
    [p 1 | r], p the last pivot, every division exact, so y = r^T / p.  Each
    step runs on int64 while its products stay below INT64_LIMIT, else on
    Python ints.  A singular m raises ZeroDivisionError.
    """
    k = m.shape[-1]
    lead = np.broadcast_shapes(m.shape[:-2], b.shape[:-2])
    aug = np.concatenate([np.broadcast_to(np.swapaxes(m, -1, -2), lead + (k, k)),
                          np.broadcast_to(np.swapaxes(b, -1, -2), lead + b.shape[-1:-3:-1])],
                         axis=-1)
    pivot = 1
    for c in range(k):
        aug = aug.astype(_kernel_dtype(2 * _abs_max(aug) ** 2), copy=False)   # fits this step
        first = c + (aug[..., c:, c] != 0).argmax(axis=-1)[..., None, None]    # the first pivot
        if (first != c).any():                                   # swapped into row c
            row = np.take_along_axis(aug, first, axis=-2)
            np.put_along_axis(aug, first, aug[..., c:c + 1, :].copy(), axis=-2)
            aug[..., c:c + 1, :] = row
        row = aug[..., c:c + 1, :]
        if not row[..., c].all():                                # no pivot in column c
            raise ZeroDivisionError("division by zero: the matrix is singular")
        # every other row r becomes (P row_r - row_r[c] row_c) / the last pivot
        aug, pivot = (row[..., c:c + 1] * aug - aug[..., c:c + 1] * row) // pivot, row[..., c:c + 1]
        aug[..., c:c + 1, :] = row
    pivot = pivot.astype(object)
    den = lcm(*np.abs(pivot).ravel().tolist())
    num = np.swapaxes(aug[..., k:] * (den // pivot), -1, -2)
    common = gcd(*num.ravel().tolist(), den)
    return int_rows(num // common), den // common


def field_quotients(x: np.ndarray, d: np.ndarray, field: Field) -> tuple[np.ndarray, int]:
    """Numerators, held by ``int_rows``, of x / d over one reduced least positive
    denominator, for numerator rows x (..., d) of ``field`` and nonzero rows d
    that broadcast with them: a denominator that x and d share cancels unread.

    1/d is the solution y of y field_matrix(d) = 1, by ``exact_solve`` for
    every row of d at once.
    """
    inv, den = exact_solve(field_matrix(d, field), field.one[None])
    num = exact_matmul(x[..., None, :], field_matrix(inv[..., 0, :], field))[..., 0, :]
    common = gcd(*num.ravel().tolist(), den)
    return int_rows(num // common), den // common


def row_keys(rows: np.ndarray) -> list:
    """Hashable keys of the rows of a 2D array.

    Integer rows are keyed by value, whatever their dtype: a row that fits
    int64 by its int64 bytes, one that does not by the tuple of its Python
    ints, so equal rows have equal keys.  Float rows are keyed by their values
    rounded to ``KEY_DECIMALS`` decimals, read at each call (``+ 0.0`` folds
    -0.0 into 0.0).
    """
    if rows.dtype.kind == "f":
        rows = rows.round(KEY_DECIMALS) + 0.0
    elif rows.dtype == object:
        try:
            rows = rows.astype(np.int64)
        except OverflowError:
            return [_int_row_key(row) for row in rows.tolist()]
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


def _int_row_key(row: list):
    try:
        return np.array(row, dtype=np.int64).tobytes()
    except OverflowError:
        return tuple(row)


def int_rows(rows: np.ndarray) -> np.ndarray:
    """Integer rows held as ``exact_matmul`` returns them: int64 below
    INT64_LIMIT, else Python ints; float rows as they are.  Rows that many
    products share are converted once here, not in each product."""
    if rows.dtype.kind == "f":
        return rows
    return rows.astype(_kernel_dtype(_abs_max(rows)), copy=False)


def reduce_rows(rows: np.ndarray) -> np.ndarray:
    """Rows of field numerators followed by one positive denominator, divided
    through by their gcd, so rows of equal values are equal, and held by
    ``int_rows``; float rows, over 1 already, pass through as they do there."""
    if rows.dtype.kind == "f":
        return rows
    return int_rows(rows // np.gcd.reduce(rows, axis=1, keepdims=True))
