"""Exact arithmetic in the real quadratic tower Q(sqrt2, sqrt5).

Every exact coordinate appearing in the root-system catalog (halves, the
golden ratio tau = (1+sqrt5)/2, 1/sqrt2 factors and their products) lies in
this field, viewed as a 4-dimensional vector space over Q with basis
{1, sqrt2, sqrt5, sqrt10}.  Elements are stored as four integer numerators
over one positive common denominator, fully reduced, so equality and hashing
are structural.

The float backend is plain Python ``float``; mixing the two backends in
arithmetic is an error, never a silent coercion (QuadTower returns
NotImplemented for float operands).  QuadTower itself serves the catalog
literals, exact printing and JSON.

The data of every set is numerator rows instead, on both backends: a set is
its numerators over the same basis with one common denominator
(``quad_numerators``; ``scalar_values`` is the inverse, for printing), and
products are matrix products through a structure tensor, ``FIELD_TENSOR`` by
default (``field_matrix``; ``adjoin_sqrt`` adjoins a square root to a tensor's
ring, ``field_quotients`` divides).  Exact rows are integers, and
this module alone picks how they are held and multiplied: ``exact_matmul``
bounds each product by its own operands and runs it on float64 BLAS below
``FLOAT64_LIMIT``, on int64 below ``INT64_LIMIT`` and on Python ints above, so
the result is exact.  The integer rows that ``exact_matmul``, ``field_matrix``,
``int_rows`` and ``reduce_rows`` return are int64 below ``INT64_LIMIT``, so
they may be negated or doubled in their dtype, and Python ints otherwise.
Float rows use only the basis-1 column over the denominator 1.
``row_floats`` is the one bridge from rows to floats, bit for bit ``float()``
of each QuadTower.  ``row_keys`` hashes rows, integer rows by value whatever
their dtype, float rows rounded to ``KEY_DECIMALS`` decimals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, lcm
from typing import Union

import numpy as np

#: Decimals kept by the float-backend hash keys (``row_keys``).
KEY_DECIMALS = 6
#: The tiers of ``exact_matmul``: float64 holds every integer below
#: FLOAT64_LIMIT exactly, and int64 every sum below INT64_LIMIT with room to
#: negate or double it; at or above INT64_LIMIT the products run on Python ints.
FLOAT64_LIMIT = 1 << 53
INT64_LIMIT = 1 << 62

_SQRT2 = math.sqrt(2.0)
_SQRT5 = math.sqrt(5.0)
_SQRT10 = math.sqrt(10.0)


class BackendMismatchError(TypeError):
    """Raised when exact and float values meet in one operation."""


def _ratio(x) -> tuple[int, int]:
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class QuadTower:
    """Element a + b*sqrt2 + c*sqrt5 + d*sqrt10 with rational a, b, c, d."""

    __slots__ = ("_na", "_nb", "_nc", "_nd", "_q")

    def __init__(self, a=0, b=0, c=0, d=0):
        na, qa = _ratio(a)
        nb, qb = _ratio(b)
        nc, qc = _ratio(c)
        nd, qd = _ratio(d)
        q = qa * qb * qc * qd
        obj = QuadTower._raw(
            na * (q // qa), nb * (q // qb), nc * (q // qc), nd * (q // qd), q
        )
        self._na, self._nb, self._nc, self._nd, self._q = (
            obj._na, obj._nb, obj._nc, obj._nd, obj._q,
        )

    @classmethod
    def _raw(cls, na: int, nb: int, nc: int, nd: int, q: int) -> "QuadTower":
        if q < 0:
            na, nb, nc, nd, q = -na, -nb, -nc, -nd, -q
        g = gcd(na, nb, nc, nd, q)
        if g > 1:
            na //= g
            nb //= g
            nc //= g
            nd //= g
            q //= g
        self = object.__new__(cls)
        self._na = na
        self._nb = nb
        self._nc = nc
        self._nd = nd
        self._q = q
        return self

    @classmethod
    def from_rational(cls, x) -> "QuadTower":
        n, q = _ratio(x)
        return cls._raw(n, 0, 0, 0, q)

    # rational coordinates on the basis {1, sqrt2, sqrt5, sqrt10}
    @property
    def a(self) -> Fraction:
        return Fraction(self._na, self._q)

    @property
    def b(self) -> Fraction:
        return Fraction(self._nb, self._q)

    @property
    def c(self) -> Fraction:
        return Fraction(self._nc, self._q)

    @property
    def d(self) -> Fraction:
        return Fraction(self._nd, self._q)

    def is_zero(self) -> bool:
        return self._na == 0 and self._nb == 0 and self._nc == 0 and self._nd == 0

    def is_rational(self) -> bool:
        return self._nb == 0 and self._nc == 0 and self._nd == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    @staticmethod
    def _coerce(x):
        if isinstance(x, QuadTower):
            return x
        if isinstance(x, int):
            return QuadTower._raw(x, 0, 0, 0, 1)
        if isinstance(x, Fraction):
            return QuadTower._raw(x.numerator, 0, 0, 0, x.denominator)
        return None

    def __add__(self, other):
        o = QuadTower._coerce(other)
        if o is None:
            return NotImplemented
        q1, q2 = self._q, o._q
        return QuadTower._raw(
            self._na * q2 + o._na * q1,
            self._nb * q2 + o._nb * q1,
            self._nc * q2 + o._nc * q1,
            self._nd * q2 + o._nd * q1,
            q1 * q2,
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadTower._raw(-self._na, -self._nb, -self._nc, -self._nd, self._q)

    def __sub__(self, other):
        o = QuadTower._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = QuadTower._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = QuadTower._coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, c1, d1 = self._na, self._nb, self._nc, self._nd
        a2, b2, c2, d2 = o._na, o._nb, o._nc, o._nd
        return QuadTower._raw(
            a1 * a2 + 2 * b1 * b2 + 5 * c1 * c2 + 10 * d1 * d2,
            a1 * b2 + b1 * a2 + 5 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
            self._q * o._q,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadTower":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(sqrt2, sqrt5)")
        num, den = field_quotients(np.array([self._q, 0, 0, 0], dtype=object),
                                   np.array([self._na, self._nb, self._nc, self._nd], dtype=object))
        return QuadTower._raw(*num.tolist(), den)

    def __truediv__(self, other):
        o = QuadTower._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __eq__(self, other):
        o = QuadTower._coerce(other)
        if o is None:
            return NotImplemented
        return (
            self._na == o._na
            and self._nb == o._nb
            and self._nc == o._nc
            and self._nd == o._nd
            and self._q == o._q
        )

    def __hash__(self):
        if self.is_rational():
            return hash(Fraction(self._na, self._q))
        return hash((self._na, self._nb, self._nc, self._nd, self._q))

    def __float__(self) -> float:
        return (
            self._na + self._nb * _SQRT2 + self._nc * _SQRT5 + self._nd * _SQRT10
        ) / self._q

    def __repr__(self) -> str:
        return f"QuadTower({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __str__(self) -> str:
        parts = []
        for frac, unit in ((self.a, ""), (self.b, "r2"), (self.c, "r5"), (self.d, "r10")):
            if frac == 0:
                continue
            s = str(frac)
            if unit:
                s = f"{s}*{unit}"
            if parts and not s.startswith("-"):
                parts.append("+" + s)
            else:
                parts.append(s)
        return "".join(parts) if parts else "0"


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
    if is_exact(x):
        return str(x)
    return format(float(x), ".17g")


def scalar_to_json(x: Scalar):
    """JSON value for a scalar: exact values as strings, floats as numbers."""
    if is_exact(x):
        return str(x)
    return float(x)


# -- array kernel for pairwise work over whole sets ------------------------------


def quad_numerators(values) -> tuple[np.ndarray, int]:
    """Numerator rows (..., 4) of an array of scalars, and their common denominator.

    ``values`` is a (nested) sequence of QuadTower or of floats, not a mix,
    or a float array; element x equals ``num[x] @ (1, sqrt2, sqrt5, sqrt10) / den``.
    Exact numerators are Python ints in an object array.  Floats fill the
    basis-1 column of a float array over ``den = 1``, so the same products
    apply to both backends.
    """
    floats = isinstance(values, np.ndarray) and values.dtype.kind == "f"
    arr = values if floats else np.asarray(values, dtype=object)
    flat = arr.ravel()
    if floats or all(isinstance(x, float) for x in flat):
        rows = np.zeros(arr.shape + (4,))
        rows[..., 0] = arr
        return rows, 1
    if not all(isinstance(x, QuadTower) for x in flat):
        raise BackendMismatchError("numerator rows need all-exact or all-float scalars")
    den = lcm(*(x._q for x in flat))
    rows = [(x._na * (s := den // x._q), x._nb * s, x._nc * s, x._nd * s) for x in flat]
    return np.array(rows, dtype=object).reshape(arr.shape + (4,)), den


def read_only(rows: np.ndarray) -> np.ndarray:
    """``rows``, no longer writable: rows that the caches share are never
    changed in place, so no result depends on an earlier caller."""
    rows.setflags(write=False)
    return rows


def scalar_values(num: np.ndarray, den: int) -> tuple:
    """Rows of scalars, QuadTowers or floats, of numerator rows (n, k, 4) over
    ``den``: the inverse of ``quad_numerators``, for printing and JSON."""
    if num.dtype.kind == "f":
        return tuple(map(tuple, num[..., 0].tolist()))
    return tuple(tuple(QuadTower._raw(*x, den) for x in row) for row in num.tolist())


def row_floats(num: np.ndarray, den) -> np.ndarray:
    """Floats (...) of numerator rows (..., 4) over ``den`` (one denominator, or
    one per row): the one bridge from exact rows to floats.

    Bit for bit ``float(QuadTower)``: each scalar is divided by the gcd of its
    numerators and denominator, then evaluated as
    (((a + b sqrt2) + c sqrt5) + d sqrt10) / q, on float64 when every integer
    is below FLOAT64_LIMIT (so converts exactly), else on the Python ints.
    """
    if num.dtype.kind == "f":
        return num[..., 0]
    q = np.broadcast_to(np.asarray(den, dtype=object), num.shape[:-1])[..., None]
    parts = np.concatenate([num.astype(object), q], axis=-1)
    if _abs_max(parts) < FLOAT64_LIMIT:
        parts = parts.astype(np.int64)
    a, b, c, d, q = np.moveaxis(parts // np.gcd.reduce(parts, axis=-1, keepdims=True), -1, 0)
    return ((a + b * _SQRT2 + c * _SQRT5 + d * _SQRT10) / q).astype(np.float64)


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


#: the structure tensor of Q itself, on the basis {1}
RATIONAL_TENSOR = np.ones((1, 1, 1), dtype=np.int64)
#: T[p, q, r]: coefficient of basis r in (basis p)(basis q), basis {1, sqrt2, sqrt5, sqrt10}
FIELD_TENSOR = adjoin_sqrt(adjoin_sqrt(RATIONAL_TENSOR, [2]), [5, 0])


def field_matrix(x: np.ndarray, tensor: np.ndarray = FIELD_TENSOR) -> np.ndarray:
    """Matrices (..., d, d) of multiplication by numerator rows x (..., d) in
    the ring of the structure tensor (d, d, d), by default Q(sqrt2, sqrt5).

    ``y @ field_matrix(x)`` holds the numerators of x*y, over the product of
    the two denominators.  M[q, r] = sum over p of x_p T[p, q, r], one
    ``exact_matmul`` with the structure tensor.
    """
    d = len(tensor)
    return exact_matmul(x, tensor.reshape(d, d * d)).reshape(x.shape[:-1] + (d, d))


#: numerator signs of the other Galois conjugates: sqrt2, sqrt5, both negated
_CONJUGATES = np.array([[1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])


def field_quotients(x: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, int]:
    """Numerators, held by ``int_rows``, of x / d over one reduced least positive
    denominator, for numerator rows x (..., 4) and nonzero rows d that
    broadcast with them: a denominator that x and d share cancels unread.

    1/d = inv / norm with inv the product of the other three Galois conjugates
    of d, so the norm d inv is rational; both are formed on Python ints.
    """
    d = d.astype(object)
    c2, c5, c10 = (d * signs for signs in _CONJUGATES)
    inv = (c2[..., None, :] @ field_matrix(c5) @ field_matrix(c10))[..., 0, :]
    norm = (d[..., None, :] @ field_matrix(inv))[..., 0, :1]
    den = lcm(*norm.ravel().tolist())
    num = exact_matmul(x[..., None, :], field_matrix(inv))[..., 0, :] * (den // norm)
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
    """Exact rows, field numerators followed by one positive denominator,
    divided through by their gcd, so rows of equal values are equal; held by
    ``int_rows``."""
    return int_rows(rows // np.gcd.reduce(rows, axis=1, keepdims=True))
