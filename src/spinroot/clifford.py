"""The Euclidean Clifford algebras Cl(2), Cl(3), Cl(4) on coefficient rows.

A multivector is a row of 2^dim coefficients indexed by blade bitmask: bit i
of the mask marks basis vector e_{i+1}, and the blade is the ascending product
of its constituent vectors (e.g. mask 0b101 in Cl(3) is e1e3).  Coefficients
are either all exact (QuadTower) or all float; the two never mix.  In a
versor row each coefficient is its field numerators (d of them: 4 exact, 1
float), blade-major, and one denominator closes the row, 1.0 on floats.

``right_products`` is the library's one geometric product on versor rows: the
pin closure and the Coxeter versor multiply rows through it.  Its float sums
are those of ``float_products``, which multiplies stacks of float coefficient
rows pairwise for the factorization and the Coxeter plane.  ``Multivector``
is the same algebra one element at a time, for the public API and the tests.

An even unit versor R acts on vectors by the sandwich x -> reverse(R) x R, so
products act left to right: R1*R2 acts as R1 first, then R2.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .scalars import (
    BackendMismatchError,
    Field,
    QT_ZERO,
    QuadTower,
    Scalar,
    exact_matmul,
    field_matrix,
    reduce_rows,
)


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

    Rows are numerators in ``field``, blade-major, followed by one positive
    denominator, on either backend.  Right multiplication by g sends blade a
    to blade c through g's blade a ^ c only: its matrix R_g[a, c] is
    sign(a, a ^ c) times the field's multiplication matrix of g_(a ^ c).
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
