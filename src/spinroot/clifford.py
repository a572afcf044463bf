"""Dense multivectors for the Euclidean Clifford algebras Cl(2), Cl(3), Cl(4).

A multivector holds 2^dim coefficients indexed by blade bitmask: bit i of the
mask marks basis vector e_{i+1}, and the blade is the ascending product of its
constituent vectors (e.g. mask 0b101 in Cl(3) is e1e3).  Coefficients are
either all QuadTower (exact backend) or all float; the two never mix.

Vectors are grade-1 multivectors throughout.  An even unit versor R acts on
vectors by the sandwich x -> reverse(R) x R, so products act left to right:
R1*R2 acts as R1 first, then R2.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .scalars import (
    FIELD_TENSOR,
    BackendMismatchError,
    QT_ONE,
    QT_ZERO,
    QuadTower,
    Scalar,
    eq_tol,
    scalar_to_json,
)

GRADE_TOL = 1e-9    # largest coefficient a grade projection may treat as noise


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


@lru_cache(maxsize=None)
def product_tensor(dim: int) -> np.ndarray:
    """Integer structure tensor of Cl(dim) over Q(sqrt2, sqrt5), built on first use.

    K[(a, p), (b, q), (a ^ b, r)] = sign(a, b) * FIELD_TENSOR[p, q, r], with
    (blade, field basis) pairs flattened to 4 * blade + basis.  Exact
    multivectors with numerator rows x, y over a common denominator D have the
    product ``einsum("i,j,ijk->k", x, y, K)`` over D**2.
    """
    size = 1 << dim
    sign = _SIGN[dim]
    K = np.zeros((size, 4, size, 4, size, 4), dtype=np.int64)
    for a in range(size):
        for b in range(size):
            K[a, :, b, :, a ^ b, :] = sign[a][b] * FIELD_TENSOR
    K = K.reshape(4 * size, 4 * size, 4 * size)
    K.flags.writeable = False
    return K


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

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, backend: str = "exact") -> "Multivector":
        z = QT_ZERO if backend == "exact" else 0.0
        return cls(dim, [z] * (1 << dim))

    @classmethod
    def scalar(cls, dim: int, value: Scalar) -> "Multivector":
        mv = cls.zero(dim, "exact" if isinstance(value, QuadTower) else "float")
        coeffs = list(mv.coeffs)
        coeffs[0] = value
        return cls(dim, coeffs)

    @classmethod
    def basis_vector(cls, dim: int, i: int, backend: str = "exact") -> "Multivector":
        if not 0 <= i < dim:
            raise ValueError(f"basis index {i} out of range for dim {dim}")
        mv = cls.zero(dim, backend)
        coeffs = list(mv.coeffs)
        coeffs[1 << i] = QT_ONE if backend == "exact" else 1.0
        return cls(dim, coeffs)

    @classmethod
    def from_vector(cls, coords: Sequence[Scalar]) -> "Multivector":
        dim = len(coords)
        exact = any(isinstance(c, QuadTower) for c in coords)
        coeffs = [QT_ZERO if exact else 0.0] * (1 << dim)
        for i, c in enumerate(coords):
            coeffs[1 << i] = c
        return cls(dim, coeffs)

    @classmethod
    def blade(cls, dim: int, mask: int, value: Scalar) -> "Multivector":
        mv = cls.zero(dim, "exact" if isinstance(value, QuadTower) else "float")
        coeffs = list(mv.coeffs)
        coeffs[mask] = value
        return cls(dim, coeffs)

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

    def approx_eq(self, other: "Multivector", tol: Optional[float] = None) -> bool:
        if self.dim != other.dim:
            return False
        tol = eq_tol() if tol is None else tol
        return all(
            abs(float(x) - float(y)) <= tol
            for x, y in zip(self.coeffs, other.coeffs)
        )

    # -- structure -----------------------------------------------------------

    def grade(self, k: int) -> "Multivector":
        if not 0 <= k <= self.dim:
            raise ValueError(f"grade {k} out of range for Cl({self.dim})")
        z = self._zero_coeff()
        return Multivector(
            self.dim,
            [c if m.bit_count() == k else z for m, c in enumerate(self.coeffs)],
        )

    def grades(self) -> tuple[int, ...]:
        return tuple(sorted({m.bit_count() for m, _ in self.nz}))

    def scalar_part(self) -> Scalar:
        return self.coeffs[0]

    def norm_sq(self) -> Scalar:
        # <A reverse(A)>_0 = sum of squared coefficients in the Euclidean metric
        total = self._zero_coeff()
        for _, c in self.nz:
            total = total + c * c
        return total

    def norm(self) -> float:
        return math.sqrt(float(self.norm_sq()))

    def vector_coords(self) -> tuple[Scalar, ...]:
        if any(m.bit_count() != 1 for m, _ in self.nz):
            raise ValueError("not a grade-1 multivector")
        return tuple(self.coeffs[1 << i] for i in range(self.dim))

    def to_float(self) -> "Multivector":
        if self.backend == "float":
            return self
        return Multivector(self.dim, [float(c) for c in self.coeffs])

    def to_blade_dict(self) -> dict:
        """Nonzero blade coefficients keyed by blade name ('' for the scalar)."""
        return {blade_name(m): scalar_to_json(c) for m, c in self.nz}

    def to_json(self) -> dict:
        return {"dim": self.dim, "coeffs": self.to_blade_dict()}

    def __repr__(self):
        terms = " ".join(f"{c}:{blade_name(m) or '1'}" for m, c in self.nz)
        return f"<Cl({self.dim}) {terms or '0'}>"


# -- operations ---------------------------------------------------------------


def grade_project(a: Multivector, k: int) -> Multivector:
    return a.grade(k)


def exp_bivector(B: Multivector, theta: float, tol: Optional[float] = None) -> Multivector:
    """cos(theta) + sin(theta) B for a unit bivector B (float backend)."""
    if B.backend != "float":
        raise BackendMismatchError("exp_bivector works on the float backend")
    if B.grades() != (2,):
        raise ValueError("exponent must be a pure bivector")
    tol = eq_tol() if tol is None else tol
    sq = B * B
    if abs(sq.scalar_part() + 1.0) > tol or any(
        abs(c) > tol for m, c in sq.nz if m != 0
    ):
        raise ValueError("bivector must square to -1")
    return Multivector.scalar(B.dim, math.cos(theta)) + math.sin(theta) * B


def pseudoscalar(dim: int, backend: str = "exact") -> Multivector:
    return Multivector.blade(
        dim, (1 << dim) - 1, QT_ONE if backend == "exact" else 1.0
    )
