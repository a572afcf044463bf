"""Root-system catalog, reflection closure, Cartan matrices and validation.

Catalog keys and backends:

    A1^3, A3, B3, H3          rank 3, exact
    A1^4, A4, B4, D4, F4, H4  rank 4, exact
    I2(n)                     rank 2, float
    A1xI2(n)                  rank 3, float
    I2(n)xI2(n)               rank 4, float

Simple roots are stored unit-normalized.  A root system is the orbit of its
simple roots under the simple reflections (Humphreys, *Reflection Groups and
Coxeter Groups*, 1.5), closed by ``orbit`` one breadth-first level at a time,
so the closure applies rank * |roots| reflections in whole-array steps.  Exact
systems close in simple-root coordinates, s_i(c) = c - (sum_j c_j A_ji) e_i
with A the Cartan matrix (5.4), on integer field numerators, and become
Cartesian by one product with the simple roots.  Every exact product here (the
closure step, the Gram, the reflections of validation) is one
``scalars.exact_matmul``, which bounds itself and picks its integer tier; no
bound is derived in this module.  Float systems close on
Cartesian rows keyed by their coordinates rounded to ``KEY_DECIMALS``
decimals.  Both closures, and the pin closure of ``induction``, are sorted
once by ``canonical_order`` on the floats of their rows.

The data is numerator rows (``scalars.quad_numerators``): a ``RootSystem``
holds its roots as numerators (count, dim, d) over one denominator, d = 4 on
the exact backend and d = 1, over 1, on the float backend; its ``vectors``
are a view built on first read.  A ``SimpleRootSet`` is given by its
``vectors``, the catalog literals, and forms one Gram matrix on its rows, the
only source of the Cartan matrix, the unit check, the Coxeter graph and the
rotation orders.
Every float of an exact row comes from ``scalars.row_floats``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Callable, Optional

import numpy as np

from .scalars import (
    INV_SQRT2,
    KEY_DECIMALS,
    QT_HALF,
    QT_ONE,
    QT_ZERO,
    QuadTower,
    Scalar,
    TAU,
    exact_matmul,
    field_matrix,
    field_quotients,
    quad_numerators,
    read_only,
    reduce_rows,
    row_floats,
    row_keys,
    scalar_str,
    scalar_to_json,
    scalar_values,
)

CLOSURE_CAP = 10_000       # most roots generate_roots closes before giving up
ROTATION_CAP = 1000        # largest rotation order rotation_orders looks for
SORT_DECIMALS = 12         # decimals of the canonical sort of closure output
TIE_ULPS = 2               # ulps of x 10**SORT_DECIMALS from a half-integer sorted by Python round
UNIT_ROOT_TOL = 1e-12      # |(a|a) - 1| allowed for a float simple root
ROTATION_TOL = 1e-6        # |k phi / pi - round(k phi / pi)| of a rotation order k


class UnknownSystemError(ValueError):
    pass


class ClosureCapError(RuntimeError):
    pass


class RankError(ValueError):
    """A known system of a rank the operation is not defined for."""


def orbit(seeds: np.ndarray, step: Callable, keys: Callable, cap: int) -> np.ndarray:
    """Breadth-first closure of ``seeds``, one whole frontier at a time.

    ``step(frontier)`` returns the images of every frontier element under
    every generator, element-major and generator-minor, stacked along axis 0;
    ``keys(batch)`` returns one hashable key per element.  Elements are
    deduplicated by key and returned in discovery order, the order of a
    one-at-a-time breadth-first search; ``ClosureCapError`` is raised as soon
    as a level takes the count past ``cap``.
    """
    seen: set = set()

    def fresh(batch: np.ndarray) -> np.ndarray:
        new = []
        for i, k in enumerate(keys(batch)):
            if k not in seen:
                seen.add(k)
                new.append(i)
        if len(seen) > cap:
            raise ClosureCapError(f"orbit exceeded {cap} elements")
        return batch[new]

    levels = [fresh(seeds)]
    while len(levels[-1]):
        levels.append(fresh(step(levels[-1])))
    return np.concatenate(levels)


def canonical_order(floats) -> list[int]:
    """Indices that sort float rows, as ``row_floats`` gives them, by their
    values rounded to SORT_DECIMALS decimals as Python ``round`` rounds them,
    in one stable ``np.lexsort``.

    The keys are rint(x 10**12) / 10**12, the float nearest the 12-decimal
    value, as Python ``round`` gives it, wherever the rounded product
    x 10**12 keeps the nearest integer of the exact one.  Within TIE_ULPS
    ulps of a half-integer it may not (``np.round`` sends the tie
    0.2500000000055 up where Python rounds it down); from 2**51 on, where an
    ulp is half a unit, that covers every coordinate.  Those coordinates
    alone are rounded by Python ``round``.
    """
    x = np.asarray(floats, dtype=float)
    scaled = x * 10.0 ** SORT_DECIMALS
    keys = np.rint(scaled) / 10.0 ** SORT_DECIMALS
    doubt = np.abs(scaled - np.floor(scaled) - 0.5) <= TIE_ULPS * np.spacing(np.abs(scaled))
    keys[doubt] = [round(c, SORT_DECIMALS) for c in x[doubt].tolist()]
    return np.lexsort(keys.T[::-1]).tolist()


def ordered_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Float dots over the last axis, broadcast, summed left to right in
    coordinate order: BLAS may reorder or fuse, which would move the float
    Cartan matrix, the PF vectors and the printed planes by an ulp."""
    return np.add.accumulate(x * y, axis=-1)[..., -1]


def _gram(num: np.ndarray) -> np.ndarray:
    """Numerators (n, n, d) of the Gram matrix (x_i|x_j) of numerator rows
    (n, dim, d), over their denominator squared: exact rows by one
    ``exact_matmul``, float rows by ``ordered_dot``."""
    n, dim, d = num.shape
    if num.dtype.kind == "f":
        return ordered_dot(num[:, None, :, 0], num[None, :, :, 0])[..., None]
    # G[i, j] = sum over k of N[i, k] @ field_matrix(N[j, k])
    mult = field_matrix(num).transpose(1, 2, 0, 3).reshape(dim * d, n * d)
    return exact_matmul(num.reshape(n, dim * d), mult).reshape(n, n, d)


@dataclass(frozen=True)
class SimpleRootSet:
    """Simple roots given by their coordinates, the catalog literals; their
    numerator rows, Gram and Cartan matrix are formed once, on first read."""

    name: str                      # display name, e.g. "I2(5)"
    key: str                       # catalog key, e.g. "I2"
    rank: int
    vectors: tuple[tuple[Scalar, ...], ...]   # unit simple-root coordinates
    backend: str
    n: Optional[int] = None
    default_word: tuple[int, ...] = ()   # 1-based; empty means bicoloured order

    @cached_property
    def rows(self) -> tuple[np.ndarray, int]:
        """``quad_numerators`` of ``vectors``: (rank, dim, d) over one denominator."""
        num, den = quad_numerators(self.vectors)
        return read_only(num), den

    @cached_property
    def floats(self) -> np.ndarray:
        """The coordinates as floats (rank, dim), ``row_floats`` of ``rows``."""
        return read_only(row_floats(*self.rows))

    @cached_property
    def gram(self) -> tuple[np.ndarray, int]:
        """Gram numerators (rank, rank, d) and their denominator: the one source
        of the Cartan matrix, the unit check, the Coxeter graph and the rotation orders."""
        num, den = self.rows
        return read_only(_gram(num)), den * den

    @cached_property
    def cartan(self) -> tuple[np.ndarray, int]:
        """Numerators (rank, rank, d) of 2 (a_i|a_j) / (a_j|a_j) over their least denominator."""
        g, diag = self.gram[0], np.arange(self.rank)
        if g.dtype.kind == "f":
            return read_only(g * 2 / g[diag, diag]), 1
        num, den = field_quotients(2 * g, g[diag, diag])
        return read_only(num), den

    @cached_property
    def held(self) -> dict:
        """Results formed from these roots and kept with them, each formed
        once: ``coxplane`` keeps each word's CoxeterData, under the word, the
        bicolouring and the default Coxeter plane."""
        return {}

    @cached_property
    def unit(self) -> bool:
        """(a|a) = 1 for every simple root: exactly, or within UNIT_ROOT_TOL on floats."""
        g, den = self.gram
        diag = g[np.arange(self.rank), np.arange(self.rank)]
        if g.dtype.kind == "f":
            return bool((np.abs(diag[:, 0] - 1.0) < UNIT_ROOT_TOL).all())
        return bool((diag == [den, 0, 0, 0]).all())


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Roots as numerator rows (count, dim, d) over ``den`` (float rows, d = 1,
    over 1), sorted by ``canonical_order``."""

    name: str
    simple: SimpleRootSet
    num: np.ndarray
    den: int

    @property
    def count(self) -> int:
        return len(self.num)

    @cached_property
    def vectors(self) -> tuple[tuple[Scalar, ...], ...]:
        """The coordinates, QuadTowers or floats, built from the rows on first read."""
        return scalar_values(self.num, self.den)


def _exact_vec(*coords) -> tuple[QuadTower, ...]:
    return tuple(c if isinstance(c, QuadTower) else QuadTower.from_rational(c) for c in coords)


def _float_vec(*coords) -> tuple[float, ...]:
    return tuple(float(c) for c in coords)


_H = Fraction(1, 2)
_RH = INV_SQRT2  # 1/sqrt2
_TAU_H = TAU * QT_HALF
_TM1_H = (TAU - 1) * QT_HALF  # (tau-1)/2


def _i2_pair(n: int):
    a = math.pi / n
    return [_float_vec(1.0, 0.0), _float_vec(-math.cos(a), math.sin(a))]


def _build_roots(key: str, n: Optional[int]):
    z = QT_ZERO
    if key == "A1^3":
        return [_exact_vec(1, 0, 0), _exact_vec(0, 1, 0), _exact_vec(0, 0, 1)]
    if key == "A1^4":
        return [
            _exact_vec(1, 0, 0, 0), _exact_vec(0, 1, 0, 0),
            _exact_vec(0, 0, 1, 0), _exact_vec(0, 0, 0, 1),
        ]
    if key == "I2":
        return _i2_pair(n)
    if key == "A1xI2":
        p = _i2_pair(n)
        return [
            _float_vec(*p[0], 0.0),
            _float_vec(*p[1], 0.0),
            _float_vec(0.0, 0.0, 1.0),
        ]
    if key == "I2xI2":
        a = math.pi / n
        return [
            _float_vec(1, 0, 0, 0),
            _float_vec(-math.cos(a), math.sin(a), 0, 0),
            _float_vec(0, 0, 1, 0),
            _float_vec(0, 0, -math.cos(a), math.sin(a)),
        ]
    if key == "A3":
        return [
            _exact_vec(-_RH, _RH, z), _exact_vec(z, -_RH, _RH),
            _exact_vec(_RH, _RH, z),
        ]
    if key == "B3":
        return [
            _exact_vec(z, z, QT_ONE), _exact_vec(z, _RH, -_RH),
            _exact_vec(_RH, -_RH, z),
        ]
    if key == "H3":
        return [
            _exact_vec(0, 1, 0),
            _exact_vec(-_TAU_H, -QT_HALF, -_TM1_H),
            _exact_vec(1, 0, 0),
        ]
    if key == "A4":
        s = _RH * QT_HALF  # 1/(2*sqrt2): unit-normalizes the tau-leg root
        return [
            _exact_vec(-_RH, _RH, z, z),
            _exact_vec(z, -_RH, _RH, z),
            _exact_vec(z, z, -_RH, _RH),
            _exact_vec(TAU * s, TAU * s, TAU * s, (TAU - 2) * s),
        ]
    if key == "B4":
        return [
            _exact_vec(0, 0, 0, 1), _exact_vec(z, z, _RH, -_RH),
            _exact_vec(z, _RH, -_RH, z), _exact_vec(_RH, -_RH, z, z),
        ]
    if key == "D4":
        return [
            _exact_vec(1, 0, 0, 0), _exact_vec(0, 1, 0, 0), _exact_vec(0, 0, 1, 0),
            _exact_vec(-_H, -_H, -_H, _H),
        ]
    if key == "F4":
        return [
            _exact_vec(-_H, -_H, -_H, _H),
            _exact_vec(z, z, QT_ONE, z),
            _exact_vec(z, _RH, -_RH, z),
            _exact_vec(_RH, -_RH, z, z),
        ]
    if key == "H4":
        return [
            _exact_vec(_TAU_H, -QT_HALF, z, _TM1_H),
            _exact_vec(0, 1, 0, 0),
            _exact_vec(-_TM1_H, -QT_HALF, -_TAU_H, z),
            _exact_vec(0, 0, 1, 0),
        ]
    raise UnknownSystemError(key)


_CATALOG = {
    # key: (rank, backend, family, default word, known root count fn)
    "A1^3":  (3, "exact", False, (1, 2, 3), lambda n: 6),
    "I2":    (2, "float", True,  (1, 2),    lambda n: 2 * n),
    "A1xI2": (3, "float", True,  (),        lambda n: 2 * n + 2),
    "A3":    (3, "exact", False, (),        lambda n: 12),
    "B3":    (3, "exact", False, (),        lambda n: 18),
    "H3":    (3, "exact", False, (),        lambda n: 30),
    "A1^4":  (4, "exact", False, (1, 2, 3, 4), lambda n: 8),
    "I2xI2": (4, "float", True,  (),        lambda n: 4 * n),
    "A4":    (4, "exact", False, (3, 1, 2, 4), lambda n: 20),
    "B4":    (4, "exact", False, (3, 1, 2, 4), lambda n: 32),
    "D4":    (4, "exact", False, (1, 2, 3, 4), lambda n: 24),
    "F4":    (4, "exact", False, (3, 1, 2, 4), lambda n: 48),
    "H4":    (4, "exact", False, (3, 1, 2, 4), lambda n: 120),
}

_ALIASES = {
    "A13": "A1^3", "A1^3": "A1^3", "A14": "A1^4", "A1^4": "A1^4",
}
#: the keys other than the aliased ones and the families, matched in any case
_NAMED_KEYS = ("A3", "B3", "H3", "A4", "B4", "D4", "F4", "H4")
_PRODUCT_NAME = re.compile(r"^I2\((\d+)\)xI2\((\d+)\)$", re.I)
_FAMILY_NAME = re.compile(r"^(I2xI2|A1xI2|I2)(?:\((\d+)\))?$", re.I)


def parse_name(name: str, n: Optional[int] = None) -> tuple[str, Optional[int]]:
    """Normalize user-facing names like 'I2(7)', 'A1xI2(3)', 'I2(3)xI2(3)'.

    Only the families take a parameter: an n given for any other system is
    an error, not ignored.
    """
    s = name.strip()
    key = _ALIASES.get(s) or (s.upper() if s.upper() in _NAMED_KEYS else None)
    if key is not None:
        if n is not None:
            raise UnknownSystemError(f"{key} takes no family parameter, got n={n}")
        return key, None
    m = _PRODUCT_NAME.match(s)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        if a != b:
            raise UnknownSystemError(f"mismatched family parameters in {name!r}")
        return "I2xI2", a
    m = _FAMILY_NAME.match(s)
    if m:
        key = {"i2xi2": "I2xI2", "a1xi2": "A1xI2", "i2": "I2"}[m.group(1).lower()]
        inline = int(m.group(2)) if m.group(2) else None
        if inline is not None and n is not None and inline != n:
            raise UnknownSystemError(f"conflicting n for {name!r}")
        return key, inline if inline is not None else n
    raise UnknownSystemError(f"unknown root system {name!r}")


def catalog_entries() -> list[dict]:
    """Listing metadata for every catalog key (family counts symbolic)."""
    symbolic = {"I2": "2n", "A1xI2": "2n+2", "I2xI2": "4n"}
    rows = []
    for key, (rank, backend, family, _, countf) in _CATALOG.items():
        rows.append({
            "key": key, "rank": rank, "backend": backend, "family": family,
            "count": symbolic[key] if family else str(countf(None)),
        })
    return rows


def display_name(key: str, n: Optional[int]) -> str:
    if key == "I2":
        return f"I2({n})"
    if key == "A1xI2":
        return f"A1xI2({n})"
    if key == "I2xI2":
        return f"I2({n})xI2({n})"
    return key


def expected_root_count(key: str, n: Optional[int] = None) -> int:
    return _CATALOG[key][4](n)


def catalog(name: str, n: Optional[int] = None, backend: Optional[str] = None) -> SimpleRootSet:
    """Return the catalog simple-root set, optionally forced to the float backend.

    One object per system and backend, so each Gram is formed once.
    """
    key, n = parse_name(name, n)
    if _CATALOG[key][2]:
        if n is None:
            raise UnknownSystemError(f"{key} needs a family parameter n >= 2")
        if n < 2:
            raise UnknownSystemError(f"family parameter n={n} must be >= 2")
    return _catalog_set(key, n, backend)


@lru_cache(maxsize=None)
def _catalog_set(key: str, n: Optional[int], backend: Optional[str]) -> SimpleRootSet:
    rank, native_backend, _, word, _ = _CATALOG[key]
    vectors = _build_roots(key, n)
    use_backend = native_backend
    if backend is not None:
        if backend == "float":
            vectors = [_float_vec(*v) for v in vectors]
            use_backend = "float"
        elif backend == "exact":
            if native_backend != "exact":
                raise UnknownSystemError(
                    f"{display_name(key, n)} has no exact representation"
                )
        else:
            raise UnknownSystemError(f"unknown backend {backend!r}")
    simple = SimpleRootSet(
        name=display_name(key, n), key=key, rank=rank,
        vectors=tuple(vectors), backend=use_backend, n=n, default_word=word,
    )
    if not simple.unit:
        raise ValueError(f"catalog root of {key} not unit")
    return simple


def cartan_matrix(simple: SimpleRootSet) -> tuple[tuple[Scalar, ...], ...]:
    """Entries 2(a_i|a_j)/(a_j|a_j), QuadTowers or floats: ``SimpleRootSet.cartan`` printed."""
    return scalar_values(*simple.cartan)


def generate_roots(simple: SimpleRootSet) -> RootSystem:
    """Orbit of the simple roots under the simple reflections, sorted canonically."""
    try:
        num, den = (_exact_closure if simple.backend == "exact" else _float_closure)(simple)
    except ClosureCapError as exc:
        raise ClosureCapError(f"closure of {simple.name} exceeded {CLOSURE_CAP} roots") from exc
    order = canonical_order(row_floats(num, den))
    return RootSystem(name=simple.name, simple=simple, num=read_only(num[order]), den=den)


def _exact_closure(simple: SimpleRootSet) -> tuple[np.ndarray, int]:
    """Numerator rows (count, dim, d) of the exact roots over one denominator,
    closed in simple-root coordinates.

    A root sum_j c_j a_j is the row of its coefficients c as field numerators,
    followed by their positive denominator, divided through by the gcd of the
    row: one row per root, whatever denominators other roots need.  The
    reflection s_i(c) = c - (sum_j c_j A_ji) e_i maps numerators N over q to
    N A_den - (N . A)_i e_i over q A_den: each closure step is one
    ``exact_matmul`` of the rows [N | q] with the matrix of every s_i, built
    once, then ``reduce_rows``.
    """
    rank = simple.rank
    a_num, a_den = simple.cartan                                 # (rank, rank, d)
    d = a_num.shape[-1]
    k = rank * d
    # (N . A)[i] = sum over j of N[j] @ field_matrix(A[j, i])
    mult = field_matrix(a_num).transpose(0, 2, 1, 3).reshape(k, k)
    # block i: A_den on [N | q], less (N . A)_i in the columns of e_i
    reflect = np.repeat(a_den * np.eye(k + 1, dtype=mult.dtype)[:, None], rank, axis=1)
    for i in range(rank):
        reflect[:k, i, d * i:d * i + d] -= mult[:, d * i:d * i + d]
    reflect = reflect.reshape(k + 1, rank * (k + 1))

    def step(rows: np.ndarray) -> np.ndarray:
        return reduce_rows(exact_matmul(rows, reflect).reshape(-1, k + 1))

    diag = np.arange(rank)
    seeds = np.zeros((rank, k + 1), dtype=np.int64)
    seeds[diag, diag * d] = seeds[:, -1] = 1
    rows = orbit(seeds, step, row_keys, CLOSURE_CAP)
    num, den = rows[:, :-1], rows[:, -1].tolist()
    s_num, s_den = simple.rows                    # (rank, dim, d)
    dim = s_num.shape[1]
    # root = sum_j c_j a_j: numerators over den * s_den
    to_cartesian = field_matrix(s_num).transpose(0, 2, 1, 3).reshape(k, dim * d)
    cart = exact_matmul(num, to_cartesian).astype(object)
    common = lcm(*den)
    cart *= np.array([common // q for q in den], dtype=object)[:, None]
    return cart.reshape(len(rows), dim, d), common * s_den


def _float_closure(simple: SimpleRootSet) -> tuple[np.ndarray, int]:
    """Float rows (count, dim, 1) of the roots over 1, closed on Cartesian rows
    keyed by ``row_keys``.

    s_a(x) = x - (2 (x|a) / (a|a)) a, the dot products summed by
    ``ordered_dot`` and (a|a) read from the Gram.
    """
    gens, norms = simple.floats, np.diagonal(simple.gram[0][..., 0])

    def step(rows: np.ndarray) -> np.ndarray:
        # images[x, a] = s_a(x), every row under every generator in one broadcast
        rows = rows[:, None]
        images = rows - ((ordered_dot(rows, gens) * 2) / norms)[..., None] * gens
        return images.reshape(-1, gens.shape[1])

    return orbit(gens, step, row_keys, CLOSURE_CAP)[..., None], 1


@lru_cache(maxsize=None)
def root_system(name: str, n: Optional[int] = None) -> RootSystem:
    return generate_roots(catalog(name, n))


def rotation_orders(simple: SimpleRootSet):
    """Orders of the pairwise rotations s_i s_j.

    The rotation angle is twice the angle phi between the two roots; its order
    is the least k with k*phi a multiple of pi.  A single order is returned at
    rank 2, the sorted triple at rank 3.
    """
    if simple.rank not in (2, 3):
        raise RankError(f"rotation orders are defined for rank 2 and 3, "
                        f"not {simple.name} (rank {simple.rank})")
    orders = []
    dots = row_floats(*simple.gram).tolist()
    for i in range(simple.rank):
        for j in range(i + 1, simple.rank):
            c = max(-1.0, min(1.0, dots[i][j]))
            phi = math.acos(c)
            m = None
            for k in range(1, ROTATION_CAP + 1):
                t = k * phi / math.pi
                if abs(t - round(t)) < ROTATION_TOL and round(t) >= 1:
                    m = k
                    break
            if m is None:
                raise ValueError(
                    f"pair ({i + 1},{j + 1}) of {simple.name} generates no finite "
                    f"rotation order <= {ROTATION_CAP}"
                )
            orders.append(m)
    if simple.rank == 2:
        return orders[0]
    return tuple(sorted(orders))


@dataclass(frozen=True)
class ValidationReport:
    missing_negatives: tuple
    parallel_violations: tuple
    reflection_violations: tuple
    checked: int

    @property
    def ok(self) -> bool:
        return not self.violation_count

    @property
    def violation_count(self) -> int:
        return (
            len(self.missing_negatives)
            + len(self.parallel_violations)
            + len(self.reflection_violations)
        )


def _direction_keys(num: np.ndarray) -> list:
    """Per row, a key that parallel rows share: the row divided by its first
    nonzero coordinate, exactly on exact rows, rounded to ``KEY_DECIMALS``
    decimals on float rows."""
    floats = num.dtype.kind == "f"
    nonzero = (np.abs(num[..., 0]) > 10.0 ** -KEY_DECIMALS if floats
               else (num != 0).any(axis=2))
    zero = np.flatnonzero(~nonzero.any(axis=1))
    if len(zero):
        raise ValueError(f"vector {zero[0]} is zero; a root system has no zero vector")
    pivots = num[np.arange(len(num)), nonzero.argmax(axis=1)]     # (n, d)
    if floats:
        return [tuple(round(c / p, KEY_DECIMALS) + 0.0 for c in row)
                for row, p in zip(num[..., 0].tolist(), pivots[:, 0].tolist())]
    # the rows x / p share one denominator, so their numerators are the keys
    return row_keys(field_quotients(num, pivots[:, None])[0].reshape(len(num), -1))


def validate_root_system(num: np.ndarray, max_samples: int = 16) -> ValidationReport:
    """Check the two root-system axioms on numerator rows (n, dim, d), a root
    set's ``num`` or ``quad_numerators`` of coordinates, comparing rows by
    ``row_keys``; violations are data, not errors.  The axioms do not see the
    rows' common denominator."""
    if not len(num):
        return ValidationReport((), (), (), 0)
    flat = num.reshape(len(num), -1)
    keys, neg_keys = row_keys(flat), row_keys(-flat)
    present = set(keys)
    missing = tuple(i for i, k in enumerate(neg_keys) if k not in present)
    by_direction: dict = {}
    for i, key in enumerate(_direction_keys(num)):
        by_direction.setdefault(key, []).append(i)
    parallel = tuple(tuple(ids) for ids in by_direction.values()
                     if len(ids) > 2 or (len(ids) == 2 and neg_keys[ids[0]] != keys[ids[1]]))
    refl = _reflection_violations(num, max_samples)
    return ValidationReport(missing, parallel, tuple(refl), len(num))


def _reflection_violations(num: np.ndarray, max_samples: int) -> list:
    """Pairs (i, j), row-major and at most ``max_samples``, with s_i(x_j) not a root.

    On numerator rows N (n, dim, d) over D with Gram numerators G = (N|N) over
    D**2 (``_gram``), (a|a) s_a(x) = (a|a) x - 2 (x|a) a has numerators
    G_aa N_x - 2 G_xa N_a over D**3, the denominator of (a|a) y as G_aa N_y, so
    membership in (a|a) Phi compares rows, with no division: integer rows
    exactly, float rows by ``row_keys`` rounding.  For each a the images of
    every x are one ``exact_matmul`` of the rows [G_aa N_x | G_xa] with the
    identity stacked on -2 N_a as field multiplication (which commutes).
    """
    n, dim, d = num.shape
    k = dim * d
    gram = _gram(num)
    length_keys = row_keys(gram[np.arange(n), np.arange(n)])
    mult = field_matrix(num).transpose(0, 2, 1, 3).reshape(n, d, k)
    reflect = np.concatenate([np.broadcast_to(np.eye(k, dtype=mult.dtype), (n, k, k)),
                              -2 * mult], axis=1)                       # (n, k + d, k)
    scaled_roots: dict = {}   # (a|a) Phi per squared length: its rows and their keys
    out = []
    for i in range(n):
        if length_keys[i] not in scaled_roots:
            scaled = exact_matmul(num, field_matrix(gram[i, i])).reshape(n, k)
            scaled_roots[length_keys[i]] = scaled, set(row_keys(scaled))
        scaled, targets = scaled_roots[length_keys[i]]
        images = exact_matmul(np.hstack([scaled, gram[:, i]]), reflect[i])
        for j, key in enumerate(row_keys(images)):
            if key not in targets:
                out.append((i, j))
                if len(out) >= max_samples:
                    return out
    return out


def roots_to_json(system: RootSystem) -> dict:
    return {
        "name": system.name,
        "count": system.count,
        "roots": [[scalar_to_json(c) for c in v] for v in system.vectors],
    }


def cartan_to_csv(simple: SimpleRootSet) -> str:
    rows = [",".join(scalar_str(v) for v in row) for row in cartan_matrix(simple)]
    return "\n".join(rows) + "\n"
