"""Root-system catalog, reflection closure, Cartan matrices and validation.

The catalog has one record per key, ``_System``, holding the system's facts
once: its root count a n + b, its unit-normalized simple roots, its
display-name form, the binary group of a 2D/3D source and its default word; a
family's (I2(n), A1xI2(n), I2(n)xI2(n)) roots and group are functions of n.
The name parser's tables are built from the records at import.

A root system is the orbit of its simple roots under the simple reflections
(Humphreys, *Reflection Groups and Coxeter Groups*, 1.5), closed by ``orbit``
one breadth-first level at a time, so the closure applies rank * |roots|
reflections in whole-array steps.  Exact systems close in simple-root
coordinates, s_i(c) = c - (sum_j c_j A_ji) e_i with A the Cartan matrix (5.4),
on integer field numerators, and become Cartesian by one product with the
simple roots.  Every exact product here (the closure step, the Gram, the
reflections of validation) is one ``scalars.exact_matmul``, which bounds
itself and picks its integer tier; no bound is derived in this module.  Float
systems close on Cartesian rows keyed by their coordinates rounded to
``KEY_DECIMALS`` decimals.  Both closures, and the pin closure of
``induction``, are sorted once by ``canonical_order`` on the floats of their
rows.  ``components`` is the one graph walk: Coxeter graphs, Cartan blocks
and McKay graphs are all walked by it.

The data is numerator rows (``scalars.quad_numerators``): a ``RootSystem``
holds its roots as numerators (count, dim, d) over one denominator, with
their ``scalars.Field``, Q(sqrt2, sqrt5) (d = 4) on the exact backend and
the float rows (d = 1, over 1) on the float backend; its ``vectors`` are a
view built on first read; an induced set of ``induction`` is one too.
A ``SimpleRootSet`` is given by its ``vectors``, the catalog literals, whose
count is its rank and whose scalars its backend, and forms one Gram matrix on
its rows, the only source of the Cartan matrix, the unit check, the Coxeter
graph and the rotation orders.  Every float of an exact row comes from
``scalars.row_floats``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Any, Callable, Optional

import numpy as np

from .scalars import (
    FLOATS,
    INT_TOL,
    INV_SQRT2,
    KEY_DECIMALS,
    QUAD,
    QT_HALF,
    Field,
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


def components(adj: np.ndarray) -> tuple[list[np.ndarray], list[int]]:
    """Node masks of the connected components of the graph with an edge from
    u to v wherever adj[u, v] != 0, and each node's depth parity: from the
    first node in no mask yet, the nodes its breadth-first walk reaches."""
    n = len(adj)
    heads, tails = np.nonzero(adj)
    nbrs = [[] for _ in range(n)]
    for u, v in zip(heads.tolist(), tails.tolist()):
        nbrs[u].append(v)
    parity = [None] * n            # None: in no mask yet
    out = []
    for start in range(n):
        if parity[start] is not None:
            continue
        members, depth = [start], {start: 0}
        for u in members:          # grows as the walk reaches new nodes
            for v in nbrs[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    members.append(v)
        mask = np.zeros(n, dtype=bool)
        mask[members] = True
        for v in members:
            parity[v] = depth[v] % 2
        out.append(mask)
    return out, parity


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


def _gram(num: np.ndarray, field: Field) -> np.ndarray:
    """Numerators (n, n, d) of the Gram matrix (x_i|x_j) of numerator rows
    (n, dim, d) of ``field``, over their denominator squared: exact rows by
    one ``exact_matmul``, float rows by ``ordered_dot``."""
    n, dim, d = num.shape
    if num.dtype.kind == "f":
        return ordered_dot(num[:, None, :, 0], num[None, :, :, 0])[..., None]
    # G[i, j] = sum over k of N[i, k] @ field_matrix(N[j, k])
    mult = field_matrix(num, field).transpose(1, 2, 0, 3).reshape(dim * d, n * d)
    return exact_matmul(num.reshape(n, dim * d), mult).reshape(n, n, d)


@dataclass(frozen=True)
class SimpleRootSet:
    """Simple roots given by their coordinates, the catalog literals; their
    rank and backend are read off them, and their numerator rows, Gram and
    Cartan matrix are formed once, on first read."""

    name: str                      # display name, e.g. "I2(5)"
    key: str                       # catalog key, e.g. "I2"
    vectors: tuple[tuple[Scalar, ...], ...]   # unit simple-root coordinates
    n: Optional[int] = None
    default_word: tuple[int, ...] = ()   # 1-based; empty means bicoloured order

    @property
    def rank(self) -> int:
        return len(self.vectors)

    @property
    def backend(self) -> str:
        return "exact" if isinstance(self.vectors[0][0], QuadTower) else "float"

    @property
    def field(self) -> Field:
        """The field of the coordinates: Q(sqrt2, sqrt5) for QuadTowers, else the float rows."""
        return QUAD if self.backend == "exact" else FLOATS

    @cached_property
    def rows(self) -> tuple[np.ndarray, int]:
        """``quad_numerators`` of ``vectors``: (rank, dim, d) over one denominator."""
        num, den = quad_numerators(self.vectors)
        return read_only(num), den

    @cached_property
    def floats(self) -> np.ndarray:
        """The coordinates as floats (rank, dim), ``row_floats`` of ``rows``."""
        return read_only(row_floats(*self.rows, self.field))

    @cached_property
    def gram(self) -> tuple[np.ndarray, int]:
        """Gram numerators (rank, rank, d) and their denominator: the one source
        of the Cartan matrix, the unit check, the Coxeter graph and the rotation orders."""
        num, den = self.rows
        return read_only(_gram(num, self.field)), den * den

    @cached_property
    def cartan(self) -> tuple[np.ndarray, int]:
        """Numerators (rank, rank, d) of 2 (a_i|a_j) / (a_j|a_j) over their least denominator."""
        g, diag = self.gram[0], np.arange(self.rank)
        if g.dtype.kind == "f":
            return read_only(g * 2 / g[diag, diag]), 1
        num, den = field_quotients(2 * g, g[diag, diag], self.field)
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
        return bool((diag[:, 0] == den).all() and not diag[:, 1:].any())


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Roots as numerator rows (count, dim, d) of ``field`` over ``den`` (float
    rows, d = 1, over 1): a closure's sorted by ``canonical_order``, an
    induced set's in its spin group's order."""

    name: str
    num: np.ndarray
    den: int
    field: Field

    @property
    def count(self) -> int:
        return len(self.num)

    @cached_property
    def vectors(self) -> tuple[tuple[Scalar, ...], ...]:
        """The coordinates, QuadTowers or floats, built from the rows on first read."""
        return scalar_values(self.num, self.den)


def _exact(*roots) -> tuple[tuple[QuadTower, ...], ...]:
    """Roots with int, Fraction or QuadTower coordinates, as QuadTowers."""
    return tuple(tuple(c if isinstance(c, QuadTower) else QuadTower.from_rational(c) for c in r)
                 for r in roots)


def _i2(n: int) -> tuple[float, float]:
    """The second simple root of I2(n), at the angle pi - pi/n from (1, 0)."""
    a = math.pi / n
    return -math.cos(a), math.sin(a)


_H = Fraction(1, 2)
_RH = INV_SQRT2  # 1/sqrt2
_TAU_H = TAU * QT_HALF
_TM1_H = (TAU - 1) * QT_HALF  # (tau-1)/2
_S = _RH * QT_HALF  # 1/(2*sqrt2): unit-normalizes A4's tau-leg root


@dataclass(frozen=True)
class _System:
    """The facts of one catalog system, each written once.  A family's roots
    and binary group are functions of its n; a fixed system's are values."""

    count: tuple[int, int]    # the root count a n + b, as (a, b); a = 0 off the families
    roots: Any                # unit simple-root coordinates, one root per simple reflection
    name: str = ""            # a family's display name, formatted with n; else the key
    group: Any = None         # a 2D/3D source's binary group, its spin group
    word: tuple[int, ...] = ()    # the default word, 1-based; () is the bicoloured order

    @property
    def family(self) -> bool:
        return self.count[0] != 0

    def vectors(self, n: Optional[int]) -> tuple:
        return self.roots(n) if self.family else self.roots


_CATALOG = {
    "A1^3": _System(count=(0, 6), group="Q8", word=(1, 2, 3), roots=_exact(
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1))),
    "I2": _System(count=(2, 0), name="I2({n})", group=lambda n: f"C{2 * n}", word=(1, 2),
                  roots=lambda n: ((1.0, 0.0), _i2(n))),
    "A1xI2": _System(count=(2, 2), name="A1xI2({n})",
                     group=lambda n: f"Dic{n}" if n != 2 else "Dic2 (= Q8)",
                     roots=lambda n: ((1.0, 0.0, 0.0), (*_i2(n), 0.0), (0.0, 0.0, 1.0))),
    "A3": _System(count=(0, 12), group="2T", roots=_exact(
        (-_RH, _RH, 0),
        (0, -_RH, _RH),
        (_RH, _RH, 0))),
    "B3": _System(count=(0, 18), group="2O", roots=_exact(
        (0, 0, 1),
        (0, _RH, -_RH),
        (_RH, -_RH, 0))),
    "H3": _System(count=(0, 30), group="2I", roots=_exact(
        (0, 1, 0),
        (-_TAU_H, -QT_HALF, -_TM1_H),
        (1, 0, 0))),
    "A1^4": _System(count=(0, 8), word=(1, 2, 3, 4), roots=_exact(
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1))),
    "I2xI2": _System(count=(4, 0), name="I2({n})xI2({n})", roots=lambda n: (
        (1.0, 0.0, 0.0, 0.0),
        (*_i2(n), 0.0, 0.0),
        (0.0, 0.0, 1.0, 0.0),
        (0.0, 0.0, *_i2(n)))),
    "A4": _System(count=(0, 20), word=(3, 1, 2, 4), roots=_exact(
        (-_RH, _RH, 0, 0),
        (0, -_RH, _RH, 0),
        (0, 0, -_RH, _RH),
        (TAU * _S, TAU * _S, TAU * _S, (TAU - 2) * _S))),
    "B4": _System(count=(0, 32), word=(3, 1, 2, 4), roots=_exact(
        (0, 0, 0, 1),
        (0, 0, _RH, -_RH),
        (0, _RH, -_RH, 0),
        (_RH, -_RH, 0, 0))),
    "D4": _System(count=(0, 24), word=(1, 2, 3, 4), roots=_exact(
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (-_H, -_H, -_H, _H))),
    "F4": _System(count=(0, 48), word=(3, 1, 2, 4), roots=_exact(
        (-_H, -_H, -_H, _H),
        (0, 0, 1, 0),
        (0, _RH, -_RH, 0),
        (_RH, -_RH, 0, 0))),
    "H4": _System(count=(0, 120), word=(3, 1, 2, 4), roots=_exact(
        (_TAU_H, -QT_HALF, 0, _TM1_H),
        (0, 1, 0, 0),
        (-_TM1_H, -QT_HALF, -_TAU_H, 0),
        (0, 0, 1, 0))),
}

#: every key, and an A1 power without its caret, by its name in upper case:
#: names match in any case
_NAMES = {name.upper(): key for key in _CATALOG for name in (key, key.replace("^", ""))}


def _family_pattern(key: str, form: str) -> re.Pattern:
    """A family's names with n inline, in any case: key(n) or its display name."""
    shown = re.escape(form).replace(re.escape("{n}"), r"(\d+)")
    return re.compile(rf"{re.escape(key)}\((\d+)\)|{shown}", re.I)


_FAMILY_NAMES = [(key, _family_pattern(key, s.name)) for key, s in _CATALOG.items() if s.family]


def parse_name(name: str, n: Optional[int] = None) -> tuple[str, Optional[int]]:
    """Normalize user-facing names like 'I2(7)', 'A1xI2(3)', 'I2(3)xI2(3)'.

    Only the families take a parameter: an n given for any other system is
    an error, not ignored, and one given inline must agree with ``n``.  A
    given n passes ``operator.index``, so 3.0 never names I2(3).
    """
    try:
        n = None if n is None else operator.index(n)
    except TypeError:
        raise UnknownSystemError(f"family parameter n={n!r} is not an integer") from None
    s = name.strip()
    key = _NAMES.get(s.upper())
    if key is not None:
        if _CATALOG[key].family:
            return key, n
        if n is not None:
            raise UnknownSystemError(f"{key} takes no family parameter, got n={n}")
        return key, None
    for key, pattern in _FAMILY_NAMES:
        m = pattern.fullmatch(s)
        if m:
            inline = {int(v) for v in m.groups() if v is not None}
            if len(inline) > 1:
                raise UnknownSystemError(f"mismatched family parameters in {name!r}")
            if n is not None and inline != {n}:
                raise UnknownSystemError(f"conflicting n for {name!r}")
            return key, inline.pop()
    raise UnknownSystemError(f"unknown root system {name!r}")


def catalog_entries() -> list[dict]:
    """Listing metadata for every catalog key (family counts symbolic)."""
    rows = []
    for key, system in _CATALOG.items():
        a, b = system.count
        simple = SimpleRootSet(key, key, system.vectors(2))   # a family's rank at any n
        count = f"{a}n+{b}" if a and b else f"{a}n" if a else str(b)
        rows.append({"key": key, "rank": simple.rank, "backend": simple.backend,
                     "family": system.family, "count": count})
    return rows


def display_name(key: str, n: Optional[int]) -> str:
    return _CATALOG[key].name.format(n=n) or key


def binary_group_name(name: str, n: Optional[int] = None) -> str:
    """The binary group of a 2D/3D source: C2n, Dic n, Q8, 2T, 2O or 2I."""
    key, n = parse_name(name, n)
    group = _CATALOG[key].group
    if group is None:
        raise ValueError(f"{key} is not a 2D/3D catalog system")
    return group(n) if callable(group) else group


def expected_root_count(key: str, n: Optional[int] = None) -> int:
    a, b = _CATALOG[key].count
    return a * n + b if a else b


def catalog(name: str, n: Optional[int] = None, backend: Optional[str] = None) -> SimpleRootSet:
    """Return the catalog simple-root set, optionally forced to the float backend.

    One object per system and backend, the backend it has, so each Gram is
    formed once: naming a set's own backend returns the set itself.
    """
    key, n = parse_name(name, n)
    if _CATALOG[key].family:
        if n is None:
            raise UnknownSystemError(f"{key} needs a family parameter n >= 2")
        if n < 2:
            raise UnknownSystemError(f"family parameter n={n} must be >= 2")
    simple = _catalog_set(key, n, False)
    if backend in (None, simple.backend):
        return simple
    if backend == "float":
        return _catalog_set(key, n, True)
    if backend == "exact":
        raise UnknownSystemError(f"{simple.name} has no exact representation")
    raise UnknownSystemError(f"unknown backend {backend!r}")


@lru_cache(maxsize=None)
def _catalog_set(key: str, n: Optional[int], to_float: bool) -> SimpleRootSet:
    system = _CATALOG[key]
    vectors = system.vectors(n)
    if to_float:
        vectors = tuple(tuple(float(c) for c in v) for v in vectors)
    simple = SimpleRootSet(name=display_name(key, n), key=key, vectors=vectors, n=n,
                           default_word=system.word)
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
    order = canonical_order(row_floats(num, den, simple.field))
    return RootSystem(name=simple.name, num=read_only(num[order]), den=den, field=simple.field)


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
    mult = field_matrix(a_num, simple.field).transpose(0, 2, 1, 3).reshape(k, k)
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
    to_cartesian = field_matrix(s_num, simple.field).transpose(0, 2, 1, 3).reshape(k, dim * d)
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


# typed: a float n misses its integer's entry, so ``parse_name`` rejects it
@lru_cache(maxsize=None, typed=True)
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
    dots = row_floats(*simple.gram, simple.field).tolist()
    for i in range(simple.rank):
        for j in range(i + 1, simple.rank):
            c = max(-1.0, min(1.0, dots[i][j]))
            phi = math.acos(c)
            m = None
            for k in range(1, ROTATION_CAP + 1):
                t = k * phi / math.pi
                if abs(t - round(t)) < INT_TOL and round(t) >= 1:
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


def _direction_keys(num: np.ndarray, field: Field) -> list:
    """Per row of ``field``, a key that parallel rows share: the row divided by
    its first nonzero coordinate, exactly on exact rows, by ``row_keys`` on
    float rows."""
    floats = num.dtype.kind == "f"
    nonzero = (np.abs(num[..., 0]) > 10.0 ** -KEY_DECIMALS if floats
               else (num != 0).any(axis=2))
    zero = np.flatnonzero(~nonzero.any(axis=1))
    if len(zero):
        raise ValueError(f"vector {zero[0]} is zero; a root system has no zero vector")
    pivots = num[np.arange(len(num)), nonzero.argmax(axis=1)]     # (n, d)
    if floats:
        return row_keys(num[..., 0] / pivots)
    # the rows x / p share one denominator, so their numerators are the keys
    return row_keys(field_quotients(num, pivots[:, None], field)[0].reshape(len(num), -1))


def validate_root_system(num: np.ndarray, field: Field, max_samples: int = 16
                         ) -> ValidationReport:
    """Check the two root-system axioms on numerator rows (n, dim, d) of
    ``field``, a root set's ``num`` or ``quad_numerators`` of coordinates,
    comparing rows by ``row_keys``; violations are data, not errors.  The
    axioms do not see the rows' common denominator."""
    if not len(num):
        return ValidationReport((), (), (), 0)
    flat = num.reshape(len(num), -1)
    keys, neg_keys = row_keys(flat), row_keys(-flat)
    present = set(keys)
    missing = tuple(i for i, k in enumerate(neg_keys) if k not in present)
    by_direction: dict = {}
    for i, key in enumerate(_direction_keys(num, field)):
        by_direction.setdefault(key, []).append(i)
    parallel = tuple(tuple(ids) for ids in by_direction.values()
                     if len(ids) > 2 or (len(ids) == 2 and neg_keys[ids[0]] != keys[ids[1]]))
    refl = _reflection_violations(num, field, max_samples)
    return ValidationReport(missing, parallel, tuple(refl), len(num))


def _reflection_violations(num: np.ndarray, field: Field, max_samples: int) -> list:
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
    gram = _gram(num, field)
    length_keys = row_keys(gram[np.arange(n), np.arange(n)])
    mult = field_matrix(num, field).transpose(0, 2, 1, 3).reshape(n, d, k)
    reflect = np.concatenate([np.broadcast_to(np.eye(k, dtype=mult.dtype), (n, k, k)),
                              -2 * mult], axis=1)                       # (n, k + d, k)
    scaled_roots: dict = {}   # (a|a) Phi per squared length: its rows and their keys
    out = []
    for i in range(n):
        if length_keys[i] not in scaled_roots:
            scaled = exact_matmul(num, field_matrix(gram[i, i], field)).reshape(n, k)
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
