"""Pin/spin group generation from 2D/3D simple roots and the induced root sets.

Free multiplication of the (unit) simple roots closes to a finite pin group in
Cl(2) or Cl(3); its even part is the spin group (a binary cyclic, dicyclic or
polyhedral group).  Reading each spinor a0 + a1 e2e3 + a2 e3e1 + a3 e1e2 as
the point (a0, a1, a2, a3) turns the spin group into a root system one
dimension up (rank 2 maps to rank 2 via a + b e1e2 -> (a, b)).

A group is its closure rows, sorted once by ``rootsys.canonical_order`` on
their floats (``scalars.row_floats``), so indices, Cayley tables and
everything downstream are deterministic.  An induced set is numerator rows
over one denominator, as a ``RootSystem`` is: validation, identification and
the spinor character read them, and ``vectors`` is a view built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import lcm
from typing import Optional

import numpy as np

from .clifford import left_matrices, right_products
from .rootsys import (
    ClosureCapError,
    RankError,
    SimpleRootSet,
    canonical_order,
    catalog,
    expected_root_count,
    orbit,
    parse_name,
    root_system,
)
from .scalars import (
    KEY_DECIMALS,
    exact_matmul,
    field_matrix,
    int_rows,
    read_only,
    reduce_rows,
    row_floats,
    row_keys,
    scalar_values,
)

GROUP_CAP = 10_000     # most elements generate_pin_group closes before giving up
CAYLEY_BLOCK = 512     # most products held at once while a Cayley table is built
UNIT_TOL = 1e-9        # | <V reverse(V)>_0 - 1 | allowed for a float pin element


def _vector_rows(num: np.ndarray, den: int) -> np.ndarray:
    """Rows, in the layout of ``_numerator_rows``, of the vectors with the
    coordinate numerators (n, dim, d) over ``den``."""
    n, dim, d = num.shape
    blades = np.zeros((n, 1 << dim, d), dtype=num.dtype)
    blades[:, [1 << i for i in range(dim)]] = num
    return _numerator_rows(blades, den)


def _numerator_rows(num: np.ndarray, den: int) -> np.ndarray:
    """Canonical versor rows of multivectors given as numerators
    (n, 2**dim, d) over ``den``: the representation of the pin closure and of
    the Coxeter versor, on both backends.

    A row is its field numerators, blade-major, followed by one positive
    denominator, the whole row divided by its gcd (``reduce_rows``), so equal
    exact multivectors have equal rows; a float row ends in 1.0.
    """
    rows = np.hstack([num.reshape(len(num), -1), np.full((len(num), 1), den, dtype=num.dtype)])
    return reduce_rows(rows)


def _blade_numerators(rows: np.ndarray, dim: int) -> np.ndarray:
    """The numerators (n, 2**dim, d) of rows in the layout of ``_numerator_rows``."""
    return rows[:, :-1].reshape(len(rows), 1 << dim, (rows.shape[1] - 1) >> dim)


def _coefficient_floats(rows: np.ndarray, dim: int) -> np.ndarray:
    """Float coefficient rows (n, 2**dim) of rows in the layout of
    ``_numerator_rows``, through ``row_floats``."""
    return row_floats(_blade_numerators(rows, dim), rows[:, -1:])


def _common_numerators(rows: np.ndarray, dim: int) -> tuple[np.ndarray, int]:
    """Rows as numerators (n, d * 2**dim) over one denominator, laid out as by
    ``quad_numerators``; exact rows are scaled as Python ints, never int64,
    and float rows are over 1 already."""
    if rows.dtype.kind == "f":
        return rows[:, :-1], 1
    rows = rows.astype(object)
    den = lcm(*rows[:, -1].tolist())
    return rows[:, :-1] * (den // rows[:, -1:]), den


@dataclass(eq=False)
class VersorGroup:
    """Finite set of unit versors closed under the geometric product, held as
    its ``rows`` in the layout of ``_numerator_rows``.  The Cayley table, the
    inverses and ``mckay``'s conjugacy classes are formed once and held."""

    name: str
    dim: int
    rows: np.ndarray
    parities: tuple[str, ...]
    parity: str                      # "pin" | "spin"
    _index: dict = field(init=False, repr=False)
    _cayley: Optional[np.ndarray] = field(default=None, repr=False)
    classes: Optional[object] = field(default=None, init=False, repr=False)  # held by mckay

    def __post_init__(self):
        read_only(self.rows)
        self._index = {key: i for i, key in enumerate(row_keys(self.rows))}

    @property
    def order(self) -> int:
        return len(self.rows)

    def __len__(self) -> int:
        return self.order

    @property
    def identity_index(self) -> int:
        """Index of the identity row: numerator 1 on blade 0 over the denominator 1."""
        one = np.zeros((1, self.rows.shape[1]), dtype=self.rows.dtype)
        one[0, 0] = one[0, -1] = 1
        return self._index[row_keys(one)[0]]

    @property
    def cayley(self) -> np.ndarray:
        """cayley[i, j] = index of elements[i] * elements[j], a read-only int
        array (built lazily).

        A block of rows at a time, on either backend: with elements E as
        numerator rows over D, the products E_i E_j are the rows of E @ L_i
        over D**2, L_i the matrix of left multiplication by E_i
        (``left_matrices``), looked up by ``row_keys`` among the rows of D * E
        (exactly, or rounded on the float backend).  A block holds at most
        CAYLEY_BLOCK products.
        """
        if self._cayley is None:
            num, den = _common_numerators(self.rows, self.dim)
            index = {key: i for i, key in enumerate(row_keys(den * num))}
            num = int_rows(num)
            step = max(1, CAYLEY_BLOCK // self.order)
            table = np.empty((self.order, self.order), dtype=np.intp)
            for start in range(0, self.order, step):
                products = exact_matmul(num, left_matrices(num[start:start + step], self.dim))
                try:
                    found = [index[key] for key in row_keys(products.reshape(-1, num.shape[1]))]
                except KeyError as exc:
                    raise ClosureCapError(f"{self.name}: product escapes the group") from exc
                table[start:start + step] = np.reshape(found, (-1, self.order))
            self._cayley = read_only(table)
        return self._cayley

    @cached_property
    def inverse_indices(self) -> tuple:
        """Per element, the column of its Cayley row that holds the identity,
        found once."""
        return tuple((self.cayley == self.identity_index).argmax(axis=1).tolist())


def _grade_parities(rows: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row: has it a nonzero odd-grade coefficient, has it an even-grade one?"""
    support = (_blade_numerators(rows, dim) != 0).any(axis=2)
    odd_blade = np.array([m.bit_count() % 2 == 1 for m in range(1 << dim)])
    return (support & odd_blade).any(axis=1), (support & ~odd_blade).any(axis=1)


def _unit_rows(rows: np.ndarray, dim: int) -> np.ndarray:
    """Per row: is <V reverse(V)>_0, the sum of the squared coefficients, one?"""
    if rows.dtype.kind == "f":
        return np.abs((rows[:, :-1] ** 2).sum(axis=1) - 1.0) < UNIT_TOL
    n, size = len(rows), 1 << dim
    # [num | den] @ [field_matrix of each blade; -den on basis 1]: the sum over
    # blades of num_b * num_b in the field less den**2, zero on a unit row
    last = np.zeros((n, 1, 4), dtype=rows.dtype)
    last[:, 0, 0] = -rows[:, -1]
    mult = field_matrix(_blade_numerators(rows, dim)).reshape(n, 4 * size, 4)
    excess = exact_matmul(rows[:, None, :], np.concatenate([mult, last], axis=1))
    return (excess == 0).all(axis=(1, 2))


def generate_pin_group(simple: SimpleRootSet) -> VersorGroup:
    """Multiplicative closure of the simple root vectors.

    Closed on ``_numerator_rows`` by ``right_products`` and sorted once by
    ``canonical_order`` on the rows' coefficient values.
    """
    if simple.rank not in (2, 3):
        raise RankError(f"pin groups are generated from rank-2/3 root systems, "
                        f"not {simple.name} (rank {simple.rank})")
    dim = simple.rank
    gens = _vector_rows(*simple.rows)
    negated = np.hstack([-gens[:, :-1], gens[:, -1:]])
    # seed with +-a: a and -a encode the same reflection and the double cover
    # contains both (for odd n the word closure of I2(n) alone misses -1)
    seeds = np.stack([gens, negated], axis=1).reshape(2 * len(gens), -1)
    try:
        rows = orbit(seeds, right_products(gens, dim), row_keys, GROUP_CAP)
    except ClosureCapError as exc:
        raise ClosureCapError(f"pin closure of {simple.name} exceeded {GROUP_CAP}") from exc
    rows = rows[canonical_order(_coefficient_floats(rows, dim))]
    odd, even = _grade_parities(rows, dim)
    if (odd & even).any():
        raise ValueError("group element without homogeneous parity")
    parities = tuple("odd" if o else "even" for o in odd)
    # unit-versor sanity: V reverse(V) = 1
    if not _unit_rows(rows, dim).all():
        raise ValueError(f"pin closure of {simple.name} has a non-unit element")
    return VersorGroup(name=f"Pin({simple.name})", dim=dim, rows=rows,
                       parities=parities, parity="pin")


def even_subgroup(G: VersorGroup) -> VersorGroup:
    """Even-parity elements: the spin (binary polyhedral/cyclic/dicyclic) group."""
    picked = [i for i, p in enumerate(G.parities) if p == "even"]
    return VersorGroup(name=G.name.replace("Pin", "Spin", 1), dim=G.dim, rows=G.rows[picked],
                       parities=("even",) * len(picked), parity="spin")


@dataclass(frozen=True, eq=False)
class Induced4DSet:
    """Spinor coordinates of a spin group, read as points one dimension up:
    numerator rows (count, dim, d) over ``den``, float rows (d = 1) over 1."""

    num: np.ndarray
    den: int
    dim: int
    source_name: str

    @property
    def count(self) -> int:
        return len(self.num)

    @cached_property
    def vectors(self) -> tuple:
        """The coordinates, QuadTowers or floats, built from the rows on first read."""
        return scalar_values(self.num, self.den)


def spinors_to_4d(G: VersorGroup) -> Induced4DSet:
    if G.parity != "spin":
        raise ValueError("induced sets come from spin groups")
    if G.dim not in (2, 3):
        raise ValueError("spinor reinterpretation needs Cl(2) or Cl(3)")
    if _grade_parities(G.rows, G.dim)[0].any():
        raise ValueError("odd-grade contamination in spin group")
    num, den = _common_numerators(G.rows, G.dim)
    num = num.reshape(G.order, 1 << G.dim, -1)
    if G.dim == 3:
        # basis (1, e2e3, e3e1, e1e2); e3e1 = -e1e3 flips the stored sign
        num = num[:, [0b000, 0b110, 0b101, 0b011]] * np.array([1, 1, -1, 1])[:, None]
    else:
        num = num[:, [0b00, 0b11]]
    return Induced4DSet(num=read_only(num), den=den, dim=4 if G.dim == 3 else 2,
                        source_name=G.name)


# -- identification ------------------------------------------------------------


def fingerprint(num: np.ndarray, den: int):
    """Rotation-invariant signature of numerator rows (n, dim, d) over ``den``:
    count + multiset of pairwise dots."""
    X = row_floats(num, den)
    n = len(X)
    gram = X @ X.T
    dots = np.sort(np.round(gram[~np.tri(n, dtype=bool)], KEY_DECIMALS) + 0.0)   # i < j
    return (n, tuple(dots.tolist()))


@lru_cache(maxsize=None)
def _reference_fingerprints(dim: int, count: int):
    """Fingerprints of the catalog systems in `dim` dimensions with `count` roots.

    A fingerprint starts with its root count, so systems of another size can
    never match; the I2 families therefore need no upper bound on n.
    """
    if dim == 4:
        names = [(key, None) for key in ("A1^4", "A4", "B4", "D4", "F4", "H4")
                 if expected_root_count(key) == count]
        # I2(2)xI2(2) IS the A1^4 root system; skip the alias
        if count % 4 == 0 and count // 4 >= 3:
            names.append(("I2xI2", count // 4))
    elif dim == 2:
        names = [("I2", count // 2)] if count % 2 == 0 and count >= 4 else []
    else:
        raise ValueError("identification supports dim 2 and 4")
    refs = {}
    for key, m in names:
        system = root_system(key, m)
        refs[system.name] = fingerprint(system.num, system.den)
    return refs


def identify_root_system(S: Induced4DSet) -> str:
    fp = fingerprint(S.num, S.den)
    refs = _reference_fingerprints(S.dim, fp[0])
    matches = [name for name, ref in refs.items() if ref == fp]
    if not matches:
        raise ValueError(f"no catalog root system matches {S.source_name}")
    if len(matches) > 1:
        raise ValueError(f"ambiguous identification: {matches}")
    return matches[0]


# -- cached pipeline entry points ----------------------------------------------


@lru_cache(maxsize=None)
def pin_group(name: str, n: Optional[int] = None) -> VersorGroup:
    return generate_pin_group(catalog(name, n))


@lru_cache(maxsize=None)
def spin_group(name: str, n: Optional[int] = None) -> VersorGroup:
    return even_subgroup(pin_group(name, n))


@lru_cache(maxsize=None)
def induced_set(name: str, n: Optional[int] = None) -> Induced4DSet:
    return spinors_to_4d(spin_group(name, n))


@lru_cache(maxsize=None)
def induced_name(name: str, n: Optional[int] = None) -> str:
    return identify_root_system(induced_set(name, n))


def binary_group_name(name: str, n: Optional[int] = None) -> str:
    key, n = parse_name(name, n)
    if key == "A3":
        return "2T"
    if key == "B3":
        return "2O"
    if key == "H3":
        return "2I"
    if key == "I2":
        return f"C{2 * n}"
    if key == "A1^3":
        return "Q8"
    if key == "A1xI2":
        return f"Dic{n}" if n != 2 else "Dic2 (= Q8)"
    raise ValueError(f"{key} is not a 2D/3D catalog system")
