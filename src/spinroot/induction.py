"""Pin/spin group generation from 2D/3D simple roots and the induced root sets.

Free multiplication of the (unit) simple roots closes to a finite pin group in
Cl(2) or Cl(3); its even part is the spin group (a binary cyclic, dicyclic or
polyhedral group).  Reading each spinor a0 + a1 e2e3 + a2 e3e1 + a3 e1e2 as
the point (a0, a1, a2, a3) turns the spin group into a root system one
dimension up (rank 2 maps to rank 2 via a + b e1e2 -> (a, b)).

A group is its closure's versor rows, built, read and checked by
``clifford`` (whose docstring gives the layout), sorted once by
``rootsys.canonical_order`` on their floats, so indices, Cayley tables and
everything downstream are deterministic.  An induced set is a ``RootSystem``
named after its spin group, its rows in the group's order: validation,
identification and the spinor character read its numerator rows over one
denominator, and ``vectors`` is a view built on first read.

The pipeline entry points hold their results on the catalog set by
``rootsys.hold``, so every name of one system reads one group, with one
Cayley table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .clifford import (coefficient_floats, common_numerators, grade_parities, identity_row,
                       left_matrices, negated_rows, right_products, unit_rows, vector_rows)
from .rootsys import (
    ClosureCapError,
    RankError,
    RootSystem,
    SimpleRootSet,
    canonical_order,
    catalog,
    catalog_entries,
    display_name,
    expected_root_count,
    hold,
    orbit,
    root_system,
)
from .scalars import (
    KEY_DECIMALS,
    Field,
    exact_matmul,
    int_rows,
    read_only,
    row_floats,
    row_keys,
)

GROUP_CAP = 10_000     # most elements generate_pin_group closes before giving up
CAYLEY_BLOCK = 512     # most products held at once while a Cayley table is built


@dataclass(eq=False)
class VersorGroup:
    """Finite set of unit versors closed under the geometric product, held as
    its versor ``rows`` of ``field`` (``clifford``'s layout).  The Cayley
    table, the inverses and, in ``held``, ``mckay``'s classes are formed once."""

    name: str
    dim: int
    rows: np.ndarray
    parities: tuple[str, ...]
    parity: str                      # "pin" | "spin"
    field: Field
    _cayley: Optional[np.ndarray] = field(default=None, repr=False)
    held: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        read_only(self.rows)

    @property
    def order(self) -> int:
        return len(self.rows)

    def __len__(self) -> int:
        return self.order

    @cached_property
    def identity_index(self) -> int:
        """Index of the identity row, looked up by its ``row_keys`` key once."""
        return row_keys(self.rows).index(row_keys(identity_row(self.rows))[0])

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
            num, den = common_numerators(self.rows)
            index = {key: i for i, key in enumerate(row_keys(den * num))}
            num = int_rows(num)
            step = max(1, CAYLEY_BLOCK // self.order)
            table = np.empty((self.order, self.order), dtype=np.intp)
            for start in range(0, self.order, step):
                products = exact_matmul(num, left_matrices(num[start:start + step], self.dim,
                                                           self.field))
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


def generate_pin_group(simple: SimpleRootSet) -> VersorGroup:
    """Multiplicative closure of the simple root vectors.

    Closed on versor rows by ``right_products`` and sorted once by
    ``canonical_order`` on the rows' coefficient values.
    """
    if simple.rank not in (2, 3):
        raise RankError(f"pin groups are generated from rank-2/3 root systems, "
                        f"not {simple.name} (rank {simple.rank})")
    dim, field = simple.rank, simple.field
    gens = vector_rows(*simple.rows)
    negated = negated_rows(gens)
    # seed with +-a: a and -a encode the same reflection and the double cover
    # contains both (for odd n the word closure of I2(n) alone misses -1)
    seeds = np.stack([gens, negated], axis=1).reshape(2 * len(gens), -1)
    try:
        rows = orbit(seeds, right_products(gens, dim, field), row_keys, GROUP_CAP)
    except ClosureCapError as exc:
        raise ClosureCapError(f"pin closure of {simple.name} exceeded {GROUP_CAP}") from exc
    rows = rows[canonical_order(coefficient_floats(rows, dim, field))]
    odd, even = grade_parities(rows, dim)
    if (odd & even).any():
        raise ValueError("group element without homogeneous parity")
    parities = tuple("odd" if o else "even" for o in odd)
    # unit-versor sanity: V reverse(V) = 1
    if not unit_rows(rows, dim, field).all():
        raise ValueError(f"pin closure of {simple.name} has a non-unit element")
    return VersorGroup(name=f"Pin({simple.name})", dim=dim, rows=rows,
                       parities=parities, parity="pin", field=field)


def even_subgroup(G: VersorGroup) -> VersorGroup:
    """Even-parity elements: the spin (binary polyhedral/cyclic/dicyclic) group."""
    picked = [i for i, p in enumerate(G.parities) if p == "even"]
    return VersorGroup(name=G.name.replace("Pin", "Spin", 1), dim=G.dim, rows=G.rows[picked],
                       parities=("even",) * len(picked), parity="spin", field=G.field)


def spinors_to_4d(G: VersorGroup) -> RootSystem:
    """The spinor coordinates of a spin group, read as points one dimension up,
    in the group's order: a rank-2 group's in 2D, a rank-3 group's in 4D."""
    if G.parity != "spin":
        raise ValueError("induced sets come from spin groups")
    if G.dim not in (2, 3):
        raise ValueError("spinor reinterpretation needs Cl(2) or Cl(3)")
    if grade_parities(G.rows, G.dim)[0].any():
        raise ValueError("odd-grade contamination in spin group")
    num, den = common_numerators(G.rows)
    num = num.reshape(G.order, 1 << G.dim, -1)
    if G.dim == 3:
        # basis (1, e2e3, e3e1, e1e2); e3e1 = -e1e3 flips the stored sign
        num = num[:, [0b000, 0b110, 0b101, 0b011]] * np.array([1, 1, -1, 1])[:, None]
    else:
        num = num[:, [0b00, 0b11]]
    return RootSystem(name=G.name, num=read_only(num), den=den, field=G.field)


# -- identification ------------------------------------------------------------


def fingerprint(num: np.ndarray, den: int, field: Field):
    """Rotation-invariant signature of numerator rows (n, dim, d) of ``field``
    over ``den``: the count n, then the multiset of the n(n-1)/2 pairwise dots
    rounded to KEY_DECIMALS, as its distinct values in ascending order and
    how often each occurs.  It says what the sorted dots say, in a few dozen
    numbers for a catalog system."""
    X = row_floats(num, den, field)
    n = len(X)
    gram = X @ X.T
    values, counts = np.unique(np.round(gram[~np.tri(n, dtype=bool)], KEY_DECIMALS) + 0.0,
                               return_counts=True)   # i < j
    return (n, tuple(values.tolist()), tuple(counts.tolist()))


@lru_cache(maxsize=None)
def _reference_fingerprints(dim: int, count: int):
    """Fingerprints of the catalog systems in `dim` dimensions with `count`
    roots, by catalog key and n.

    A fingerprint starts with its root count, so systems of another size can
    never match; the I2 families therefore need no upper bound on n.  Held for
    the whole process, each holds its distinct dots once, not every pair.
    """
    if dim == 4:
        names = [(e["key"], None) for e in catalog_entries()
                 if e["rank"] == 4 and not e["family"] and expected_root_count(e["key"]) == count]
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
        refs[key, m] = fingerprint(system.num, system.den, system.field)
    return refs


def identify_root_system(S: RootSystem) -> tuple[str, Optional[int]]:
    """The catalog key and n of the one catalog system that S is."""
    fp = fingerprint(S.num, S.den, S.field)
    refs = _reference_fingerprints(S.num.shape[1], fp[0])
    matches = [ref for ref, ref_fp in refs.items() if ref_fp == fp]
    if not matches:
        raise ValueError(f"no catalog root system matches {S.name}")
    if len(matches) > 1:
        raise ValueError(f"ambiguous identification: {[display_name(*m) for m in matches]}")
    return matches[0]


# -- pipeline entry points, held by the catalog set -------------------------------


def pin_group(name: str, n: Optional[int] = None) -> VersorGroup:
    return hold(catalog(name, n), "pin group", generate_pin_group)


def spin_group(name: str, n: Optional[int] = None) -> VersorGroup:
    return hold(catalog(name, n), "spin group",
                lambda simple: even_subgroup(pin_group(simple.key, simple.n)))


def induced_set(name: str, n: Optional[int] = None) -> RootSystem:
    return hold(catalog(name, n), "induced set",
                lambda simple: spinors_to_4d(spin_group(simple.key, simple.n)))


def induced_system(name: str, n: Optional[int] = None) -> tuple[str, Optional[int]]:
    """The catalog key and n of the system the induced set is."""
    return hold(catalog(name, n), "induced system",
                lambda simple: identify_root_system(induced_set(simple.key, simple.n)))


def induced_name(name: str, n: Optional[int] = None) -> str:
    return display_name(*induced_system(name, n))
