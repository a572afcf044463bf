"""Character tables of the unit-versor groups and their McKay graphs.

Characters come from the class-matrix (Burnside) method: the structure
constants of class sums give k commuting integer matrices whose simultaneous
eigenvectors, normalized at the identity class, are the rows of the character
table.  A random real combination with the documented default seed separates
the eigenspaces (Dixon 1967); every integer quantity downstream (dimensions,
tensor multiplicities, affine marks) is validated by its rounding residual.
The combination's coefficients are dyadic draws of the stdlib ``random.Random``
of the seed, so every combination is an exact float64 sum and the combinations
of all the seeds come from one weighted bincount.  The tables of many seeds come
from one stacked eigenproblem, held as one complex stack whatever each seed's
spectrum, their rows ordered by one sort, and their McKay graphs from one
stacked product; each table equals the one its seed gives alone, and its
characters are complex.  Each seed's draws are consecutive slices of one
stream, drawn once per seed and kept for the groups that follow.

A group's classes are formed once and held by the group, in its ``held`` by
``rootsys.hold``, and read off its Cayley table (a read-only int array) in one
gather: the least conjugate of each element names its class.  The class
matrices themselves are never formed: each draw's combination is read
straight off the Cayley table, |G| k cells per draw, and formed anew on each
call.

Tensoring each irreducible with the 2-dimensional spinor representation
(character: twice the scalar part of a class representative) yields the McKay
graph.  A connected graph whose labels are a positive null vector of 2I - A
with smallest entry 1 is affine A/D/E with those labels as its marks, so the
diagram is named by its node count and largest mark, without a search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .clifford import coefficient_floats
from .induction import VersorGroup
from .rootsys import components, hold
from .scalars import (CSV_ZERO_TOL, EIG_SEP_TOL, INT_TOL, KEY_DECIMALS, NOISE_TOL, ORTHO_RTOL,
                      ORTHO_TOL, PIVOT_TOL)

#: default RNG seed for the class-matrix combination (any seed must agree)
DEFAULT_SEED = 1729
#: a draw is (getrandbits(DRAW_BITS + 1) - 2**DRAW_BITS) / 2**DRAW_BITS, dyadic in
#: [-1, 1): k of them times class matrices with entries at most |G| sum exactly
#: in float64 while k * 2**DRAW_BITS * |G| < 2**53
DRAW_BITS = 20

#: draws per seed before colliding eigenvalues count as bad group data
MAX_REDRAWS = 16
#: seeds whose draw streams stay cached (seeds come from users and sweeps)
DRAW_STREAMS = 64
#: largest group the McKay layer takes, a bound on time: its classes gather
#: |G|**2 conjugates and its table solves one eig of size k, k = |G| for the
#: cyclic spin groups of I2(n); I2(120), |G| = 240, is the largest allowed
MCKAY_CAP = 240


class CharacterError(RuntimeError):
    pass


class McKayCapError(RuntimeError):
    pass


class MatchError(ValueError):
    pass


@dataclass(frozen=True)
class ClassData:
    classes: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]
    representatives: tuple[int, ...]
    element_class: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class CharacterTable:
    chars: np.ndarray              # k x k complex, rows = irreducibles
    dims: tuple[int, ...]
    sizes: tuple[int, ...]
    order: int


@dataclass(frozen=True)
class McKayGraph:
    labels: tuple[int, ...]        # irreducible dimensions per node
    adjacency: np.ndarray          # symmetric nonnegative integers


def conjugacy_classes(G: VersorGroup) -> ClassData:
    """The classes of G, formed once and held by the group."""
    if G.order > MCKAY_CAP:
        raise McKayCapError(f"{G.name} has {G.order} elements; the McKay layer "
                            f"takes groups of at most {MCKAY_CAP}")
    return hold(G, "classes", _conjugacy_classes)


def _conjugacy_classes(G: VersorGroup) -> ClassData:
    cay = G.cayley
    inv = G.inverse_indices
    n = G.order
    # the least conjugate h g h^-1 of each g names its class; a stable sort
    # by it lists the classes by their least element, each in index order
    least = cay[cay, np.array(inv)[:, None]].min(axis=0)
    members = np.argsort(least, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(least[members])) + 1).tolist(), n]
    members = members.tolist()
    classes = [tuple(members[a:b]) for a, b in zip(cuts, cuts[1:])]
    e = G.identity_index
    ident = next(c for c in classes if c == (e,))
    rest = sorted((c for c in classes if c != ident), key=lambda c: (len(c), c))
    classes = [ident] + rest
    element_class = [0] * n
    for ci, c in enumerate(classes):
        for x in c:
            element_class[x] = ci
    return ClassData(
        classes=tuple(classes),
        sizes=tuple(len(c) for c in classes),
        representatives=tuple(c[0] for c in classes),
        element_class=tuple(element_class),
    )


def class_matrices(G: VersorGroup, classes: ClassData, draws: np.ndarray) -> np.ndarray:
    """sum_r t_r C_r, (S, k, k) floats, for each row t of the draws (S, k), with
    C_r[s, t] = #{(x, y) in C_r x C_s : x*y = rep_t} the class matrices.

    Each x and rep_t fix y = x^-1 rep_t, so each x adds its class's draw to
    cell (class(y), t): one weighted bincount over the whole stack.  Every
    partial sum is a multiple of 2**-DRAW_BITS below |G|, exact in any order.
    """
    k = classes.count
    cls_of = np.array(classes.element_class)
    # y[x, t] = x^-1 rep_t, read from the Cayley rows of the inverses
    y = G.cayley[np.ix_(G.inverse_indices, classes.representatives)]
    cells = cls_of[y] * k + np.arange(k)
    stack = np.arange(len(draws))[:, None, None] * k * k + cells
    weights = np.broadcast_to(draws[:, cls_of, None], stack.shape)
    sums = np.bincount(stack.ravel(), weights.ravel(), minlength=len(draws) * k * k)
    return sums.reshape(-1, k, k)


def character_tables(G: VersorGroup, classes: Optional[ClassData] = None,
                     seeds: Sequence[int] = (DEFAULT_SEED,)) -> list[CharacterTable]:
    """One character table per seed, all the seeds' eigenproblems solved in one
    stacked `np.linalg.eig`.

    Each seed draws its combination from its own ``random.Random(seed)`` and
    only a seed whose eigenvalues collide draws again, so every table equals
    the one that seed gives alone.  Every table's ``chars`` are complex128,
    real spectra included.  Seeds are nonnegative: ``random.Random``
    would take -s for s.
    """
    if min(seeds, default=0) < 0:
        raise ValueError(f"seed must be nonnegative, got {min(seeds)}")
    if classes is None:
        classes = conjugacy_classes(G)
    if not len(seeds):
        return []
    tables = _tables_from_eigenvectors(
        _eigenvectors(G, classes, seeds), classes, G.order)
    _validate_tables(tables)
    return tables


def character_table(G: VersorGroup, classes: Optional[ClassData] = None,
                    seed: int = DEFAULT_SEED) -> CharacterTable:
    return character_tables(G, classes, (seed,))[0]


def _eigenvectors(G: VersorGroup, classes: ClassData, seeds: Sequence[int]) -> np.ndarray:
    """Eigenvectors (as columns) of sum_r t_r C_r for each seed's draw t, one
    complex (S, k, k) stack.

    Draw d of a seed is the slice [d k, (d + 1) k) of its stream of dyadic
    draws.  Each combination is an exact sum of integers times 2**-DRAW_BITS,
    so one ``class_matrices`` call over the draws of all pending seeds gives
    each seed's combination bit for bit, in any summation order.  Each seed's
    vectors are those `np.linalg.eig` gives for its combination, cast to complex.
    """
    k = classes.count
    i, j = np.nonzero(~np.tri(k, dtype=bool))      # the pairs i < j, as np.triu_indices lists them
    streams = [_draw_stream(seed) for seed in seeds]
    vecs = np.empty((len(seeds), k, k), dtype=complex)
    pending = np.arange(len(seeds))
    for draw in range(MAX_REDRAWS):
        t = np.stack([streams[s].take(draw * k, (draw + 1) * k) for s in pending])
        vals, V = np.linalg.eig(class_matrices(G, classes, t))
        ok = np.abs(vals[:, i] - vals[:, j]).min(axis=1, initial=np.inf) > EIG_SEP_TOL
        vecs[pending[ok]] = V[ok]
        pending = pending[~ok]
        if not len(pending):
            return vecs
    raise CharacterError("eigenvalues kept colliding; group data suspect")


class _DrawStream:
    """The dyadic draws of ``random.Random(seed)`` in draw order, drawn on
    first need and kept.

    Value m is (n_m - 2**DRAW_BITS) / 2**DRAW_BITS for the m-th
    ``getrandbits(DRAW_BITS + 1)`` call n_m of the generator, so the d-th draw
    of k values for a seed is the slice [d k, (d + 1) k).
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._values = np.empty(0)

    def take(self, start: int, stop: int) -> np.ndarray:
        if stop > len(self._values):
            bits = [self._rng.getrandbits(DRAW_BITS + 1)
                    for _ in range(stop - len(self._values))]
            more = (np.array(bits, dtype=float) - 2.0 ** DRAW_BITS) / 2.0 ** DRAW_BITS
            self._values = np.concatenate([self._values, more])
            self._values.flags.writeable = False
        return self._values[start:stop]


@lru_cache(maxsize=DRAW_STREAMS)
def _draw_stream(seed: int) -> _DrawStream:
    return _DrawStream(seed)


def _tables_from_eigenvectors(vecs: np.ndarray, classes: ClassData,
                              order: int) -> list[CharacterTable]:
    sizes = np.array(classes.sizes, dtype=float)
    # W[b, i, t] = |C_t| chi_i(t) / d_i, eigenvector i of seed b
    W = vecs.transpose(0, 2, 1)
    pivot = W[:, :, :1].copy()
    if (np.abs(pivot) < PIVOT_TOL).any():
        raise CharacterError("eigenvector vanishes at the identity class")
    W /= pivot          # in place, as are the steps to chars: a stack of many seeds is large
    # orthogonality fixes the dimension d
    d = np.sqrt(order / np.sum(np.abs(W) ** 2 / sizes, axis=-1))
    rd = np.rint(d)
    bad = (np.abs(d - rd) > INT_TOL) | (rd < 1)
    if bad.any():
        raise CharacterError(f"non-integer irreducible dimension {d[bad][0]}")
    W *= rd[:, :, None]
    W /= sizes
    chars = W
    # canonical row order: dimension, then the rounded row; + 0.0 turns -0.0 into 0.0
    real = np.round(chars.real, KEY_DECIMALS) + 0.0
    imag = np.round(chars.imag, KEY_DECIMALS) + 0.0
    keys = np.stack([real, imag], axis=-1).reshape(-1, 2 * chars.shape[2])
    dims = rd.astype(int)
    # one stable sort of every table's rows, the table first: ties keep the
    # order each table's own sort gives them
    tables_of = np.repeat(np.arange(len(chars)), chars.shape[1])
    rows = np.lexsort([*keys.T[::-1], dims.ravel(), tables_of]).reshape(dims.shape)
    rows -= chars.shape[1] * np.arange(len(chars))[:, None]
    return [CharacterTable(chars=c[r], dims=tuple(ds[r].tolist()), sizes=classes.sizes,
                           order=order)
            for c, ds, r in zip(chars, dims, rows)]


def _validate_tables(tables: list[CharacterTable]):
    """Orthogonality of the tables of one group in one stacked pass.

    The first bad table in the list raises, its row check before its column check.
    """
    chars = np.stack([t.chars for t in tables])
    order, k = tables[0].order, chars.shape[1]
    sizes = np.array(tables[0].sizes, dtype=float)
    adjoint = chars.conj().transpose(0, 2, 1)
    gram = (chars * sizes) @ adjoint
    gram /= order
    one = np.eye(k)
    rows_ok = (np.abs(gram - one) <= ORTHO_TOL + ORTHO_RTOL * one).all(axis=(1, 2))
    del gram
    col = adjoint @ chars  # |G|/|C_s| on the diagonal
    diag = np.diag(order / sizes)
    cols_ok = (np.abs(col - diag) <= ORTHO_TOL * order + ORTHO_RTOL * diag).all(axis=(1, 2))
    for table, row_ok, col_ok in zip(tables, rows_ok, cols_ok):
        if not row_ok:
            raise CharacterError("row orthogonality fails")
        if not col_ok:
            raise CharacterError("column orthogonality fails")
        if sum(d * d for d in table.dims) != order:
            raise CharacterError("sum of squared dimensions != group order")


def spinor_character(G: VersorGroup, classes: Optional[ClassData] = None) -> np.ndarray:
    """Trace of the 2D spinor representation: twice the scalar part, per class."""
    if G.parity != "spin":
        raise ValueError("spinor character needs a spin group")
    if classes is None:
        classes = conjugacy_classes(G)
    scalars = coefficient_floats(G.rows, G.dim, G.field)[:, 0].tolist()
    out = []
    for members in classes.classes:
        vals = [2.0 * scalars[m] for m in members]
        if max(vals) - min(vals) > NOISE_TOL:
            raise CharacterError("scalar part is not constant on a class")
        out.append(vals[0])
    return np.array(out)


def mckay_graphs(tables: Sequence[CharacterTable], chi_R: np.ndarray) -> list[McKayGraph]:
    """Multiplicities of irreducibles in (2D spinor) x (irreducible), for the
    tables of one group in one stacked product.

    Every multiplicity matrix must be integral, symmetric and nonnegative; the
    first bad table in the list raises, its checks in that order.
    """
    if not tables:
        return []
    chars = np.stack([t.chars for t in tables])
    sizes = np.array(tables[0].sizes, dtype=float)
    A = (chars * (sizes * chi_R)) @ chars.conj().transpose(0, 2, 1) / tables[0].order
    complex_ = np.abs(A.imag).max(axis=(1, 2)) > INT_TOL
    A = A.real
    R = np.rint(A)
    fractional = np.abs(A - R).max(axis=(1, 2)) > INT_TOL
    R = R.astype(int)
    asymmetric = (R < 0).any(axis=(1, 2)) | (R != R.transpose(0, 2, 1)).any(axis=(1, 2))
    for bad_complex, bad_int, bad_sym in zip(complex_, fractional, asymmetric):
        if bad_complex:
            raise CharacterError("complex tensor multiplicity")
        if bad_int:
            raise CharacterError("non-integer tensor multiplicity")
        if bad_sym:
            raise CharacterError("multiplicity matrix not symmetric nonnegative")
    return [McKayGraph(labels=t.dims, adjacency=adj) for t, adj in zip(tables, R)]


def mckay_graph(table: CharacterTable, chi_R: np.ndarray) -> McKayGraph:
    """Multiplicities of irreducibles in (2D spinor) x (irreducible)."""
    return mckay_graphs([table], chi_R)[0]


# -- affine matching -------------------------------------------------------------


#: largest mark -> affine type; A~ and D~ take their rank from the node count
_TYPE_BY_MAX_MARK = {1: "A~{}", 2: "D~{}", 3: "E~6", 4: "E~7", 6: "E~8"}


def match_affine_ade(graph: McKayGraph) -> str:
    """Name of the affine ADE diagram of the McKay graph, with its labels as marks.

    A connected simple graph whose labels d satisfy A d = 2d with min d = 1 is
    affine ADE and d is its vector of marks (McKay 1980; Kac, Infinite-
    dimensional Lie algebras, Thm 4.3); the node count and the largest mark
    then fix the type.
    """
    adj = graph.adjacency
    n = adj.shape[0]
    if adj.max() > 1:
        raise MatchError("multi-edges not covered by the template catalog")
    if np.diag(adj).any():
        raise MatchError("self-loops not covered by the template catalog")
    labels = np.array(graph.labels)
    if len(components(adj)[0]) != 1 or labels.min() != 1 or (adj @ labels != 2 * labels).any():
        raise MatchError("no affine ADE template matches")
    return _TYPE_BY_MAX_MARK[int(labels.max())].format(n - 1)


# -- serialization ------------------------------------------------------------------


def character_table_csv(table: CharacterTable) -> str:
    def fmt(z: complex) -> str:
        re = f"{z.real:.10g}" if abs(z.real) >= CSV_ZERO_TOL else "0"
        im = z.imag
        if abs(im) < CSV_ZERO_TOL:
            return re
        return f"{re}{im:+.10g}i"

    lines = ["class_size," + ",".join(str(s) for s in table.sizes)]
    for d, row in zip(table.dims, table.chars):
        lines.append(f"dim_{d}," + ",".join(fmt(z) for z in row))
    return "\n".join(lines) + "\n"


def mckay_graph_dot(graph: McKayGraph, name: str = "mckay") -> str:
    lines = [f"graph {name} {{"]
    for i, d in enumerate(graph.labels):
        lines.append(f'  n{i} [label="{d}"];')
    for i in range(len(graph.labels)):
        for j in range(i + 1, len(graph.labels)):
            for _ in range(int(graph.adjacency[i, j])):
                lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
