"""Character tables of the unit-versor groups and their McKay graphs.

Characters come from the class-matrix (Burnside) method: the structure
constants of class sums give k commuting integer matrices whose simultaneous
eigenvectors, normalized at the identity class, are the rows of the character
table.  A random real combination with the documented default seed separates
the eigenspaces; every integer quantity downstream (dimensions, tensor
multiplicities, affine marks) is validated by its rounding residual.  The
tables of many seeds come from one stacked eigenproblem, and their McKay
graphs from one stacked product; each table equals the one its seed gives
alone.

Tensoring each irreducible with the 2-dimensional spinor representation
(character: twice the scalar part of a class representative) yields the McKay
graph.  A connected graph whose labels are a positive null vector of 2I - A
with smallest entry 1 is affine A/D/E with those labels as its marks, so the
diagram is named by its node count and largest mark, without a search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .induction import VersorGroup, _row_values

#: default RNG seed for the class-matrix combination (any seed must agree)
DEFAULT_SEED = 1729

INT_TOL = 1e-6
ORTHO_TOL = 1e-6
#: smallest gap between the eigenvalues of a draw that separates the eigenspaces
EIG_SEP_TOL = 1e-8
#: an eigenvector smaller than this at the identity class cannot be normalized
PIVOT_TOL = 1e-12
#: draws per seed before colliding eigenvalues count as bad group data
MAX_REDRAWS = 16
#: spread of twice the scalar part allowed within one conjugacy class
CLASS_SCALAR_TOL = 1e-9
#: imaginary parts below this print as real in the character-table CSV
CSV_IMAG_TOL = 1e-10


class CharacterError(RuntimeError):
    pass


class MatchError(ValueError):
    pass


@dataclass(frozen=True)
class ClassData:
    classes: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]
    representatives: tuple[int, ...]
    inverse_class: tuple[int, ...]
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
    cay = G.cayley
    inv = G.inverse_indices
    n = G.order
    seen = [False] * n
    classes = []
    for g in range(n):
        if seen[g]:
            continue
        orbit = sorted({cay[cay[h][g]][inv[h]] for h in range(n)})
        for x in orbit:
            seen[x] = True
        classes.append(tuple(orbit))
    e = G.identity_index
    ident = next(c for c in classes if c == (e,))
    rest = sorted((c for c in classes if c != ident), key=lambda c: (len(c), c))
    classes = [ident] + rest
    element_class = [0] * n
    for ci, c in enumerate(classes):
        for x in c:
            element_class[x] = ci
    inverse_class = tuple(element_class[inv[c[0]]] for c in classes)
    return ClassData(
        classes=tuple(classes),
        sizes=tuple(len(c) for c in classes),
        representatives=tuple(c[0] for c in classes),
        inverse_class=inverse_class,
        element_class=tuple(element_class),
    )


def class_matrices(G: VersorGroup, classes: ClassData) -> np.ndarray:
    """Structure constants c[r, s, t] = #{(x, y) in C_r x C_s : x*y = rep_t}."""
    cay = G.cayley
    inv = G.inverse_indices
    k = classes.count
    cls_of = classes.element_class
    mats = np.zeros((k, k, k), dtype=np.int64)
    for r, members in enumerate(classes.classes):
        for x in members:
            xi = inv[x]
            row = cay[xi]
            for t, z in enumerate(classes.representatives):
                mats[r, cls_of[row[z]], t] += 1
    return mats


def character_tables(G: VersorGroup, classes: Optional[ClassData] = None,
                     seeds: Sequence[int] = (DEFAULT_SEED,),
                     mats: Optional[np.ndarray] = None) -> list[CharacterTable]:
    """One character table per seed, all the seeds' eigenproblems solved in one
    stacked `np.linalg.eig`.

    Each seed draws its combination from its own `default_rng(seed)` and only
    a seed whose eigenvalues collide draws again, so every table equals the one
    that seed gives alone.
    """
    if classes is None:
        classes = conjugacy_classes(G)
    if mats is None:
        mats = class_matrices(G, classes)
    tables = _tables_from_eigenvectors(_eigenvectors(mats, seeds), classes, G.order)
    _validate_tables(tables)
    return tables


def character_table(G: VersorGroup, classes: Optional[ClassData] = None,
                    seed: int = DEFAULT_SEED,
                    mats: Optional[np.ndarray] = None) -> CharacterTable:
    return character_tables(G, classes, (seed,), mats)[0]


def _eigenvectors(mats: np.ndarray, seeds: Sequence[int]) -> list:
    """Eigenvectors (as columns) of sum_r t_r mats[r] for each seed's draw t.

    As in a single `np.linalg.eig` call, a seed whose eigenvalues are all real
    gets real eigenvectors.
    """
    k = mats.shape[0]
    i, j = np.triu_indices(k, 1)
    flat = mats.reshape(k, -1).astype(float)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    vecs = [None] * len(seeds)
    pending = list(range(len(seeds)))
    for _ in range(MAX_REDRAWS):
        # one vector-matrix product per draw: a stacked product would sum in
        # another order and move the eigenvectors by an ulp
        A = np.stack([rngs[s].standard_normal(k) @ flat for s in pending]).reshape(-1, k, k)
        vals, V = np.linalg.eig(A)
        sep = np.abs(vals[:, i] - vals[:, j]).min(axis=1, initial=np.inf)
        for s, ok, w, v in zip(pending, sep > EIG_SEP_TOL, vals, V):
            if ok:
                vecs[s] = v if w.imag.any() else v.real
        pending = [s for s in pending if vecs[s] is None]
        if not pending:
            return vecs
    raise CharacterError("eigenvalues kept colliding; group data suspect")


def _tables_from_eigenvectors(vecs: list, classes: ClassData,
                              order: int) -> list[CharacterTable]:
    if len({v.dtype for v in vecs}) > 1:
        # real and complex spectra in one stack: keep each seed's own dtype
        return [t for v in vecs for t in _tables_from_eigenvectors([v], classes, order)]
    sizes = np.array(classes.sizes, dtype=float)
    # W[b, i, t] = |C_t| chi_i(t) / d_i, eigenvector i of seed b
    W = np.stack(vecs).transpose(0, 2, 1)
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
    real = np.round(chars.real, 6) + 0.0
    imag = np.round(chars.imag, 6) + 0.0
    keys = np.stack([real, imag], axis=-1).reshape(chars.shape[0], chars.shape[1], -1)
    tables = []
    for c, dims, key in zip(chars, rd.astype(int), keys):
        rows = np.lexsort(np.column_stack([dims, key]).T[::-1])
        tables.append(CharacterTable(chars=c[rows], dims=tuple(dims[rows].tolist()),
                                     sizes=classes.sizes, order=order))
    return tables


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
    rows_ok = np.isclose(gram, np.eye(k), atol=ORTHO_TOL).all(axis=(1, 2))
    del gram
    col = adjoint @ chars  # |G|/|C_s| on the diagonal
    cols_ok = np.isclose(col, np.diag(order / sizes), atol=ORTHO_TOL * order).all(axis=(1, 2))
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
    scalars = [float(c[0]) for c in _row_values(G.rows, G.dim)]
    out = []
    for members in classes.classes:
        vals = [2.0 * scalars[m] for m in members]
        if max(vals) - min(vals) > CLASS_SCALAR_TOL:
            raise CharacterError("scalar part is not constant on a class")
        out.append(vals[0])
    return np.array(out)


def mckay_graphs(tables: Sequence[CharacterTable], chi_R: np.ndarray) -> list[McKayGraph]:
    """Multiplicities of irreducibles in (2D spinor) x (irreducible), for the
    tables of one group in one stacked product.

    Every multiplicity matrix must be integral, symmetric and nonnegative; the
    first bad table in the list raises, its checks in that order.
    """
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


def _leg_edges(legs: Sequence[int]) -> list[tuple[int, int]]:
    """Star of paths sharing the central node 0; leg length counts the center.

    Legs are laid out in the given order, each walked outward from the center;
    DOT exports list the edges in this order.  The star is a tree, so it has
    one node more than it has edges.
    """
    edges = []
    node = 1
    for leg in legs:
        prev = 0
        for _ in range(leg - 1):
            edges.append((prev, node))
            prev = node
            node += 1
    return edges


#: largest mark -> affine type; A~ and D~ take their rank from the node count
_TYPE_BY_MAX_MARK = {1: "A~{}", 2: "D~{}", 3: "E~6", 4: "E~7", 6: "E~8"}


def components(adj: np.ndarray) -> list[np.ndarray]:
    """Node masks of the connected components of the graph with an edge wherever
    adj != 0, each found by a frontier walk from its first node."""
    left = np.ones(len(adj), dtype=bool)
    out = []
    while left.any():
        seen = np.zeros(len(adj), dtype=bool)
        seen[np.argmax(left)] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~seen
            seen |= frontier
        out.append(seen)
        left &= ~seen
    return out


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
    if len(components(adj)) != 1 or labels.min() != 1 or (adj @ labels != 2 * labels).any():
        raise MatchError("no affine ADE template matches")
    return _TYPE_BY_MAX_MARK[int(labels.max())].format(n - 1)


def affine_core(name: str) -> str:
    """Non-affine diagram underlying an affine name: A~7 -> A7."""
    return name.replace("~", "", 1)


# -- serialization ------------------------------------------------------------------


def character_table_csv(table: CharacterTable) -> str:
    def fmt(z: complex) -> str:
        re = f"{z.real:.10g}"
        im = z.imag
        if abs(im) < CSV_IMAG_TOL:
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
