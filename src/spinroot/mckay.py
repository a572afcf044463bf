"""Character tables of the unit-versor groups and their McKay graphs.

Characters come from the class-matrix (Burnside) method: the structure
constants of class sums give k commuting integer matrices whose simultaneous
eigenvectors, normalized at the identity class, are the rows of the character
table.  A random real combination with the documented default seed separates
the eigenspaces; every integer quantity downstream (dimensions, tensor
multiplicities, affine marks) is validated by its rounding residual.

Tensoring each irreducible with the 2-dimensional spinor representation
(character: twice the scalar part of a class representative) yields the McKay
graph, matched against the affine A/D/E diagram templates by brute-force
isomorphism with degree and label pruning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .induction import VersorGroup

#: default RNG seed for the class-matrix combination (any seed must agree)
DEFAULT_SEED = 1729

INT_TOL = 1e-6
ORTHO_TOL = 1e-6


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


def character_table(G: VersorGroup, classes: Optional[ClassData] = None,
                    seed: int = DEFAULT_SEED, max_redraws: int = 16,
                    mats: Optional[np.ndarray] = None) -> CharacterTable:
    if classes is None:
        classes = conjugacy_classes(G)
    if mats is None:
        mats = class_matrices(G, classes)
    k = classes.count
    sizes = np.array(classes.sizes, dtype=float)
    rng = np.random.default_rng(seed)
    vecs = None
    for _ in range(max_redraws):
        t = rng.standard_normal(k)
        A = np.tensordot(t, mats, axes=1)
        vals, V = np.linalg.eig(A)
        i, j = np.triu_indices(k, 1)
        sep = np.abs(vals[i] - vals[j]).min() if k > 1 else 1.0
        if sep > 1e-8:
            vecs = V
            break
    if vecs is None:
        raise CharacterError("eigenvalues kept colliding; group data suspect")
    order = G.order
    rows = []
    dims = []
    for i in range(k):
        w = vecs[:, i]
        if abs(w[0]) < 1e-12:
            raise CharacterError("eigenvector vanishes at the identity class")
        w = w / w[0]
        # w[t] = |C_t| chi(t) / d; orthogonality fixes the dimension d
        denom = float(np.sum(np.abs(w) ** 2 / sizes))
        d = math.sqrt(order / denom)
        rd = round(d)
        if abs(d - rd) > INT_TOL or rd < 1:
            raise CharacterError(f"non-integer irreducible dimension {d}")
        chi = rd * w / sizes
        rows.append(chi)
        dims.append(int(rd))
    chars = np.array(rows)
    # canonical row order; + 0.0 turns -0.0 into 0.0
    real = (np.round(chars.real, 6) + 0.0).tolist()
    imag = (np.round(chars.imag, 6) + 0.0).tolist()
    key = sorted(range(k), key=lambda i: (dims[i], tuple(zip(real[i], imag[i]))))
    chars = chars[key]
    dims = tuple(dims[i] for i in key)
    table = CharacterTable(chars=chars, dims=dims, sizes=classes.sizes, order=order)
    _validate_table(table)
    return table


def _validate_table(table: CharacterTable):
    k = len(table.dims)
    sizes = np.array(table.sizes, dtype=float)
    gram = (table.chars * sizes) @ table.chars.conj().T / table.order
    if not np.allclose(gram, np.eye(k), atol=ORTHO_TOL):
        raise CharacterError("row orthogonality fails")
    col = table.chars.conj().T @ table.chars  # |G|/|C_s| on the diagonal
    want = np.diag(table.order / sizes)
    if not np.allclose(col, want, atol=ORTHO_TOL * table.order):
        raise CharacterError("column orthogonality fails")
    if sum(d * d for d in table.dims) != table.order:
        raise CharacterError("sum of squared dimensions != group order")


def spinor_character(G: VersorGroup, classes: Optional[ClassData] = None,
                     tol: float = 1e-9) -> np.ndarray:
    """Trace of the 2D spinor representation: twice the scalar part, per class."""
    if G.parity != "spin":
        raise ValueError("spinor character needs a spin group")
    if classes is None:
        classes = conjugacy_classes(G)
    out = []
    for members in classes.classes:
        vals = [2.0 * float(G.elements[m].scalar_part()) for m in members]
        if max(vals) - min(vals) > tol:
            raise CharacterError("scalar part is not constant on a class")
        out.append(vals[0])
    return np.array(out)


def mckay_graph(table: CharacterTable, chi_R: np.ndarray) -> McKayGraph:
    """Multiplicities of irreducibles in (2D spinor) x (irreducible)."""
    sizes = np.array(table.sizes, dtype=float)
    A = (table.chars * (sizes * chi_R)) @ table.chars.conj().T / table.order
    if np.abs(A.imag).max() > INT_TOL:
        raise CharacterError("complex tensor multiplicity")
    A = A.real
    R = np.rint(A)
    if np.abs(A - R).max() > INT_TOL:
        raise CharacterError("non-integer tensor multiplicity")
    R = R.astype(int)
    if (R < 0).any() or (R != R.T).any():
        raise CharacterError("multiplicity matrix not symmetric nonnegative")
    return McKayGraph(labels=table.dims, adjacency=R)


# -- affine templates and matching ------------------------------------------------


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


def _leg_adjacency(legs: Sequence[int]) -> np.ndarray:
    edges = _leg_edges(legs)
    adj = np.zeros((len(edges) + 1, len(edges) + 1), dtype=int)
    for i, j in edges:
        adj[i, j] = adj[j, i] = 1
    return adj


def _cycle_adjacency(n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=int)
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1
    return adj


def _affine_d_adjacency(k: int) -> np.ndarray:
    # k+1 nodes: a path of k-3 middle nodes with a fork of two tips at each end
    mid = k - 3
    adj = np.zeros((k + 1, k + 1), dtype=int)
    path = list(range(mid))
    for a, b in zip(path, path[1:]):
        adj[a, b] = adj[b, a] = 1
    for tip in (mid, mid + 1):
        adj[tip, 0] = adj[0, tip] = 1
    for tip in (mid + 2, mid + 3):
        adj[tip, mid - 1] = adj[mid - 1, tip] = 1
    return adj


def affine_marks(adj: np.ndarray) -> tuple[int, ...]:
    """Positive integer null vector of 2I - A, normalized to minimum 1."""
    n = adj.shape[0]
    w, v = np.linalg.eigh(2.0 * np.eye(n) - adj)
    if abs(w[0]) > 1e-9:
        raise MatchError("not an affine diagram: 2I - A is nonsingular")
    x = v[:, 0]
    if x[int(np.argmax(np.abs(x)))] < 0:
        x = -x
    x = x / x.min()
    marks = np.rint(x)
    if np.abs(x - marks).max() > 1e-6:
        raise MatchError("marks are not integral")
    return tuple(int(m) for m in marks)


@lru_cache(maxsize=None)
def affine_template(name: str) -> tuple[np.ndarray, tuple[int, ...]]:
    kind = name[0]
    if kind == "A":
        k = int(name[2:])
        if k < 2:
            raise MatchError("affine A~k needs k >= 2 (no multi-edges here)")
        adj = _cycle_adjacency(k + 1)
    elif kind == "D":
        k = int(name[2:])
        if k < 4:
            raise MatchError("affine D~k needs k >= 4")
        adj = _affine_d_adjacency(k)
    elif name == "E~6":
        adj = _leg_adjacency((3, 3, 3))
    elif name == "E~7":
        adj = _leg_adjacency((2, 4, 4))
    elif name == "E~8":
        adj = _leg_adjacency((2, 3, 6))
    else:
        raise MatchError(f"unknown affine template {name!r}")
    adj.setflags(write=False)
    return adj, affine_marks(adj)


def _find_labeled_isomorphism(adjA: np.ndarray, labA: Sequence[int],
                              adjB: np.ndarray, labB: Sequence[int]):
    """Backtracking graph isomorphism that must also match node labels.

    Nodes are mapped in connected (BFS) order so every placement after the
    first is pinned down by an already-mapped neighbour; without this, cycles
    with uniform labels backtrack factorially.
    """
    n = adjA.shape[0]
    if adjB.shape[0] != n:
        return None
    degA = adjA.sum(axis=1)
    degB = adjB.sum(axis=1)
    if sorted(degA) != sorted(degB) or sorted(labA) != sorted(labB):
        return None
    profA = sorted(zip(degA, labA))
    profB = sorted(zip(degB, labB))
    if profA != profB:
        return None
    order = []
    seen = set()
    for seed in sorted(range(n), key=lambda i: (-degA[i], labA[i])):
        if seed in seen:
            continue
        seen.add(seed)
        queue = [seed]
        while queue:
            u = queue.pop(0)
            order.append(u)
            for v in range(n):
                if adjA[u, v] and v not in seen:
                    seen.add(v)
                    queue.append(v)
    mapping = [-1] * n
    used = [False] * n

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        a = order[pos]
        for b in range(n):
            if used[b] or degA[a] != degB[b] or labA[a] != labB[b]:
                continue
            ok = True
            for a2 in range(n):
                m = mapping[a2]
                if m >= 0 and adjA[a, a2] != adjB[b, m]:
                    ok = False
                    break
            if ok:
                mapping[a] = b
                used[b] = True
                if extend(pos + 1):
                    return True
                mapping[a] = -1
                used[b] = False
        return False

    return list(mapping) if extend(0) else None


def match_affine_ade(graph: McKayGraph) -> str:
    """Name of the affine ADE diagram isomorphic to the McKay graph.

    Labels (irreducible dimensions) must land on the affine marks.
    """
    n = graph.adjacency.shape[0]
    if n > 32:
        raise MatchError("graph too large for the template catalog")
    if graph.adjacency.max() > 1:
        raise MatchError("multi-edges not covered by the template catalog")
    candidates = [f"A~{n - 1}"] if n >= 3 else []
    if n >= 5:
        candidates.append(f"D~{n - 1}")
    if n == 7:
        candidates.append("E~6")
    if n == 8:
        candidates.append("E~7")
    if n == 9:
        candidates.append("E~8")
    for name in candidates:
        adj, marks = affine_template(name)
        if _find_labeled_isomorphism(graph.adjacency, graph.labels, adj, marks):
            return name
    raise MatchError("no affine ADE template matches")


def affine_core(name: str) -> str:
    """Non-affine diagram underlying an affine name: A~7 -> A7."""
    return name.replace("~", "", 1)


# -- serialization ------------------------------------------------------------------


def character_table_csv(table: CharacterTable) -> str:
    def fmt(z: complex) -> str:
        re = f"{z.real:.10g}"
        im = z.imag
        if abs(im) < 1e-10:
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
