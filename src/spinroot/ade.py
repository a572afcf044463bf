"""ADE root data, Coxeter numbers, and the rotation-triple -> diagram map.

The simply-laced families use their standard integer-coordinate simple roots
(A_n and D_n in coordinate hyperplanes/spaces, E6/E7/E8 inside R^8).  Coxeter
numbers are the order of `coxplane.coxeter_matrix` of the simple roots, never
hard-coded; root counts come from the orbit of the simple roots under the
simple reflections, closed exactly on int64 rows of simple-root coordinates
through the integer Cartan matrix.

A rank-2 source contributes a single rotation order n and maps to the path
A_n; a triple (2,2,n) maps to D_{n+2} and (2,3,3)/(2,3,4)/(2,3,5) to E6/E7/E8.
Leg lengths count the central node, so E8 <-> (2,3,5) has 2+3+5-2 = 8 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .coxplane import coxeter_matrix, matrix_order, springer_identities
from .induction import induced_name, spin_group
from .mckay import (
    DEFAULT_SEED,
    character_table,
    conjugacy_classes,
    match_affine_ade,
    mckay_graph,
    spinor_character,
)
from .rootsys import (
    ClosureCapError,
    binary_group_name,
    catalog,
    orbit,
    parse_name,
    root_system,
    rotation_orders,
)
from .scalars import read_only, row_keys

RANK_CAP = 24
ROOT_CAP = 2000             # most roots _closure closes before giving up
# I2(n)'s McKay route lands on A_{2n-1}, so n may not exceed this
N_MAX = (RANK_CAP + 1) // 2


class CorrespondenceError(RuntimeError):
    """A row of the three-way report breaks |roots| = sum(dims) = h."""


@dataclass(frozen=True)
class DynkinDiagram:
    name: str
    nodes: int
    edges: tuple[tuple[int, int], ...]


@dataclass
class ADERootData:
    """One ADE system's data, shared by every caller: its arrays are read-only."""

    name: str
    rank: int
    simple: np.ndarray                 # rank x ambient-dim simple roots
    h: int
    _roots: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        read_only(self.simple)

    def roots(self) -> np.ndarray:
        if self._roots is None:
            self._roots = read_only(_closure(self.simple))
        return self._roots


def _simple_roots(kind: str, n: Optional[int]) -> np.ndarray:
    if kind == "A":
        if not 1 <= n <= RANK_CAP:
            raise ValueError(f"A_n rank {n} outside 1..{RANK_CAP}")
        roots = np.zeros((n, n + 1))
        for i in range(n):
            roots[i, i] = 1.0
            roots[i, i + 1] = -1.0
        return roots
    if kind == "D":
        if not 2 <= n <= RANK_CAP:
            raise ValueError(f"D_n rank {n} outside 2..{RANK_CAP}")
        roots = np.zeros((n, n))
        for i in range(n - 1):
            roots[i, i] = 1.0
            roots[i, i + 1] = -1.0
        roots[n - 1, n - 2] = 1.0
        roots[n - 1, n - 1] = 1.0
        return roots
    if kind == "E":
        if n not in (6, 7, 8):
            raise ValueError("E-type rank must be 6, 7 or 8")
        roots = np.zeros((8, 8))
        roots[0, :] = [0.5, -0.5, -0.5, -0.5, -0.5, -0.5, -0.5, 0.5]
        roots[1, 0] = roots[1, 1] = 1.0
        for i in range(2, 8):
            roots[i, i - 2] = -1.0
            roots[i, i - 1] = 1.0
        return roots[:n]
    raise ValueError(f"unknown ADE kind {kind!r}")


def _closure(simple: np.ndarray) -> np.ndarray:
    """Roots of a simply-laced system, closed in simple-root coordinates.

    Its Cartan matrix A is integral, so the coefficient rows close exactly on
    int64 under s_i(c) = c - (c @ A)_i e_i; the roots are their product with
    the simple rows.
    """
    rank = len(simple)
    gram = simple @ simple.T
    cartan = (2 * gram / np.diag(gram)).astype(np.int64)   # A[j, i] = 2 (a_j|a_i) / (a_i|a_i)
    diag = np.arange(rank)

    def step(rows: np.ndarray) -> np.ndarray:
        images = np.repeat(rows, rank, axis=0).reshape(len(rows), rank, rank)
        images[:, diag, diag] -= rows @ cartan
        return images.reshape(-1, rank)

    try:
        coeffs = orbit(np.eye(rank, dtype=np.int64), step, row_keys, ROOT_CAP)
    except ClosureCapError as exc:
        raise ValueError("root closure exceeded cap") from exc
    return coeffs @ simple


def ade_root_data(kind: str, n: Optional[int] = None) -> ADERootData:
    """Simple roots and computed Coxeter number for A_n / D_n / E6 / E7 / E8.

    Every spelling of one system ("E8", "e8", ("E", 8)) reads one object; an
    n that contradicts the name raises."""
    kind = kind.upper()
    if kind in ("E6", "E7", "E8"):
        if n is not None and n != int(kind[1]):
            raise ValueError(f"conflicting n={n} for {kind}")
        kind, n = "E", int(kind[1])
    if n is None:
        raise ValueError("family rank n required")
    return _ade_root_data(kind, n)


@lru_cache(maxsize=None)
def _ade_root_data(kind: str, n: int) -> ADERootData:
    simple = _simple_roots(kind, n)
    name = f"{kind}{n}"
    # every reflection fixes the orthocomplement of the root span pointwise,
    # so the product has finite order as a matrix on the whole ambient space
    return ADERootData(name=name, rank=simple.shape[0], simple=simple,
                       h=matrix_order(coxeter_matrix(simple)))


def _path_diagram(n: int) -> DynkinDiagram:
    return DynkinDiagram(name=f"A{n}", nodes=n, edges=tuple((i, i + 1) for i in range(n - 1)))


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


def _leg_diagram(name: str, legs: Sequence[int]) -> DynkinDiagram:
    edges = tuple(_leg_edges(sorted(legs)))
    return DynkinDiagram(name=name, nodes=len(edges) + 1, edges=edges)


def triple_to_diagram(orders: Union[int, Sequence[int]]) -> DynkinDiagram:
    """Rotation order(s) of a rank-2/3 system to its simply-laced diagram."""
    if isinstance(orders, int):
        return _path_diagram(orders)
    t = tuple(sorted(orders))
    if len(t) != 3:
        raise ValueError(f"expected a single order or a triple, got {orders}")
    p, q, r = t
    if p == 2 and q == 2:
        return _leg_diagram(f"D{r + 2}", (2, 2, r))
    if (p, q) == (2, 3) and r in (3, 4, 5):
        return _leg_diagram(f"E{r + 3}", (2, 3, r))
    raise ValueError(f"triple {t} is not in the ADE list")


def diagram_dot(diagram: DynkinDiagram) -> str:
    lines = [f"graph {diagram.name} {{"]
    for i in range(diagram.nodes):
        lines.append(f"  n{i};")
    for i, j in diagram.edges:
        lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- the three-way report -----------------------------------------------------------


@dataclass(frozen=True)
class CorrespondenceRow:
    source: str
    root_count: int
    induced: str
    group: str
    group_order: int
    class_count: int
    sum_dims: int
    affine: str
    ade_core: str
    ade_h: int
    direct_diagram: str
    equalities_ok: bool
    note: str = ""


def affine_core(name: str) -> str:
    """Non-affine diagram underlying an affine name: A~7 -> A7."""
    return name.replace("~", "", 1)


def _ade_h_of(core: str) -> int:
    kind = core[0]
    n = int(core[1:])
    return ade_root_data(kind, n).h


def correspondence_row(name: str, n: Optional[int] = None,
                       seed: int = DEFAULT_SEED) -> CorrespondenceRow:
    key, n = parse_name(name, n)
    simple = catalog(key, n)
    count = root_system(key, n).count
    induced = induced_name(key, n)
    G = spin_group(key, n)
    classes = conjugacy_classes(G)
    table = character_table(G, classes, seed=seed)
    graph = mckay_graph(table, spinor_character(G, classes))
    affine = match_affine_ade(graph)
    core = affine_core(affine)
    h = _ade_h_of(core)
    orders = rotation_orders(simple)
    direct = triple_to_diagram(orders)
    sum_dims = int(sum(table.dims))
    ok = count == sum_dims == h
    notes = []
    if key == "A1xI2" and n == 2:
        notes.append("n=2 coincidence: source = A1^3, group = Q8, D~4 has triality")
    if key == "I2":
        notes.append(f"direct map gives {direct.name}, McKay route gives {affine}")
    return CorrespondenceRow(
        source=simple.name, root_count=count, induced=induced,
        group=binary_group_name(key, n), group_order=G.order,
        class_count=classes.count, sum_dims=sum_dims, affine=affine,
        ade_core=core, ade_h=h, direct_diagram=direct.name,
        equalities_ok=ok, note="; ".join(notes),
    )


def correspondence_report(n_max: int = N_MAX, seed: int = DEFAULT_SEED
                          ) -> list[CorrespondenceRow]:
    """Full three-way table: 2D/3D sources, induced systems, groups, ADE data."""
    if n_max > N_MAX:
        raise ValueError(f"n_max capped at {N_MAX}")
    rows = []
    for n in range(2, n_max + 1):
        rows.append(correspondence_row("I2", n, seed=seed))
    for n in range(2, n_max + 1):
        rows.append(correspondence_row("A1xI2", n, seed=seed))
    for name in ("A3", "B3", "H3"):
        rows.append(correspondence_row(name, seed=seed))
    bad = [r.source for r in rows if not r.equalities_ok]
    if bad:
        raise CorrespondenceError(f"|roots| = sum(dims) = h fails for {bad}")
    return rows


def springer_suite(n_max: int = N_MAX):
    """Order-decomposition identities for every 2D/3D catalog system."""
    reports = [springer_identities(name) for name in ("A3", "B3", "H3", "A1^3")]
    for n in range(2, n_max + 1):
        reports.append(springer_identities("I2", n))
        reports.append(springer_identities("A1xI2", n))
    return reports
