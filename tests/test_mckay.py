import random
import tracemalloc
from dataclasses import replace
from functools import lru_cache
from typing import Sequence

import numpy as np
import pytest

from clifford_reference import group_elements, scalar_part
from spinroot import mckay, verify
from spinroot.ade import _leg_edges
from spinroot.cli import main
from spinroot.induction import even_subgroup, generate_pin_group, spin_group
from spinroot.mckay import (
    CharacterError,
    CharacterTable,
    INT_TOL,
    DRAW_STREAMS,
    MAX_REDRAWS,
    MatchError,
    McKayGraph,
    character_table,
    character_table_csv,
    character_tables,
    _validate_tables,
    class_matrices,
    conjugacy_classes,
    match_affine_ade,
    mckay_graph,
    mckay_graph_dot,
    mckay_graphs,
    spinor_character,
)
from spinroot.rootsys import catalog
from spinroot.scalars import ORTHO_TOL

# -- affine templates: the reference diagrams the matcher must name --------------


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


#: largest |eigenvalue| of 2I - A that counts as the null vector of the marks
KERNEL_TOL = 1e-9


def affine_marks(adj: np.ndarray) -> tuple[int, ...]:
    """Positive integer null vector of 2I - A, normalized to minimum 1."""
    n = adj.shape[0]
    w, v = np.linalg.eigh(2.0 * np.eye(n) - adj)
    if abs(w[0]) > KERNEL_TOL:
        raise MatchError("not an affine diagram: 2I - A is nonsingular")
    x = v[:, 0]
    if x[int(np.argmax(np.abs(x)))] < 0:
        x = -x
    x = x / x.min()
    marks = np.rint(x)
    if np.abs(x - marks).max() > INT_TOL:
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


CLASS_COUNTS = {
    ("A3", None): 7,   # 2T
    ("B3", None): 8,   # 2O
    ("H3", None): 9,   # 2I
}


def test_class_counts_polyhedral():
    for (name, n), k in CLASS_COUNTS.items():
        assert conjugacy_classes(spin_group(name, n)).count == k


def test_class_counts_families():
    for n in range(2, 13):
        assert conjugacy_classes(spin_group("I2", n)).count == 2 * n
        assert conjugacy_classes(spin_group("A1xI2", n)).count == n + 3


def test_class_structure():
    G = spin_group("B3")
    classes = conjugacy_classes(G)
    assert sum(classes.sizes) == G.order
    assert classes.classes[0] == (G.identity_index,)
    # inverse-class map, read off the element classes, is an involution
    inverse_class = [classes.element_class[G.inverse_indices[c[0]]] for c in classes.classes]
    for ci, inv_ci in enumerate(inverse_class):
        assert inverse_class[inv_ci] == ci


def test_character_dims_2T():
    table = character_table(spin_group("A3"))
    assert table.dims == (1, 1, 1, 2, 2, 2, 3)
    assert sum(table.dims) == 12
    assert sum(d * d for d in table.dims) == 24


def test_character_dims_2I():
    table = character_table(spin_group("H3"))
    assert sum(table.dims) == 30
    assert sum(d * d for d in table.dims) == 120


def test_cyclic_groups_all_linear():
    table = character_table(spin_group("I2", 3))  # C6
    assert table.dims == (1,) * 6


def test_row_and_column_orthogonality():
    for name, n in [("A3", None), ("H3", None), ("A1xI2", 4)]:
        G = spin_group(name, n)
        classes = conjugacy_classes(G)
        table = character_table(G, classes)
        k = classes.count
        sizes = np.array(table.sizes, float)
        gram = (table.chars * sizes) @ table.chars.conj().T / G.order
        assert np.allclose(gram, np.eye(k), atol=1e-6)
        # column orthogonality: sum_i chi_i(c) conj(chi_i(c')) = |G|/|c| delta
        for s in range(k):
            for t in range(k):
                val = np.sum(table.chars[:, s] * np.conj(table.chars[:, t]))
                want = G.order / sizes[s] if s == t else 0.0
                assert abs(val - want) < 1e-6


def test_dims_divide_group_order():
    for name, n in [("A3", None), ("B3", None), ("H3", None), ("A1xI2", 6)]:
        G = spin_group(name, n)
        for d in character_table(G).dims:
            assert G.order % d == 0


def test_spinor_character_values():
    G = spin_group("H3")
    classes = conjugacy_classes(G)
    chi = spinor_character(G, classes)
    assert chi[0] == 2.0  # identity
    assert min(chi) == -2.0  # the central element -1
    tau = (1 + 5 ** 0.5) / 2
    vals = sorted(round(float(v), 6) for v in chi)
    for v in (round(tau, 6), round(-tau, 6), round(tau - 1, 6), round(1 - tau, 6)):
        assert v in vals


def test_spinor_character_is_the_scalar_part_bitwise():
    # read off the rows, float or exact, it is twice the Multivector scalar
    # part of each class's first element, bit for bit
    groups = [spin_group(name) for name in ("A1^3", "A3", "B3", "H3")]
    groups += [spin_group(family, n) for family in ("I2", "A1xI2") for n in range(2, 17)]
    for G in groups:
        classes = conjugacy_classes(G)
        want = [2 * float(scalar_part(group_elements(G)[members[0]])) for members in classes.classes]
        got = spinor_character(G, classes).tolist()
        assert [x.hex() for x in got] == [x.hex() for x in want], G.name


def test_spinor_character_needs_spin():
    from spinroot.induction import pin_group

    with pytest.raises(ValueError):
        spinor_character(pin_group("A3"))


def test_spinor_character_is_an_irreducible_row():
    # the 2D spinor representation is itself irreducible for the binary
    # polyhedral and dicyclic groups, so its character is a table row; for
    # cyclic groups it splits into two linear characters and is not one
    for name, n in [("A3", None), ("B3", None), ("H3", None), ("A1xI2", 4)]:
        G = spin_group(name, n)
        classes = conjugacy_classes(G)
        table = character_table(G, classes)
        chi = spinor_character(G, classes)
        assert any(np.allclose(row, chi, atol=1e-8) for row in table.chars)
    G = spin_group("I2", 5)
    classes = conjugacy_classes(G)
    table = character_table(G, classes)
    chi = spinor_character(G, classes)
    assert not any(np.allclose(row, chi, atol=1e-8) for row in table.chars)


def test_mckay_graphs_match_affine_templates():
    fixtures = [("A3", None, "E~6"), ("B3", None, "E~7"), ("H3", None, "E~8"),
                ("I2", 4, "A~7"), ("A1xI2", 3, "D~5"), ("A1xI2", 2, "D~4"),
                ("I2", 17, "A~33"), ("A1xI2", 30, "D~32")]
    for name, n, want in fixtures:
        G = spin_group(name, n)
        classes = conjugacy_classes(G)
        table = character_table(G, classes)
        graph = mckay_graph(table, spinor_character(G, classes))
        assert match_affine_ade(graph) == want


def test_mckay_graph_is_cycle_for_cyclic_groups():
    G = spin_group("I2", 5)  # C10
    table = character_table(G)
    graph = mckay_graph(table, spinor_character(G))
    degrees = graph.adjacency.sum(axis=1)
    assert set(degrees) == {2}
    assert match_affine_ade(graph) == "A~9"


def test_marks_in_adjacency_kernel():
    for name, n in [("A3", None), ("B3", None), ("H3", None), ("A1xI2", 7)]:
        G = spin_group(name, n)
        table = character_table(G)
        graph = mckay_graph(table, spinor_character(G))
        lab = np.array(graph.labels, float)
        assert np.abs(2 * lab - graph.adjacency @ lab).max() < 1e-6


def test_character_columns_are_adjacency_eigenvectors():
    G = spin_group("B3")
    classes = conjugacy_classes(G)
    table = character_table(G, classes)
    chi = spinor_character(G, classes)
    graph = mckay_graph(table, chi)
    for t in range(classes.count):
        col = table.chars[:, t]
        assert np.abs(graph.adjacency @ col - chi[t] * col).max() < 1e-6


def test_seed_independence():
    G = spin_group("A1xI2", 5)
    classes = conjugacy_classes(G)
    tables = [character_table(G, classes, seed=s) for s in range(12)]
    for t in tables[1:]:
        assert t.dims == tables[0].dims
        assert np.allclose(t.chars, tables[0].chars, atol=1e-8)


def test_character_tables_equal_single_seed_tables():
    # one stacked eigenproblem of 32 seeds gives every seed the table it gives
    # alone, bit for bit, and complex: Q8 (as Spin(A1^3) and Spin(A1xI2(2))),
    # 2O, 2I and Dic n with n even have real spectra only
    for name, n in [("A1^3", None), ("A3", None), ("B3", None), ("H3", None), ("I2", 12),
                    *(("A1xI2", n) for n in range(2, 13, 2))]:
        G = spin_group(name, n)
        classes = conjugacy_classes(G)
        tables = list(character_tables(G, classes, range(32)))
        assert len(tables) == 32
        for seed, table in enumerate(tables):
            single = character_table(G, classes, seed=seed)
            assert table.chars.dtype == single.chars.dtype == np.complex128, (name, n, seed)
            assert table.chars.tobytes() == single.chars.tobytes()
            assert (table.dims, table.sizes, table.order) == \
                (single.dims, single.sizes, single.order)


def _reference_draws(rng: random.Random, k: int) -> np.ndarray:
    """The next k combination coefficients of a generator: 21 random bits
    centred on 2**20, over 2**20."""
    return np.array([(rng.getrandbits(21) - 2 ** 20) / 2 ** 20 for _ in range(k)])


def test_draw_d_of_size_k_is_the_next_k_dyadic_draws():
    # draw d of k values from a seed's stream is its generator's next k draws,
    # whatever sizes other groups drew before
    for seed in (0, 7, 1729, 2 ** 31 - 1):
        for k in range(1, 31):
            rng = random.Random(seed)
            for d in range(MAX_REDRAWS):
                draw = mckay._draw_stream(seed).take(d * k, (d + 1) * k)
                assert draw.tobytes() == _reference_draws(rng, k).tobytes()


#: the groups of criterion 9
MCKAY_GROUPS = [("A3", None), ("B3", None), ("H3", None)] + [
    (key, n) for key in ("I2", "A1xI2") for n in range(2, 13)]


def test_stacked_combinations_are_each_seeds_own_product(monkeypatch):
    # every coefficient is a multiple of 2**-DRAW_BITS of size at most 1, and
    # the class matrices are integers at most |G|: every partial sum of a
    # combination is exact, so the one stacked combination of all the seeds
    # gives each seed's own draw @ flat bit for bit
    stacks = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda A: stacks.append(A.copy()) or eig(A))
    for name, n in MCKAY_GROUPS:
        G = spin_group(name, n)
        classes = conjugacy_classes(G)
        mats = reference_class_matrices(G, classes)
        k = len(mats)
        assert k * 2 ** mckay.DRAW_BITS * int(mats.max()) < 2 ** 53, (name, n)
        flat = mats.reshape(k, -1).astype(float)
        want = [_reference_draws(random.Random(seed), k) @ flat
                for seed in range(verify.MCKAY_SEEDS)]
        stacks.clear()
        mckay._eigenvectors(G, classes, range(verify.MCKAY_SEEDS))
        assert stacks[0].shape == (verify.MCKAY_SEEDS, k, k)
        assert [A.tobytes() for A in stacks[0]] == [w.tobytes() for w in want], (name, n)


def _reference_eigenvectors(mats: np.ndarray, seeds) -> tuple[list, int]:
    """``_eigenvectors`` with one generator per seed drawing each combination
    anew and solving it alone, its vectors cast to complex, and the number of
    redraws it made."""
    k = mats.shape[0]
    i, j = np.triu_indices(k, 1)
    flat = mats.reshape(k, -1).astype(float)
    out, redraws = [], 0
    for seed in seeds:
        rng = random.Random(seed)
        for _ in range(MAX_REDRAWS):
            vals, V = np.linalg.eig((_reference_draws(rng, k) @ flat).reshape(1, k, k))
            if np.abs(vals[0, i] - vals[0, j]).min(initial=np.inf) > mckay.EIG_SEP_TOL:
                out.append(V[0].astype(complex))
                break
            redraws += 1
        else:
            raise CharacterError("reference draws kept colliding")
    return out, redraws


def test_redraws_continue_each_seeds_generator(monkeypatch):
    # a separation demand above the median gap makes seeds draw again, some
    # several times
    G = spin_group("A3")
    classes = conjugacy_classes(G)
    monkeypatch.setattr(mckay, "EIG_SEP_TOL", 0.7)
    want, redraws = _reference_eigenvectors(reference_class_matrices(G, classes), range(32))
    assert redraws > 32
    got = mckay._eigenvectors(G, classes, range(32))
    assert got.shape == (32, classes.count, classes.count) and got.dtype == complex
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def test_colliding_draws_raise_after_max_redraws(monkeypatch):
    monkeypatch.setattr(mckay, "class_matrices",
                        lambda G, classes, draws: np.zeros((len(draws), classes.count,
                                                            classes.count)))
    G = spin_group("A1^3")
    with pytest.raises(CharacterError, match="kept colliding"):
        mckay._eigenvectors(G, conjugacy_classes(G), range(3))


def test_draw_streams_are_bounded():
    # seeds come from --seed and from random 31-bit sweep seeds
    assert mckay._draw_stream.cache_info().maxsize == DRAW_STREAMS
    for seed in range(2 ** 31 - 2 * DRAW_STREAMS, 2 ** 31):
        mckay._draw_stream(seed).take(0, 3)
    assert mckay._draw_stream.cache_info().currsize == DRAW_STREAMS


def test_negative_seeds_are_rejected():
    # random.Random(-s) would draw as s
    G = spin_group("A3")
    with pytest.raises(ValueError, match="nonnegative"):
        character_tables(G, seeds=[3, -1])
    with pytest.raises(ValueError, match="nonnegative"):
        character_table(G, seed=-1729)


def test_batch_validation_raises_for_the_first_bad_table():
    G = spin_group("A3")
    good = list(character_tables(G, seeds=range(3)))
    scaled = good[1].chars.copy()
    scaled[-1] *= 2          # breaks both orthogonality relations
    bad_rows = replace(good[1], chars=scaled)
    bad_dims = replace(good[2], dims=(1,) + good[2].dims[1:-1] + (2,))
    _validate_tables(good)
    with pytest.raises(CharacterError, match="row orthogonality"):
        _validate_tables([good[0], bad_rows, bad_dims])
    with pytest.raises(CharacterError, match="sum of squared dimensions"):
        _validate_tables([good[0], bad_dims, bad_rows])


def _mckay_verdict(G, table, chi):
    """Reference verdict of one table: its own McKay graph and affine match."""
    graph = mckay_graph(table, chi)
    return (
        len(table.dims),
        table.dims,
        sum(d * d for d in table.dims) == G.order,
        sum(table.dims),
        match_affine_ade(graph),
    )


def test_mckay_verdicts_equal_per_table_reference():
    # criterion 9's stacked graphs and once-per-graph matching give the verdict
    # set that building and matching each seed's table on its own gives
    for name, n in MCKAY_GROUPS:
        G = spin_group(name, n)
        classes = conjugacy_classes(G)
        chi = spinor_character(G, classes)
        want = {_mckay_verdict(G, character_table(G, classes, seed=seed), chi)
                for seed in range(verify.MCKAY_SEEDS)}
        assert verify.mckay_verdicts(G, classes) == want, (name, n)
    assert len(MCKAY_GROUPS) == 25


def test_stacked_mckay_graphs_check_every_table():
    G = spin_group("A3")
    tables = character_tables(G, seeds=range(3))
    chi = spinor_character(G, conjugacy_classes(G))
    graphs = mckay_graphs(tables, chi)
    for table, graph in zip(tables, graphs):
        single = mckay_graph(table, chi)
        assert graph.labels == single.labels
        assert (graph.adjacency == single.adjacency).all()
    scaled = tables[1].chars.copy()
    scaled[-1] *= 1.5        # multiplicities stop being integers
    with pytest.raises(CharacterError, match="non-integer tensor multiplicity"):
        mckay_graphs([tables[0], replace(tables[1], chars=scaled), tables[2]], chi)


def test_affine_templates_and_marks():
    adj, marks = affine_template("E~8")
    assert adj.shape == (9, 9)
    assert sorted(marks) == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    assert sum(marks) == 30
    adj, marks = affine_template("D~4")
    assert sorted(marks) == [1, 1, 1, 1, 2]
    adj, marks = affine_template("A~5")
    assert marks == (1,) * 6
    assert affine_marks(adj) == marks
    with pytest.raises(MatchError):
        affine_template("A~1")


def test_match_rejects_wrong_labels():
    adj, marks = affine_template("E~6")
    wrong = McKayGraph(labels=tuple([9] * 7), adjacency=adj.copy())
    with pytest.raises(MatchError):
        match_affine_ade(wrong)


def test_match_rejects_unknown_graph():
    adj = np.zeros((6, 6), dtype=int)
    for i in range(5):
        adj[i, i + 1] = adj[i + 1, i] = 1  # a plain path is not affine
    with pytest.raises(MatchError):
        match_affine_ade(McKayGraph(labels=(1,) * 6, adjacency=adj))


def _graph(n, edges, labels):
    adj = np.zeros((n, n), dtype=int)
    for i, j in edges:
        adj[i, j] = adj[j, i] = 1
    return McKayGraph(labels=tuple(labels), adjacency=adj)


@pytest.mark.parametrize("graph", [
    # each satisfies A d = 2d, but is disconnected, has min label 2, or has loops
    _graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], [1] * 6),
    _graph(6, [(i, (i + 1) % 6) for i in range(6)], [2] * 6),
    _graph(2, [(0, 0), (1, 1), (0, 1)], [1, 1]),
], ids=["two-triangles", "cycle-labels-2", "self-loops"])
def test_match_rejects_non_affine_graphs(graph):
    with pytest.raises(MatchError):
        match_affine_ade(graph)


def test_templates_classify_as_themselves():
    rng = np.random.default_rng(0)
    names = [f"A~{k}" for k in range(2, 41)] + [f"D~{k}" for k in range(4, 41)]
    for name in names + ["E~6", "E~7", "E~8"]:
        adj, marks = affine_template(name)
        assert match_affine_ade(McKayGraph(labels=marks, adjacency=adj.copy())) == name
        perm = rng.permutation(len(marks))
        shuffled = McKayGraph(labels=tuple(np.array(marks)[perm].tolist()),
                              adjacency=adj[np.ix_(perm, perm)])
        assert match_affine_ade(shuffled) == name


def test_serialization():
    G = spin_group("A3")
    classes = conjugacy_classes(G)
    table = character_table(G, classes)
    csv = character_table_csv(table)
    assert csv.startswith("class_size,")
    assert len(csv.strip().split("\n")) == classes.count + 1
    graph = mckay_graph(table, spinor_character(G, classes))
    dot = mckay_graph_dot(graph)
    assert dot.count("--") == graph.adjacency.sum() // 2


def test_csv_prints_noise_as_zero():
    # real and imaginary parts below CSV_ZERO_TOL do not show, so the CSV does
    # not depend on the last bits of a draw
    table = CharacterTable(chars=np.array([[1.0, -3.3e-15 + 2e-16j, 0.5 - 0.25j],
                                           [-0.0, 2e-11 - 1e-11j, -9e-11 + 2.0j],
                                           [1 - 1e-15, -1e-10, 1e-10j]]),
                           dims=(1, 1, 1), sizes=(1, 1, 1), order=3)
    assert character_table_csv(table).splitlines()[1:] == [
        "dim_1,1,0,0.5-0.25i",
        "dim_1,0,0,0+2i",
        "dim_1,1,-1e-10,0+1e-10i",
    ]
    G = spin_group("A3")
    for seed in range(8):
        assert "e-" not in character_table_csv(character_table(G, seed=seed))


def test_mckay_cap_stops_before_the_cayley_table(monkeypatch, capsys):
    # past MCKAY_CAP elements the McKay layer raises before it builds anything
    # of |G|**2 size; the CLI exits 1, as for a closure past its cap
    monkeypatch.setattr(mckay, "MCKAY_CAP", 24)
    assert main(["mckay", "A3"]) == 0
    assert '"order": 24' in capsys.readouterr().out
    G = even_subgroup(generate_pin_group(catalog("H3")))
    with pytest.raises(mckay.McKayCapError, match="120 elements.*at most 24"):
        conjugacy_classes(G)
    assert G._cayley is None
    assert main(["mckay", "H3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at most 24" in err
    assert issubclass(mckay.McKayCapError, RuntimeError)


def test_mckay_cap_admits_i2_120():
    # I2(120), whose cyclic spin group has 240 elements, is the largest I2 allowed
    assert mckay.MCKAY_CAP == 240 == spin_group("I2", 120).order


#: every 2D/3D source's spin group: criterion 9's 25 and I2, A1xI2 for n = 13..16
ALL_GROUPS = [("A1^3", None)] + MCKAY_GROUPS + [
    (key, n) for key in ("I2", "A1xI2") for n in range(13, 17)]


def reference_class_matrices(G, classes) -> np.ndarray:
    """c[r, s, t] = #{(x, y) in C_r x C_s : x*y = rep_t}, one count at a time."""
    cay = G.cayley
    inv = G.inverse_indices
    k = classes.count
    mats = np.zeros((k, k, k), dtype=np.int64)
    for r, members in enumerate(classes.classes):
        for x in members:
            row = cay[inv[x]]
            for t, z in enumerate(classes.representatives):
                mats[r, classes.element_class[row[z]], t] += 1
    return mats


def test_class_matrices_equal_the_triple_loop():
    # the combination of the unit draws is each class matrix, and the
    # combination of the draws of seeds 0..31, first draw and redraws, is
    # draw @ flat of the triple loop's tensor bit for bit
    assert len(ALL_GROUPS) == 34
    for name, n in ALL_GROUPS:
        G = spin_group(name, n)
        classes = conjugacy_classes(G)
        mats = reference_class_matrices(G, classes)
        k = len(mats)
        flat = mats.reshape(k, -1).astype(float)
        assert class_matrices(G, classes, np.eye(k)).tobytes() == flat.tobytes(), (name, n)
        for draw in (0, 1, MAX_REDRAWS - 1):
            t = np.stack([mckay._draw_stream(seed).take(draw * k, (draw + 1) * k)
                          for seed in range(32)])
            got = class_matrices(G, classes, t)
            assert got.shape == (32, k, k) and got.dtype == float, (name, n)
            assert got.tobytes() == (t @ flat).tobytes(), (name, n, draw)


def test_classes_are_held_by_the_group():
    G = even_subgroup(generate_pin_group(catalog("B3")))
    assert G.held == {}
    classes = conjugacy_classes(G)
    assert conjugacy_classes(G) is classes
    assert list(G.held.values()) == [classes] and G.held["classes"] is classes
    # the combination is formed anew on every call, for the draws of that call
    t = np.ones((1, classes.count))
    assert class_matrices(G, classes, t) is not class_matrices(G, classes, t)


def test_character_table_of_i2_120_stays_small():
    # the combinations hold S |G| k cells, not the k**3 class tensor: one
    # table of the 240-element cyclic group peaks far below the 213.6 MiB
    # of its tensor and that tensor's float copy
    G = spin_group("I2", 120)
    classes = conjugacy_classes(G)
    tracemalloc.start()
    try:
        character_table(G, classes, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def orbit_loop_classes(G) -> list:
    """The classes as the former ``_conjugacy_classes`` found them, before
    ordering: the conjugates of each element not yet seen, on the Cayley table
    as lists."""
    cay, inv = G.cayley.tolist(), G.inverse_indices
    seen = [False] * G.order
    classes = []
    for g in range(G.order):
        if not seen[g]:
            orbit = sorted({cay[cay[h][g]][inv[h]] for h in range(G.order)})
            for x in orbit:
                seen[x] = True
            classes.append(tuple(orbit))
    return classes


def test_classes_equal_the_orbit_loop():
    for name, n in ALL_GROUPS:
        G = spin_group(name, n)
        classes = orbit_loop_classes(G)
        ident = (G.identity_index,)
        want = [ident] + sorted((c for c in classes if c != ident), key=lambda c: (len(c), c))
        assert list(mckay._conjugacy_classes(G).classes) == want, (name, n)


def isclose_verdicts(tables) -> list:
    """The orthogonality verdicts of the former ``_validate_tables``, by ``np.isclose``."""
    chars = np.stack([t.chars for t in tables])
    order, k = tables[0].order, chars.shape[1]
    sizes = np.array(tables[0].sizes, dtype=float)
    adjoint = chars.conj().transpose(0, 2, 1)
    gram = (chars * sizes) @ adjoint / order
    rows_ok = np.isclose(gram, np.eye(k), atol=ORTHO_TOL).all(axis=(1, 2))
    cols_ok = np.isclose(adjoint @ chars, np.diag(order / sizes),
                         atol=ORTHO_TOL * order).all(axis=(1, 2))
    return [None if r and c else "row" if not r else "column"
            for r, c in zip(rows_ok, cols_ok)]


def test_validation_verdicts_equal_isclose():
    # tables perturbed around the tolerances, with one row scaled near the
    # relative tolerance, and by nan and inf, one at a time
    rng = np.random.default_rng(29)
    seen = set()
    for name, n in [("A3", None), ("H3", None), ("I2", 7), ("A1xI2", 6)]:
        G = spin_group(name, n)
        table = character_table(G)
        for trial in range(300):
            chars = table.chars
            scale = 10.0 ** rng.uniform(-9, -3)
            chars = chars + scale * (rng.normal(size=chars.shape)
                                     + 1j * rng.normal(size=chars.shape))
            if trial % 3 == 0:
                chars[rng.integers(len(chars))] *= 1 + 10.0 ** rng.uniform(-7, -4)
            if trial % 50 == 0:
                chars[rng.integers(len(chars)), rng.integers(len(chars))] = (
                    np.nan if trial % 100 else np.inf)
            bad = replace(table, chars=chars)
            with np.errstate(invalid="ignore", over="ignore"):
                want = isclose_verdicts([bad])[0]
                seen.add(want)
                if want is None:
                    _validate_tables([bad])
                else:
                    with pytest.raises(CharacterError, match=f"{want} orthogonality fails"):
                        _validate_tables([bad])
    assert seen == {None, "row", "column"}


def test_empty_stacks_give_empty_results():
    G = spin_group("I2", 5)
    assert character_tables(G, seeds=[]) == []
    assert mckay_graphs([], spinor_character(G)) == []
