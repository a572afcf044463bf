import numpy as np
import pytest

from spinroot import ade
from spinroot.ade import (
    _closure,
    ade_root_data,
    affine_core,
    correspondence_report,
    correspondence_row,
    diagram_dot,
    springer_suite,
    triple_to_diagram,
)


def _adjacency(diagram) -> np.ndarray:
    """The 0/1 adjacency matrix of a Dynkin diagram's edges."""
    adj = np.zeros((diagram.nodes, diagram.nodes), dtype=int)
    for i, j in diagram.edges:
        adj[i, j] = adj[j, i] = 1
    return adj


def _root_count(data) -> int:
    return len(data.roots())


def test_affine_core():
    assert affine_core("E~8") == "E8"


def test_coxeter_numbers_computed():
    assert ade_root_data("E8").h == 30
    assert ade_root_data("E7").h == 18
    assert ade_root_data("E6").h == 12
    for n in range(2, 13):
        assert ade_root_data("A", 2 * n - 1).h == 2 * n
        assert ade_root_data("D", n + 2).h == 2 * (n + 1)


def test_root_counts_are_rank_times_h():
    systems = [("A", n) for n in range(1, 13)]
    systems += [("D", n) for n in range(2, 13)]
    systems += [("E6", None), ("E7", None), ("E8", None)]
    for kind, n in systems:
        d = ade_root_data(kind, n)
        assert _root_count(d) == d.rank * d.h, d.name


def test_e8_has_240_roots():
    assert _root_count(ade_root_data("E8")) == 240


def test_every_spelling_reads_one_record():
    e8 = ade_root_data("E8")
    assert ade_root_data("e8") is e8 and ade_root_data("E", 8) is e8
    assert ade_root_data("E8", 8) is e8
    with pytest.raises(ValueError, match="conflicting n=7 for E6"):
        ade_root_data("E6", 7)


def test_ade_arrays_are_read_only():
    # the record is shared by every caller: no caller writes what a later one reads
    data = ade_root_data("E8")
    for rows in (data.simple, data.roots()):
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 99.0
    assert ade_root_data("E8").roots()[0, 0] != 99.0


def test_closure_cap_raises_value_error(monkeypatch):
    monkeypatch.setattr(ade, "ROOT_CAP", 100)
    with pytest.raises(ValueError, match="exceeded cap"):
        _closure(ade_root_data("E8").simple)


def test_rank_caps():
    with pytest.raises(ValueError):
        ade_root_data("A", 25)
    with pytest.raises(ValueError):
        ade_root_data("E", 5)


def test_triple_map():
    assert triple_to_diagram(7).name == "A7"
    assert triple_to_diagram(7).nodes == 7
    assert triple_to_diagram((2, 2, 4)).name == "D6"
    assert triple_to_diagram((2, 2, 4)).nodes == 6
    assert triple_to_diagram((2, 3, 3)).name == "E6"
    assert triple_to_diagram((2, 3, 4)).name == "E7"
    d = triple_to_diagram((2, 3, 5))
    assert d.name == "E8" and d.nodes == 8  # legs count the central node
    assert triple_to_diagram((2, 2, 2)).name == "D4"


def test_triple_map_order_insensitive():
    from itertools import permutations

    for perm in permutations((2, 3, 5)):
        assert triple_to_diagram(perm).name == "E8"
    for perm in permutations((2, 2, 6)):
        assert triple_to_diagram(perm).name == "D8"


def test_triple_map_rejects_non_ade():
    for bad in ((2, 3, 6), (3, 3, 3), (2, 4, 4), (1, 2, 3)):
        with pytest.raises(ValueError):
            triple_to_diagram(bad)


def test_diagram_edges_form_a_tree():
    d = triple_to_diagram((2, 3, 5))
    assert len(d.edges) == d.nodes - 1
    adj = _adjacency(d)
    degrees = adj.sum(axis=1)
    assert sorted(degrees)[-1] == 3  # one central node


def test_dot_export():
    dot = diagram_dot(triple_to_diagram((2, 2, 3)))
    assert dot.startswith("graph D5")
    assert dot.count("--") == 4


def test_correspondence_rows():
    row = correspondence_row("B3")
    assert (row.root_count, row.induced, row.group, row.sum_dims,
            row.affine, row.ade_core, row.ade_h, row.direct_diagram) == (
        18, "F4", "2O", 18, "E~7", "E7", 18, "E7")
    assert row.equalities_ok

    row = correspondence_row("I2", 5)
    assert row.root_count == row.sum_dims == row.ade_h == 10
    assert row.affine == "A~9"
    assert row.direct_diagram == "A5"  # reported alongside, not reconciled
    assert "A5" in row.note and "A~9" in row.note

    row = correspondence_row("A1xI2", 2)
    assert (row.root_count, row.induced, row.sum_dims, row.affine,
            row.ade_h) == (6, "A1^4", 6, "D~4", 6)
    assert "Q8" in row.note and "triality" in row.note


def test_full_report_equalities():
    rows = correspondence_report(n_max=6)
    assert len(rows) == 2 * 5 + 3
    for row in rows:
        assert row.equalities_ok
        assert row.root_count == row.sum_dims == row.ade_h


def test_direct_map_agrees_with_mckay_core():
    # identical for A1xI2(n) and the rank-3 systems; I2(n) differs by design
    rows = correspondence_report(n_max=5)
    for row in rows:
        if row.source.startswith("I2("):
            assert row.direct_diagram != row.ade_core
        else:
            assert row.direct_diagram == row.ade_core


def test_springer_suite_all_ok():
    for rep in springer_suite(n_max=6):
        assert rep.ok, rep
