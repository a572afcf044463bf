import contextlib
import dataclasses
import io
import itertools
import json
import math
import warnings
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

from clifford_reference import (
    approx_eq,
    basis_vector,
    chain_versor,
    dot,
    exp_bivector,
    multivector_row,
    mv_blade,
    mv_scalar,
    mv_vector,
    mv_zero,
    norm,
    pseudoscalar,
    reference_factorize,
    reference_plane,
    reference_plane_basis,
    reference_plane_from_matrix,
    root_multivectors,
    row_multivector,
    scalar_part,
    to_float,
    vector_coords,
    versor_action,
)
from spinroot import clifford, coxplane
from spinroot.ade import ade_root_data
from spinroot.cli import main
from spinroot.clifford import Multivector, bivector_matrix, vector_rows
from spinroot.coxplane import (
    DegeneratePlaneError,
    FactorizationError,
    bicolor,
    canonical_angle_pair,
    coxeter_data,
    coxeter_matrix,
    coxeter_plane,
    coxeter_plane_for,
    coxeter_versor,
    default_word,
    coxeter_versors,
    exponents_via_matrices,
    exponents_via_matrix,
    factorizations,
    factorize,
    matrix_order,
    pf_eigenvector,
    plane_basis,
    plane_from_matrix,
    planes_from_matrices,
    project_to_plane,
    springer_identities,
    weight_basis,
)
from spinroot.rootsys import SimpleRootSet, cartan_matrix, catalog, components, root_system
from spinroot.scalars import (
    ANGLE_TOL,
    EIGEN_MATCH_TOL,
    NOISE_TOL,
    PF_RESIDUAL,
    QT_ONE,
    QT_ZERO,
    SIGMA,
    TAU,
    QuadTower,
    quad_numerators,
    row_floats,
    scalar_values,
)

PI = math.pi


# -- Coxeter versors and numbers -----------------------------------------------


def blades(mv):
    return {m: c for m, c in mv.nz}


def versor_mv(cd):
    """The Coxeter versor row of ``cd`` as a Multivector."""
    return row_multivector(cd.versor, cd.simple.rank)


def test_d4_versor_fixture():
    W2 = versor_mv(coxeter_data("D4")) * 2
    assert blades(W2) == {
        0b1111: QT_ONE, 0b0110: -QT_ONE, 0b0011: -QT_ONE, 0b0101: QT_ONE,
    }


def test_f4_versor_fixture():
    W4 = versor_mv(coxeter_data("F4")) * 4
    one = QT_ONE
    assert blades(W4) == {
        0: one, 0b0110: one, 0b0101: one, 0b1010: one, 0b1001: -one,
        0b0011: QuadTower(3), 0b1100: one, 0b1111: one,
    }


def test_h4_versor_fixture():
    W4 = versor_mv(coxeter_data("H4")) * 4
    assert blades(W4) == {
        0: TAU, 0b0101: 2 * TAU - 1, 0b1100: SIGMA, 0b0011: -(TAU * TAU),
        0b1010: QT_ONE, 0b1111: -(SIGMA * SIGMA),
    }


def test_a4_versor_fixture():
    W4 = versor_mv(coxeter_data("A4")) * 4
    t1 = TAU - 1
    assert blades(W4) == {
        0: QT_ONE, 0b0110: -QT_ONE, 0b1001: QT_ONE, 0b1100: t1, 0b1010: t1,
        0b0101: -t1, 0b0011: -(TAU + 1), 0b1111: -(2 * TAU - 1),
    }


def test_b4_versor_fixture():
    W = versor_mv(coxeter_data("B4"))
    scale = 4.0 / math.sqrt(2.0)
    got = {m: round(float(c) * scale, 12) for m, c in W.nz}
    assert got == {
        0: 1.0, 0b0110: 1.0, 0b0101: -1.0, 0b1010: 1.0, 0b1001: -1.0,
        0b0011: 1.0, 0b1100: 1.0, 0b1111: 1.0,
    }


def test_i2_versor_is_rotation_exponential():
    n = 9
    cd = coxeter_data("I2", n)
    # W = -exp(-(pi/n) e1e2), h = n
    B = mv_blade(2, 0b11, 1.0)
    want = -(exp_bivector(B, -PI / n))
    assert approx_eq(versor_mv(cd), want, 1e-12)
    assert cd.h == n


COXETER_NUMBERS = {
    ("A4", None): 5, ("B4", None): 8, ("D4", None): 6, ("F4", None): 12,
    ("H4", None): 30, ("A1^4", None): 2, ("A3", None): 4, ("B3", None): 6,
    ("H3", None): 10, ("A1^3", None): 2, ("I2", 11): 11, ("I2xI2", 8): 8,
}


def test_coxeter_numbers():
    for (name, n), h in COXETER_NUMBERS.items():
        assert coxeter_data(name, n).h == h


def test_matrix_is_orthogonal_and_word_validated():
    cd = coxeter_data("F4")
    M = cd.matrix
    assert np.allclose(M.T @ M, np.eye(4), atol=1e-9)
    with pytest.raises(ValueError):
        coxeter_versor(catalog("F4"), word=(1, 1, 2, 3))
    with pytest.raises(ValueError, match="not a permutation"):
        coxeter_versors(catalog("F4"), [None, (1, 2, 3, 4), (1, 1, 2, 3)])


def test_non_unit_root_set_is_rejected():
    # (1 + 1e-20) is unit in floats: an exact root set is checked exactly
    for name, n, scale in [("A4", None, 2), ("I2", 5, 2),
                           ("A4", None, QuadTower(Fraction(10**20 + 1, 10**20)))]:
        simple = catalog(name, n)
        scaled = dataclasses.replace(
            simple, vectors=(tuple(c * scale for c in simple.vectors[0]),) + simple.vectors[1:])
        with pytest.raises(ValueError, match="versor must have unit norm"):
            coxeter_versor(scaled)
        with pytest.raises(ValueError, match="versor must have unit norm"):
            coxeter_versors(scaled, [None, tuple(range(simple.rank, 0, -1))])
        with pytest.raises(ValueError, match="versor must have unit norm"):
            coxeter_plane(scaled)


def versor_action_matrix(W):
    """Reference Coxeter matrix: the versor's action on each basis vector."""
    Wf = to_float(W)
    k = Wf.dim
    M = np.empty((k, k))
    for j in range(k):
        ej = basis_vector(k, j, "float")
        M[:, j] = [float(c) for c in vector_coords(versor_action(Wf, ej))]
    return M


CATALOG_SYSTEMS = [(name, None) for name in ("A1^3", "A3", "B3", "H3", "A1^4", "A4",
                                              "B4", "D4", "F4", "H4")]
CATALOG_SYSTEMS += [(key, n) for key in ("I2", "A1xI2", "I2xI2") for n in range(2, 17)]


def permutation_words():
    """(name, n, simple roots, word) for every word of every catalog system: 648."""
    for name, n in CATALOG_SYSTEMS:
        simple = catalog(name, n)
        for word in itertools.permutations(range(1, simple.rank + 1)):
            yield name, n, simple, word


def test_every_permutation_word_exits_0():
    # A1xI2(n) with odd n is reducible with h = 2n and exponents 2, n, 2n - 2:
    # exp(2 pi i/h) is no eigenvalue, and the plane is the I2 plane of exponent 2
    for name, n, simple, word in permutation_words():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["coxplane", simple.name, "--word", ",".join(map(str, word))])
        assert code == 0, (simple.name, word)
        if name == "A1xI2" and n % 2:
            payload = json.loads(out.getvalue())
            assert payload["exponents"] == [2, n, 2 * n - 2]
            assert payload["plane"]["coeffs"] in ({"e12": 1.0}, {"e12": -1.0})


def test_row_coxeter_layer_matches_multivector_reference():
    # bit for bit, on every permutation word and every default word: the versor
    # row is the Multivector chain, and the planes, factorizations and plane
    # bases are what Multivector sums and products give
    cases = [(simple, word) for _, _, simple, word in permutation_words()]
    cases += [(catalog(name, n), None) for name, n in CATALOG_SYSTEMS]
    factorized = 0
    for simple, word in cases:
        k = simple.rank
        cd = coxeter_versor(simple, word)
        W = chain_versor(simple, cd.word)
        assert repr(versor_mv(cd).coeffs) == repr(W.coeffs), (simple.name, word)
        planes = [(plane_from_matrix(cd.versor, cd.matrix, cd.h),
                   reference_plane_from_matrix(cd.matrix, cd.h))]
        if word is None and coxplane.bicolor(simple)[1]:
            planes.append((coxeter_plane(simple).bivector, reference_plane(simple)))
        for B, ref in planes:
            assert repr(B.tolist()) == repr(list(ref.coeffs)), (simple.name, word)
            got = [u.tolist() for u in plane_basis(B)]
            want = [list(vector_coords(u)) for u in reference_plane_basis(ref)]
            assert repr(got) == repr(want), (simple.name, word)
            if k in (2, 4):
                f = factorize(cd.versor, B, cd.h)
                assert repr(f) == repr(reference_factorize(W, ref, cd.h)), (simple.name, word)
                factorized += 1
    assert len(cases) == 648 + len(CATALOG_SYSTEMS)
    assert factorized == 570 + 33   # spectrum planes, then the default PF planes


def test_batches_equal_one_word_results():
    # one coxeter_versors call per system, with the stages after it stacked,
    # gives every word bit for bit what the one-word functions give it
    batches = {}
    for name, n, simple, word in permutation_words():
        batches.setdefault(simple.name, (simple, [None]))[1].append(word)
    words_seen = 0
    for simple, words in batches.values():
        # fresh root sets hold nothing yet: the batch forms every word in one
        # pass, and the reference forms each word alone
        cds = coxeter_versors(dataclasses.replace(simple), words)
        Ms, hs = np.stack([cd.matrix for cd in cds]), [cd.h for cd in cds]
        planes = planes_from_matrices(Ms, hs)
        exps = exponents_via_matrices(Ms, hs)
        factors = [None] * len(cds)
        if simple.rank in (2, 4):
            Ws = np.stack([cd.versor for cd in cds])
            factors = [repr(f) for f in factorizations(Ws, planes, hs)]
        for word, cd, B, e, f in zip(words, cds, planes, exps, factors):
            one = coxeter_versor(dataclasses.replace(simple), word)
            assert (cd.word, cd.h) == (one.word, one.h), (simple.name, word)
            assert repr(cd.versor.tolist()) == repr(one.versor.tolist()), (simple.name, word)
            assert cd.matrix.tobytes() == one.matrix.tobytes(), (simple.name, word)
            assert e == exponents_via_matrix(one.matrix, one.h)
            B1 = plane_from_matrix(one.versor, one.matrix, one.h)
            assert B.tobytes() == B1.tobytes(), (simple.name, word)
            if f is not None:
                assert f == repr(factorize(one.versor, B1, one.h)), (simple.name, word)
            words_seen += 1
    assert words_seen == 648 + len(CATALOG_SYSTEMS)


def test_held_coxeter_data_is_what_the_word_alone_forms():
    # every word of the exact catalog systems and of I2xI2(n), held after one
    # batch of all of them, is bit for bit what a fresh root set with the
    # same vectors forms for that word alone
    names = [(name, None) for name in ("A1^3", "A3", "B3", "H3", "A1^4", "A4", "B4",
                                        "D4", "F4", "H4")]
    names += [("I2xI2", n) for n in range(2, 17)]
    checked = 0
    for name, n in names:
        simple = dataclasses.replace(catalog(name, n))     # holds nothing yet
        words = [None] + list(itertools.permutations(range(1, simple.rank + 1)))
        coxeter_versors(simple, words)
        for word in words:
            held = coxeter_versor(simple, word)
            alone = coxeter_versor(dataclasses.replace(simple), word)
            assert held is coxeter_versor(simple, word)
            assert (held.word, held.h) == (alone.word, alone.h), (simple.name, word)
            assert held.versor.dtype == alone.versor.dtype
            assert repr(held.versor.tolist()) == repr(alone.versor.tolist()), (simple.name, word)
            assert held.matrix.tobytes() == alone.matrix.tobytes(), (simple.name, word)
            checked += 1
    assert checked == 4 * 7 + 6 * 25 + 15 * 25   # rank 3, rank 4, I2xI2: words + 1


def test_held_arrays_are_read_only():
    for name, n in [("H4", None), ("I2", 7), ("A1xI2", 4)]:
        cd = coxeter_data(name, n)
        assert cd is coxeter_data(name, n) is coxeter_versor(catalog(name, n))
        plane = coxeter_plane_for(name, n)
        assert plane is coxeter_plane(catalog(name, n))
        for rows in (cd.versor, cd.matrix, plane.bivector):
            with pytest.raises(ValueError, match="read-only"):
                rows[(0,) * rows.ndim] = 0


def test_an_invalid_word_raises_and_nothing_of_its_pass_is_held():
    simple = dataclasses.replace(catalog("F4"))
    with pytest.raises(ValueError, match="not a permutation"):
        coxeter_versors(simple, [(1, 2, 3, 4), (1, 1, 2, 3)])
    with pytest.raises(ValueError, match="not a permutation"):
        coxeter_versor(simple, (1, 1, 2, 3))
    assert simple.held == {}
    assert coxeter_versor(simple, (1, 2, 3, 4)).h == 12
    assert list(simple.held) == [(1, 2, 3, 4)]


def test_reflection_product_matches_versor_action():
    words = 0
    for name, n, simple, word in permutation_words():
        cd = coxeter_versor(simple, word)
        ref = versor_action_matrix(versor_mv(cd))
        assert np.abs(cd.matrix - ref).max() <= 1e-14, (name, n, word)
        h = matrix_order(ref)
        assert cd.h == h
        assert exponents_via_matrix(cd.matrix, h) == exponents_via_matrix(ref, h)
        words += 1
    assert words == 648


def allclose_order(M):
    """Reference order: the np.allclose loop matrix_order replaced, with its
    default rtol = 1e-5 on the diagonal."""
    one = np.eye(M.shape[0])
    P = M.copy()
    for step in range(1, 1001):
        if np.allclose(P, one, atol=1e-9):
            return step
        P = P @ M
    raise ValueError("order exceeds 1000")


def test_matrix_order_matches_allclose_loop():
    matrices = [coxeter_versor(simple, word).matrix for _, _, simple, word in permutation_words()]
    matrices += [coxeter_data(key, n).matrix for key in ("I2", "I2xI2") for n in range(2, 31)]
    ade_systems = [("A", n) for n in range(1, 25)] + [("D", n) for n in range(4, 25)]
    ade_systems += [("E", n) for n in (6, 7, 8)]
    matrices += [coxeter_matrix(ade_root_data(kind, n).simple) for kind, n in ade_systems]
    assert len(matrices) == 648 + 58 + 48
    for M in matrices:
        assert matrix_order(M) == allclose_order(M)


def step_loop_orders(Ms: np.ndarray) -> list[int]:
    """The former ``coxplane._matrix_orders``: one power and one comparison per step."""
    one = np.eye(Ms.shape[-1])
    orders = [0] * len(Ms)
    P = Ms
    for step in range(1, coxplane.ORDER_CAP + 1):
        for i, gap in enumerate(np.abs(P - one).max(axis=(1, 2)).tolist()):
            if gap <= NOISE_TOL and not orders[i]:
                orders[i] = step
        if all(orders):
            return orders
        P = P @ Ms
    raise ValueError(f"matrix order exceeds {coxplane.ORDER_CAP}")


def test_matrix_orders_equal_the_step_loop(monkeypatch):
    # every catalog word's matrix, one at a time and stacked per system, and
    # the cap error with the cap patched below and at each order
    stacks = []
    for name, n in CATALOG_SYSTEMS:
        simple = catalog(name, n)
        words = [None, *itertools.permutations(range(1, simple.rank + 1))]
        stacks.append(np.stack([cd.matrix for cd in coxeter_versors(simple, words)]))
    for Ms in stacks:
        assert coxplane._matrix_orders(Ms) == step_loop_orders(Ms)
        for M in Ms:
            assert matrix_order(M) == step_loop_orders(M[None])[0]
    for Ms in stacks[::7]:
        h = max(step_loop_orders(Ms))
        for cap in (1, h - 1, h):
            monkeypatch.setattr(coxplane, "ORDER_CAP", cap)
            try:
                want = step_loop_orders(Ms)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    coxplane._matrix_orders(Ms)
            else:
                assert cap == h and coxplane._matrix_orders(Ms) == want
        monkeypatch.undo()


def test_matrix_of_no_finite_order_raises_without_overflow_warning():
    # the doubling reaches diag(2**1024, 1), past the largest float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^matrix order exceeds {coxplane.ORDER_CAP}$"):
            matrix_order(np.diag([2.0, 1.0]))


def former_wedge(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The former ``coxplane._wedge``: vector rows through ``quad_numerators``,
    their denominator 1.0 dropped."""
    uv = np.stack([u, v]).astype(float)
    rows = vector_rows(*quad_numerators(uv.reshape(-1, uv.shape[-1])))[:, :-1]
    rows = rows.reshape(uv.shape[:-1] + rows.shape[-1:])
    return clifford.grade(clifford.float_products(rows[0], rows[1]), 2)


def test_wedge_equals_the_former_wedge():
    # random rows with +-0.0 coordinates, so zero blades, one row or a stack
    rng = np.random.default_rng(5)
    for trial in range(1500):
        dim = int(rng.integers(2, 5))
        shape = (dim,) if trial % 2 else (int(rng.integers(1, 5)), dim)
        u, v = rng.normal(size=shape), rng.normal(size=shape)
        for x in (u, v):
            x[rng.random(shape) < 0.3] = 0.0
            x[rng.random(shape) < 0.2] = -0.0
        got, want = clifford.wedge(u, v), former_wedge(u, v)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), trial


def former_pf_eigenvector(cartan) -> np.ndarray:
    """The former ``pf_eigenvector``: norms by ``np.linalg.norm``, every
    block's smallest eigenvalue taken."""
    M = np.array([[float(v) for v in row] for row in cartan], dtype=float)
    x = np.ones(len(M)) / math.sqrt(len(M))
    for _ in range(coxplane.PF_MAX_STEPS):
        y = np.linalg.solve(M, x)
        x = y / np.linalg.norm(y)
        lam = float(x @ M @ x)
        if np.linalg.norm(M @ x - lam * x) <= PF_RESIDUAL:
            break
    if x[int(np.argmax(np.abs(x)))] < 0:
        x = -x
    blocks, _ = components(np.abs(M) > NOISE_TOL)
    lows = [np.linalg.eigvalsh(M[np.ix_(b, b)])[0] for b in blocks]
    for b, low in zip(blocks, lows):
        if low > min(lows) + EIGEN_MATCH_TOL:
            x[b] = 0.0
    return x / x[0]


def test_pf_eigenvector_equals_the_former_iteration():
    for name, n in CATALOG_SYSTEMS:
        cartan = cartan_matrix(catalog(name, n))
        assert pf_eigenvector(cartan).tobytes() == former_pf_eigenvector(cartan).tobytes()
        rows = row_floats(*catalog(name, n).cartan, catalog(name, n).field)
        assert pf_eigenvector(rows).tobytes() == former_pf_eigenvector(rows).tobytes()


def test_empty_stacks_give_empty_results():
    for name in ("I2", "A1xI2", "I2xI2"):
        simple = catalog(name, 5)
        k = simple.rank
        Ms, Ws = np.zeros((0, k, k)), np.zeros((0, (1 << k) + 1))   # versor rows end in 1.0
        assert coxeter_versors(simple, []) == []
        assert coxplane._matrix_orders(Ms) == []
        assert exponents_via_matrices(Ms, []) == []
        planes = planes_from_matrices(Ms, [])
        assert planes.shape == (0, 1 << k)
        if k in (2, 4):
            assert factorizations(Ws, planes, []) == []
    exact = coxeter_versor(catalog("H4")).versor
    assert factorizations(exact[None][:0], np.zeros((0, 16)), []) == []


def test_plane_action_is_m_a_mt():
    # M A M^T is the versor's action on a bivector, A its antisymmetric matrix:
    # on the six (or one, or three) basis bivectors and on one dense bivector
    rng = np.random.default_rng(11)
    for name, n, simple, word in permutation_words():
        cd = coxeter_versor(simple, word)
        W, M, k = to_float(versor_mv(cd)), cd.matrix, simple.rank
        masks = [m for m in range(1 << k) if m.bit_count() == 2]
        dense = Multivector(k, [rng.normal() if m in masks else 0.0 for m in range(1 << k)])
        for B in [mv_blade(k, m, 1.0) for m in masks] + [dense]:
            want = bivector_matrix(multivector_row(versor_action(W, B)))
            A = bivector_matrix(multivector_row(B))
            assert np.abs(M @ A @ M.T - want).max() <= 1e-12, (name, n, word)


def _count_matrix_rows(monkeypatch) -> list:
    """Patch ``coxplane._coxeter_matrices`` to record how many matrices each call forms."""
    counts = []
    form = coxplane._coxeter_matrices

    def counted(rows, idx):
        counts.append(len(idx))
        return form(rows, idx)

    monkeypatch.setattr(coxplane, "_coxeter_matrices", counted)
    return counts


def test_coxeter_plane_validates_on_the_held_coxeter_data(monkeypatch):
    # the validation reads the word's held CoxeterData: the first call forms
    # the word's matrix once, later calls form none
    counts = _count_matrix_rows(monkeypatch)
    for name in ("A3", "B3", "H3", "A4", "D4", "F4", "H4"):
        simple = dataclasses.replace(catalog(name))          # holds nothing yet
        plane = coxeter_plane(simple)
        assert default_word(simple) in simple.held, name
        assert coxeter_plane(simple) is plane, name
    assert counts == [1] * 7


def sweep_coxplane_operation(simple, word) -> list:
    """The library calls of one ``coxplane`` operation of bench/sweep.py; the
    words whose Coxeter data it reads."""
    cd = coxeter_versor(simple, word)
    exponents_via_matrix(cd.matrix, cd.h)
    if simple.rank in (2, 4):
        factorize(cd.versor, plane_from_matrix(cd.versor, cd.matrix, cd.h), cd.h)
    try:
        plane = coxeter_plane(simple)
    except DegeneratePlaneError:
        return [word]
    if simple.rank in (2, 4):
        base = coxeter_versor(simple)
        factorize(base.versor, plane.bivector, base.h)
    return [word, default_word(simple)]


def test_one_coxplane_operation_forms_each_words_matrix_once(monkeypatch):
    # on a fresh root set, the word's and the default word's Coxeter matrices
    # are formed once each, and the float rows they are formed from are held
    counts = _count_matrix_rows(monkeypatch)
    for name, n in CATALOG_SYSTEMS:
        rank = catalog(name, n).rank
        for word in (tuple(range(1, rank + 1)), tuple(range(rank, 0, -1))):
            simple = dataclasses.replace(catalog(name, n))
            counts.clear()
            words = sweep_coxplane_operation(simple, word)
            assert sum(counts) == len(set(words)), (name, n, word)
            assert simple.floats is simple.floats
            with pytest.raises(ValueError, match="read-only"):
                simple.floats[0, 0] = 0.0


def test_word_planes_carry_no_noise_blades():
    # rank-4 catalog words: eigenvector noise is zeroed, not printed as blades,
    # and the factorization on the plane still gives the word's exponents
    for name in ("A1^4", "A4", "B4", "D4", "F4", "H4"):
        simple = catalog(name)
        for word in itertools.permutations(range(1, 5)):
            cd = coxeter_versor(simple, word)
            B = plane_from_matrix(cd.versor, cd.matrix, cd.h)
            assert not [c for c in B.tolist() if 0 < abs(c) <= NOISE_TOL], (name, word)
            assert abs(norm(row_multivector(B, 4)) - 1.0) < 1e-12
            assert (factorize(cd.versor, B, cd.h).exponents
                    == exponents_via_matrix(cd.matrix, cd.h)), (name, word)


def test_versor_power_h_is_plus_minus_one():
    for name, n in [("A4", None), ("D4", None), ("H4", None), ("I2", 7),
                    ("H3", None)]:
        cd = coxeter_data(name, n)
        W = to_float(versor_mv(cd))
        P = W
        for _ in range(cd.h - 1):
            P = P * W
        one = mv_scalar(W.dim, 1.0)
        assert approx_eq(P, one, 1e-9) or approx_eq(P, -one, 1e-9)


# -- exponents -------------------------------------------------------------------


MATRIX_EXPONENTS = {
    ("A4", None): (1, 2, 3, 4), ("B4", None): (1, 3, 5, 7),
    ("D4", None): (1, 3, 3, 5), ("F4", None): (1, 5, 7, 11),
    ("H4", None): (1, 11, 19, 29), ("A1^4", None): (1, 1, 1, 1),
    ("A3", None): (1, 2, 3), ("B3", None): (1, 3, 5), ("H3", None): (1, 5, 9),
    ("I2", 12): (1, 11), ("I2xI2", 6): (1, 1, 5, 5),
}


def test_matrix_exponents():
    for (name, n), want in MATRIX_EXPONENTS.items():
        cd = coxeter_data(name, n)
        assert exponents_via_matrix(cd.matrix, cd.h) == want


def test_exponent_sum_rule():
    # sum(m_i) = rank * h / 2
    for (name, n), h in COXETER_NUMBERS.items():
        cd = coxeter_data(name, n)
        exps = exponents_via_matrix(cd.matrix, cd.h)
        assert sum(exps) * 2 == cd.simple.rank * cd.h


# -- bicolouring, PF, weights -------------------------------------------------------


def test_bicolor_fixtures():
    assert bicolor(catalog("D4")) == ((0, 1, 2), (3,))
    assert bicolor(catalog("A4")) == ((0, 2), (1, 3))
    assert bicolor(catalog("A1^4")) == ((0, 1, 2, 3), ())
    assert bicolor(catalog("I2xI2", 5)) == ((0, 2), (1, 3))


def test_bicolor_rejects_an_odd_cycle():
    # three pairwise non-orthogonal roots close a triangle in the Coxeter graph
    triangle = SimpleRootSet(name="triangle", key="triangle",
                             vectors=((1.0, 0.0, 0.0), (0.6, 0.8, 0.0), (0.6, 0.0, 0.8)))
    with pytest.raises(ValueError, match="Coxeter graph of triangle is not bipartite"):
        bicolor(triangle)


def test_default_words():
    assert default_word(catalog("F4")) == (3, 1, 2, 4)
    assert default_word(catalog("D4")) == (1, 2, 3, 4)
    assert default_word(catalog("A3")) == (1, 3, 2)  # bicoloured order


def test_pf_fixtures():
    pf = pf_eigenvector(cartan_matrix(catalog("D4")))
    assert np.allclose(pf, [1, 1, 1, math.sqrt(3)], atol=1e-9)
    pf = pf_eigenvector(cartan_matrix(catalog("A4")))
    t = float(TAU)
    assert np.allclose(pf, [1, t, t, 1], atol=1e-9)
    pf = pf_eigenvector(cartan_matrix(catalog("H4")))
    assert np.allclose(pf, [1, 1.989, 2.956, 2.405], atol=1e-3)
    pf = pf_eigenvector(cartan_matrix(catalog("F4")))
    c = 2 * math.cos(PI / 12)
    assert np.allclose(pf, [1, c, c, 1], atol=1e-9)



def test_pf_zeroes_the_blocks_off_the_smallest_eigenvalue():
    # A1xI2(n): the A1 block's eigenvalue 2 is above the I2 block's
    # 2 - 2cos(pi/n), so its entry is exactly zero and the plane is e12 alone
    for n in range(3, 17):
        simple = catalog("A1xI2", n)
        pf = pf_eigenvector(cartan_matrix(simple))
        assert pf[2] == 0.0 and (pf[:2] > 0).all(), n
        B = coxeter_plane(simple).bivector
        assert np.flatnonzero(B).tolist() == [0b011], n
    # I2(n)xI2(n): the two blocks tie, so neither is zeroed
    for n in range(3, 17):
        assert (pf_eigenvector(cartan_matrix(catalog("I2xI2", n))) > 0).all(), n

def test_weight_basis_duality():
    for name, n in [("D4", None), ("H4", None), ("A4", None), ("I2xI2", 5)]:
        simple = catalog(name, n)
        weights = scalar_values(*weight_basis(simple))
        for i, w in enumerate(weights):
            for j, a in enumerate(root_multivectors(simple)):
                val = float(dot(to_float(mv_vector(w)), to_float(a)))
                assert abs(val - (1.0 if i == j else 0.0)) < 1e-9


def test_weight_basis_fixtures():
    # orthonormal simple roots are their own weights
    for w, i in zip(scalar_values(*weight_basis(catalog("A1^4"))), range(4)):
        assert mv_vector(w) == basis_vector(4, i)
    # the H4 inverse basis, exactly
    w = scalar_values(*weight_basis(catalog("H4")))
    t = TAU
    assert w[0] == (QT_ZERO, QT_ZERO, QT_ZERO, 2 * t)
    assert w[1] == (-t, QT_ONE, QT_ZERO, 3 * t + 1)
    assert w[2] == (-2 * t, QT_ZERO, QT_ZERO, 4 * t + 2)
    assert w[3] == (-(1 + t), QT_ZERO, QT_ONE, 3 * t + 2)


# -- the plane ------------------------------------------------------------------------


def test_d4_plane_fixture():
    B = row_multivector(coxeter_plane_for("D4").bivector, 4)
    s = 1.0 / math.sqrt(3.0)
    want = mv_zero(4, "float")
    for mask in (0b1001, 0b1010, 0b1100):
        want = want + mv_blade(4, mask, s)
    assert approx_eq(B, want, 1e-9) or approx_eq(B, -want, 1e-9)


def test_h4_plane_fixture():
    B = row_multivector(coxeter_plane_for("H4").bivector, 4)
    got = [float(B.coeffs[m]) for m in (0b0011, 0b0101, 0b1010, 0b1100)]
    want = [-0.204, -0.247, -0.604, -0.73]
    assert (all(abs(g - w) < 1e-3 for g, w in zip(got, want))
            or all(abs(g + w) < 1e-3 for g, w in zip(got, want)))


def test_a4_plane_pattern():
    # proportional to -e1e3 - e1e4 + e2e3 + e2e4 - 2*tau*e3e4 (wedge of the
    # coloured vectors; the e3e4 weight is 2*tau, not (tau-1)/2)
    B = row_multivector(coxeter_plane_for("A4").bivector, 4)
    c13 = float(B.coeffs[0b0101])
    ratios = {
        0b1001: 1.0, 0b0110: -1.0, 0b1010: -1.0, 0b1100: 2 * float(TAU),
    }
    for mask, want in ratios.items():
        assert abs(float(B.coeffs[mask]) / c13 - want) < 1e-9


def test_plane_invariance_and_square():
    for name, n in [("A4", None), ("H4", None), ("H3", None), ("A1xI2", 6),
                    ("I2xI2", 9), ("B3", None)]:
        simple = catalog(name, n)
        plane = coxeter_plane(simple)
        B = row_multivector(plane.bivector, simple.rank)
        sq = B * B
        assert abs(float(scalar_part(sq)) + 1.0) < 1e-9
        W = to_float(versor_mv(coxeter_data(name, n)))
        assert approx_eq(versor_action(W, B), B, 1e-6)


def test_degenerate_planes_error():
    for name in ("A1^3", "A1^4"):
        with pytest.raises(DegeneratePlaneError):
            coxeter_plane(catalog(name))
    with pytest.raises(DegeneratePlaneError):
        coxeter_plane(catalog("I2", 2))  # I2(2) = A1 x A1 has no edges


# -- factorization -----------------------------------------------------------------------


TABLE = {
    "A4": ((PI / 5, -2 * PI / 5), (1, 2, 3, 4)),
    "B4": ((-PI / 8, 3 * PI / 8), (1, 3, 5, 7)),
    "D4": ((-PI / 6, PI / 2), (1, 3, 3, 5)),
    "F4": ((-PI / 12, 5 * PI / 12), (1, 5, 7, 11)),
    "H4": ((-PI / 30, -11 * PI / 30), (1, 11, 19, 29)),
}


def test_factorization_table():
    for name, (angles, exps) in TABLE.items():
        cd = coxeter_data(name)
        f = factorize(cd.versor, coxeter_plane_for(name).bivector, cd.h)
        e1, e2, *_ = canonical_angle_pair(*angles)
        assert abs(f.theta1 - e1) < 1e-9
        assert abs(f.theta2 - e2) < 1e-9
        assert f.residual < 1e-8
        assert f.exponents == exps


def test_frame_commutes_and_is_orthonormal():
    # {1, B, I*B, I} pairwise commute and are orthonormal under <X rev(Y)>_0
    for name in TABLE:
        B = row_multivector(coxeter_plane_for(name).bivector, 4)
        I = pseudoscalar(4, "float")
        one = mv_scalar(4, 1.0)
        frame = [one, B, I * B, I]
        for i, X in enumerate(frame):
            for j, Y in enumerate(frame):
                assert approx_eq(X * Y, Y * X, 1e-12)
                pairing = sum(
                    float(a) * float(b) for a, b in zip(X.coeffs, Y.coeffs)
                )
                assert abs(pairing - (1.0 if i == j else 0.0)) < 1e-12


def test_factorization_sign_bookkeeping():
    for name in TABLE:
        cd = coxeter_data(name)
        f = factorize(cd.versor, coxeter_plane_for(name).bivector, cd.h)
        B = row_multivector(coxeter_plane_for(name).bivector, 4)
        I = pseudoscalar(4, "float")
        Bp = float(f.b_sign) * B
        lhs = exp_bivector(Bp, f.theta1) * exp_bivector(
            (float(f.i_sign) * I) * Bp, f.theta2
        )
        rhs = float(f.w_sign) * to_float(versor_mv(cd))
        assert approx_eq(lhs, rhs, 1e-9)


def test_factorize_2d():
    for n in (2, 5, 8):
        cd = coxeter_data("I2", n)
        plane = coxeter_plane_for("I2", n) if n != 2 else None
        B = plane.bivector if plane else multivector_row(mv_blade(2, 0b11, 1.0))
        f = factorize(cd.versor, B, cd.h)
        assert f.theta2 is None
        assert f.exponents == tuple(sorted((1, n - 1)))
        assert f.residual < 1e-12


def former_canonical_angle(t: float) -> tuple[float, int, int]:
    """The former ``coxplane.canonical_angle`` of a rank-2 angle: (u, b_sign, w_sign)."""
    for sg in (1, -1):
        for a in (0, 1):
            u = coxplane._wrap(sg * t + a * math.pi)
            if ANGLE_TOL < u <= math.pi / 2 + ANGLE_TOL:
                return u, sg, (1 if a == 0 else -1)
    raise FactorizationError(f"cannot canonicalize angle {t}")


def test_rank2_angles_canonicalize_as_the_former_single_angle(monkeypatch):
    # the rank-2 angle of every I2(n) word, on its own plane and on the PF
    # plane: the pair form at t2 = 0 is the former single-angle form, bit for bit
    seen = []

    def recorded(t1, t2):
        seen.append((t1, t2))
        return canonical_angle_pair(t1, t2)

    monkeypatch.setattr(coxplane, "canonical_angle_pair", recorded)
    for n in range(2, 121):
        simple = catalog("I2", n)
        for word in ((1, 2), (2, 1)):
            cd = coxeter_versor(simple, word)
            planes = [plane_from_matrix(cd.versor, cd.matrix, cd.h)]
            if n > 2:
                planes.append(coxeter_plane(simple).bivector)
            for B in planes:
                seen.clear()
                f = factorize(cd.versor, B, cd.h)
                [(t, t2)] = seen
                u, b_sign, w_sign = former_canonical_angle(t)
                assert t2 == 0.0 and f.theta2 is None and f.i_sign == 1
                assert (f.theta1.hex(), f.b_sign, f.w_sign) == (u.hex(), b_sign, w_sign), (n, word)
                pair = canonical_angle_pair(t, 0.0)
                assert (pair[0].hex(), pair[2], pair[4]) == (u.hex(), b_sign, w_sign), (n, word)


def test_factorize_rejects_wrong_plane():
    cd = coxeter_data("H4")
    wrong = multivector_row(mv_blade(4, 0b0011, 1.0))  # e1e2 is not invariant
    with pytest.raises(FactorizationError):
        factorize(cd.versor, wrong, cd.h)


def test_plane_rejects_non_bicoloured_word():
    # the PF plane belongs to the bicoloured conjugacy representative; a mixed
    # word has a conjugated invariant plane instead
    simple = catalog("A4")
    plane = coxeter_plane(simple).bivector
    assert coxplane._stabilizes(coxeter_versor(simple).matrix, plane)
    assert not coxplane._stabilizes(coxeter_versor(simple, (1, 2, 3, 4)).matrix, plane)


def test_exponents_reject_non_coxeter_rotation():
    M = np.array([[math.cos(1.0), -math.sin(1.0)],
                  [math.sin(1.0), math.cos(1.0)]])
    with pytest.raises(FactorizationError):
        exponents_via_matrix(M, 7)


def test_factorize_rejects_wrong_order():
    cd = coxeter_data("F4")
    with pytest.raises(FactorizationError):
        factorize(cd.versor, coxeter_plane_for("F4").bivector, 10)


def test_oracle_agreement_random_words():
    rng = np.random.default_rng(5)
    for name, n in [("A4", None), ("D4", None), ("H4", None), ("I2xI2", 5),
                    ("A1^4", None)]:
        simple = catalog(name, n)
        expected = exponents_via_matrix(
            coxeter_data(name, n).matrix, coxeter_data(name, n).h
        )
        for _ in range(5):
            word = tuple(int(x) + 1 for x in rng.permutation(simple.rank))
            cd = coxeter_versor(simple, word)
            B = plane_from_matrix(cd.versor, cd.matrix, cd.h)
            assert exponents_via_matrix(cd.matrix, cd.h) == expected
            assert factorize(cd.versor, B, cd.h).exponents == expected


def test_conjugate_words_share_h():
    simple = catalog("F4")
    rng = np.random.default_rng(2)
    for _ in range(6):
        word = tuple(int(x) + 1 for x in rng.permutation(4))
        assert coxeter_versor(simple, word).h == 12


# -- projections ---------------------------------------------------------------------------


def test_plane_basis_orthonormal():
    for name, n in [("A4", None), ("H4", None), ("H3", None)]:
        B = coxeter_plane_for(name, n).bivector
        u1, u2 = (mv_vector(u.tolist()) for u in plane_basis(B))
        assert abs(norm(u1) - 1) < 1e-12
        assert abs(norm(u2) - 1) < 1e-12
        assert abs(float(dot(u1, u2))) < 1e-12


def _rows(system):
    """A root system's numerator rows, their denominator and their field, as projected."""
    return system.num, system.den, system.field


def projection_radii(points: Sequence[tuple[float, float]], decimals: int = 9) -> dict:
    """Multiset of projected radii, rounded for class counting."""
    radii: dict = {}
    for x, y in points:
        r = round(math.hypot(x, y), decimals)
        radii[r] = radii.get(r, 0) + 1
    return dict(sorted(radii.items()))


def test_a4_projection_two_decagons():
    pts = project_to_plane(*_rows(root_system("A4")), coxeter_plane_for("A4").bivector)
    assert len(pts) == 20
    radii = projection_radii(pts)
    assert len(radii) == 2
    assert all(count == 10 for count in radii.values())
    r = sorted(math.hypot(x, y) for x, y in pts)
    assert abs(r[-1] / r[0] - float(TAU)) < 1e-9


def test_i2_projection_single_circle():
    pts = project_to_plane(*_rows(root_system("I2", 9)), coxeter_plane_for("I2", 9).bivector)
    radii = projection_radii(pts, decimals=6)
    assert radii == {1.0: 18}


def test_h4_projection_four_rings():
    pts = project_to_plane(*_rows(root_system("H4")), coxeter_plane_for("H4").bivector)
    radii = projection_radii(pts, decimals=6)
    assert len(radii) == 4
    assert all(count == 30 for count in radii.values())


def test_projection_radii_basis_invariant():
    # radii do not depend on the in-plane basis: rotate the bivector's basis
    # by projecting after multiplying the plane by a rotor within it
    B = coxeter_plane_for("A4").bivector
    pts1 = project_to_plane(*_rows(root_system("A4")), B)
    W = exp_bivector(row_multivector(B, 4), 0.3)
    B2 = versor_action(W, row_multivector(B, 4))  # same plane
    pts2 = project_to_plane(*_rows(root_system("A4")), multivector_row(B2))
    assert projection_radii(pts1) == projection_radii(pts2)


# -- arithmetic identities -----------------------------------------------------------------


def test_springer_identities_polyhedral():
    for name, order, exps in [("A3", 24, (1, 3, 3, 5)), ("B3", 48, (1, 5, 7, 11)),
                              ("H3", 120, (1, 11, 19, 29))]:
        rep = springer_identities(name)
        assert rep.group_order == order
        assert rep.exponents == exps
        assert rep.group_order == 2 * sum(exps)
        assert rep.ok


def test_springer_degrees():
    assert springer_identities("A3").degrees == (2, 4, 4, 6)
    assert springer_identities("B3").degrees == (2, 6, 8, 12)
    assert springer_identities("H3").degrees == (2, 12, 20, 30)


def test_springer_families():
    for n in range(2, 17):
        assert springer_identities("I2", n).ok
        assert springer_identities("A1xI2", n).ok
    assert springer_identities("A1^3").ok


def test_springer_identities_read_the_induced_key(monkeypatch):
    # identification hands back the reference's catalog key and n, so the
    # induced system's display name is printed, never parsed back
    from spinroot.induction import induced_name, induced_system

    parsed = []
    parse = coxplane.parse_name
    monkeypatch.setattr(coxplane, "parse_name", lambda *a: parsed.append(a) or parse(*a))
    cases = [("H3", None, ("H4", None)), ("A1^3", None, ("A1^4", None)),
             ("A1xI2", 2, ("A1^4", None)), ("A1xI2", 5, ("I2xI2", 5)), ("I2", 7, ("I2", 7))]
    for name, n, induced in cases:
        assert induced_system(name, n) == induced
        assert springer_identities(name, n).induced == induced_name(name, n)
    assert parsed == [(name, n) for name, n, _ in cases]
