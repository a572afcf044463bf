"""Coxeter elements, exponents and the Coxeter plane.

Two independent exponent routes are implemented: the spectrum of the Coxeter
element's orthogonal matrix (eigenvalue arguments as multiples of 2*pi/h), and
the Clifford factorization of the Coxeter versor into commuting bivector
exponentials exp(t1*B) exp(t2*I*B) built on the Perron-Frobenius / bicoloured
plane bivector B (the Coxeter plane of Humphreys, *Reflection Groups and
Coxeter Groups*, ch. 3).

Multivectors here are rows: the Coxeter versor W is a row in the layout of
``induction._numerator_rows`` (exact where the roots are, and ending in the
denominator 1.0 on floats), the plane bivector B a float coefficient row.
Products, wedges and exponentials go through ``clifford.right_products`` and
``clifford.float_products``, and every float sum runs from 0.0 in blade
order, so each printed float is the one the per-element Multivector
computation gives.  The weight basis is numerator rows too: the simple
roots inverted over Q by ``scalars.exact_solve``, the one exact inverse of
every field; every float of an exact row comes from ``scalars.row_floats``.

Many words of one system go through each stage at once:
``coxeter_versors``, ``exponents_via_matrices``, ``planes_from_matrices`` and
``factorizations`` work on stacks of rows and matrices, with one eig or
eigvals call per stack, and return empty results for empty stacks.
``coxeter_versor``, ``exponents_via_matrix``, ``plane_from_matrix`` and
``factorize`` are each the stack of one.  The orders of a stack come from
one doubling loop: M^(m+1), ..., M^(2m) are one stacked product of M^m with
M^1, ..., M^m, so an order h takes about log2(h) products.

A root set holds what is formed from it, in ``SimpleRootSet.held``: the
``CoxeterData`` of each word asked for, its arrays read-only, the bicolouring
and the default plane.  ``coxeter_versors`` forms only the words not held
yet, and a word's result is the same bits whichever words share its pass.
``coxeter_plane`` validates on the default word's held ``CoxeterData``, so a
word's Coxeter matrix is formed once per root set.  ``coxeter_data`` and
``coxeter_plane_for`` read the catalog set's held results.

Angle pairs are reported canonically with t1 in (0, pi/2] and t2 in
[0, pi/2], quotienting the three orientations the construction leaves free
(versor sign, plane orientation, pseudoscalar orientation).  The signs are
kept alongside and satisfy
exp(t1*(b_sign*B)) exp(t2*(i_sign*I)(b_sign*B)) = w_sign * W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .clifford import GRADE_TOL, float_products, right_products
from .induction import _coefficient_floats, _vector_rows, induced_system, spin_group
from .rootsys import SimpleRootSet, catalog, components, display_name, ordered_dot, parse_name
from .scalars import INT_TOL, QUAD, Field, exact_solve, field_matrix, read_only, row_floats

PLANE_TOL = 1e-6           # entrywise |M A M^T - A| for an invariant plane bivector
RESIDUAL_TOL = 1e-8
ORDER_CAP = 1000
MATRIX_TOL = 1e-9          # entrywise, for M^T M = 1 and M^k = 1
UNIMODULAR_TOL = 1e-8      # | |lambda| - 1 | for a Coxeter-matrix eigenvalue
EDGE_TOL = 1e-9            # |(a_i|a_j)| above which float roots share an edge
PF_RESIDUAL = 1e-12        # |M x - lambda x| that stops the inverse iteration
PF_MAX_STEPS = 100_000
PF_LEAD_TOL = 1e-9         # smallest PF leading entry that may be divided by
DEGENERATE_TOL = 1e-9      # vanishing coloured vectors, non-simple plane bivectors
EIGEN_MATCH_TOL = 1e-6     # |lambda - target| of the plane's eigenvalue; Im above it: non-real
WEDGE_FLOOR = 1e-8         # smallest norm of an eigenvector wedge taken for a plane
BASIS_FLOOR = 1e-6         # smallest projection of a basis vector kept by plane_basis


class DegeneratePlaneError(ValueError):
    """Coloured vectors are colinear/vanishing (edgeless Coxeter graph)."""


class FactorizationError(ValueError):
    pass


@dataclass(frozen=True)
class CoxeterData:
    simple: SimpleRootSet
    word: tuple[int, ...]          # 1-based order of simple reflections
    versor: np.ndarray             # product of the simple roots, a ``_numerator_rows`` row
    matrix: np.ndarray             # coxeter_matrix of the word's roots
    h: int                         # order of the matrix (the Coxeter number)


@dataclass(frozen=True)
class CoxeterPlane:
    bivector: np.ndarray           # unit bivector, a float coefficient row
    pf: tuple[float, ...]


@dataclass(frozen=True)
class Factorization:
    h: int
    theta1: float
    theta2: Optional[float]        # None for rank-2 versors
    w_sign: int
    b_sign: int
    i_sign: int
    exponents: tuple[int, ...]
    residual: float


@dataclass(frozen=True)
class SpringerReport:
    name: str
    group_order: int
    induced: str
    exponents: tuple[int, ...]
    sum_ok: bool
    degrees: tuple[int, ...]
    degrees_ok: bool
    family_ok: bool
    formula: str

    @property
    def ok(self) -> bool:
        return self.sum_ok and self.degrees_ok and self.family_ok


# -- Coxeter element ------------------------------------------------------------


def bicolor(simple: SimpleRootSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Proper 2-colouring of the Coxeter graph (edges where roots are non-orthogonal,
    read from the Gram: exactly on exact roots, beyond EDGE_TOL on float roots),
    formed once per root set and held in ``simple.held``."""
    if "bicolor" not in simple.held:
        simple.held["bicolor"] = _bicolor(simple)
    return simple.held["bicolor"]


def _bicolor(simple: SimpleRootSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    gram = simple.gram[0]
    edges = np.abs(gram[..., 0]) > EDGE_TOL if gram.dtype.kind == "f" else (gram != 0).any(axis=2)
    _, color = components(edges)
    heads, tails = np.nonzero(edges)
    if any(color[u] == color[v] for u, v in zip(heads.tolist(), tails.tolist()) if u != v):
        raise ValueError(f"Coxeter graph of {simple.name} is not bipartite")
    white = tuple(i for i, c in enumerate(color) if c == 0)
    black = tuple(i for i, c in enumerate(color) if c == 1)
    return white, black


def default_word(simple: SimpleRootSet) -> tuple[int, ...]:
    """Catalog word where one is pinned, else bicoloured order (whites then blacks)."""
    if simple.default_word:
        return simple.default_word
    white, black = bicolor(simple)
    return tuple(i + 1 for i in white) + tuple(i + 1 for i in black)


def coxeter_matrix(rows: np.ndarray) -> np.ndarray:
    """Product of I - 2aa^T/(a|a) over the float roots `rows`, the first applied
    first, as in sandwich(R1*R2, x) = sandwich(R2, sandwich(R1, x))."""
    return _coxeter_matrices(rows, np.arange(len(rows))[None])[0]


def _coxeter_matrices(rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``coxeter_matrix`` of rows[w] for each row w of the index array idx,
    stacked: each reflection is built once, and each step applies the next
    reflection of every sequence in one product."""
    norms = np.array([a @ a for a in rows])[:, None, None]
    refl = np.eye(rows.shape[1]) - 2.0 * (rows[:, :, None] * rows[:, None]) / norms
    M = np.eye(rows.shape[1])
    for step in idx.T:
        M = refl[step] @ M
    return M


def coxeter_versors(simple: SimpleRootSet, words: Sequence[Optional[Sequence[int]]]
                    ) -> list[CoxeterData]:
    """``coxeter_versor`` of each word (None: the default word), each formed
    once per root set and held in ``simple.held``, its arrays read-only.

    The words not held yet are validated (permutations of 1..rank of unit
    roots: the matrix alone would not notice a rescaled root) and go through
    one stacked pass: the generator rows and their right products are built
    once; each step multiplies every word's versor row by its next root in
    one product, and the orders of all the matrices come from one power loop.
    A word's result does not depend on the words that share its pass.
    Nothing of a pass that raises is held.
    """
    held = simple.held
    words = [tuple(w) if w is not None else default_word(simple) for w in words]
    new = [w for w in dict.fromkeys(words) if w not in held]
    if new:
        for word in new:
            if sorted(word) != list(range(1, simple.rank + 1)):
                raise ValueError(f"word {word} is not a permutation of 1..{simple.rank}")
        if not simple.unit:
            raise ValueError("versor must have unit norm")
        idx = np.array(new) - 1
        Ms = _coxeter_matrices(simple.floats, idx)
        gens = _vector_rows(*simple.rows)
        times = right_products(gens, simple.rank, simple.field)
        W, each = gens[idx[:, 0]], np.arange(len(idx))
        for step in idx.T[1:]:
            W = times(W).reshape(len(idx), simple.rank, -1)[each, step]
        if np.abs(Ms.transpose(0, 2, 1) @ Ms - np.eye(simple.rank)).max() > MATRIX_TOL:
            raise ValueError("Coxeter matrix is not orthogonal")
        hs = _matrix_orders(Ms)
        W, Ms = read_only(W), read_only(Ms)
        held.update((word, CoxeterData(simple=simple, word=word, versor=v, matrix=M, h=h))
                    for word, v, M, h in zip(new, W, Ms, hs))
    return [held[w] for w in words]


def coxeter_versor(simple: SimpleRootSet, word: Optional[Sequence[int]] = None
                   ) -> CoxeterData:
    """Product of all simple roots in the given order, with matrix and order."""
    return coxeter_versors(simple, [word])[0]


def _matrix_orders(Ms: np.ndarray) -> list[int]:
    """``matrix_order`` of each matrix of the stack Ms, by doubling: the
    powers M^(m+1), ..., M^(2m) are M^m times M^1, ..., M^m, one stacked
    product, so an order h takes about log2(h) products, not h.
    """
    one = np.eye(Ms.shape[-1])
    powers = Ms[:, None]                       # (S, m, k, k): M^1, ..., M^m
    orders = [0] * len(Ms)
    checked = 0                                # the powers compared with 1 so far
    while True:
        gaps = np.abs(powers[:, checked:ORDER_CAP] - one).max(axis=(2, 3)).tolist()
        for i, row in enumerate(gaps):
            if not orders[i]:
                orders[i] = next((checked + j + 1 for j, gap in enumerate(row)
                                  if gap <= MATRIX_TOL), 0)
        if all(orders):
            return orders
        checked = powers.shape[1]
        if checked >= ORDER_CAP:
            raise ValueError(f"matrix order exceeds {ORDER_CAP}")
        # the powers of a matrix of no finite order may overflow: inf and nan
        # are never within MATRIX_TOL of 1, so the cap still raises
        with np.errstate(over="ignore", invalid="ignore"):
            powers = np.concatenate([powers, powers[:, -1:] @ powers], axis=1)


def matrix_order(M: np.ndarray) -> int:
    """Least k >= 1 with M^k = 1 (within MATRIX_TOL), or ValueError past ORDER_CAP."""
    return _matrix_orders(M[None])[0]


def coxeter_data(name: str, n: Optional[int] = None) -> CoxeterData:
    return coxeter_versor(catalog(name, n))


def exponents_via_matrices(Ms: np.ndarray, hs: Sequence[int]) -> list[tuple[int, ...]]:
    """``exponents_via_matrix`` of each matrix of the stack Ms with its order,
    from one eigvals call."""
    out = []
    for vals, h in zip(np.linalg.eigvals(Ms), hs):
        exps = []
        for lam in vals:
            if abs(abs(lam) - 1.0) > UNIMODULAR_TOL:
                raise FactorizationError(f"non-unimodular eigenvalue {lam}")
            m = math.atan2(lam.imag, lam.real) * h / (2.0 * math.pi)
            if m < -INT_TOL:
                m += h
            r = round(m)
            if abs(m - r) > INT_TOL:
                raise FactorizationError(f"non-integer exponent {m}")
            if r == 0 or r == h:
                raise FactorizationError("unit eigenvalue: not an essential Coxeter element")
            exps.append(int(r))
        out.append(tuple(sorted(exps)))
    return out


def exponents_via_matrix(M: np.ndarray, h: int) -> tuple[int, ...]:
    """Exponents m with eigenvalues exp(2*pi*i*m/h), multiplicity included."""
    return exponents_via_matrices(np.asarray(M, dtype=float)[None], [h])[0]


# -- float coefficient rows -----------------------------------------------------
# Sums run from 0.0 in blade order, as Multivector sums, so each float equals
# the one a chain of Multivector operations gives.  Every helper works on one
# row or, pairwise, on stacks of rows.


#: the grade of each blade mask of Cl(4), and so of Cl(1..3) as its prefixes
_BLADE_GRADES = np.array([m.bit_count() for m in range(16)])


def _grade(x: np.ndarray, k: int) -> np.ndarray:
    """The grade-k part of float coefficient rows."""
    return np.where(_BLADE_GRADES[:x.shape[-1]] == k, x, 0.0)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficient dots of rows, <x reverse(y)>_0, summed one blade at a time
    as a Python loop from 0.0 sums: ``ordered_dot``, with the -0.0 of an all
    -0.0 sum turned into that loop's 0.0."""
    return ordered_dot(x, y) + 0.0


def _norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(x, x))


def _wedge(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bivector rows u ^ v of float coordinate vectors: the grade-2 part of
    their geometric product."""
    dim = u.shape[-1]
    rows = np.zeros((2,) + u.shape[:-1] + (1 << dim,))
    rows[..., [1 << i for i in range(dim)]] = np.stack([u, v])
    return _grade(float_products(rows[0], rows[1]), 2)


# -- Perron-Frobenius / weights / plane ------------------------------------------


def pf_eigenvector(cartan) -> np.ndarray:
    """Smallest-eigenvalue eigenvector by inverse power iteration, first entry 1.

    All entries are positive for connected Coxeter graphs.  For reducible ones
    the iteration converges onto the blocks with the smallest eigenvalue; the
    entries of every other block are set to exactly zero, not left at the
    rounding noise where the iteration stopped.
    """
    M = np.array(cartan, dtype=float)
    k = M.shape[0]
    x = np.ones(k) / math.sqrt(k)
    for _ in range(PF_MAX_STEPS):
        y = np.linalg.solve(M, x)
        x = y / math.sqrt(y @ y)          # np.linalg.norm of a vector, as it computes it
        lam = float(x @ M @ x)
        r = M @ x - lam * x
        if math.sqrt(r @ r) <= PF_RESIDUAL:
            break
    else:
        raise RuntimeError("inverse power iteration did not converge")
    if x[int(np.argmax(np.abs(x)))] < 0:
        x = -x
    blocks, _ = components(np.abs(M) > EDGE_TOL)
    if len(blocks) == 1:
        if not np.all(x > 0):
            raise RuntimeError("Perron-Frobenius eigenvector not positive")
    else:
        lows = [np.linalg.eigvalsh(M[np.ix_(b, b)])[0] for b in blocks]
        for b, low in zip(blocks, lows):
            if low > min(lows) + EIGEN_MATCH_TOL:
                x[b] = 0.0
    if abs(x[0]) < PF_LEAD_TOL:
        raise RuntimeError("cannot normalize: leading entry vanishes")
    return x / x[0]


def weight_basis(simple: SimpleRootSet) -> tuple[np.ndarray, int]:
    """Numerator rows (rank, rank, d) of the w_i with (w_i | a_j) = delta_ij, and
    their denominator, as ``SimpleRootSet.cartan``: w_j is column j of A^-1, A
    the simple roots N / D.  The rows of A^-1 solve Y N = D 1 over Q, a field
    element being its d numerators: one ``exact_solve``."""
    num, den = simple.rows
    if num.dtype.kind == "f":
        return np.linalg.inv(num[..., 0]).T[..., None], 1
    k, d = num.shape[1:]
    # (Y N)[j] = sum over i of Y[i] @ field_matrix(N[i, j])
    mult = field_matrix(num, simple.field).transpose(0, 2, 1, 3).reshape(k * d, k * d)
    w, w_den = exact_solve(mult, den * np.kron(np.eye(k, dtype=object), simple.field.one))
    return w.reshape(k, k, d).transpose(1, 0, 2), w_den


def coxeter_plane(simple: SimpleRootSet) -> CoxeterPlane:
    """Unit bivector of the plane spanned by the two PF-weighted coloured
    vectors, formed once per root set and held in ``simple.held``, its
    bivector read-only; every call checks that the default word's Coxeter
    matrix, read from its held ``CoxeterData``, fixes it."""
    if "plane" not in simple.held:
        simple.held["plane"] = _pf_plane(simple)
    plane = simple.held["plane"]
    if not _stabilizes(coxeter_versor(simple).matrix, plane.bivector):
        raise FactorizationError(f"{simple.name}: Coxeter element does not stabilize the plane")
    return plane


def _pf_plane(simple: SimpleRootSet) -> CoxeterPlane:
    """The plane ``coxeter_plane`` holds, formed without reading a word."""
    white, black = bicolor(simple)
    pf = pf_eigenvector(row_floats(*simple.cartan, simple.field))
    weights = row_floats(*weight_basis(simple), simple.field)

    def combo(idxs):
        v = np.zeros(simple.rank)
        for i in idxs:
            v = v + pf[i] * weights[i]
        return v

    v_white, v_black = combo(white), combo(black)
    if _norm(v_white) < DEGENERATE_TOL or _norm(v_black) < DEGENERATE_TOL:
        raise DegeneratePlaneError(f"{simple.name}: a coloured vector vanishes")
    B = _wedge(v_white, v_black)
    nb = _norm(B)
    if nb < DEGENERATE_TOL:
        raise DegeneratePlaneError(f"{simple.name}: coloured vectors are colinear")
    B = B * (1.0 / nb)
    sq = float_products(B, B)
    if abs(sq[0] + 1.0) > DEGENERATE_TOL or np.abs(sq[1:]).max() > DEGENERATE_TOL:
        raise DegeneratePlaneError(f"{simple.name}: plane bivector is not simple")
    return CoxeterPlane(bivector=read_only(B), pf=tuple(float(v) for v in pf))


def coxeter_plane_for(name: str, n: Optional[int] = None) -> CoxeterPlane:
    return coxeter_plane(catalog(name, n))


def bivector_matrix(B: np.ndarray) -> np.ndarray:
    """Antisymmetric matrices A of bivector rows, A[i, j] = the e_(i+1) e_(j+1) coefficient.

    u ^ v has the matrix u v^T - v u^T, so an orthogonal M, acting on vectors
    as a versor does, acts on the bivector as A -> M A M^T.
    """
    k = B.shape[-1].bit_length() - 1
    A = np.zeros(B.shape[:-1] + (k, k))
    for i in range(k):
        for j in range(i + 1, k):
            A[..., i, j] = B[..., (1 << i) | (1 << j)]
    return A - np.swapaxes(A, -1, -2)


def _stabilizes(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Does each matrix M fix its bivector row B, within PLANE_TOL?"""
    A = bivector_matrix(B)
    return np.abs(M @ A @ np.swapaxes(M, -1, -2) - A).max(axis=(-2, -1)) <= PLANE_TOL


def planes_from_matrices(Ms: np.ndarray, hs: Sequence[int]) -> np.ndarray:
    """``plane_from_matrix`` of each matrix of the stack Ms with its order.

    The eigenproblems are one eig call.  Each matrix's candidate eigenvector
    pairs are tried in ``plane_from_matrix``'s order, the t-th candidate of
    every matrix still without a plane in one stacked pass.
    """
    k = Ms.shape[-1]
    vals, vecs = np.linalg.eig(Ms)
    pairs = []
    for lams, V, h in zip(vals, vecs, hs):
        m = min((round(math.atan2(lam.imag, lam.real) * h / (2 * math.pi))
                 for lam in lams if lam.imag > EIGEN_MATCH_TOL), default=h // 2)
        target = complex(math.cos(2 * math.pi * m / h), math.sin(2 * math.pi * m / h))
        cands = [i for i in range(k) if abs(lams[i] - target) < EIGEN_MATCH_TOL]
        if not cands:
            raise FactorizationError(f"no eigenvalue exp(2*pi*i*{m}/h) found")
        # complex eigenvectors span their plane; real ones (eigenvalue -1,
        # h = 2) are paired
        pairs.append([(V[:, i].real, V[:, i].imag) for i in cands]
                     + [(V[:, i].real, V[:, j].real) for i in cands for j in cands if j > i])
    planes = np.zeros((len(Ms), 1 << k))
    pending = list(range(len(Ms)))
    t = 0
    while pending:
        if any(t == len(pairs[i]) for i in pending):
            raise FactorizationError("could not build an invariant plane from the spectrum")
        B = _wedge(np.array([pairs[i][t][0] for i in pending]),
                   np.array([pairs[i][t][1] for i in pending]))
        B = np.where(np.abs(B) <= GRADE_TOL, 0.0, B)
        nb = _norm(B)
        ok = nb >= WEDGE_FLOOR
        B = B * (1.0 / np.where(ok, nb, 1.0))[:, None]
        ok &= _stabilizes(Ms[pending], B)
        planes[np.array(pending)[ok]] = B[ok]
        pending = [i for i, found in zip(pending, ok) if not found]
        t += 1
    return planes


def plane_from_matrix(W: np.ndarray, M: np.ndarray, h: int) -> np.ndarray:
    """Invariant-plane bivector row of an arbitrary word's Coxeter matrix M.

    The plane belongs to exp(2*pi*i*m/h), the non-real eigenvalue of least
    exponent m (1 if irreducible; 2 for A1xI2(n) with odd n, where h = 2n), or
    to -1 when every eigenvalue is real (h = 2).  Needed for factorizing
    Coxeter versors whose word is not bicoloured: their invariant plane is a
    conjugate of the PF-built one.  Invariance is tested on M, the matrix of
    the versor W, so W itself is not read.  Coefficients within GRADE_TOL of
    zero are eigenvector noise and are zeroed before the bivector is
    normalized.
    """
    return planes_from_matrices(M[None], [h])[0]


# -- factorization ---------------------------------------------------------------


def _wrap(t: float) -> float:
    t = math.fmod(t, 2.0 * math.pi)
    if t > math.pi:
        t -= 2.0 * math.pi
    elif t <= -math.pi:
        t += 2.0 * math.pi
    return t


_EPS = 1e-12


def canonical_angle_pair(t1: float, t2: float) -> tuple[float, float, int, int, int]:
    """Representative with t1 in (0, pi/2] and t2 in [0, pi/2].

    The equivalences quotiented out are the three sign conventions left free
    by the construction: the overall sign of the versor (a pi-shift in either
    angle), the orientation of the plane bivector (negates both angles), and
    the orientation of the pseudoscalar (negates t2 alone).  Returns
    (t1c, t2c, b_sign, i_sign, w_sign) with
    exp(t1c*(b_sign*B)) exp(t2c*(i_sign*I)(b_sign*B)) = w_sign * W.
    """
    for sg in (1, -1):
        for a in (0, 1):
            u1 = _wrap(sg * t1 + a * math.pi)
            if not (_EPS < u1 <= math.pi / 2 + _EPS):
                continue
            for io in (1, -1):
                for b in (0, 1):
                    u2 = _wrap(io * sg * t2 + b * math.pi)
                    if -_EPS <= u2 <= math.pi / 2 + _EPS:
                        w_sign = 1 if (a + b) % 2 == 0 else -1
                        return u1, max(u2, 0.0), sg, io, w_sign
    raise FactorizationError(f"cannot canonicalize angles ({t1}, {t2})")


def _exp(B: np.ndarray, theta: Sequence[float]) -> np.ndarray:
    """cos(theta) + sin(theta) B for unit bivector rows B (S, 2**dim) and their angles.

    B must square to -1 within DEGENERATE_TOL, the tolerance the Coxeter
    plane is built to.
    """
    if (~B.any(axis=1) | (B != _grade(B, 2)).any(axis=1)).any():
        raise ValueError("exponent must be a pure bivector")
    sq = float_products(B, B)
    sq[:, 0] += 1.0
    if np.abs(sq).max(initial=0.0) > DEGENERATE_TOL:
        raise ValueError("bivector must square to -1")
    E = np.zeros(B.shape)
    E[:, 0] = [math.cos(t) for t in theta]
    return E + np.array([math.sin(t) for t in theta])[:, None] * B


def factorizations(Ws: np.ndarray, Bs: np.ndarray, hs: Sequence[int], field: Field = QUAD
                   ) -> list[Factorization]:
    """``factorize`` of each versor row of Ws on its plane row of Bs with its
    order: the components, exponentials and reconstructions of all rows in
    stacked passes, the angles one row at a time."""
    dim = Bs.shape[1].bit_length() - 1
    Ws = _coefficient_floats(Ws, dim, field)
    if dim not in (2, 4):
        raise FactorizationError("factorization applies to Cl(2)/Cl(4) versors")
    s = Ws[:, 0].tolist()
    b1 = _dot(Ws, Bs).tolist()
    if dim == 2:
        t1 = [math.atan2(b, c) for b, c in zip(b1, s)]
        t2 = [0.0] * len(t1)              # a rank-2 versor has one angle
        residuals = _norm(Ws - _exp(Bs, t1)).tolist()
    else:
        I = np.zeros(16)
        I[15] = 1.0
        IB = float_products(I, Bs)
        p = _dot(Ws, I).tolist()
        b2 = _dot(Ws, IB).tolist()
        t1, t2 = [], []
        for si, pi, bi, bj in zip(s, p, b1, b2):
            sum_a = math.atan2(bi + bj, si + pi)
            diff_a = math.atan2(bi - bj, si - pi)
            t1.append(0.5 * (sum_a + diff_a))
            t2.append(0.5 * (sum_a - diff_a))
        residuals = _norm(Ws - float_products(_exp(Bs, t1), _exp(IB, t2))).tolist()
    out = []
    for h, a1, a2, residual in zip(hs, t1, t2, residuals):
        if residual > RESIDUAL_TOL:
            raise FactorizationError(f"residual {residual}" + (
                " (not a plane rotation)" if dim == 2
                else ": versor is not of two-plane form on this bivector"))
        t1c, t2c, b_sign, i_sign, w_sign = canonical_angle_pair(a1, a2)
        angles = (t1c, t2c)[:dim // 2]
        ms = [_as_exponent(t * h / math.pi, h) for t in angles]
        out.append(Factorization(
            h=h, theta1=t1c, theta2=t2c if dim == 4 else None,
            w_sign=w_sign, b_sign=b_sign, i_sign=i_sign,
            exponents=tuple(sorted(ms + [h - m for m in ms])), residual=residual,
        ))
    return out


def factorize(W: np.ndarray, B: np.ndarray, h: int, field: Field = QUAD) -> Factorization:
    """Decompose a Coxeter versor row W (as ``CoxeterData.versor``, its exact
    rows in ``field``, float rows as they are) into bivector exponentials on
    the plane bivector row B and on I*B."""
    return factorizations(W[None], B[None], [h], field)[0]


def _as_exponent(t: float, h: int) -> int:
    r = round(t)
    if abs(t - r) > INT_TOL:
        raise FactorizationError(f"angle*h/pi = {t} is not an integer")
    if not 1 <= r <= h - 1:
        raise FactorizationError(f"exponent {r} outside (0, {h})")
    return int(r)


# -- projection -------------------------------------------------------------------


def plane_basis(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal coordinate vectors spanning the plane of a unit simple bivector row."""
    dim = len(B).bit_length() - 1
    u1 = None
    for i in range(dim):
        e = np.zeros(len(B))
        e[1 << i] = 1.0
        proj = -_grade(float_products(_grade(float_products(e, B), 1), B), 1)
        n = _norm(proj)
        if n > BASIS_FLOOR:
            u1 = proj * (1.0 / n)
            break
    if u1 is None:
        raise ValueError("degenerate plane bivector")
    u2 = _grade(float_products(u1, B), 1)
    u2 = u2 * (1.0 / _norm(u2))
    coords = [1 << i for i in range(dim)]
    return u1[coords], u2[coords]


def project_to_plane(num: np.ndarray, den: int, field: Field, B: np.ndarray
                     ) -> list[tuple[float, float]]:
    """Orthogonal projection of each numerator row (n, dim, d) of ``field``
    over ``den`` onto the plane of the bivector row B, as (x, y) pairs."""
    X = row_floats(num, den, field)
    u1, u2 = plane_basis(B)
    return list(zip(ordered_dot(X, u1).tolist(), ordered_dot(X, u2).tolist()))


# -- arithmetic identities ---------------------------------------------------------


_DEGREES = {
    "A3": (2, 4, 4, 6),
    "B3": (2, 6, 8, 12),
    "H3": (2, 12, 20, 30),
}


def springer_identities(name: str, n: Optional[int] = None) -> SpringerReport:
    """Group order = 2 * (sum of induced 4D exponents), plus degree identities."""
    key, n = parse_name(name, n)
    spin = spin_group(key, n)
    order = spin.order
    k4, n4 = induced_system(key, n)
    cox = coxeter_data(k4, n4)
    exps = exponents_via_matrix(cox.matrix, cox.h)
    sum_ok = order == 2 * sum(exps)
    degrees = tuple(m + 1 for m in exps)
    expected_deg = _DEGREES.get(key)
    degrees_ok = expected_deg is None or degrees == expected_deg
    if key == "I2":
        family_ok = exps == tuple(sorted((1, n - 1))) and 2 * n == 2 * (1 + (n - 1))
        formula = f"2n = 2(1+(n-1)) at n={n}"
    elif key == "A1xI2":
        family_ok = exps == tuple(sorted((1, 1, n - 1, n - 1)))
        family_ok = family_ok and 4 * n == 2 * (1 + 1 + (n - 1) + (n - 1))
        formula = f"4n = 2(1+1+(n-1)+(n-1)) at n={n}"
    elif key == "A1^3":
        family_ok = exps == (1, 1, 1, 1)
        formula = "8 = 2(1+1+1+1)"
    else:
        family_ok = True
        formula = f"{order} = 2({'+'.join(str(m) for m in exps)})"
    return SpringerReport(
        name=catalog(key, n).name, group_order=order, induced=display_name(k4, n4),
        exponents=exps, sum_ok=sum_ok, degrees=degrees, degrees_ok=degrees_ok,
        family_ok=family_ok, formula=formula,
    )
