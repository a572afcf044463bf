"""Coxeter elements, exponents and the Coxeter plane.

Two independent exponent routes are implemented: the spectrum of the Coxeter
element's orthogonal matrix (eigenvalue arguments as multiples of 2*pi/h), and
the Clifford factorization of the Coxeter versor into commuting bivector
exponentials exp(t1*B) exp(t2*I*B) built on the Perron-Frobenius / bicoloured
plane bivector B.

Multivectors here are rows: the Coxeter versor W is a row in the layout of
``induction._element_rows`` (exact where the roots are), the plane bivector B
a float coefficient row.  Products, wedges and exponentials go through
``clifford.right_products``, and every float sum runs from 0.0 in blade order,
so each printed float is the one the per-element Multivector computation gives.

Angle pairs are reported canonically with t1 in (0, pi/2] and t2 in
[0, pi/2], quotienting the three orientations the construction leaves free
(versor sign, plane orientation, pseudoscalar orientation).  The signs are
kept alongside and satisfy
exp(t1*(b_sign*B)) exp(t2*(i_sign*I)(b_sign*B)) = w_sign * W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .clifford import GRADE_TOL, right_products
from .induction import _row_values, _vector_rows, induced_name, spin_group
from .mckay import is_connected
from .rootsys import SimpleRootSet, cartan_matrix, catalog, coords_dot, parse_name
from .scalars import QuadTower, Scalar, eq_tol

PLANE_TOL = 1e-6           # entrywise |M A M^T - A| for an invariant plane bivector
RESIDUAL_TOL = 1e-8
INT_TOL = 1e-6
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
    versor: np.ndarray             # product of the simple roots, an ``_element_rows`` row
    matrix: np.ndarray             # coxeter_matrix of the word's roots
    h: int                         # order of the matrix (the Coxeter number)


@dataclass(frozen=True)
class CoxeterPlane:
    bivector: np.ndarray           # unit bivector, a float coefficient row
    white: tuple[int, ...]
    black: tuple[int, ...]
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
    """Proper 2-colouring of the Coxeter graph (edges where roots are non-orthogonal)."""
    k = simple.rank
    coords = simple.vectors
    adj = [[] for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            d = coords_dot(coords[i], coords[j])
            nonzero = (not d.is_zero()) if isinstance(d, QuadTower) else abs(d) > EDGE_TOL
            if nonzero:
                adj[i].append(j)
                adj[j].append(i)
    color = [None] * k
    for start in range(k):
        if color[start] is not None:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop(0)
            for v in adj[u]:
                if color[v] is None:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    raise ValueError(f"Coxeter graph of {simple.name} is not bipartite")
    white = tuple(i for i in range(k) if color[i] == 0)
    black = tuple(i for i in range(k) if color[i] == 1)
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
    M = one = np.eye(rows.shape[1])
    for a in rows:
        M = (one - 2.0 * np.outer(a, a) / (a @ a)) @ M
    return M


def _word_matrix(simple: SimpleRootSet, word: Optional[Sequence[int]]
                 ) -> tuple[tuple[int, ...], np.ndarray]:
    """The validated word (default if None) and its ``coxeter_matrix``.

    The roots must be unit (within ``eq_tol``), as the versor of the word is
    then: the matrix alone would not notice a rescaled root.
    """
    word = tuple(word) if word is not None else default_word(simple)
    if sorted(word) != list(range(1, simple.rank + 1)):
        raise ValueError(f"word {word} is not a permutation of 1..{simple.rank}")
    rows = np.array([[float(c) for c in simple.vectors[i - 1]] for i in word])
    if np.abs((rows * rows).sum(axis=1) - 1.0).max() > eq_tol():
        raise ValueError("versor must have unit norm")
    return word, coxeter_matrix(rows)


def coxeter_versor(simple: SimpleRootSet, word: Optional[Sequence[int]] = None
                   ) -> CoxeterData:
    """Product of all simple roots in the given order, with matrix and order."""
    word, M = _word_matrix(simple, word)
    gens = _vector_rows(simple.vectors)
    times = right_products(gens, simple.rank)
    W = gens[word[0] - 1]
    for idx in word[1:]:
        W = times(W[None])[idx - 1]
    if not _is_identity(M.T @ M, np.eye(len(M))):
        raise ValueError("Coxeter matrix is not orthogonal")
    return CoxeterData(simple=simple, word=word, versor=W, matrix=M,
                       h=matrix_order(M))


def _is_identity(P: np.ndarray, one: np.ndarray) -> bool:
    """Is every entry of P within MATRIX_TOL of the identity matrix `one`'s?"""
    return np.abs(P - one).max() <= MATRIX_TOL


def matrix_order(M: np.ndarray) -> int:
    """Least k >= 1 with M^k = 1 (within MATRIX_TOL), or ValueError past ORDER_CAP."""
    one = np.eye(len(M))
    P = M
    for step in range(1, ORDER_CAP + 1):
        if _is_identity(P, one):
            return step
        P = P @ M
    raise ValueError(f"matrix order exceeds {ORDER_CAP}")


@lru_cache(maxsize=None)
def coxeter_data(name: str, n: Optional[int] = None,
                 word: Optional[tuple[int, ...]] = None) -> CoxeterData:
    return coxeter_versor(catalog(name, n), word)


def exponents_via_matrix(M: np.ndarray, h: int) -> tuple[int, ...]:
    """Exponents m with eigenvalues exp(2*pi*i*m/h), multiplicity included."""
    vals = np.linalg.eigvals(np.asarray(M, dtype=float))
    out = []
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
        out.append(int(r))
    return tuple(sorted(out))


# -- float coefficient rows -----------------------------------------------------
# Sums run from 0.0 in blade order, as Multivector sums, so each float equals
# the one a chain of Multivector operations gives.


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Geometric product x y of two float coefficient rows."""
    return right_products(y[None], len(x).bit_length() - 1)(x[None])[0]


def _grade(x: np.ndarray, k: int) -> np.ndarray:
    """The grade-k part of a float coefficient row."""
    return np.where([m.bit_count() == k for m in range(len(x))], x, 0.0)


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """Coefficient dot of two rows, <x reverse(y)>_0, summed one blade at a time."""
    total = 0.0
    for a, b in zip(x.tolist(), y.tolist()):
        total += a * b
    return total


def _norm(x: np.ndarray) -> float:
    return math.sqrt(_dot(x, x))


def _wedge(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bivector row u ^ v of two float coordinate vectors: the grade-2 part of
    their geometric product."""
    rows = _vector_rows(np.array([u, v], dtype=float).tolist())
    return _grade(_mul(rows[0], rows[1]), 2)


# -- Perron-Frobenius / weights / plane ------------------------------------------


def pf_eigenvector(cartan) -> np.ndarray:
    """Smallest-eigenvalue eigenvector by inverse power iteration, first entry 1.

    All entries are positive for connected Coxeter graphs; for reducible ones
    the iteration converges onto the block with the smallest eigenvalue and the
    remaining entries tend to zero.
    """
    M = np.array([[float(v) for v in row] for row in cartan], dtype=float)
    k = M.shape[0]
    x = np.ones(k) / math.sqrt(k)
    for _ in range(PF_MAX_STEPS):
        y = np.linalg.solve(M, x)
        x = y / np.linalg.norm(y)
        lam = float(x @ M @ x)
        if np.linalg.norm(M @ x - lam * x) <= PF_RESIDUAL:
            break
    else:
        raise RuntimeError("inverse power iteration did not converge")
    if x[int(np.argmax(np.abs(x)))] < 0:
        x = -x
    if is_connected(np.abs(M) > EDGE_TOL) and not np.all(x > 0):
        raise RuntimeError("Perron-Frobenius eigenvector not positive")
    if abs(x[0]) < PF_LEAD_TOL:
        raise RuntimeError("cannot normalize: leading entry vanishes")
    return x / x[0]


def weight_basis(simple: SimpleRootSet) -> tuple[tuple[Scalar, ...], ...]:
    """Coordinate rows w_i with (w_i | a_j) = delta_ij, exact where the roots are exact."""
    rows = [list(v) for v in simple.vectors]
    if simple.backend == "exact":
        cols = _invert_exact(rows)
    else:
        cols = np.linalg.inv(np.array(rows, dtype=float)).T.tolist()
    return tuple(tuple(c) for c in cols)


def _invert_exact(rows):
    """Gauss-Jordan inverse over the exact field; returns the inverse's columns."""
    k = len(rows)
    aug = [
        [rows[i][j] for j in range(k)]
        + [QuadTower(1 if j == i else 0) for j in range(k)]
        for i in range(k)
    ]
    for col in range(k):
        pivot_row = next(
            (r for r in range(col, k) if not aug[r][col].is_zero()), None
        )
        if pivot_row is None:
            raise ValueError("simple roots are linearly dependent")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv_p = aug[col][col].inverse()
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(k):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    # inverse matrix element (i, j) = aug[i][k + j]; column j is weight w_j
    return [[aug[i][k + j] for i in range(k)] for j in range(k)]


def coxeter_plane(simple: SimpleRootSet, word: Optional[Sequence[int]] = None,
                  validate: bool = True) -> CoxeterPlane:
    """Unit bivector of the plane spanned by the two PF-weighted coloured vectors."""
    white, black = bicolor(simple)
    pf = pf_eigenvector(cartan_matrix(simple))
    weights = np.array([[float(c) for c in w] for w in weight_basis(simple)])

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
    sq = _mul(B, B)
    if abs(sq[0] + 1.0) > DEGENERATE_TOL or np.abs(sq[1:]).max() > DEGENERATE_TOL:
        raise DegeneratePlaneError(f"{simple.name}: plane bivector is not simple")
    if validate and not _stabilizes(_word_matrix(simple, word)[1], B):
        raise FactorizationError(f"{simple.name}: Coxeter element does not stabilize the plane")
    return CoxeterPlane(
        bivector=B, white=white, black=black,
        pf=tuple(float(v) for v in pf),
    )


@lru_cache(maxsize=None)
def coxeter_plane_for(name: str, n: Optional[int] = None) -> CoxeterPlane:
    return coxeter_plane(catalog(name, n))


def bivector_matrix(B: np.ndarray) -> np.ndarray:
    """Antisymmetric matrix A of a bivector row, A[i, j] = its e_(i+1) e_(j+1) coefficient.

    u ^ v has the matrix u v^T - v u^T, so an orthogonal M, acting on vectors
    as a versor does, acts on the bivector as A -> M A M^T.
    """
    k = len(B).bit_length() - 1
    A = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            A[i, j] = B[(1 << i) | (1 << j)]
    return A - A.T


def _stabilizes(M: np.ndarray, B: np.ndarray) -> bool:
    A = bivector_matrix(B)
    return np.abs(M @ A @ M.T - A).max() <= PLANE_TOL


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
    k = M.shape[0]
    vals, vecs = np.linalg.eig(M)
    m = min((round(math.atan2(lam.imag, lam.real) * h / (2 * math.pi))
             for lam in vals if lam.imag > EIGEN_MATCH_TOL), default=h // 2)
    target = complex(math.cos(2 * math.pi * m / h), math.sin(2 * math.pi * m / h))
    cands = [i for i in range(k) if abs(vals[i] - target) < EIGEN_MATCH_TOL]
    if not cands:
        raise FactorizationError(f"no eigenvalue exp(2*pi*i*{m}/h) found")

    def try_plane(u, w):
        B = _wedge(u, w)
        B = np.where(np.abs(B) <= GRADE_TOL, 0.0, B)
        nb = _norm(B)
        if nb < WEDGE_FLOOR:
            return None
        B = B * (1.0 / nb)
        return B if _stabilizes(M, B) else None

    for i in cands:
        v = vecs[:, i]
        B = try_plane(v.real, v.imag)
        if B is not None:
            return B
    # real eigenvectors (eigenvalue -1, h = 2): pair two of them
    for i in cands:
        for j in cands:
            if j <= i:
                continue
            B = try_plane(vecs[:, i].real, vecs[:, j].real)
            if B is not None:
                return B
    raise FactorizationError("could not build an invariant plane from the spectrum")


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


def canonical_angle(t: float) -> tuple[float, int, int]:
    for sg in (1, -1):
        for a in (0, 1):
            u = _wrap(sg * t + a * math.pi)
            if _EPS < u <= math.pi / 2 + _EPS:
                return u, sg, (1 if a == 0 else -1)
    raise FactorizationError(f"cannot canonicalize angle {t}")


def _exp(B: np.ndarray, theta: float) -> np.ndarray:
    """cos(theta) + sin(theta) B for a unit bivector row B."""
    if not B.any() or (B != _grade(B, 2)).any():
        raise ValueError("exponent must be a pure bivector")
    tol = eq_tol()
    sq = _mul(B, B)
    if abs(sq[0] + 1.0) > tol or np.abs(sq[1:]).max() > tol:
        raise ValueError("bivector must square to -1")
    E = np.zeros(len(B))
    E[0] = math.cos(theta)
    return E + math.sin(theta) * B


def factorize(W: np.ndarray, B: np.ndarray, h: int) -> Factorization:
    """Decompose a Coxeter versor row W (as ``CoxeterData.versor``) into bivector
    exponentials on the plane bivector row B and on I*B."""
    dim = len(B).bit_length() - 1
    if W.dtype.kind != "f":
        W = np.array([float(c) for c in _row_values(W[None], dim)[0]])
    if dim == 2:
        s = float(W[0])
        b1 = _dot(W, B)
        t1 = math.atan2(b1, s)
        residual = _norm(W - _exp(B, t1))
        if residual > RESIDUAL_TOL:
            raise FactorizationError(f"residual {residual} (not a plane rotation)")
        t1c, b_sign, w_sign = canonical_angle(t1)
        m1 = _as_exponent(t1c * h / math.pi, h)
        return Factorization(
            h=h, theta1=t1c, theta2=None, w_sign=w_sign, b_sign=b_sign,
            i_sign=1, exponents=tuple(sorted((m1, h - m1))), residual=residual,
        )
    if dim != 4:
        raise FactorizationError("factorization applies to Cl(2)/Cl(4) versors")
    I = np.zeros(16)
    I[15] = 1.0
    IB = _mul(I, B)
    s = float(W[0])
    p = _dot(W, I)
    b1 = _dot(W, B)
    b2 = _dot(W, IB)
    sum_a = math.atan2(b1 + b2, s + p)
    diff_a = math.atan2(b1 - b2, s - p)
    t1 = 0.5 * (sum_a + diff_a)
    t2 = 0.5 * (sum_a - diff_a)
    residual = _norm(W - _mul(_exp(B, t1), _exp(IB, t2)))
    if residual > RESIDUAL_TOL:
        raise FactorizationError(
            f"residual {residual}: versor is not of two-plane form on this bivector"
        )
    t1c, t2c, b_sign, i_sign, w_sign = canonical_angle_pair(t1, t2)
    m1 = _as_exponent(t1c * h / math.pi, h)
    m2 = _as_exponent(t2c * h / math.pi, h)
    return Factorization(
        h=h, theta1=t1c, theta2=t2c, w_sign=w_sign, b_sign=b_sign,
        i_sign=i_sign, exponents=tuple(sorted((m1, h - m1, m2, h - m2))),
        residual=residual,
    )


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
        proj = -_grade(_mul(_grade(_mul(e, B), 1), B), 1)
        n = _norm(proj)
        if n > BASIS_FLOOR:
            u1 = proj * (1.0 / n)
            break
    if u1 is None:
        raise ValueError("degenerate plane bivector")
    u2 = _grade(_mul(u1, B), 1)
    u2 = u2 * (1.0 / _norm(u2))
    coords = [1 << i for i in range(dim)]
    return u1[coords], u2[coords]


def project_to_plane(vectors: Sequence[Sequence[Scalar]], B: np.ndarray
                     ) -> list[tuple[float, float]]:
    """Orthogonal projection of each coordinate row onto the plane of the
    bivector row B, as (x, y) pairs."""
    u1, u2 = (u.tolist() for u in plane_basis(B))
    pts = []
    for v in vectors:
        f = [float(c) for c in v]
        pts.append((coords_dot(f, u1), coords_dot(f, u2)))
    return pts


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
    ind = induced_name(key, n)
    k4, n4 = parse_name(ind)
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
        name=catalog(key, n).name, group_order=order, induced=ind,
        exponents=exps, sum_ok=sum_ok, degrees=degrees, degrees_ok=degrees_ok,
        family_ok=family_ok, formula=formula,
    )
