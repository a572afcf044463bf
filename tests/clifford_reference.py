"""Reference versor operations for the tests, on Multivector products.

The library computes reflections, rotations, the pin order, root keys, dot
products, the Coxeter versor, its factorization and the Coxeter plane on
coefficient rows and matrices; these per-element forms are what the tests
compare them with.  Reflections use the unit-normal form s(x) = -a x a; even
unit versors R act on vectors by the sandwich reverse(R) x R, so composition
reads left to right: sandwich(R1*R2, x) == sandwich(R2, sandwich(R1, x)).

The Multivector accessors the library itself no longer calls (``norm``,
``vector_coords``, ``grade_project`` and the like) live here as functions,
as do the Multivector forms of the group rows (``group_elements``,
``element_rows``, ``index_of``) and of the roots (``mv_vector``,
``root_multivectors``).
Float comparisons default to ``EQ_TOL``.
"""

import math
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from spinroot import coxplane
from spinroot.clifford import Multivector, blade_name, numerator_rows
from spinroot.induction import VersorGroup
from spinroot.rootsys import RootSystem, SimpleRootSet, cartan_matrix
from spinroot.scalars import (
    BASIS_FLOOR,
    EIGEN_MATCH_TOL,
    KEY_DECIMALS,
    NOISE_TOL,
    QT_HALF,
    QT_ONE,
    QT_ZERO,
    FLOATS,
    QUAD,
    WEDGE_FLOOR,
    BackendMismatchError,
    QuadTower,
    Scalar,
    quad_numerators,
    row_floats,
    row_keys,
    scalar_to_json,
)

EQ_TOL = 1e-9      # absolute float tolerance of the reference checks


def quad_field(num: np.ndarray):
    """The field of ``quad_numerators`` rows: the float rows, or Q(sqrt2, sqrt5)."""
    return FLOATS if num.dtype.kind == "f" else QUAD

# -- Multivector accessors ------------------------------------------------------


def basis_vector(dim: int, i: int, backend: str = "exact") -> Multivector:
    if not 0 <= i < dim:
        raise ValueError(f"basis index {i} out of range for dim {dim}")
    return mv_blade(dim, 1 << i, QT_ONE if backend == "exact" else 1.0)


def mv_zero(dim: int, backend: str = "exact") -> Multivector:
    z = QT_ZERO if backend == "exact" else 0.0
    return Multivector(dim, [z] * (1 << dim))


def mv_blade(dim: int, mask: int, value: Scalar) -> Multivector:
    """value times the blade of ``mask``."""
    mv = mv_zero(dim, "exact" if isinstance(value, QuadTower) else "float")
    coeffs = list(mv.coeffs)
    coeffs[mask] = value
    return Multivector(dim, coeffs)


def mv_vector(coords: Sequence[Scalar]) -> Multivector:
    """The grade-1 multivector of a coordinate tuple."""
    exact = any(isinstance(c, QuadTower) for c in coords)
    coeffs = [QT_ZERO if exact else 0.0] * (1 << len(coords))
    for i, c in enumerate(coords):
        coeffs[1 << i] = c
    return Multivector(len(coords), coeffs)


def root_multivectors(roots: Union[SimpleRootSet, RootSystem]) -> tuple[Multivector, ...]:
    """The roots of a simple set or of a root system as Multivectors, from
    their ``vectors``."""
    return tuple(mv_vector(v) for v in roots.vectors)


def mv_scalar(dim: int, value: Scalar) -> Multivector:
    return mv_blade(dim, 0, value)


def pseudoscalar(dim: int, backend: str = "exact") -> Multivector:
    return mv_blade(dim, (1 << dim) - 1, QT_ONE if backend == "exact" else 1.0)


def approx_eq(a: Multivector, b: Multivector, tol: Optional[float] = None) -> bool:
    if a.dim != b.dim:
        return False
    tol = EQ_TOL if tol is None else tol
    return all(abs(float(x) - float(y)) <= tol for x, y in zip(a.coeffs, b.coeffs))


def grade_project(a: Multivector, k: int) -> Multivector:
    if not 0 <= k <= a.dim:
        raise ValueError(f"grade {k} out of range for Cl({a.dim})")
    z = a._zero_coeff()
    return Multivector(a.dim, [c if m.bit_count() == k else z for m, c in enumerate(a.coeffs)])


def grades(a: Multivector) -> tuple[int, ...]:
    return tuple(sorted({m.bit_count() for m, _ in a.nz}))


def scalar_part(a: Multivector) -> Scalar:
    return a.coeffs[0]


def norm_sq(a: Multivector) -> Scalar:
    # <A reverse(A)>_0 = sum of squared coefficients in the Euclidean metric
    total = a._zero_coeff()
    for _, c in a.nz:
        total = total + c * c
    return total


def norm(a: Multivector) -> float:
    return math.sqrt(float(norm_sq(a)))


def vector_coords(a: Multivector) -> tuple[Scalar, ...]:
    if any(m.bit_count() != 1 for m, _ in a.nz):
        raise ValueError("not a grade-1 multivector")
    return tuple(a.coeffs[1 << i] for i in range(a.dim))


def to_float(a: Multivector) -> Multivector:
    if a.backend == "float":
        return a
    return Multivector(a.dim, [float(c) for c in a.coeffs])


def to_blade_dict(a: Multivector) -> dict:
    """Nonzero blade coefficients keyed by blade name ('' for the scalar)."""
    return {blade_name(m): scalar_to_json(c) for m, c in a.nz}


def coords_dot(uc: Sequence[Scalar], vc: Sequence[Scalar]) -> Scalar:
    """(u|v) of two coordinate tuples, summed in coordinate order."""
    total = uc[0] * vc[0]
    for a, b in zip(uc[1:], vc[1:]):
        total = total + a * b
    return total


def _row_values(rows: np.ndarray, dim: int) -> list:
    """Coefficient lists, floats or QuadTowers, of float coefficient rows or
    of rows in ``clifford``'s versor-row layout: blade-major field
    numerators (4 exact, 1 float) and one denominator per row, 1.0 on floats."""
    if rows.shape[1] == 1 << dim:
        return rows.tolist()
    if rows.dtype.kind == "f":
        return rows[:, :-1].tolist()
    return [[QuadTower._raw(*row[4 * b:4 * b + 4], row[-1]) for b in range(1 << dim)]
            for row in rows.tolist()]


def row_multivector(row: np.ndarray, dim: int) -> Multivector:
    """The Multivector of a row: a float coefficient row (a plane bivector) or
    a row in ``clifford``'s versor-row layout (a Coxeter versor)."""
    return Multivector(dim, _row_values(np.asarray(row)[None], dim)[0])


def multivector_row(mv: Multivector) -> np.ndarray:
    """The float coefficient row of a float Multivector."""
    return np.array(mv.coeffs, dtype=float)


def element_rows(elements: Sequence[Multivector]) -> np.ndarray:
    """The group rows of multivectors, in ``clifford``'s versor-row layout."""
    return numerator_rows(*quad_numerators([e.coeffs for e in elements]))


@lru_cache(maxsize=None)
def group_elements(G: VersorGroup) -> tuple[Multivector, ...]:
    """The elements of G as Multivectors, in the order of its rows."""
    return tuple(Multivector(G.dim, c) for c in _row_values(G.rows, G.dim))


@lru_cache(maxsize=None)
def _row_index(G: VersorGroup) -> dict:
    return {key: i for i, key in enumerate(row_keys(G.rows))}


def index_of(G: VersorGroup, mv: Multivector) -> int:
    """Index of an element of G, keyed by ``row_keys`` as the Cayley table keys products."""
    return _row_index(G)[row_keys(element_rows([mv]))[0]]


def blade_sign(a: int, b: int) -> int:
    """Sign of the blade product e_a e_b = +-e_(a ^ b): each vector of b moves
    left past every vector of a with a larger index."""
    swaps = sum(1 for i in range(4) if b >> i & 1 for j in range(i + 1, 4) if a >> j & 1)
    return -1 if swaps & 1 else 1


@lru_cache(maxsize=None)
def product_tensor(dim: int, d: int = 4) -> np.ndarray:
    """T[(a, p), (b, q), (a ^ b, r)], the structure tensor of Cl(dim) over
    Q(sqrt2, sqrt5) (d = 4) or over the floats (d = 1): the coefficient of
    blade a ^ b and field basis r in (basis p e_a)(basis q e_b), by
    ``blade_sign`` and QuadTower products of the first d of the basis
    {1, sqrt2, sqrt5, sqrt10}, as Python ints.  Multivectors with numerator
    rows x, y over D have the product ``einsum("i,j,ijk->k", x, y, T)`` over D**2."""
    basis = [QuadTower(1), QuadTower(0, 1), QuadTower(0, 0, 1), QuadTower(0, 0, 0, 1)][:d]
    size = 1 << dim
    T = np.zeros((size, d, size, d, size, d), dtype=object)
    for p, x in enumerate(basis):
        for q, y in enumerate(basis):
            z = x * y
            for r, c in enumerate((z.a, z.b, z.c, z.d)[:d]):
                for a in range(size):
                    for b in range(size):
                        T[a, p, b, q, a ^ b, r] = blade_sign(a, b) * int(c)
    return T.reshape(d * size, d * size, d * size)


# sign of the reversion on each blade: (-1)^(k(k-1)/2) for grade k
_REV = {
    d: tuple(
        -1 if (m.bit_count() * (m.bit_count() - 1) // 2) & 1 else 1
        for m in range(1 << d)
    )
    for d in (1, 2, 3, 4)
}


def reverse(a: Multivector) -> Multivector:
    """Reversion: the order of the vectors in every blade reversed."""
    rev = _REV[a.dim]
    return Multivector(a.dim, [(-c if rev[m] < 0 else c) for m, c in enumerate(a.coeffs)])


def mv_key(mv: Multivector, decimals: int = KEY_DECIMALS):
    """Canonical hashable key: exact coefficients, or rounded floats."""
    if mv.backend == "exact":
        return mv.coeffs
    return tuple(round(c, decimals) + 0.0 for c in mv.coeffs)


def dot(u: Multivector, v: Multivector) -> Scalar:
    """(u|v) of two vectors, summed in coordinate order."""
    return coords_dot(vector_coords(u), vector_coords(v))


def mv_sort_key(mv: Multivector):
    """The canonical element and root order: coefficients rounded by Python round."""
    return tuple(round(float(c), 12) for c in mv.coeffs)


def _is_unit(mv: Multivector, tol: Optional[float]) -> bool:
    tol = EQ_TOL if tol is None else tol
    n = norm_sq(mv)
    if mv.backend == "exact":
        return n == QT_ONE
    return abs(n - 1.0) <= tol


def _project_grades(mv: Multivector, grades: set[int], tol: float) -> Multivector:
    """Keep the listed grades; anything else must be (numerical) noise."""
    z = mv._zero_coeff()
    out = list(mv.coeffs)
    for m, c in enumerate(mv.coeffs):
        if m.bit_count() not in grades:
            if abs(float(c)) > tol:
                raise ValueError(
                    f"unexpected grade-{m.bit_count()} component of size {float(c)}"
                )
            out[m] = z
    return Multivector(mv.dim, out)


def reflect(alpha: Multivector, x: Multivector, tol: Optional[float] = None) -> Multivector:
    """Reflection of vector x in the hyperplane normal to the unit vector alpha."""
    if grades(alpha) not in ((), (1,)) or grades(x) not in ((), (1,)):
        raise ValueError("reflect expects grade-1 arguments")
    if not _is_unit(alpha, tol):
        raise ValueError("mirror vector must have unit norm")
    return _project_grades(-(alpha * x * alpha), {1}, NOISE_TOL)


def sandwich(R: Multivector, x: Multivector, tol: Optional[float] = None) -> Multivector:
    """Rotation action reverse(R) x R of an even unit versor on x.

    The grades present in x are preserved; R and -R act identically.
    """
    if any(g % 2 for g in grades(R)):
        raise ValueError("sandwich expects an even versor")
    if not _is_unit(R, tol):
        raise ValueError("versor must have unit norm")
    kept = set(grades(x)) or {0}
    return _project_grades(reverse(R) * x * R, kept, NOISE_TOL)


def versor_action(W: Multivector, x: Multivector, tol: Optional[float] = None) -> Multivector:
    """Orthogonal action of the reflection word encoded by a unit versor W.

    On a homogeneous grade-g element this is (-1)^(g*k) reverse(W) x W for a
    product of k vectors: even versors act by the plain sandwich, odd versors
    pick up a sign on odd grades (a single reflection sends x to -a x a).
    """
    if not _is_unit(W, tol):
        raise ValueError("versor must have unit norm")
    gw = {g % 2 for g in grades(W)}
    if len(gw) != 1:
        raise ValueError("versor must have homogeneous parity")
    odd_versor = gw == {1}
    gx = grades(x)
    if len(gx) != 1:
        raise ValueError("versor_action expects a homogeneous-grade argument")
    out = _project_grades(reverse(W) * x * W, set(gx), NOISE_TOL)
    if odd_versor and gx[0] % 2 == 1:
        return -out
    return out


def spinor_inner(R1: Multivector, R2: Multivector) -> Scalar:
    """Euclidean pairing (R1, R2) = <R1 reverse(R2) + R2 reverse(R1)>_0 / 2."""
    if any(g % 2 for g in grades(R1)) or any(g % 2 for g in grades(R2)):
        raise ValueError("spinor_inner expects even-grade multivectors")
    s = scalar_part(R1 * reverse(R2) + R2 * reverse(R1))
    if isinstance(s, QuadTower):
        return s * QT_HALF
    return 0.5 * s


# -- the Coxeter layer on Multivectors ----------------------------------------------


def exp_bivector(B: Multivector, theta: float, tol: Optional[float] = None) -> Multivector:
    """cos(theta) + sin(theta) B for a unit bivector B (float backend)."""
    if B.backend != "float":
        raise BackendMismatchError("exp_bivector works on the float backend")
    if grades(B) != (2,):
        raise ValueError("exponent must be a pure bivector")
    tol = EQ_TOL if tol is None else tol
    sq = B * B
    if abs(scalar_part(sq) + 1.0) > tol or any(abs(c) > tol for m, c in sq.nz if m != 0):
        raise ValueError("bivector must square to -1")
    return mv_scalar(B.dim, math.cos(theta)) + math.sin(theta) * B


def chain_versor(simple: SimpleRootSet, word: Sequence[int]) -> Multivector:
    """The Coxeter versor as the chain of Multivector products of the word's roots."""
    roots = root_multivectors(simple)
    W = roots[word[0] - 1]
    for idx in word[1:]:
        W = W * roots[idx - 1]
    return W


def reference_plane(simple: SimpleRootSet) -> Multivector:
    """The PF plane bivector of ``coxplane.coxeter_plane``, built from
    Multivector sums and products (not validated)."""
    white, black = coxplane.bicolor(simple)
    pf = coxplane.pf_eigenvector(cartan_matrix(simple))
    weights = row_floats(*coxplane.weight_basis(simple), simple.field).tolist()
    wf = [mv_vector(w) for w in weights]

    def combo(idxs):
        v = mv_zero(simple.rank, "float")
        for i in idxs:
            v = v + float(pf[i]) * wf[i]
        return v

    B = grade_project(combo(white) * combo(black), 2)
    return B / norm(B)


def reference_plane_from_matrix(M: np.ndarray, h: int) -> Multivector:
    """``coxplane.plane_from_matrix`` with the eigenvector wedge taken as a
    Multivector product."""
    k = M.shape[0]
    vals, vecs = np.linalg.eig(M)
    m = min((round(math.atan2(lam.imag, lam.real) * h / (2 * math.pi))
             for lam in vals if lam.imag > EIGEN_MATCH_TOL), default=h // 2)
    target = complex(math.cos(2 * math.pi * m / h), math.sin(2 * math.pi * m / h))
    cands = [i for i in range(k) if abs(vals[i] - target) < EIGEN_MATCH_TOL]

    def try_plane(u, w):
        vu = mv_vector([float(t) for t in u])
        vw = mv_vector([float(t) for t in w])
        B = grade_project(vu * vw, 2)
        B = Multivector(k, [0.0 if abs(c) <= NOISE_TOL else c for c in B.coeffs])
        nb = norm(B)
        if nb < WEDGE_FLOOR:
            return None
        B = B / nb
        return B if coxplane._stabilizes(M, multivector_row(B)) else None

    pairs = [(vecs[:, i].real, vecs[:, i].imag) for i in cands]
    pairs += [(vecs[:, i].real, vecs[:, j].real) for i in cands for j in cands if j > i]
    for u, w in pairs:
        B = try_plane(u, w)
        if B is not None:
            return B
    raise coxplane.FactorizationError("could not build an invariant plane from the spectrum")


def _component(W: Multivector, U: Multivector) -> float:
    # <W reverse(U)>_0 for unit blade-combinations: plain coefficient dot
    return sum(float(a) * float(b) for a, b in zip(W.coeffs, U.coeffs))


def reference_factorize(W: Multivector, B: Multivector, h: int) -> coxplane.Factorization:
    """``coxplane.factorize`` on Multivectors: components, exponentials and the
    reconstruction as Multivector products."""
    Wf, B = to_float(W), to_float(B)
    s = float(Wf.coeffs[0])
    b1 = _component(Wf, B)
    if Wf.dim == 2:
        t1 = math.atan2(b1, s)
        residual = norm(Wf - exp_bivector(B, t1))
        t1c, _, b_sign, _, w_sign = coxplane.canonical_angle_pair(t1, 0.0)
        m1 = coxplane._as_exponent(t1c * h / math.pi, h)
        return coxplane.Factorization(
            h=h, theta1=t1c, theta2=None, w_sign=w_sign, b_sign=b_sign,
            i_sign=1, exponents=tuple(sorted((m1, h - m1))), residual=residual,
        )
    I = pseudoscalar(4, "float")
    IB = I * B
    p = _component(Wf, I)
    b2 = _component(Wf, IB)
    sum_a = math.atan2(b1 + b2, s + p)
    diff_a = math.atan2(b1 - b2, s - p)
    t1 = 0.5 * (sum_a + diff_a)
    t2 = 0.5 * (sum_a - diff_a)
    residual = norm(Wf - exp_bivector(B, t1) * exp_bivector(IB, t2))
    t1c, t2c, b_sign, i_sign, w_sign = coxplane.canonical_angle_pair(t1, t2)
    m1 = coxplane._as_exponent(t1c * h / math.pi, h)
    m2 = coxplane._as_exponent(t2c * h / math.pi, h)
    return coxplane.Factorization(
        h=h, theta1=t1c, theta2=t2c, w_sign=w_sign, b_sign=b_sign,
        i_sign=i_sign, exponents=tuple(sorted((m1, h - m1, m2, h - m2))),
        residual=residual,
    )


def reference_plane_basis(B: Multivector) -> tuple[Multivector, Multivector]:
    """Orthonormal vector pair spanning the plane of a unit simple bivector,
    by Multivector products."""
    dim = B.dim
    for i in range(dim):
        t = grade_project(basis_vector(dim, i, "float") * B, 1)
        proj = -grade_project(t * B, 1)
        if norm(proj) > BASIS_FLOOR:
            u1 = proj / norm(proj)
            break
    else:
        raise ValueError("degenerate plane bivector")
    u2 = grade_project(u1 * B, 1)
    return u1, u2 / norm(u2)
