"""Reference versor operations for the tests, on Multivector products.

The library computes reflections, rotations, the pin order, root keys and
dot products on coefficient rows and matrices; these per-element forms are
what the tests compare them with.  Reflections use the unit-normal form
s(x) = -a x a; even unit versors R act on vectors by the sandwich
reverse(R) x R, so composition reads left to right:
sandwich(R1*R2, x) == sandwich(R2, sandwich(R1, x)).
"""

from typing import Optional

from spinroot.clifford import GRADE_TOL, Multivector
from spinroot.rootsys import coords_dot
from spinroot.scalars import KEY_DECIMALS, QT_HALF, QT_ONE, QuadTower, Scalar, eq_tol

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
    return coords_dot(u.vector_coords(), v.vector_coords())


def mv_sort_key(mv: Multivector):
    """The canonical element and root order: coefficients rounded by Python round."""
    return tuple(round(float(c), 12) for c in mv.coeffs)


def _is_unit(mv: Multivector, tol: Optional[float]) -> bool:
    tol = eq_tol() if tol is None else tol
    n = mv.norm_sq()
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
    if alpha.grades() not in ((), (1,)) or x.grades() not in ((), (1,)):
        raise ValueError("reflect expects grade-1 arguments")
    if not _is_unit(alpha, tol):
        raise ValueError("mirror vector must have unit norm")
    return _project_grades(-(alpha * x * alpha), {1}, GRADE_TOL)


def sandwich(R: Multivector, x: Multivector, tol: Optional[float] = None) -> Multivector:
    """Rotation action reverse(R) x R of an even unit versor on x.

    The grades present in x are preserved; R and -R act identically.
    """
    if any(g % 2 for g in R.grades()):
        raise ValueError("sandwich expects an even versor")
    if not _is_unit(R, tol):
        raise ValueError("versor must have unit norm")
    grades = set(x.grades()) or {0}
    return _project_grades(reverse(R) * x * R, grades, GRADE_TOL)


def versor_action(W: Multivector, x: Multivector, tol: Optional[float] = None) -> Multivector:
    """Orthogonal action of the reflection word encoded by a unit versor W.

    On a homogeneous grade-g element this is (-1)^(g*k) reverse(W) x W for a
    product of k vectors: even versors act by the plain sandwich, odd versors
    pick up a sign on odd grades (a single reflection sends x to -a x a).
    """
    if not _is_unit(W, tol):
        raise ValueError("versor must have unit norm")
    gw = {g % 2 for g in W.grades()}
    if len(gw) != 1:
        raise ValueError("versor must have homogeneous parity")
    odd_versor = gw == {1}
    gx = x.grades()
    if len(gx) != 1:
        raise ValueError("versor_action expects a homogeneous-grade argument")
    out = _project_grades(reverse(W) * x * W, set(gx), GRADE_TOL)
    if odd_versor and gx[0] % 2 == 1:
        return -out
    return out


def spinor_inner(R1: Multivector, R2: Multivector) -> Scalar:
    """Euclidean pairing (R1, R2) = <R1 reverse(R2) + R2 reverse(R1)>_0 / 2."""
    if any(g % 2 for g in R1.grades()) or any(g % 2 for g in R2.grades()):
        raise ValueError("spinor_inner expects even-grade multivectors")
    s = (R1 * reverse(R2) + R2 * reverse(R1)).scalar_part()
    if isinstance(s, QuadTower):
        return s * QT_HALF
    return 0.5 * s
