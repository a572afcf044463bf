"""Checks made apart from spinroot: exact scalars, root-system axioms, references.

Nothing here imports spinroot.  The exact field Q(sqrt2, sqrt5) has its own
arithmetic (`Q4`), exported root sets are checked exactly against the axioms
and against root sets built here from their textbook coordinates, and every
reference value carries its source.  Root sets are compared as sets or through
rotation-invariant properties (counts, the multiset of inner products), never
through the order or bytes the program writes them in.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import gcd


class OracleError(AssertionError):
    """An output disagrees with the reference it is checked against."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


# -- exact arithmetic in Q(sqrt2, sqrt5) -----------------------------------------------


class Q4:
    """a + b*r2 + c*r5 + d*r10 as four integer numerators over one denominator."""

    __slots__ = ("n", "q")

    def __init__(self, n: tuple[int, int, int, int], q: int = 1):
        if q == 0:
            raise ZeroDivisionError("Q4 denominator is zero")
        if q < 0:
            n, q = tuple(-x for x in n), -q
        g = gcd(*n, q)
        self.n = tuple(x // g for x in n)
        self.q = q // g

    @classmethod
    def rational(cls, x) -> "Q4":
        x = Fraction(x)
        return cls((x.numerator, 0, 0, 0), x.denominator)

    def __add__(self, o: "Q4") -> "Q4":
        return Q4(tuple(a * o.q + b * self.q for a, b in zip(self.n, o.n)), self.q * o.q)

    def __neg__(self) -> "Q4":
        return Q4(tuple(-a for a in self.n), self.q)

    def __sub__(self, o: "Q4") -> "Q4":
        return self + (-o)

    def __mul__(self, o: "Q4") -> "Q4":
        a, b, c, d = self.n
        e, f, g, h = o.n
        # r2*r2 = 2, r5*r5 = 5, r10*r10 = 10, r2*r5 = r10, r2*r10 = 2 r5, r5*r10 = 5 r2
        return Q4((
            a * e + 2 * b * f + 5 * c * g + 10 * d * h,
            a * f + b * e + 5 * (c * h + d * g),
            a * g + c * e + 2 * (b * h + d * f),
            a * h + d * e + b * g + c * f,
        ), self.q * o.q)

    def _conj(self, s2: int, s5: int) -> "Q4":
        a, b, c, d = self.n
        return Q4((a, s2 * b, s5 * c, s2 * s5 * d), self.q)

    def inverse(self) -> "Q4":
        """x^-1 = (product of the three Galois conjugates) / (their rational norm)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        others = self._conj(-1, 1) * self._conj(1, -1) * self._conj(-1, -1)
        norm = self * others
        require(norm.n[1:] == (0, 0, 0), f"norm of {self} is not rational")
        return others * Q4((norm.q, 0, 0, 0), norm.n[0])

    def __truediv__(self, o: "Q4") -> "Q4":
        return self * o.inverse()

    def is_zero(self) -> bool:
        return self.n == (0, 0, 0, 0)

    def __eq__(self, o) -> bool:
        return isinstance(o, Q4) and self.n == o.n and self.q == o.q

    def __hash__(self) -> int:
        return hash((self.n, self.q))

    def __repr__(self) -> str:
        return f"Q4({self.n}, {self.q})"


ZERO = Q4((0, 0, 0, 0))
ONE = Q4((1, 0, 0, 0))
HALF = Q4.rational(Fraction(1, 2))
R2 = Q4((0, 1, 0, 0))
TAU = Q4((1, 0, 1, 0), 2)            # (1 + sqrt5) / 2

_TERM = re.compile(r"([+-]?\d+(?:/\d+)?)(?:\*(r2|r5|r10))?")
_SLOT = {None: 0, "r2": 1, "r5": 2, "r10": 3}


def parse_scalar(text: str) -> Q4:
    """Parse the exported exact form, e.g. "1/4+1/4*r5" or "-1/2*r2"."""
    if not isinstance(text, str):
        raise OracleError(f"exact scalar expected as a string, got {text!r}")
    coeffs = [Fraction(0)] * 4
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos:
            raise OracleError(f"cannot parse exact scalar {text!r}")
        coeffs[_SLOT[m.group(2)]] += Fraction(m.group(1))
        pos = m.end()
    if not text:
        raise OracleError("empty exact scalar")
    q = math.lcm(*(c.denominator for c in coeffs))
    return Q4(tuple(int(c * q) for c in coeffs), q)


# -- vectors and the root-system axioms --------------------------------------------------


Vec = tuple  # tuple of Q4


def vdot(u: Vec, v: Vec) -> Q4:
    total = ZERO
    for a, b in zip(u, v):
        total = total + a * b
    return total


def vneg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def _direction(u: Vec) -> Vec:
    pivot = next((a for a in u if not a.is_zero()), None)
    require(pivot is not None, "zero vector in a root set")
    inv = pivot.inverse()
    return tuple(a * inv for a in u)


def check_root_axioms(roots: list[Vec]) -> None:
    """Exact axioms: distinct, +-pairs, no other parallels, closed under every reflection."""
    keys = set(roots)
    require(len(keys) == len(roots), f"{len(roots) - len(keys)} repeated roots")
    by_direction: dict = {}
    for r in roots:
        require(vneg(r) in keys, f"the negative of root {r} is missing")
        by_direction.setdefault(_direction(r), []).append(r)
    for members in by_direction.values():
        require(len(members) == 2, f"{len(members)} parallel roots {members}")
    for a in roots:
        scale = Q4.rational(2) / vdot(a, a)
        mirror = tuple(scale * c for c in a)
        for x in roots:
            k = vdot(x, a)
            image = tuple(xc - k * mc for xc, mc in zip(x, mirror))
            require(image in keys, f"reflection of {x} in {a} leaves the set")


def gram_profile(roots: list[Vec]) -> Counter:
    """Multiset of all inner products: invariant under rotation and reordering."""
    return Counter(vdot(u, v) for u in roots for v in roots)


def parse_exact_roots(payload: dict) -> list[Vec]:
    return [tuple(parse_scalar(c) for c in r) for r in payload["roots"]]


def _signs(values) -> set:
    return set(product(*[(v, -v) if not v.is_zero() else (v,) for v in values]))


def _even_perms(values):
    for p in permutations(range(len(values))):
        inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
        if inversions % 2 == 0:
            yield tuple(values[i] for i in p)


def reference_h4() -> list[Vec]:
    """The 120 unit roots of H4: vertices of the 600-cell (Coxeter, Regular Polytopes §8.7)."""
    roots = set()
    for i in range(4):
        for s in (ONE, -ONE):
            roots.add(tuple(s if j == i else ZERO for j in range(4)))
    roots |= _signs((HALF,) * 4)
    base = (TAU * HALF, HALF, (TAU - ONE) * HALF, ZERO)    # 1/tau = tau - 1
    for signed in _signs(base):
        roots |= set(_even_perms(signed))
    return sorted(roots, key=repr)


def reference_f4() -> list[Vec]:
    """F4 with both root lengths scaled to 1: 8 of +-e_i, 16 of (+-1/2)^4, 24 of (+-e_i +-e_j)/sqrt2
    (Humphreys, Reflection Groups and Coxeter Groups, §2.10)."""
    roots = set()
    for i in range(4):
        for s in (ONE, -ONE):
            roots.add(tuple(s if j == i else ZERO for j in range(4)))
    roots |= _signs((HALF,) * 4)
    inv_r2 = R2 * HALF
    for i in range(4):
        for j in range(i + 1, 4):
            for si, sj in product((inv_r2, -inv_r2), repeat=2):
                roots.add(tuple(si if k == i else sj if k == j else ZERO for k in range(4)))
    return sorted(roots, key=repr)


def check_integer_root_set(doubled: list[tuple[int, ...]], count: int) -> None:
    """Simply-laced roots given as integer vectors 2*alpha with (alpha|alpha) = 2:
    count, norms, +-pairs and closure under every reflection, in exact integers."""
    keys = set(map(tuple, doubled))
    require(len(doubled) == count, f"{len(doubled)} roots, expected {count}")
    require(len(keys) == len(doubled), "repeated roots")
    for r in keys:
        require(sum(c * c for c in r) == 8, f"root {r} does not have norm 2")
        require(tuple(-c for c in r) in keys, f"the negative of root {r} is missing")
    for a in keys:
        for x in keys:
            k = sum(p * q for p, q in zip(x, a))     # 4 (x|a), so (x|a) a doubled is k*a/4
            require(k % 4 == 0, f"non-integer inner product between {x} and {a}")
            image = tuple(p - (k // 4) * q for p, q in zip(x, a))
            require(image in keys, f"reflection of {x} in {a} leaves the set")


# -- published reference values ----------------------------------------------------------


#: Coxeter number and exponents (Humphreys, Reflection Groups and Coxeter Groups, Table 3.1).
COXETER = {
    "F4": (12, (1, 5, 7, 11)),
    "H4": (30, (1, 11, 19, 29)),
}

#: Coxeter graph of each 4D catalog system as the edges (i, j, m) with m = order of s_i s_j
#: (Humphreys §2.4), in the order of the catalog's simple roots.
COXETER_GRAPH = {
    "F4": {(1, 2, 3), (2, 3, 4), (3, 4, 3)},
    "H4": {(1, 2, 3), (2, 3, 3), (3, 4, 5)},
}

#: |Phi| and Coxeter number of the ADE systems (Humphreys Table 3.1, §2.10); |Phi| = rank*h.
E_ROOTS = {6: (72, 12), 7: (126, 18), 8: (240, 30)}


def a_roots(m: int) -> tuple[int, int]:
    """|Phi(A_m)| = m(m+1), h = m+1."""
    return m * (m + 1), m + 1


def d_roots(m: int) -> tuple[int, int]:
    """|Phi(D_m)| = 2m(m-1), h = 2(m-1)."""
    return 2 * m * (m - 1), 2 * (m - 1)


def group_orders(family: str, n: int) -> tuple[int, int]:
    """Pin/spin orders: I2(n) gives 4n/2n (cyclic C2n), A1xI2(n) gives 8n/4n (dicyclic)."""
    return (4 * n, 2 * n) if family == "I2" else (8 * n, 4 * n)


def source_root_count(family: str, n: int) -> int:
    return 2 * n if family == "I2" else 2 * n + 2


def family_mckay(family: str, n: int) -> tuple[int, tuple[int, ...], str]:
    """Classes, irreducible dimensions and affine diagram of C2n (A~(2n-1)) and
    Dic_n (D~(n+2)): the cyclic group is abelian; Dic_n has 4 linear characters
    and n-1 of dimension 2 (McKay 1980)."""
    if family == "I2":
        return 2 * n, (1,) * (2 * n), f"A~{2 * n - 1}"
    return n + 3, (1, 1, 1, 1) + (2,) * (n - 1), f"D~{n + 2}"


def family_diagram(family: str, n: int) -> tuple[str, int]:
    """Rotation order n maps to A_n; the triple (2, 2, n) maps to D_{n+2}."""
    return (f"A{n}", n) if family == "I2" else (f"D{n + 2}", n + 2)


def family_coxeter(family: str, n: int) -> tuple[int, tuple[int, ...]]:
    """Coxeter number and exponents of I2(n), A1 x I2(n) and I2(n) x I2(n): eigenvalues
    of a product of reducible Coxeter elements are those of the factors."""
    if family == "I2":
        return n, (1, n - 1)
    if family == "I2xI2":
        return n, (1, 1, n - 1, n - 1)
    h = math.lcm(2, n)
    return h, tuple(sorted((h // 2, h // n, h - h // n)))


def family_induced(family: str, n: int) -> str:
    if family == "I2":
        return f"I2({n})"
    return "A1^4" if n == 2 else f"I2({n})xI2({n})"


def affine_core_h(affine: str) -> int:
    """Coxeter number of the finite diagram under an affine name: A~m -> m+1, D~m -> 2(m-1),
    E~m -> 12/18/30."""
    kind, m = affine[0], int(affine[2:])
    if kind == "A":
        return a_roots(m)[1]
    if kind == "D":
        return d_roots(m)[1]
    return E_ROOTS[m][1]


# -- the acceptance verdict -------------------------------------------------------------------


CRITERIA = tuple(range(1, 12))


def check_verify_payload(payload: dict) -> None:
    """verify-all JSON: every criterion 1..11 reported, every check passed, counts consistent."""
    checks = payload["checks"]
    require(checks, "no checks reported")
    seen = sorted({c["criterion"] for c in checks})
    require(seen == list(CRITERIA), f"criteria reported {seen}")
    failed = [c for c in checks if c["passed"] is not True]
    require(not failed, f"{len(failed)} failed checks, first {failed[:1]}")
    require(payload["failed"] == 0 and payload["passed"] == len(checks),
            f"summary passed={payload['passed']} failed={payload['failed']}")
