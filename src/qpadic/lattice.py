"""Rank-two lattices over the p-adic integers in the standard symplectic plane.

A lattice is the Z_p-span of the columns of a nonsingular rational 2x2
matrix. Only p-adic valuations of the entries matter, so exact rational
arithmetic captures everything.

Every lattice is held in a unique lower-triangular canonical basis

    [[p**a, 0   ],
     [c,    p**b]]

whose pivots are exact powers of p (column scalings by p-adic units are
normalized away) and whose corner entry c is the canonical representative
of its residue class modulo p**b * Z_p, namely c = p**b * {c0 / p**b}_p.
The representative can have negative valuation when the class genuinely
does (e.g. basis [[1,0],[1/2,1]] at p = 2 reduces to itself). Two
lattices are equal iff their canonical bases match entrywise. A user basis
and the image of a transform are reduced to it; duals, scalings, sums and
intersections are built in it in closed form, with no reduction.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantViolation
from .padic import Prime, as_rational, fractional_part, p_power, padic_norm, require_prime, valuation
from .value import FrozenValue

__all__ = [
    "Lattice",
    "Mat2",
    "STANDARD_J",
    "Vec2",
    "standard_lattice",
    "sympl",
    "symplectic_transport",
]


class Vec2(FrozenValue):
    """Column vector (x, y); the constructor coerces each entry with as_rational."""

    __slots__ = ("x", "y")

    def __new__(cls, x, y) -> "Vec2":
        return cls._of(as_rational(x), as_rational(y))

    @classmethod
    def zero(cls) -> "Vec2":
        return cls(0, 0)

    @classmethod
    def parse(cls, text: str) -> "Vec2":
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"vector literal must look like 'x,y', got {text!r}")
        return cls(*parts)

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2._of(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2._of(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2._of(-self.x, -self.y)

    def scaled(self, s: Fraction | int) -> "Vec2":
        s = as_rational(s)
        return Vec2._of(self.x * s, self.y * s)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __str__(self) -> str:
        return f"{self.x},{self.y}"


class Mat2(FrozenValue):
    """Rational 2x2 matrix [[a, b], [c, d]]; the constructor coerces each entry."""

    __slots__ = ("a", "b", "c", "d")

    def __new__(cls, a, b, c, d) -> "Mat2":
        return cls._of(as_rational(a), as_rational(b), as_rational(c), as_rational(d))

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    @classmethod
    def diagonal(cls, x: Fraction | int, y: Fraction | int) -> "Mat2":
        return cls(x, 0, 0, y)

    @classmethod
    def from_columns(cls, u: Vec2, v: Vec2) -> "Mat2":
        return cls._of(u.x, v.x, u.y, v.y)

    @classmethod
    def parse(cls, text: str) -> "Mat2":
        rows = [row.split(",") for row in text.split(";")]
        if len(rows) != 2 or len(rows[0]) != 2 or len(rows[1]) != 2:
            raise ValueError(f"matrix literal must look like 'a,b;c,d', got {text!r}")
        return cls(*rows[0], *rows[1])

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def adjugate(self) -> "Mat2":
        return Mat2._of(self.d, -self.b, -self.c, self.a)

    def inverse(self) -> "Mat2":
        det = self.det()
        if det == 0:
            raise ValueError("matrix is singular")
        return self.adjugate().scaled(Fraction(1) / det)

    def scaled(self, s: Fraction | int) -> "Mat2":
        s = as_rational(s)
        return Mat2._of(self.a * s, self.b * s, self.c * s, self.d * s)

    def columns(self) -> tuple[Vec2, Vec2]:
        return Vec2._of(self.a, self.c), Vec2._of(self.b, self.d)

    def __matmul__(self, other: "Mat2 | Vec2"):
        if isinstance(other, Vec2):
            return Vec2._of(self.a * other.x + self.b * other.y, self.c * other.x + self.d * other.y)
        if isinstance(other, Mat2):
            return Mat2._of(
                self.a * other.a + self.b * other.c,
                self.a * other.b + self.b * other.d,
                self.c * other.a + self.d * other.c,
                self.c * other.b + self.d * other.d,
            )
        return NotImplemented

    def __str__(self) -> str:
        return f"{self.a},{self.b};{self.c},{self.d}"


def sympl(u: Vec2, v: Vec2) -> Fraction:
    """Standard symplectic form: sympl(u, v) = u.x*v.y - u.y*v.x = u^T J v."""
    return u.x * v.y - u.y * v.x


#: Matrix of the standard symplectic form, J = [[0, 1], [-1, 0]].
STANDARD_J = Mat2(0, 1, -1, 0)


def _canonical_basis(cols: list[Vec2], p: int) -> Mat2:
    """Column-reduce generators over Z_p to the canonical triangular basis.

    Column operations multiply the basis on the right by invertible
    p-adically integral matrices, so the span is unchanged at every step:

      1. pivot on a column whose first entry has minimal valuation and
         clear the first row of every other column (the ratios are p-adic
         integers by pivot minimality, and cancellation is exact);
      2. among the remaining columns, now of the form (0, y), pivot on a
         minimal-valuation y; any others cancel to zero exactly;
      3. scale both pivot columns by p-adic units to make the diagonal
         entries exact powers of p;
      4. reduce the corner entry modulo p**b * Z_p to its canonical
         residue p**b * {y / p**b}_p.
    """
    first_row = [(valuation(col.x, p), i) for i, col in enumerate(cols) if col.x != 0]
    if not first_row:
        raise ValueError("generators do not span the plane")
    _, i0 = min(first_row)
    u = cols[i0]
    second_row: list[tuple[int | float, int, Vec2]] = []
    for i, col in enumerate(cols):
        if i == i0:
            continue
        if col.x != 0:
            col = col - u.scaled(col.x / u.x)
        if col.y != 0:
            second_row.append((valuation(col.y, p), i, col))
    if not second_row:
        raise ValueError("generators do not span the plane")
    _, _, v = min(second_row, key=lambda item: item[:2])

    a = valuation(u.x, p)
    u = u.scaled(p_power(p, a) / u.x)
    pb = p_power(p, valuation(v.y, p))
    corner = pb * fractional_part(u.y / pb, p)
    return Mat2._of(p_power(p, a), Fraction(0), corner, pb)


class Lattice:
    """Z_p-span of the columns of a nonsingular rational basis matrix.

    The canonical basis is computed eagerly, so equality, hashing and the
    measure are O(1) afterwards. Haar measure is normalized so that
    self-dual lattices have measure 1, which makes measure(L) = |det B|_p
    for any basis B of L.
    """

    __slots__ = ("p", "basis", "canonical", "measure")

    def __init__(self, basis: Mat2, p: int):
        self.p = require_prime(p)
        if basis.det() == 0:
            raise ValueError("lattice basis must be nonsingular")
        self.basis = basis
        self.canonical = _canonical_basis(list(basis.columns()), self.p)
        self.measure = 1 / self.canonical.det()  # |det|_p, as the pivots are powers of p

    @classmethod
    def _from_canonical(cls, canonical: Mat2, p: Prime) -> "Lattice":
        """Wrap a derived basis that is already canonical at the Prime p: no reduction."""
        lat = object.__new__(cls)
        lat.p, lat.basis, lat.canonical, lat.measure = p, canonical, canonical, 1 / canonical.det()
        return lat

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.p == other.p and self.canonical == other.canonical

    def __hash__(self) -> int:
        k = self.canonical
        return hash((self.p, k.a, k.c, k.d))

    def __repr__(self) -> str:
        return f"Lattice(p={self.p}, canonical='{self.canonical}')"

    def _require_same_prime(self, other: "Lattice") -> None:
        if self.p != other.p:
            raise ValueError(f"prime mismatch: {self.p} vs {other.p}")

    def dual(self) -> "Lattice":
        """Symplectic dual: all u with sympl(u, v) in Z_p for every v in L."""
        k = self.canonical  # J * k**-T reduced; the residue c/d is unchanged
        dual = Mat2._of(1 / k.d, Fraction(0), k.c / (k.a * k.d), 1 / k.a)
        return Lattice._from_canonical(dual, self.p)

    def is_self_dual(self) -> bool:
        """True iff L equals its dual; equivalently measure(L) = 1."""
        return self.measure == 1

    def contains(self, v: Vec2) -> bool:
        """Membership test: solves B x = v and checks x has integral entries."""
        sol = self.canonical.inverse() @ v
        return valuation(sol.x, self.p) >= 0 and valuation(sol.y, self.p) >= 0

    def issubset(self, other: "Lattice") -> bool:
        self._require_same_prime(other)
        u, v = self.canonical.columns()
        return other.contains(u) and other.contains(v)

    def __add__(self, other: "Lattice") -> "Lattice":
        """Smallest lattice containing both summands, through duality: (L1* & L2*)*."""
        return (self.dual() & other.dual()).dual()

    def __and__(self, other: "Lattice") -> "Lattice":
        """Intersection, read off the canonical bases [[p**a, 0], [c, p**b]].

        With sigma = c / p**a, L = {(x, y) : v(x) >= a, v(y - sigma * x) >= b}, so for
        b1 >= b2, L1 & L2 has b = b1 and a = max(a1, a2, b2 - v(sigma1 - sigma2)).
        """
        self._require_same_prime(other)
        two, one = sorted((self.canonical, other.canonical), key=lambda k: k.d)  # b1 >= b2
        p, sigma = self.p, one.c / one.a
        pa = max(one.a, two.a, two.d * padic_norm(sigma - two.c / two.a, p))
        corner = one.d * fractional_part(sigma * pa / one.d, p)
        return Lattice._from_canonical(Mat2._of(pa, Fraction(0), corner, one.d), p)

    def scaled(self, n: int) -> "Lattice":
        """p**n * L. Scaling multiplies the (2-dimensional) measure by p**(-2n)."""
        return Lattice._from_canonical(self.canonical.scaled(p_power(self.p, n)), self.p)

    def transformed(self, g: Mat2) -> "Lattice":
        """Image g * L under a nonsingular rational matrix."""
        if g.det() == 0:
            raise ValueError("transform must be nonsingular")
        cols = list((g @ self.canonical).columns())
        return Lattice._from_canonical(_canonical_basis(cols, self.p), self.p)

    def symplectic_basis(self) -> tuple[Vec2, Vec2]:
        """Generators u, v of a self-dual lattice with sympl(u, v) = 1 exactly."""
        if not self.is_self_dual():
            raise ValueError("symplectic basis requires a self-dual lattice")
        u, v = self.canonical.columns()
        return u, v.scaled(Fraction(1) / sympl(u, v))

    def symplectic_diagonalization(self) -> tuple[Mat2, int]:
        """Write L = S * diag(p**n, 1) * L0 with det(S) = 1 exactly.

        The exponent pair of the normal form is fixed as (n, 0), where
        p**(-n) = measure(L). The canonical basis already has pairing
        sympl(u, v) = p**n on the nose, which makes S = [u / p**n | v]
        unimodular in the determinant-one sense.
        """
        u, v = self.canonical.columns()
        n = -valuation(self.measure, self.p)
        return Mat2.from_columns(u.scaled(p_power(self.p, -n)), v), n


def standard_lattice(p: int) -> Lattice:
    """The self-dual reference lattice Z_p x Z_p."""
    return Lattice(Mat2.identity(), p)


def symplectic_transport(src: Lattice, dst: Lattice) -> Mat2:
    """A determinant-one rational matrix S with S * src = dst.

    Exists iff the measures agree (equal-measure lattices are exactly the
    orbits of the rational symplectic group). Raises ValueError otherwise.
    """
    src._require_same_prime(dst)
    if src.measure != dst.measure:
        raise ValueError("transport requires equal measures")
    s1, _ = src.symplectic_diagonalization()
    s2, _ = dst.symplectic_diagonalization()
    out = s2 @ s1.inverse()
    if src.transformed(out) != dst:
        raise InvariantViolation("transport postcondition failed")
    return out
