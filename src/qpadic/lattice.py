"""Rank-two lattices over the p-adic integers in the standard symplectic plane.

A lattice is the Z_p-span of the columns of a nonsingular rational 2x2
matrix. Only p-adic valuations of the entries matter, so exact rational
arithmetic captures everything.

Every lattice has a unique lower-triangular canonical basis, its Hermite
normal form over Z_p,

    [[p**a, 0   ],
     [c,    p**b]]

and a lattice stores the two integer pivot exponents a, b and the corner c,
the canonical representative of its residue class modulo p**b * Z_p. The
corner can have negative valuation when the class genuinely does (e.g.
basis [[1,0],[1/2,1]] at p = 2 reduces to itself). Two lattices are equal
iff (a, b, c) match, and the measure is p**-(a + b).

Only a user basis and an image g * L are reduced, in closed form: pivot on the
column (x, y) of least first valuation a, column 1 on a tie, so b = v_p(det) - a
and c = p**b * {(y / x) * p**(a - b)}_p; an image forms only its first row and
pivot slope. Duals, scalings, sums and intersections are built from (a, b, c), the
canonical matrix on first read; the tests check each against a generic reduction.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantViolation
from .padic import Prime, as_rational, fractional_part, p_power, require_prime, valuation
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


def _canonical_basis(p: Prime, s: int, v1, v2, slope) -> tuple[int, int, Fraction]:
    """(a, b, c) of the span of columns (x1, y1), (x2, y2): s = v_p(det), v1 = v(x1), v2 = v(x2).

    Pivot on the column (x, y) of least first valuation a, column 1 on a tie; slope(first) is
    its y / x. Clearing the other first entry leaves valuation s - a below, so b = s - a.
    """
    first = v1 <= v2
    a = v1 if first else v2
    b = s - a
    return a, b, p_power(p, b) * fractional_part(slope(first) * p_power(p, a - b), p)


class Lattice:
    """Z_p-span of the columns of a nonsingular rational basis matrix.

    The exponents a, b and the corner are computed eagerly, so equality, hashing
    and the measure are O(1); the canonical matrix is built on first read. Haar
    measure is normalized so that self-dual lattices have measure 1, which
    makes measure(L) = |det B|_p = p**-(a + b) for any basis B of L.
    """

    __slots__ = ("p", "a", "b", "corner", "basis", "canonical")

    def __init__(self, basis: Mat2, p: int):
        p = require_prime(p)
        det = basis.det()
        if det == 0:
            raise ValueError("lattice basis must be nonsingular")
        slope = lambda first: basis.c / basis.a if first else basis.d / basis.b
        v1, v2 = valuation(basis.a, p), valuation(basis.b, p)
        a, b, corner = _canonical_basis(p, valuation(det, p), v1, v2, slope)
        self.p, self.a, self.b, self.corner, self.basis = p, a, b, corner, basis

    @classmethod
    def _from_canonical(cls, a: int, b: int, corner: Fraction, p: Prime) -> "Lattice":
        """Wrap [[p**a, 0], [corner, p**b]] at the Prime p; corner is already reduced."""
        lat = object.__new__(cls)
        lat.p, lat.a, lat.b, lat.corner = p, a, b, corner
        return lat

    def __getattr__(self, name: str) -> Mat2:
        # reached only while a slot is empty: fill canonical, or a derived lattice's basis, once
        if name == "canonical":
            p, a, b = self.p, self.a, self.b
            self.canonical = Mat2._of(p_power(p, a), Fraction(0), self.corner, p_power(p, b))
        elif name == "basis":
            self.basis = self.canonical
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return getattr(self, name)

    @property
    def measure(self) -> Fraction:
        """Haar measure |det B|_p = p**-(a + b)."""
        return p_power(self.p, -self.a - self.b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return (self.p, self.a, self.b, self.corner) == (other.p, other.a, other.b, other.corner)

    def __hash__(self) -> int:
        return hash((self.p, self.a, self.b, self.corner))

    def __repr__(self) -> str:
        return f"Lattice(p={self.p}, canonical='{self.canonical}')"

    def _require_same_prime(self, other: "Lattice") -> None:
        if self.p != other.p:
            raise ValueError(f"prime mismatch: {self.p} vs {other.p}")

    def dual(self) -> "Lattice":
        """Symplectic dual: all u with sympl(u, v) in Z_p for every v in L."""
        # J * k**-T reduced: exponents -b, -a, and the residue corner / p**b is unchanged
        return Lattice._from_canonical(-self.b, -self.a, self.corner * self.measure, self.p)

    def is_self_dual(self) -> bool:
        """True iff L equals its dual; equivalently measure(L) = 1."""
        return self.a + self.b == 0

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
        """Intersection, read off the exponents and corners.

        With sigma = c / p**a, L = {(x, y) : v(x) >= a, v(y - sigma * x) >= b}, so for
        b1 >= b2, L1 & L2 has b = b1 and a = max(a1, a2, b2 - v(sigma1 - sigma2)).
        """
        self._require_same_prime(other)
        one, two = (self, other) if self.b >= other.b else (other, self)
        p, a = self.p, max(one.a, two.a, two.b - one._slope_valuation(two))
        corner = p_power(p, one.b) * fractional_part(one.corner * p_power(p, a - one.a - one.b), p)
        return Lattice._from_canonical(a, one.b, corner, p)

    def _slope_valuation(self, other: "Lattice") -> int | float:
        """v(sigma - sigma') of the slopes sigma = c / p**a; INFINITY when they agree."""
        p = self.p
        return valuation(self.corner / p_power(p, self.a) - other.corner / p_power(p, other.a), p)

    def scaled(self, n: int) -> "Lattice":
        """p**n * L. Scaling multiplies the (2-dimensional) measure by p**(-2n)."""
        p = self.p
        return Lattice._from_canonical(self.a + n, self.b + n, self.corner * p_power(p, n), p)

    def transformed(self, g: Mat2) -> "Lattice":
        """Image g * L under a nonsingular rational matrix."""
        det = g.det()
        if det == 0:
            raise ValueError("transform must be nonsingular")
        return self._image(g, valuation(det, self.p))

    def _image(self, g: Mat2, s: int) -> "Lattice":
        """g * L for v_p(det g) = s: g * [[p**a, 0], [c, p**b]] has first row (x1, g.b * p**b),
        v_p(det) = s + a + b, and slope (g.c * p**a + g.d * c) / x1 or g.d / g.b."""
        p, c, pa = self.p, self.corner, p_power(self.p, self.a)
        x1 = g.a * pa + g.b * c
        slope = lambda first: (g.c * pa + g.d * c) / x1 if first else g.d / g.b
        v1, v2 = valuation(x1, p), valuation(g.b, p) + self.b
        return Lattice._from_canonical(*_canonical_basis(p, s + self.a + self.b, v1, v2, slope), p)

    def symplectic_basis(self) -> tuple[Vec2, Vec2]:
        """Generators u, v of a self-dual lattice with sympl(u, v) = 1 exactly."""
        if not self.is_self_dual():
            raise ValueError("symplectic basis requires a self-dual lattice")
        u, v = self.canonical.columns()
        return u, v.scaled(Fraction(1) / sympl(u, v))

    def symplectic_diagonalization(self) -> tuple[Mat2, int]:
        """Write L = S * diag(p**n, 1) * L0 with det(S) = 1 exactly.

        The exponent pair of the normal form is fixed as (n, 0) with
        n = a + b, so p**(-n) = measure(L). The canonical basis already has
        pairing sympl(u, v) = p**n on the nose, which makes S = [u / p**n | v]
        unimodular in the determinant-one sense.
        """
        u, v = self.canonical.columns()
        n = self.a + self.b
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
    if src.a + src.b != dst.a + dst.b:
        raise ValueError("transport requires equal measures")
    s1, _ = src.symplectic_diagonalization()
    s2, _ = dst.symplectic_diagonalization()
    out = s2 @ s1.inverse()
    if src.transformed(out) != dst:
        raise InvariantViolation("transport postcondition failed")
    return out
