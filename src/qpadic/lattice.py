"""Rank-two lattices over the p-adic integers in the standard symplectic plane.

A lattice is the Z_p-span of the columns of a nonsingular rational 2x2 matrix. Only p-adic
valuations of the entries matter, so exact rational arithmetic captures everything.

Every lattice is L = {(x, y) : v(x) >= a, v(y - sigma * x) >= b} for integer exponents
a, b and a slope sigma modulo p**(b - a) * Z_p. A lattice stores (p, a, b, sigma), with
sigma reduced to p**(b - a) * {sigma * p**(a - b)}_p (its valuation can be negative), so
two lattices are equal iff (a, b, sigma) match, and the measure is p**-(a + b). Its
Hermite normal form over Z_p, [[p**a, 0], [sigma * p**a, p**b]], is built on first read.

The dual is (-b, -a, sigma) and p**n * L is (a + n, b + n, sigma). One formula reduces
an image g * L: its columns have first entries p**a * x1, x1 = g.a + g.b * sigma, and
p**b * g.b; pivot on the one of least valuation a', column 1 on a tie, with slope
(g.c + g.d * sigma) / x1 or g.d / g.b; then b' = v_p(det g) + a + b - a' and sigma' is
that slope reduced modulo p**(b' - a'). A user basis B is the image of (0, 0, 0) under B.
All of it runs on unreduced int numerators and denominators, whose valuations padic reads
directly, and the reduced slope is the one Fraction built. Containment is one rule:
L <= L' iff a >= a', b >= b' and a + v(sigma - sigma') >= b' (both canonical columns lie in
L'); `_gap` gives the least n with p**n * L <= L', and `issubset`, `&` and the witness
threshold read it. The tests check each closed form against a generic reduction.
"""

from __future__ import annotations

from fractions import Fraction

from .padic import Prime, _ratio_valuation, _residue, as_rational, p_power, require_prime, valuation
from .value import FrozenValue

__all__ = [
    "Lattice",
    "Mat2",
    "Vec2",
    "standard_lattice",
    "sympl",
]


class Vec2(FrozenValue):
    """Column vector (x, y); the constructor coerces each entry with as_rational."""

    __slots__ = ("x", "y")

    def __new__(cls, x, y) -> "Vec2":
        return cls._of(as_rational(x), as_rational(y))

    @classmethod
    def zero(cls) -> "Vec2":
        return _ZERO

    @classmethod
    def parse(cls, text: str) -> "Vec2":
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"vector literal must look like 'x,y', got {text!r}")
        return cls(*parts)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2._of(self.x - other.x, self.y - other.y)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __str__(self) -> str:
        return f"{self.x},{self.y}"


#: The one zero vector; a FrozenValue is immutable, so every zero shift can share it.
_ZERO = Vec2._of(Fraction(0), Fraction(0))


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
        try:
            return Fraction(*self._det_ratio())
        except ValueError:  # singular
            return Fraction(0)

    def _det_ratio(self) -> tuple[int, int]:
        """a * d - b * c as an unreduced (num, den) over the product of the four denominators,
        num != 0 < den: the one singularity check, raising ValueError for a singular matrix."""
        (na, da), (nb, db) = self.a.as_integer_ratio(), self.b.as_integer_ratio()
        (nc, dc), (nd, dd) = self.c.as_integer_ratio(), self.d.as_integer_ratio()
        num = na * nd * db * dc - nb * nc * da * dd
        if not num:
            raise ValueError(f"singular matrix {self}")
        return num, da * db * dc * dd

    def adjugate(self) -> "Mat2":
        return Mat2._of(self.d, -self.b, -self.c, self.a)

    def inverse(self) -> "Mat2":
        num, den = self._det_ratio()
        return self.adjugate().scaled(Fraction(den, num))

    def scaled(self, s: Fraction | int) -> "Mat2":
        s = as_rational(s)
        return Mat2._of(self.a * s, self.b * s, self.c * s, self.d * s)

    def columns(self) -> tuple[Vec2, Vec2]:
        return Vec2._of(self.a, self.c), Vec2._of(self.b, self.d)

    def __matmul__(self, other: "Mat2 | Vec2"):
        if isinstance(other, Vec2):
            return Vec2._of(_dot(self.a, other.x, self.b, other.y), _dot(self.c, other.x, self.d, other.y))
        if isinstance(other, Mat2):
            return Mat2._of(
                _dot(self.a, other.a, self.b, other.c),
                _dot(self.a, other.b, self.b, other.d),
                _dot(self.c, other.a, self.d, other.c),
                _dot(self.c, other.b, self.d, other.d),
            )
        return NotImplemented

    def __str__(self) -> str:
        return f"{self.a},{self.b};{self.c},{self.d}"


def sympl(u: Vec2, v: Vec2) -> Fraction:
    """Standard symplectic form: sympl(u, v) = u.x*v.y - u.y*v.x = u^T J v."""
    return _dot(u.x, v.y, -u.y, v.x)


def _dot(a: Fraction, x: Fraction, b: Fraction, y: Fraction) -> Fraction:
    """a * x + b * y over the int numerators and denominators: one Fraction, so one gcd."""
    (na, da), (nx, dx) = a.as_integer_ratio(), x.as_integer_ratio()
    (nb, db), (ny, dy) = b.as_integer_ratio(), y.as_integer_ratio()
    dax, dby = da * dx, db * dy
    return Fraction(na * nx * dby + nb * ny * dax, dax * dby)


def _reduced(p: Prime, a: int, b: int, num: int, den: int) -> tuple[int, int, Fraction]:
    """(a, b, sigma) with the slope num / den taken to its representative modulo p**(b - a) * Z_p."""
    return a, b, _residue(num, den, p, b - a)


def _image_of(
    p: Prime, a: int, b: int, slope: Fraction | int, g: Mat2, s: int
) -> tuple[int, int, Fraction]:
    """(a', b', sigma') of g * L for L = (a, b, sigma) and s = v_p(det g): g maps the canonical
    columns to p**a * (x1, g.c + g.d * sigma) and p**b * (g.b, g.d); b' = s + a + b - a'."""
    ns, ds = slope.as_integer_ratio()
    (na, da), (nb, db) = g.a.as_integer_ratio(), g.b.as_integer_ratio()
    (nc, dc), (nd, dd) = g.c.as_integer_ratio(), g.d.as_integer_ratio()
    x1 = na * db * ds + nb * ns * da  # the numerator of x1 over da * db * ds
    v1, v2 = a + _ratio_valuation(x1, da * db * ds, p), b + _ratio_valuation(nb, db, p)
    if v1 <= v2:  # (g.c + g.d * sigma) / x1, the factor ds of both denominators cancelling
        return _reduced(p, v1, s + a + b - v1, (nc * dd * ds + nd * ns * dc) * da * db, x1 * dc * dd)
    return _reduced(p, v2, s + a + b - v2, nd * db, dd * nb)


class Lattice:
    """Z_p-span of the columns of a nonsingular rational basis matrix.

    The exponents a, b and the slope are computed eagerly, so equality, hashing and the measure
    are O(1); the canonical matrix is built on first read. Haar measure is normalized so that
    self-dual lattices have measure 1, which makes measure(L) = |det B|_p = p**-(a + b).
    """

    __slots__ = ("p", "a", "b", "slope", "basis", "canonical")

    def __init__(self, basis: Mat2, p: int):
        p = require_prime(p)
        num, den = basis._det_ratio()
        self.p, self.basis = p, basis
        self.a, self.b, self.slope = _image_of(p, 0, 0, 0, basis, _ratio_valuation(num, den, p))

    @classmethod
    def _from_canonical(cls, a: int, b: int, slope: Fraction, p: Prime) -> "Lattice":
        """Wrap (a, b, sigma) at the Prime p; sigma is already reduced modulo p**(b - a)."""
        lat = object.__new__(cls)
        lat.p, lat.a, lat.b, lat.slope = p, a, b, slope
        return lat

    def __getattr__(self, name: str) -> Mat2:
        # reached only while a slot is empty: fill canonical, or a derived lattice's basis, once
        if name == "canonical":
            pa = p_power(self.p, self.a)
            self.canonical = Mat2._of(pa, Fraction(0), self.slope * pa, p_power(self.p, self.b))
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
        return (self.p, self.a, self.b, self.slope) == (other.p, other.a, other.b, other.slope)

    def __hash__(self) -> int:
        return hash((self.p, self.a, self.b, self.slope))

    def __repr__(self) -> str:
        return f"Lattice(p={self.p}, canonical='{self.canonical}')"

    def _require_same_prime(self, other: "Lattice") -> None:
        if self.p != other.p:
            raise ValueError(f"prime mismatch: {self.p} vs {other.p}")

    def dual(self) -> "Lattice":
        """Symplectic dual: all u with sympl(u, v) in Z_p for every v in L."""
        # J * k**-T reduced: exponents -b, -a, the same slope and the same modulus p**(b - a)
        return Lattice._from_canonical(-self.b, -self.a, self.slope, self.p)

    def is_self_dual(self) -> bool:
        """True iff L equals its dual; equivalently measure(L) = 1."""
        return self.a + self.b == 0

    def contains(self, v: Vec2) -> bool:
        """Membership test: solves B x = v and checks x has integral entries."""
        sol = self.canonical.inverse() @ v
        return valuation(sol.x, self.p) >= 0 and valuation(sol.y, self.p) >= 0

    def issubset(self, other: "Lattice") -> bool:
        self._require_same_prime(other)
        return self._gap(other) <= 0

    def _gap(self, other: "Lattice") -> int | float:
        """Least n with p**n * self <= other: max(a' - a, b' - b, b' - a - v(sigma - sigma')), the
        slope valuation read off int cross products; the last term is -INFINITY when the slopes agree."""
        (nx, dx), (ny, dy) = self.slope.as_integer_ratio(), other.slope.as_integer_ratio()
        slope_term = other.b - self.a - _ratio_valuation(nx * dy - ny * dx, dx * dy, self.p)
        return max(other.a - self.a, other.b - self.b, slope_term)

    def __add__(self, other: "Lattice") -> "Lattice":
        """Smallest lattice containing both summands, through duality: (L1* & L2*)*."""
        return (self.dual() & other.dual()).dual()

    def __and__(self, other: "Lattice") -> "Lattice":
        """Intersection, read off (a, b, sigma): for b1 >= b2, L1 & L2 keeps b1 and sigma1 and
        raises a1 by n = L1._gap(L2) when n > 0; at n <= 0, L1 lies in L2 and is the meet."""
        self._require_same_prime(other)
        one, two = (self, other) if self.b >= other.b else (other, self)
        n = one._gap(two)
        if n <= 0:  # sigma1 is already reduced modulo p**(b1 - a1)
            return Lattice._from_canonical(one.a, one.b, one.slope, self.p)
        return Lattice._from_canonical(*_reduced(self.p, one.a + n, one.b, *one.slope.as_integer_ratio()), self.p)

    def scaled(self, n: int) -> "Lattice":
        """p**n * L. Scaling multiplies the (2-dimensional) measure by p**(-2n)."""
        return Lattice._from_canonical(self.a + n, self.b + n, self.slope, self.p)

    def transformed(self, g: Mat2) -> "Lattice":
        """Image g * L under a nonsingular rational matrix."""
        return self._image(g, _ratio_valuation(*g._det_ratio(), self.p))

    def _image(self, g: Mat2, s: int) -> "Lattice":
        """g * L for v_p(det g) = s, by the one image formula."""
        return Lattice._from_canonical(*_image_of(self.p, self.a, self.b, self.slope, g, s), self.p)

    def _pulled_back(self, adjugate: Mat2, g: int) -> "Lattice":
        """K^-1 * L = adj K * (p**g * L) for g = -v_p(det K), since a p-adic unit fixes a lattice."""
        return self.scaled(g)._image(adjugate, -g)


def standard_lattice(p: int) -> Lattice:
    """The self-dual reference lattice Z_p x Z_p."""
    return Lattice(Mat2.identity(), p)

