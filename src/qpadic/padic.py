"""Exact p-adic arithmetic on rational numbers.

Every scalar in this package is a `fractions.Fraction`, so the p-adic
valuation, the norm |x|_p = p**(-v_p(x)), the p-adic fractional part and
the additive character built from it are all computed exactly. Nothing in
this module touches floating point. Underneath, two private int helpers do the
work: `_split` takes n to (v_p(n), unit), so a valuation is read off any
numerator and denominator, reduced or not, and `_residue` forms
p**k * {num / (den * p**k)}_p from such a pair, building one Fraction.

A prime is tested once, where it enters: `require_prime` runs `is_prime` to
turn an int into a `Prime`, and hands a `Prime` back untested. Every function
here that takes a prime passes it through `require_prime`, and lattices,
channels and the oracle carry the `Prime` on.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .value import FrozenValue

__all__ = [
    "INFINITY",
    "PhaseQ",
    "additive_character",
    "as_rational",
    "fractional_part",
    "is_prime",
    "padic_norm",
    "valuation",
]

#: Valuation of zero. Compares greater than every integer valuation.
INFINITY = math.inf

#: Size cap on a rational string literal, in decimal digits. Results combine
#: a few literals, so this keeps them inside CPython's 4300-digit limit on
#: int-to-string conversion, and bounds the time to parse and to take valuations.
_LITERAL_DIGITS = 1000


def as_rational(x: Fraction | int | str) -> Fraction:
    """Coerce an int, a Fraction, or a string like "-3/7" to a Fraction.

    Strings may use the unicode minus sign. A zero denominator or any
    other malformed literal raises ValueError rather than leaking the
    parser's own exception types, and so does a literal whose length
    plus decimal exponent exceeds _LITERAL_DIGITS, before it is parsed.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        text = x.strip().replace("−", "-").replace("–", "-")
        _, e, exponent = text.lower().partition("e")
        try:
            digits = len(text) + (abs(int(exponent)) if e else 0)
        except ValueError:  # a malformed exponent, which Fraction rejects below
            digits = len(text)
        if digits > _LITERAL_DIGITS:
            raise ValueError(f"rational literal longer than {_LITERAL_DIGITS} digits")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in rational literal {x!r}") from None
        except ValueError:
            raise ValueError(f"malformed rational literal {x!r}") from None
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational")


#: Miller-Rabin with the first 13 primes as bases is exact below this bound
#: (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin. Raises ValueError at or above _MR_BOUND."""
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is too large for an exact primality test")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:  # no prime factor up to 41, the largest base, proves n prime
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Prime(int):
    """An int that has passed is_prime. Prime(p) is require_prime(p)."""

    __slots__ = ()

    def __new__(cls, p: int) -> "Prime":
        return require_prime(p)


def require_prime(p: int) -> Prime:
    """p as a Prime: a Prime is returned as it is, any other value is tested once."""
    if isinstance(p, Prime):
        return p
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise ValueError(f"{p!r} is not a prime")
    return int.__new__(Prime, p)


def _split(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p**v * u and u prime to p, for an int n != 0; ValueError at n = 0."""
    if not n:  # 0 % p == 0 forever, so the loop below would never end
        raise ValueError("zero has no finite valuation")
    v = 0
    while n % p == 0:
        n, v, q, e = n // p, v + 1, p * p, 2  # then p**2, p**4, ... while each divides, so
        while n % q == 0:  # each pass of the outer loop at least halves the valuation left
            n, v, q, e = n // q, v + e, q * q, e + e
    return v, n


def _ratio_valuation(num: int, den: int, p: int) -> int | float:
    """v_p(num / den) = v_p(num) - v_p(den) for ints, reduced or not; INFINITY when num = 0."""
    return _split(num, p)[0] - _split(den, p)[0] if num else INFINITY


def valuation(x: Fraction | int | str, p: int) -> int | float:
    """p-adic valuation of a rational. Zero maps to INFINITY."""
    p = require_prime(p)
    q = as_rational(x)
    return _ratio_valuation(q.numerator, q.denominator, p)


def p_power(p: int, e: int) -> Fraction:
    """p**e as an exact Fraction, for any integer exponent e."""
    return Fraction(p**e) if e >= 0 else Fraction(1, p**-e)


def padic_norm(x: Fraction | int | str, p: int) -> Fraction:
    """|x|_p = p**(-v_p(x)) as an exact Fraction. |0|_p = 0."""
    v = valuation(x, p)
    return Fraction(0) if v == INFINITY else p_power(p, -v)


def _residue(num: int, den: int, p: int, k: int) -> Fraction:
    """p**k * {num / (den * p**k)}_p for ints num and den != 0, with no gcd taken first: from
    num = p**s * u and den = p**t * w, e = k + t - s and r = u * w^-1 mod p**e give r * p**(k - e)."""
    s, u = _split(num, p) if num else (INFINITY, 0)  # zero has no digits after the point
    t, w = _split(den, p)
    e = k + t - s
    if e <= 0:
        return Fraction(0)
    pe = p**e
    r = u * pow(w, -1, pe) % pe
    return Fraction(r * p ** (k - e)) if k >= e else Fraction(r, p ** (e - k))


def fractional_part(x: Fraction | int | str, p: int) -> Fraction:
    """The p-adic fractional part of a rational.

    Returns the unique r in [0, 1) with denominator a power of p such
    that x - r is a p-adic integer. Any rational is accepted: writing
    x = a / (p**k * m) with m coprime to p, the p-coprime denominator
    part m is inverted modulo p**k, giving r = (a * m^-1 mod p**k) / p**k.
    """
    q = as_rational(x)
    return _residue(q.numerator, q.denominator, require_prime(p), 0)


class PhaseQ(FrozenValue):
    """A root of unity exp(2*pi*i*angle) carried as its exact angle.

    The angle is a rational reduced into [0, 1); for characters evaluated
    at a prime p its denominator is a power of p. Multiplication adds
    angles modulo 1, so products of phases stay exact.
    """

    __slots__ = ("angle",)

    def __new__(cls, angle) -> "PhaseQ":
        return cls._of(as_rational(angle) % 1)

    def __mul__(self, other: "PhaseQ") -> "PhaseQ":
        return PhaseQ._of((self.angle + other.angle) % 1)

    def inverse(self) -> "PhaseQ":
        return PhaseQ._of(-self.angle % 1)


def additive_character(x: Fraction | int | str, p: int) -> PhaseQ:
    """chi(x) = exp(2*pi*i*{x}_p), trivial exactly on the p-adic integers."""
    return PhaseQ._of(fractional_part(x, p))
