"""Entropy-gain bookkeeping across all places of the rationals.

For a nonsingular rational transform K, the gain at a prime p is
-v_p(det K) * log(p) and the gain at the real place is +log|det K|.
Factoring |det K| exactly (trial division, Miller-Rabin and rho) splits
the real term into the same primes, so the grand total cancels exponent
by exponent. The report records both sides and checks the cancellation
against per-prime valuations and the product of the factorization.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .lattice import Mat2
from .padic import _ratio_valuation, require_prime
from .value import FrozenValue

__all__ = [
    "AdelicGainReport",
    "adelic_report",
    "factor_integer",
    "factor_rational",
    "gain_exponent",
]


#: Trial division stops here; larger factors go to Miller-Rabin and to rho.
_TRIAL_BOUND = 1000
#: Steps of Pollard-Brent rho one split of an n below 2^256 may take before
#: factoring gives up. A step costs about the square of n's length, so a
#: longer n's budget is divided by the square of its length in 128-bit units.
_RHO_BUDGET = 1 << 19


def _rho_split(n: int) -> int:
    """A proper factor of the composite n, by Pollard-Brent rho (Brent, BIT 1980).

    Iterates y -> y*y + c mod n from y = 2 for c = 1, 2, ..., taking one
    gcd per batch of 128 steps. Raises ValueError when the budget runs out.
    """
    budget = _RHO_BUDGET // max(1, n.bit_length() >> 7) ** 2
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > budget:
                raise ValueError(f"could not factor {n} within {budget} rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factor_integer(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer, keyed by Prime.

    Trial division below _TRIAL_BOUND, then require_prime proves each
    cofactor prime by Miller-Rabin, or Pollard-Brent rho splits it; a
    cofactor at or above the Miller-Rabin bound goes straight to rho. Rather
    than guess, it raises ValueError when rho runs out of its step budget.
    """
    if n < 1:
        raise ValueError("factor_integer expects a positive integer")
    out: dict[int, int] = {}
    for q in (2, 3):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    f = 5
    while f * f <= n and f < _TRIAL_BOUND:
        for q in (f, f + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        f += 6
    rest = {n: 1} if n > 1 else {}  # cofactors still to split, with multiplicity
    while rest:
        m, e = rest.popitem()
        try:  # a factor found before, or the one test of a new one; ValueError if m is composite
            q = m if m in out else require_prime(m)
        except ValueError:
            d, k = _rho_split(m), 0
            while m % d == 0:  # every power of d, so p^k does not take k - 1 splits
                m, k = m // d, k + 1
            rest[d] = rest.get(d, 0) + k * e
            if m > 1:
                rest[m] = rest.get(m, 0) + e
        else:
            out[q] = out.get(q, 0) + e
    return dict(sorted((require_prime(q), e) for q, e in out.items()))


def factor_rational(q: Fraction) -> dict[int, int]:
    """Signed exponents of |q|: numerator primes positive, denominator negative."""
    if q == 0:
        raise ValueError("cannot factor zero")
    out = factor_integer(abs(q.numerator))
    for prime, e in factor_integer(q.denominator).items():
        out[prime] = out.get(prime, 0) - e
    return dict(sorted((p, e) for p, e in out.items() if e != 0))


def gain_exponent(transform: Mat2, p: int) -> int:
    """Exponent g with gain = g * log(p) at prime p, i.e. g = -v_p(det K)."""
    num, den = transform._det_ratio()
    return _ratio_valuation(den, num, require_prime(p))


class AdelicGainReport(FrozenValue):
    """Per-prime gains, the real-place factorization, and their cancellation."""

    __slots__ = ("det", "prime_gains", "real_gain", "sum_is_zero")

    def __new__(cls, det, prime_gains, real_gain, sum_is_zero) -> "AdelicGainReport":
        return cls._of(det, prime_gains, real_gain, sum_is_zero)

    def to_json_dict(self) -> dict:
        return {
            "det": str(self.det),
            "primes": {str(p): e for p, e in self.prime_gains.items()},
            "real": {str(p): e for p, e in self.real_gain.items()},
            "sum_is_zero": self.sum_is_zero,
        }


def adelic_report(transform: Mat2) -> AdelicGainReport:
    """Build the sum-zero report for a nonsingular rational transform, from one det K = num / den."""
    num, den = transform._det_ratio()
    det = Fraction(num, den)
    real = factor_rational(det)
    primes = {q: _ratio_valuation(den, num, q) for q in real}  # -v_q(det K), read off the unreduced pair
    top = math.prod(q**e for q, e in real.items() if e > 0)
    bottom = math.prod(q**-e for q, e in real.items() if e < 0)
    cancels = all(primes[q] + e == 0 for q, e in real.items())
    sum_is_zero = cancels and (top, bottom) == (abs(det.numerator), det.denominator)
    return AdelicGainReport(det=det, prime_gains=primes, real_gain=real, sum_is_zero=sum_is_zero)
