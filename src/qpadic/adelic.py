"""Entropy-gain bookkeeping across all places of the rationals.

For a nonsingular rational transform K, the gain at a prime p is
-v_p(det K) * log(p) and the gain at the real place is +log|det K|.
Factoring |det K| exactly (trial division; inputs are desk scale) splits
the real term into the same primes, so the grand total cancels exponent
by exponent. The report records both sides and checks the cancellation
against per-prime valuations and the product of the factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .lattice import Mat2
from .padic import p_power, require_prime, valuation

__all__ = [
    "AdelicGainReport",
    "adelic_report",
    "factor_integer",
    "factor_rational",
    "gain_exponent",
]


def factor_integer(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division."""
    if n < 1:
        raise ValueError("factor_integer expects a positive integer")
    out: dict[int, int] = {}
    for q in (2, 3):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    f = 5
    while f * f <= n:
        for q in (f, f + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return dict(sorted(out.items()))


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
    require_prime(p)
    det = transform.det()
    if det == 0:
        raise ValueError("transform must be nonsingular")
    return -int(valuation(det, p))


@dataclass(frozen=True)
class AdelicGainReport:
    """Per-prime gains, the real-place factorization, and their cancellation."""

    det: Fraction
    prime_gains: dict[int, int]
    real_gain: dict[int, int]
    sum_is_zero: bool

    def to_json_dict(self) -> dict:
        return {
            "det": str(self.det),
            "primes": {str(p): e for p, e in self.prime_gains.items()},
            "real": {str(p): e for p, e in self.real_gain.items()},
            "sum_is_zero": self.sum_is_zero,
        }


def adelic_report(transform: Mat2) -> AdelicGainReport:
    """Build the sum-zero report for a nonsingular rational transform."""
    det = transform.det()
    if det == 0:
        raise ValueError("transform must be nonsingular")
    real = factor_rational(det)
    primes = {q: gain_exponent(transform, q) for q in real}
    product = math.prod(p_power(q, e) for q, e in real.items())
    sum_is_zero = product == abs(det) and all(primes[q] + e == 0 for q, e in real.items())
    return AdelicGainReport(det=det, prime_gains=primes, real_gain=real, sum_is_zero=sum_is_zero)
