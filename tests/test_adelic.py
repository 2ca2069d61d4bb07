"""Factorization and the exact sum-zero property of gains over all places."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qpadic import adelic
from qpadic.adelic import (
    adelic_report,
    factor_integer,
    factor_rational,
    gain_exponent,
)
from qpadic.lattice import Mat2
from qpadic.ledger import LogLedger

from conftest import battery_transforms, rand_symplectic


#: Primes above the trial-division bound, so only Miller-Rabin and rho find them.
LARGE_PRIMES = (1009, 65537, 999983, 2147483647, 1000000007)


class TestFactorization:
    def test_integers(self):
        assert factor_integer(1) == {}
        assert factor_integer(12) == {2: 2, 3: 1}
        assert factor_integer(360) == {2: 3, 3: 2, 5: 1}
        assert factor_integer(999983) == {999983: 1}

    def test_integer_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factor_integer(0)
        with pytest.raises(ValueError):
            factor_integer(-6)

    def test_products_of_known_primes(self):
        rng = random.Random(53)
        small = [n for n in range(2, 3000) if all(n % d for d in range(2, int(n**0.5) + 1))]
        for _ in range(300):
            n, expected = 1, {}
            for _ in range(rng.randint(0, 4)):
                q = rng.choice(small) if rng.random() < 0.5 else rng.choice(LARGE_PRIMES)
                if n * q < 10**24:  # below the Miller-Rabin bound
                    n, expected[q] = n * q, expected.get(q, 0) + 1
            assert factor_integer(n) == dict(sorted(expected.items()))

    def test_squares_and_semiprimes_past_trial_division(self):
        p, q = 1000000007, 999999937
        assert factor_integer(p * q) == {q: 1, p: 1}
        assert factor_integer(p * p) == {p: 2}
        assert factor_integer(1009**3 * 2) == {2: 1, 1009: 3}
        assert factor_integer(10**18 + 3) == {10**18 + 3: 1}
        # cofactors at or above the Miller-Rabin bound go straight to rho
        assert factor_integer(1009**9) == {1009: 9}
        assert factor_integer(1009**600) == {1009: 600}  # one split finds 1009^j at once
        primes = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 9973)
        assert factor_integer(math.prod(primes) * 2**5) == {2: 5, **dict.fromkeys(primes, 1)}
        assert factor_integer(p**3) == {p: 3}

    def test_refuses_to_guess(self):
        with pytest.raises(ValueError, match="could not factor"):
            factor_integer(1821000000013 * 1821550831741)  # past the rho budget
        with pytest.raises(ValueError, match="could not factor"):
            factor_integer(2**89 - 1)  # a prime past the Miller-Rabin bound
        with pytest.raises(ValueError, match="could not factor"):
            factor_integer(3317044064679887385961981 * 1009)  # 13-digit factors of the bound

    def test_rationals(self):
        assert factor_rational(Fraction(12, 5)) == {2: 2, 3: 1, 5: -1}
        assert factor_rational(Fraction(-12, 5)) == {2: 2, 3: 1, 5: -1}
        assert factor_rational(Fraction(1)) == {}
        assert factor_rational(Fraction(9, 27)) == {3: -1}
        with pytest.raises(ValueError):
            factor_rational(Fraction(0))

    def test_round_trip(self):
        rng = random.Random(50)
        for _ in range(200):
            q = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            rebuilt = Fraction(1)
            for prime, e in factor_rational(q).items():
                rebuilt *= Fraction(prime) ** e
            assert rebuilt == q


class TestGainExponent:
    def test_pinned(self):
        k = Mat2.diagonal(12, 1)
        assert gain_exponent(k, 2) == -2
        assert gain_exponent(k, 3) == -1
        assert gain_exponent(k, 5) == 0
        assert gain_exponent(Mat2.diagonal(Fraction(1, 3), 1), 3) == 1

    def test_rejects(self):
        with pytest.raises(ValueError):
            gain_exponent(Mat2(1, 1, 1, 1), 3)
        with pytest.raises(ValueError):
            gain_exponent(Mat2.identity(), 4)


class TestReport:
    def test_unit_determinant(self):
        rep = adelic_report(Mat2(1, 5, 0, 1))
        assert rep.prime_gains == {} and rep.real_gain == {}
        assert rep.sum_is_zero

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            adelic_report(Mat2(1, 1, 1, 1))

    def test_sum_zero_on_random_corpus(self):
        rng = random.Random(51)
        for _ in range(500):
            num = rng.randint(1, 10**6) * rng.choice((1, -1))
            den = rng.randint(1, 10**6)
            k = Mat2(Fraction(num, den), Fraction(rng.randint(-9, 9)), 0, 1)
            rep = adelic_report(k)
            assert rep.sum_is_zero
            for prime, e in rep.prime_gains.items():
                assert e == gain_exponent(k, prime)
                assert rep.real_gain[prime] == -e

    def test_wrong_factorization_breaks_sum_zero(self, monkeypatch):
        # 12/5 is 2^2 * 3 / 5: a factorization short of one 2 must not cancel
        monkeypatch.setattr(adelic, "factor_rational", lambda q: {2: 1, 3: 1, 5: -1})
        assert not adelic_report(Mat2.diagonal(12, Fraction(1, 5))).sum_is_zero

    def test_invariant_under_unit_determinant_factors(self):
        rng = random.Random(52)
        k = Mat2.diagonal(Fraction(40, 9), 7)
        base = adelic_report(k)
        for _ in range(20):
            s = rand_symplectic(rng, 3)
            assert adelic_report(s @ k) == base

    def test_json_shape(self):
        payload = adelic_report(Mat2.diagonal(12, Fraction(1, 5))).to_json_dict()
        assert payload == {
            "det": "12/5",
            "primes": {"2": -2, "3": -1, "5": 1},
            "real": {"2": 2, "3": 1, "5": -1},
            "sum_is_zero": True,
        }


def thermal_entropy(nu: float) -> float:
    """Entropy in nats of the one-mode thermal state of symplectic eigenvalue nu > 1/2 (hbar = 1),
    (nu + 1/2) log(nu + 1/2) - (nu - 1/2) log(nu - 1/2), in a form that keeps its digits at large nu."""
    return math.log(nu) + (nu + 0.5) * math.log1p(0.5 / nu) - (nu - 0.5) * math.log1p(-0.5 / nu)


def least_noise(k: Mat2) -> Fraction:
    """n of the least isotropic noise N = n * I for which V -> K V K^T + N is completely positive."""
    return abs(1 - k.det()) / 2


def real_channel_gain(k: Mat2) -> float:
    """Entropy gain of V -> K V K^T + least_noise(k) * I on the thermal input V = nu * I.

    The output covariance is exact and its symplectic eigenvalue is sqrt(det). The gain tends to
    log|det K| with the error n tr(K K^T) / (2 nu det(K)^2) to first order, so nu starts at 1e12
    and grows with that ratio, holding the error below 1e-12 however near singular K is.
    """
    n, trace = least_noise(k), k.a**2 + k.b**2 + k.c**2 + k.d**2  # trace = tr(K K^T)
    nu = 10**12 * max(1, math.ceil(n * trace / k.det() ** 2))
    v = k @ Mat2.diagonal(nu, nu) @ Mat2(k.a, k.c, k.b, k.d)
    out = Mat2(v.a + n, v.b, v.c, v.d + n)
    return thermal_entropy(math.sqrt(out.det())) - thermal_entropy(nu)


def rand_real_transform(rng: random.Random) -> Mat2:
    """A nonsingular K with entries n / d, |n| <= 30 and 1 <= d <= 12."""
    while True:
        k = Mat2(*(Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(4)))
        if k.det():
            return k


class TestRealPlace:
    """The real place of the sum-zero formula as a computed entropy gain, not a definition."""

    TRANSFORMS = sorted({Mat2(*k) for p in (3, 5, 7) for k in battery_transforms(p)}, key=str)

    def corpus(self) -> list[Mat2]:
        rng = random.Random(54)
        return self.TRANSFORMS + [rand_real_transform(rng) for _ in range(300)]

    def test_real_gain_is_the_real_term(self):
        # |det K| = 1 for the identity and the shears; diag(p, 1) and the corner transform test the sign
        assert any(abs(k.det()) != 1 for k in self.TRANSFORMS)
        for k in self.corpus():
            assert abs(real_channel_gain(k) - LogLedger(adelic_report(k).real_gain).value()) < 1e-8

    def test_least_noise_is_the_complete_positivity_bound(self):
        # N + (i/2)(1 - det K) Omega >= 0, Omega = [[0, 1], [-1, 0]], holds at the bound and fails below it
        omega = np.array([[0, 1], [-1, 0]])
        for k in self.corpus():
            n, twist = float(least_noise(k)), 0.5j * float(1 - k.det()) * omega
            assert np.linalg.eigvalsh(n * np.eye(2) + twist).min() >= -1e-12 * n
            if k.det() != 1:
                assert np.linalg.eigvalsh(0.99 * n * np.eye(2) + twist).min() < 0
