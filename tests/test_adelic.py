"""Factorization and the exact sum-zero property of gains over all places."""

import random
from fractions import Fraction

import pytest

from qpadic import adelic
from qpadic.adelic import (
    adelic_report,
    factor_integer,
    factor_rational,
    gain_exponent,
)
from qpadic.lattice import Mat2

from conftest import rand_symplectic


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
    def test_pinned_case(self):
        rep = adelic_report(Mat2.diagonal(12, Fraction(1, 5)))
        assert rep.det == Fraction(12, 5)
        assert rep.prime_gains == {2: -2, 3: -1, 5: 1}
        assert rep.real_gain == {2: 2, 3: 1, 5: -1}
        assert rep.sum_is_zero

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
