"""Exact p-adic scalar arithmetic: valuation, norm, fractional part, characters."""

import json
import pickle
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qpadic.padic
from qpadic import cli
from qpadic.adelic import adelic_report
from qpadic.lattice import Mat2, Vec2
from qpadic.ledger import LogLedger
from qpadic.padic import (
    INFINITY,
    PhaseQ,
    Prime,
    additive_character,
    as_rational,
    fractional_part,
    is_prime,
    p_power,
    padic_norm,
    require_prime,
    valuation,
)

from conftest import PRIMES, count_calls

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6
)
nonzero_rationals = rationals.filter(lambda q: q != 0)
prime_st = st.sampled_from(PRIMES)


def trial_division_is_prime(n: int) -> bool:
    """The former `is_prime`, kept as the reference for Miller-Rabin."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class TestValuation:
    def test_pinned_values(self):
        assert valuation(12, 2) == 2
        assert valuation(12, 3) == 1
        assert valuation(12, 5) == 0
        assert valuation(Fraction(1, 3), 3) == -1
        assert valuation(Fraction(-9, 4), 3) == 2
        assert valuation(Fraction(-9, 4), 2) == -2

    def test_zero_is_infinite(self):
        assert valuation(0, 7) == INFINITY
        assert valuation(Fraction(0), 2) > 10**9

    def test_two_adic_matches_division(self):
        for n in [*range(-300, 0), *range(1, 300), 3 * 2**200, -(2**4000), 10**995]:
            v, m = 0, abs(n)
            while m % 2 == 0:
                v, m = v + 1, m // 2
            assert valuation(n, 2) == v
            assert valuation(Fraction(3, n), 2) == -v

    def test_string_input(self):
        assert valuation("9/2", 3) == 2
        assert valuation("−1/3", 3) == -1  # unicode minus

    @given(x=nonzero_rationals, y=nonzero_rationals, p=prime_st)
    def test_additive_on_products(self, x, y, p):
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)

    @given(x=rationals, y=rationals, p=prime_st)
    def test_ultrametric(self, x, y, p):
        vx, vy = valuation(x, p), valuation(y, p)
        assert valuation(x + y, p) >= min(vx, vy)
        if vx != vy:
            assert valuation(x + y, p) == min(vx, vy)

    @given(x=nonzero_rationals, p=prime_st)
    def test_inverse_negates(self, x, p):
        assert valuation(1 / x, p) == -valuation(x, p)


class TestNorm:
    def test_pinned_values(self):
        assert padic_norm(12, 2) == Fraction(1, 4)
        assert padic_norm(Fraction(1, 3), 3) == 3
        assert padic_norm(0, 5) == 0
        assert padic_norm(7, 5) == 1

    def test_p_power(self):
        assert p_power(3, -2) == Fraction(1, 9)
        assert p_power(3, 0) == 1
        assert p_power(3, 2) == 9
        assert all(type(p_power(5, e)) is Fraction for e in (-1, 0, 1))

    @given(x=nonzero_rationals, y=nonzero_rationals, p=prime_st)
    def test_multiplicative(self, x, y, p):
        assert padic_norm(x * y, p) == padic_norm(x, p) * padic_norm(y, p)

    @given(x=rationals, y=rationals, p=prime_st)
    def test_strong_triangle(self, x, y, p):
        assert padic_norm(x + y, p) <= max(padic_norm(x, p), padic_norm(y, p))


class TestFractionalPart:
    def test_pinned_values(self):
        assert fractional_part(Fraction(7, 9), 3) == Fraction(7, 9)
        assert fractional_part(Fraction(1, 2), 3) == 0  # 1/2 is a 3-adic integer
        assert fractional_part(Fraction(1, 2), 2) == Fraction(1, 2)
        assert fractional_part(5, 7) == 0
        assert fractional_part(Fraction(-1, 3), 3) == Fraction(2, 3)

    def test_coprime_denominator_is_inverted(self):
        # 1/12 = 1/(4*3): the 3 is inverted mod 4, leaving 3/4
        assert fractional_part(Fraction(1, 12), 2) == Fraction(3, 4)

    @given(x=rationals, p=prime_st)
    def test_defining_property(self, x, p):
        r = fractional_part(x, p)
        assert 0 <= r < 1
        den = r.denominator
        while den % p == 0:
            den //= p
        assert den == 1  # denominator is a pure power of p
        assert valuation(x - r, p) >= 0

    @given(x=rationals, p=prime_st)
    def test_idempotent(self, x, p):
        r = fractional_part(x, p)
        assert fractional_part(r, p) == r

    @given(x=rationals, y=rationals, p=prime_st)
    def test_additive_mod_one(self, x, y, p):
        lhs = fractional_part(x + y, p)
        rhs = (fractional_part(x, p) + fractional_part(y, p)) % 1
        assert lhs == rhs


class TestCharacter:
    def test_trivial_on_integers(self):
        assert additive_character(5, 3).angle == 0
        assert additive_character(Fraction(1, 2), 3).angle == 0

    def test_pinned_angle(self):
        assert additive_character(Fraction(1, 3), 3).angle == Fraction(1, 3)
        assert additive_character(Fraction(7, 9), 3).angle == Fraction(7, 9)

    @given(x=rationals, y=rationals, p=prime_st)
    def test_homomorphism(self, x, y, p):
        chi = additive_character
        assert (chi(x, p).angle + chi(y, p).angle) % 1 == chi(x + y, p).angle

    @given(x=rationals, p=prime_st)
    def test_trivial_iff_integral(self, x, p):
        assert (additive_character(x, p).angle == 0) == (valuation(x, p) >= 0)


class TestPhaseQ:
    def test_angle_is_normalized(self):
        assert PhaseQ(Fraction(5, 4)).angle == Fraction(1, 4)
        assert PhaseQ(Fraction(-1, 4)).angle == Fraction(3, 4)


class TestParsingAndPrimes:
    def test_as_rational_accepts(self):
        assert as_rational("-3/7") == Fraction(-3, 7)
        assert as_rational("−3/7") == Fraction(-3, 7)
        assert as_rational(4) == 4
        assert as_rational(Fraction(2, 5)) == Fraction(2, 5)

    def test_as_rational_rejects(self):
        with pytest.raises(ValueError):
            as_rational("3/0")
        with pytest.raises(ValueError):
            as_rational("grit")
        with pytest.raises(TypeError):
            as_rational(0.5)

    def test_a_bool_is_refused(self):
        # Python counts a bool as an int; here it is no rational, as it is no prime
        for build in (
            lambda: as_rational(True),
            lambda: Vec2(True, False),
            lambda: Mat2(1, 0, 0, True),
            lambda: PhaseQ(False),
            lambda: valuation(True, 3),
        ):
            with pytest.raises(TypeError, match="cannot interpret bool as a rational"):
                build()
        assert as_rational(Prime(3)) == 3 and Vec2(1, 0) == Vec2(Fraction(1), Fraction(0))

    def test_as_rational_size_cap(self):
        # length plus decimal exponent may reach 1000, no further
        assert as_rational("1e995") == 10**995
        assert as_rational("-1E-993") == Fraction(-1, 10**993)
        assert as_rational("7" * 1000) == int("7" * 1000)
        for text in ("1e996", "1E-995", "1e1_000", "1e10000000", "7" * 1001, "1/" + "3" * 999):
            with pytest.raises(ValueError, match="longer than 1000 digits"):
                as_rational(text)
        with pytest.raises(ValueError, match="malformed"):
            as_rational("1e5x")

    def test_is_prime_table(self):
        hits = [n for n in range(60) if is_prime(n)]
        assert hits == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_is_prime_matches_trial_division(self):
        assert [n for n in range(20_000) if is_prime(n)] == [
            n for n in range(20_000) if trial_division_is_prime(n)
        ]

    @pytest.mark.parametrize(
        "n",
        [
            2047,
            1373653,
            25326001,
            3215031751,
            2152302898747,
            3474749660383,
            341550071728321,
            3825123056546413051,
            318665857834031151167461,
        ],
    )
    def test_is_prime_rejects_strong_pseudoprimes(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("n, prime", [(1847, True), (1849, False), (1861, True)])
    def test_is_prime_at_the_trial_division_bound(self, n, prime):
        # below 43**2 = 1849 trial division by the bases decides alone
        assert is_prime(n) is prime

    def test_is_prime_large(self):
        assert is_prime(10**18 + 3)
        assert is_prime(2**61 - 1)
        assert not is_prime((10**9 + 7) * (10**9 + 9))
        for n in (3317044064679887385961981, 3317044064679887385961981 + 2):
            with pytest.raises(ValueError):
                is_prime(n)
            with pytest.raises(ValueError):
                require_prime(n)

    def test_require_prime(self):
        require_prime(13)
        for bad in (1, 0, -3, 4, 9, True):
            with pytest.raises(ValueError):
                require_prime(bad)


@pytest.fixture
def prime_tests(monkeypatch):
    """Every argument is_prime is called with, through any caller."""
    return count_calls(monkeypatch, qpadic.padic, "is_prime", lambda n: n)


class TestPrime:
    def test_only_primes_are_made(self):
        for bad in (9, True, 3.0, "3", 1, -3):
            with pytest.raises(ValueError, match="not a prime"):
                Prime(bad)
        q = Prime(3)
        assert q == 3 and type(q) is Prime
        assert Prime(q) is q and require_prime(q) is q

    def test_a_prime_is_tested_once(self, prime_tests):
        q = require_prime(10**18 + 3)
        assert valuation(Fraction(7, 10**18 + 3), q) == -1
        assert padic_norm(10**18 + 3, q) == Fraction(1, 10**18 + 3)
        assert fractional_part(Fraction(1, 10**18 + 3), q) == Fraction(1, 10**18 + 3)
        assert additive_character(5, q).angle == 0
        assert prime_tests == [10**18 + 3]

    def test_pickles_and_prints_as_an_int(self):
        q = Prime(3)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(q, protocol))
            assert back == 3 and type(back) is Prime
        assert json.dumps({"prime": q}) == '{"prime": 3}'
        assert (repr(q), str(q), f"{q}") == ("3", "3", "3")
        assert LogLedger.single(q, -2).render("2") == "-2*log2(3)"
        assert LogLedger.single(q, 1) == LogLedger.single(3, 1)
        assert 3 * q == 9 and type(3 * q) is int

    @pytest.mark.parametrize(
        "argv",
        [
            ["lattice", "intersect", "--p", "3", "--a", "3,0;0,1", "--b", "1,0;1/3,9"],
            ["channel", "apply", "--p", "3", "--K", "3,0;0,1", "--L", "1,0;0,1",
             "--state", "1/3,0;0,3", "--shift", "1,2"],
            ["channel", "gain", "--p", "1000000000000000003", "--K", "3,0;0,1"],
        ],
        ids=["lattice-intersect", "channel-apply", "channel-gain"],
    )
    def test_cli_tests_its_prime_once(self, argv, prime_tests, capsys):
        assert cli.main(argv) == 0
        assert prime_tests == [int(argv[3])]
        capsys.readouterr()

    def test_cli_prints_the_prime_as_an_int(self, capsys):
        assert cli.main(["channel", "gain", "--p", "3", "--K", "3,0;0,1"]) == 0
        assert json.loads(capsys.readouterr().out)["prime"] == 3
        assert cli.main(["channel", "gain", "--p", "3", "--K", "3,0;0,1", "--format", "text"]) == 0
        assert "prime: 3\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "det",
        [
            Fraction(2**3 * 3 * 997 * 1009 * (10**9 + 7), 5 * 7**2),
            # rho splits 1009^2 * 1049 into 1009 * 1049 and 1009, so 1009 comes up twice
            Fraction(1009**2 * 1049, 2),
        ],
    )
    def test_adelic_report_tests_each_factor_at_most_once(self, det, prime_tests):
        report = adelic_report(Mat2.diagonal(det, 1))
        assert report.sum_is_zero
        assert all(type(q) is Prime for q in [*report.real_gain, *report.prime_gains])
        tested = Counter(n for n in prime_tests if is_prime(n))
        assert set(tested) == set(report.real_gain) and max(tested.values()) == 1
