"""Gaussian states, channel admissibility, application, and the gain law."""

import random
from fractions import Fraction

import pytest

import qpadic.channels
import qpadic.lattice
from qpadic.channels import GaussianChannel, GaussianState, channel_validity
from qpadic.errors import InvariantViolation, NotAChannelError, NotAStateError
from qpadic.lattice import Lattice, Mat2, Vec2, standard_lattice, sympl
from qpadic.ledger import LogLedger
from qpadic.padic import additive_character, valuation

from conftest import (
    PRIMES,
    rand_basis,
    rand_lattice,
    rand_state,
    rand_symplectic,
    rand_valid_channel,
    rand_vector,
)


def diag_lattice(p: int, x, y) -> Lattice:
    return Lattice(Mat2.diagonal(x, y), p)


def scanned_threshold(chan: GaussianChannel) -> int:
    """Reference for witness_threshold: test n = 0, 1, ... on built lattices."""
    inv = chan.transform.inverse()
    n = 0
    while True:
        ln = chan.noise.scaled(n)
        pulled = ln.transformed(inv)
        if (
            ln.issubset(chan.noise)
            and pulled.issubset(chan.noise)
            and ln.measure <= 1
            and pulled.measure <= 1
        ):
            return n
        n += 1


def threshold_terms(chan: GaussianChannel) -> dict:
    """The lower bounds on n0 besides 0, from L and a freshly reduced P = K^-1 L."""
    noise, pulled = chan.noise, chan.noise.transformed(chan.transform.inverse())
    gap = valuation(pulled.corner / pulled.canonical.a - noise.corner / noise.canonical.a, noise.p)
    return {
        "a": noise.a - pulled.a,
        "b": noise.b - pulled.b,
        "corner": noise.b - pulled.a - gap,
        "measure": -((noise.a + noise.b) // 2),
    }


def binding_terms(chan: GaussianChannel) -> list[str]:
    """Names of the positive terms that reach the maximum."""
    terms = threshold_terms(chan)
    top = max(terms.values())
    return [name for name, value in terms.items() if value == top > 0]


def output_measure_term(chan: GaussianChannel) -> int:
    """Least n with measure(p**n K^-1 L) <= 1."""
    pulled = chan.noise.transformed(chan.transform.inverse())
    return -((pulled.a + pulled.b) // 2)


class TestStateValidity:
    def test_vacuum_analog(self):
        s = GaussianState(standard_lattice(3))
        assert s.is_pure()
        assert s.entropy().is_zero()

    def test_mixed_state(self):
        s = GaussianState(diag_lattice(3, 3, 1))
        assert s.lattice.measure == Fraction(1, 3)
        assert not s.is_pure()

    def test_measure_above_one_rejected(self):
        big = diag_lattice(3, 3, 1).dual()
        assert big.measure == 3
        with pytest.raises(NotAStateError):
            GaussianState(big)

    def test_validity_boundary_is_exact(self):
        rng = random.Random(31)
        for p in PRIMES:
            for _ in range(30):
                lat = rand_lattice(rng, p)
                if lat.measure <= 1:
                    GaussianState(lat)
                else:
                    with pytest.raises(NotAStateError):
                        GaussianState(lat)


class TestCharacteristicFunction:
    def test_indicator_off_lattice(self):
        s = GaussianState(diag_lattice(3, 3, 1))
        assert s.char(Vec2(1, 0)) is None
        assert s.char(Vec2(3, 1)) is not None

    def test_centred_phase_is_trivial(self):
        s = GaussianState(standard_lattice(3))
        assert s.char(Vec2(0, 1)).is_one
        assert s.char(Vec2(2, 5)).is_one

    def test_pinned_shifted_values(self):
        s = GaussianState(standard_lattice(3), Vec2(1, 0))
        assert s.char(Vec2(0, 1)).is_one  # pairing value 1 is integral
        t = GaussianState(standard_lattice(3), Vec2(Fraction(1, 3), 0))
        assert t.char(Vec2(0, 1)).angle == Fraction(1, 3)

    def test_shift_phase_formula(self):
        rng = random.Random(32)
        for p in (2, 3, 7):
            for _ in range(30):
                s = rand_state(rng, p, shifted=True)
                z = rand_vector(rng, p)
                got = s.char(z)
                if s.lattice.contains(z):
                    assert got == additive_character(sympl(s.shift, z), p)
                else:
                    assert got is None

    def test_homomorphism_on_lattice(self):
        rng = random.Random(33)
        for _ in range(30):
            s = rand_state(rng, 5, shifted=True)
            u, v = s.lattice.canonical.columns()
            assert s.char(u + v) == s.char(u) * s.char(v)


class TestEntropyAndEquivalence:
    def test_pinned_entropies(self):
        assert GaussianState(diag_lattice(3, 9, 1)).entropy() == LogLedger({3: 2})
        assert GaussianState(diag_lattice(3, 3, 1)).entropy() == LogLedger({3: 1})
        assert GaussianState(standard_lattice(2)).entropy() == LogLedger.zero()

    def test_shift_never_changes_entropy(self):
        rng = random.Random(34)
        for _ in range(20):
            lat = rand_state(rng, 3).lattice
            a = GaussianState(lat)
            b = GaussianState(lat, Vec2(Fraction(1, 3), Fraction(2, 9)))
            assert a.entropy() == b.entropy()

    def test_entropy_nonnegative_and_pure_iff_zero(self):
        rng = random.Random(35)
        for p in PRIMES:
            for _ in range(30):
                s = rand_state(rng, p)
                n = s.rank_exponent()
                assert n >= 0
                assert s.entropy() == LogLedger.single(p, n)
                assert s.is_pure() == s.entropy().is_zero()

    def test_unitary_equivalence_is_measure_equality(self):
        a = GaussianState(diag_lattice(3, 3, 1))
        b = GaussianState(diag_lattice(3, 1, 3))
        c = GaussianState(diag_lattice(3, 9, 1))
        assert a.unitarily_equivalent(b)
        assert not a.unitarily_equivalent(c)
        with pytest.raises(ValueError):
            a.unitarily_equivalent(GaussianState(standard_lattice(5)))


class TestChannelAdmissibility:
    def test_pinned_valid(self):
        chk = channel_validity(Mat2.diagonal(3, 1), standard_lattice(3))
        assert (chk.one_minus_det_norm, chk.noise_measure, chk.product, chk.ok) == (
            1,
            1,
            1,
            True,
        )

    def test_unit_distance_with_big_noise(self):
        # det 4 at p=3: |1-4|_3 = 1/3 cancels a measure-3 noise lattice exactly
        noise = diag_lattice(3, Fraction(1, 3), 1)
        assert noise.measure == 3
        chk = channel_validity(Mat2.diagonal(2, 2), noise)
        assert chk.product == 1 and chk.ok
        GaussianChannel(Mat2.diagonal(2, 2), noise)

    def test_pinned_invalid(self):
        noise = diag_lattice(3, Fraction(1, 3), 1)
        chk = channel_validity(Mat2.diagonal(2, 1), noise)
        assert chk.product == 3 and not chk.ok
        with pytest.raises(NotAChannelError):
            GaussianChannel(Mat2.diagonal(2, 1), noise)

    def test_singular_transform(self):
        with pytest.raises(ValueError):
            channel_validity(Mat2(1, 1, 1, 1), standard_lattice(3))

    def test_identity_transform_allows_any_noise(self):
        # det 1 makes |1 - det| = 0, so even measure > 1 noise is fine
        noise = diag_lattice(5, Fraction(1, 25), 1)
        assert noise.measure == 25
        assert channel_validity(Mat2.identity(), noise).ok


class TestChannelApplication:
    def test_pinned_pipeline(self):
        chan = GaussianChannel(Mat2.diagonal(3, 1), standard_lattice(3))
        inp = GaussianState(standard_lattice(3).scaled(1))
        assert inp.entropy() == LogLedger({3: 2})
        out = chan.apply(inp)
        assert out.lattice == diag_lattice(3, 1, 3)
        assert out.entropy() == LogLedger({3: 1})

    def test_shift_transport_pinned(self):
        chan = GaussianChannel(Mat2.diagonal(3, 1), standard_lattice(3))
        out = chan.apply(GaussianState(standard_lattice(3).scaled(1), Vec2(1, 0)))
        assert out.shift == Vec2(1, 0)  # adj(diag(3,1)) = diag(1,3) fixes (1,0)

    def test_adjugate_pairing_identity(self):
        # the rule beta = adj(K) alpha comes from this exact identity
        rng = random.Random(36)
        for _ in range(60):
            k = rand_basis(rng, 3)
            alpha, z = rand_vector(rng, 3), rand_vector(rng, 3)
            assert sympl(alpha, k @ z) == sympl(k.adjugate() @ alpha, z)

    def test_prime_mismatch(self):
        chan = GaussianChannel(Mat2.identity(), standard_lattice(3))
        with pytest.raises(ValueError):
            chan.apply(GaussianState(standard_lattice(5)))

    def test_output_is_always_a_state(self):
        rng = random.Random(37)
        for p in (2, 3, 5):
            for _ in range(60):
                chan = rand_valid_channel(rng, p)
                state = rand_state(rng, p, shifted=True)
                out = chan.apply(state)
                assert out.lattice.measure <= 1
                expected = state.lattice.transformed(chan.transform.inverse()) & chan.noise
                assert out.lattice == expected
                assert out.shift == chan.transform.adjugate() @ state.shift

    def test_symplectic_channel_preserves_entropy_when_noise_absorbs(self):
        rng = random.Random(38)
        for _ in range(20):
            s = rand_symplectic(rng, 3)
            state = rand_state(rng, 3)
            pulled = state.lattice.transformed(s.inverse())
            chan = GaussianChannel(s, pulled + standard_lattice(3))
            out = chan.apply(state)
            assert out.entropy() == state.entropy()


class TestGainLaw:
    def test_pinned_gains(self):
        p3 = standard_lattice(3)
        assert GaussianChannel(Mat2.diagonal(3, 1), p3).entropy_gain() == LogLedger({3: -1})
        assert GaussianChannel(Mat2.identity(), p3).entropy_gain() == LogLedger.zero()
        # det valuation -1 forces |1 - det|_3 = 3, so the noise must shrink
        small = diag_lattice(3, 3, 1)
        assert GaussianChannel(
            Mat2.diagonal(Fraction(1, 3), 1), small
        ).entropy_gain() == LogLedger({3: 1})

    def test_pinned_thresholds(self):
        p3 = standard_lattice(3)
        assert GaussianChannel(Mat2.diagonal(3, 1), p3).witness_threshold() == 1
        assert GaussianChannel(Mat2.diagonal(9, 1), p3).witness_threshold() == 2
        assert GaussianChannel(Mat2(1, 1, 0, 1), p3).witness_threshold() == 0

    @pytest.mark.parametrize(
        "k,noise,term,n0",
        [
            ("3,0;0,1", "1,0;0,1", "a", 1),
            ("9,0;0,1", "1,0;0,1", "a", 2),
            ("1,0;0,3", "1,0;0,1", "b", 1),
            ("1,1;1,3", "1,0;0,3", "b", 1),
            ("1,1;0,3", "3,0;1,9", "corner", 4),
            ("1,1;1,3", "3,0;1,9", "corner", 3),
        ],
    )
    def test_each_term_binds_alone(self, k, noise, term, n0):
        # the measure term is pinned alone by test_measure_bound_sets_threshold
        chan = GaussianChannel(Mat2.parse(k), Lattice(Mat2.parse(noise), 3))
        assert binding_terms(chan) == [term]
        assert chan.witness_threshold() == scanned_threshold(chan) == n0

    def test_output_measure_bound_never_binds_alone(self):
        # The witness output p**n K^-1 L needs measure <= 1 too, but admissibility
        # keeps that bound at or below the others; K = 3I ties it with both pivots.
        p3 = standard_lattice(3)
        tied = GaussianChannel(Mat2.diagonal(3, 3), p3)
        assert threshold_terms(tied) == {"a": 1, "b": 1, "corner": float("-inf"), "measure": 0}
        assert output_measure_term(tied) == tied.witness_threshold() == scanned_threshold(tied) == 1
        rng = random.Random(44)
        for p in PRIMES:
            for _ in range(200):
                chan = rand_valid_channel(rng, p)
                assert output_measure_term(chan) <= max(0, *threshold_terms(chan).values())

    def test_closed_form_threshold_matches_scan(self):
        rng = random.Random(42)
        for p in PRIMES:
            for _ in range(200):
                chan = rand_valid_channel(rng, p)
                assert chan.witness_threshold() == scanned_threshold(chan)

    @pytest.mark.parametrize(
        "noise,n0",
        [
            (Mat2.diagonal(Fraction(1, 3), Fraction(1, 3)), 1),
            (Mat2.diagonal(Fraction(1, 27), 1), 2),
        ],
    )
    def test_measure_bound_sets_threshold(self, noise, n0):
        # K = I makes containment trivial, so the noise measure alone sets n0
        chan = GaussianChannel(Mat2.identity(), Lattice(noise, 3))
        assert chan.noise.measure > 1
        assert binding_terms(chan) == ["measure"]
        assert chan.witness_threshold() == scanned_threshold(chan) == n0

    def test_pinned_witnesses(self):
        p3 = standard_lattice(3)
        chan = GaussianChannel(Mat2.diagonal(3, 1), p3)
        assert chan.entropy_gain_witness(1) == LogLedger({3: -1})
        assert chan.entropy_gain_witness(2) == LogLedger({3: -1})
        with pytest.raises(ValueError):
            chan.entropy_gain_witness(0)
        deep = GaussianChannel(Mat2.diagonal(9, 1), p3)
        assert deep.entropy_gain_witness(2) == LogLedger({3: -2})

    def test_witness_equals_gain_above_threshold(self):
        rng = random.Random(39)
        for p in (2, 3, 5, 7):
            for _ in range(40):
                chan = rand_valid_channel(rng, p)
                n0 = chan.witness_threshold()
                gain = chan.entropy_gain()
                for n in (n0, n0 + 1, n0 + 2):
                    assert chan.entropy_gain_witness(n) == gain

    def test_gain_is_negated_det_valuation(self):
        rng = random.Random(40)
        for p in (2, 3, 5):
            for v in range(-3, 4):
                chan = rand_valid_channel(rng, p, det_valuation=v)
                assert valuation(chan.transform.det(), p) == v
                assert chan.entropy_gain() == LogLedger.single(p, -v)

    def test_identity_output_norm(self):
        p3 = standard_lattice(3)
        assert GaussianChannel(Mat2.diagonal(3, 1), p3).identity_output_norm() == 3
        assert GaussianChannel(Mat2.identity(), p3).identity_output_norm() == 1
        wide = GaussianChannel(Mat2.diagonal(Fraction(1, 9), 1), diag_lattice(3, 9, 1))
        assert wide.identity_output_norm() == Fraction(1, 9)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda lat: Lattice._from_canonical(lat.a, lat.b, 2 * lat.corner, lat.p),
            lambda lat: Lattice._from_canonical(lat.a, lat.b + 1, lat.corner, lat.p),
            lambda lat: Lattice._from_canonical(lat.a, lat.b - 1, lat.corner, lat.p),
        ],
        ids=["doubled-corner", "b-plus-one", "b-minus-one"],
    )
    def test_norm_checks_the_reduced_image(self, monkeypatch, mutate):
        k, noise = Mat2.parse("1,1;0,3"), Lattice(Mat2.parse("3,0;1,9"), 3)
        honest = noise.transformed(k.inverse())
        assert mutate(honest) != honest
        transformed = Lattice.transformed
        monkeypatch.setattr(Lattice, "transformed", lambda lat, g: mutate(transformed(lat, g)))
        chan = GaussianChannel(k, noise)
        with pytest.raises(InvariantViolation):
            chan.identity_output_norm()

    def test_norm_consistent_with_gain(self):
        rng = random.Random(41)
        for p in (2, 3, 5):
            for _ in range(30):
                chan = rand_valid_channel(rng, p)
                norm = chan.identity_output_norm()
                assert LogLedger.single(p, -int(valuation(norm, p))) == chan.entropy_gain()


class TestDerivedOnce:
    """A channel is immutable and derives K^-1, K^-1 L and its threshold in the constructor."""

    def test_witness_reductions(self, monkeypatch):
        rng = random.Random(43)
        channels = [rand_valid_channel(rng, p) for p in PRIMES for _ in range(4)]
        calls = []
        reduce = qpadic.lattice._canonical_basis

        def counting(m, p, s):
            calls.append(p)
            return reduce(m, p, s)

        monkeypatch.setattr(qpadic.lattice, "_canonical_basis", counting)
        for built in channels:
            calls.clear()
            chan = GaussianChannel(built.transform, built.noise)  # one, for K^-1 L
            assert len(calls) == 1
            n0 = chan.witness_threshold()
            assert len(calls) == 1
            chan.entropy_gain_witness(n0)  # apply alone
            assert len(calls) == 2
            chan.entropy_gain_witness(n0 + 1)
            assert len(calls) == 3

    def test_threshold_computed_once(self, monkeypatch):
        chan = GaussianChannel(Mat2.diagonal(9, 1), standard_lattice(3))
        assert all(getattr(chan, slot) is not None for slot in GaussianChannel.__slots__)
        calls = []

        def counting(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        for owner, name in (
            (Mat2, "inverse"),
            (Mat2, "__matmul__"),
            (qpadic.channels, "gain_exponent"),
            (qpadic.lattice, "_canonical_basis"),
        ):
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        assert [chan.witness_threshold() for _ in range(3)] == [2, 2, 2]
        assert calls == []
        chan.entropy_gain_witness(2)
        chan.entropy_gain_witness(3)
        assert "gain_exponent" not in calls and "inverse" not in calls

    def test_fields_refuse_assignment(self):
        chan = GaussianChannel(Mat2.diagonal(3, 1), standard_lattice(3))
        with pytest.raises(AttributeError):
            chan.transform = Mat2.identity()
        with pytest.raises(AttributeError):
            chan.noise = diag_lattice(3, 3, 3)
        with pytest.raises(AttributeError):
            del chan.noise
        assert chan.transform == Mat2.diagonal(3, 1) and chan.noise == standard_lattice(3)


class TestLedger:
    def test_zero_terms_dropped(self):
        assert LogLedger({3: 0, 5: 2}) == LogLedger({5: 2})
        assert LogLedger({2: 1, 3: -1}).terms == {2: 1, 3: -1}

    def test_group_operations(self):
        a = LogLedger({2: 1, 3: -2})
        b = LogLedger({3: 2, 5: 1})
        assert a + b == LogLedger({2: 1, 5: 1})
        assert a - a == LogLedger.zero()
        assert -a == LogLedger({2: -1, 3: 2})
        assert not LogLedger.zero()

    def test_value_and_render(self):
        import math

        led = LogLedger({3: -1})
        assert abs(led.value() + math.log(3)) < 1e-15
        assert abs(led.value(2) + math.log2(3)) < 1e-15
        assert led.render() == "-1*ln(3)"
        assert led.render("2") == "-1*log2(3)"
        assert LogLedger.zero().render("10") == "0"
        assert LogLedger({2: 2, 5: 1}).render() == "2*ln(2) + 1*ln(5)"

    def test_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            LogLedger({3: Fraction(1, 2)})
        with pytest.raises(ValueError):
            LogLedger.zero().render("7")
