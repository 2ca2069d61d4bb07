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
from qpadic.padic import Prime, additive_character, padic_norm, valuation

from conftest import (
    PRIMES,
    rand_basis,
    rand_lattice,
    rand_rational,
    rand_state,
    rand_symplectic,
    rand_unit,
    rand_valid_channel,
    rand_vector,
    solved_subset,
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
            solved_subset(ln, chan.noise)
            and solved_subset(pulled, chan.noise)
            and ln.measure <= 1
            and pulled.measure <= 1
        ):
            return n
        n += 1


def threshold_terms(chan: GaussianChannel) -> dict:
    """The lower bounds on n0 besides 0, from L and a freshly reduced P = K^-1 L."""
    noise, pulled = chan.noise, chan.noise.transformed(chan.transform.inverse())
    gap = valuation(pulled.canonical.c / pulled.canonical.a - noise.canonical.c / noise.canonical.a, noise.p)
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

    def test_fields_refuse_assignment(self):
        # a state whose lattice could be swapped afterwards would escape the measure <= 1 rule
        s = GaussianState(standard_lattice(3), Vec2(1, 2))
        with pytest.raises(AttributeError):
            s.lattice = standard_lattice(3).scaled(-1)
        with pytest.raises(AttributeError):
            s.shift = Vec2.zero()
        for field in ("lattice", "shift"):
            with pytest.raises(AttributeError):
                delattr(s, field)
        assert s.lattice == standard_lattice(3) and s.shift == Vec2(1, 2) and s.entropy().is_zero()

    def test_repr_text(self):
        s = GaussianState(Lattice(Mat2.parse("3,0;1,9"), 3), Vec2(1, Fraction(1, 3)))
        assert repr(s) == "GaussianState(p=3, lattice='3,0;1,9', shift='1,1/3')"
        chan = GaussianChannel(Mat2.diagonal(3, 1), standard_lattice(3))
        assert repr(chan) == "GaussianChannel(p=3, transform='3,0;0,1', noise='1,0;0,1')"


class TestCharacteristicFunction:
    def test_indicator_off_lattice(self):
        s = GaussianState(diag_lattice(3, 3, 1))
        assert s.char(Vec2(1, 0)) is None
        assert s.char(Vec2(3, 1)) is not None

    def test_centred_phase_is_trivial(self):
        s = GaussianState(standard_lattice(3))
        assert s.char(Vec2(0, 1)).angle == 0
        assert s.char(Vec2(2, 5)).angle == 0

    def test_pinned_shifted_values(self):
        s = GaussianState(standard_lattice(3), Vec2(1, 0))
        assert s.char(Vec2(0, 1)).angle == 0  # pairing value 1 is integral
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


def dual_point(rng: random.Random, lat: Lattice) -> Vec2:
    """A point of L^perp = L.dual(): an integer combination of the dual's canonical columns."""
    u, v = lat.dual().canonical.columns()
    return u.scaled(rng.randint(-9, 9)) + v.scaled(rng.randint(-9, 9))


class TestStateEquality:
    """chi is trivial on Z_p, so gamma(L, alpha) depends on alpha only modulo L^perp."""

    def test_pinned_classes(self):
        vacuum = GaussianState(standard_lattice(3))
        assert vacuum == GaussianState(standard_lattice(3), Vec2(1, 0))
        assert vacuum == GaussianState(standard_lattice(3), Vec2(-2, 6))
        assert vacuum != GaussianState(standard_lattice(3), Vec2(Fraction(1, 3), 0))
        assert vacuum != GaussianState(diag_lattice(3, 3, 1))
        # the stored and printed shift stays the raw one
        assert str(GaussianState(standard_lattice(3), Vec2(1, 0)).shift) == "1,0"
        with pytest.raises(TypeError):
            hash(vacuum)

    def test_equality_matches_characteristic_function(self):
        # equal iff chi agrees on L's canonical columns, which span L: an independent route
        rng = random.Random(44)
        verdicts = []
        for p in (2, 3, 5):
            for _ in range(60):
                state = rand_state(rng, p, shifted=True)
                w, columns = dual_point(rng, state.lattice), state.lattice.canonical.columns()
                for other in (w, w.scaled(Fraction(1, p)), rand_vector(rng, p)):
                    twin = GaussianState(state.lattice, state.shift + other)
                    same = all(state.char(z) == twin.char(z) for z in columns)
                    assert (state == twin) == same
                    verdicts.append(same)
        assert 100 <= sum(verdicts) < len(verdicts) - 100

    def test_apply_maps_a_class_to_a_class(self):
        rng = random.Random(45)
        moved = 0
        for p in (2, 3, 5):
            for _ in range(60):
                chan = rand_valid_channel(rng, p)
                state = rand_state(rng, p, shifted=True)
                w = dual_point(rng, state.lattice)
                twin = GaussianState(state.lattice, state.shift + w)
                out, twin_out = chan.apply(state), chan.apply(twin)
                assert state == twin and out == twin_out
                moved += out.shift != twin_out.shift
        assert moved >= 100


class TestEntropyAndEquivalence:
    def test_pinned_entropies(self):
        assert GaussianState(diag_lattice(3, 9, 1)).entropy() == LogLedger({3: 2})
        assert GaussianState(diag_lattice(3, 3, 1)).entropy() == LogLedger({3: 1})
        assert GaussianState(standard_lattice(2)).entropy() == LogLedger()

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

    def test_int_verdict_matches_fraction_reference(self):
        # channel_validity and the constructor read v(den - num) - v(den) + a + b >= 0 off the int
        # ratio of det K; the reference is the reduced Fraction det and padic_norm, field by field
        rng = random.Random(47)
        seen = {kind: 0 for kind in ("one", "one mod p^k", "unit", "any", "inadmissible", "boundary")}
        for i in range(2400):
            p = (*PRIMES, 1000003)[i % 6]
            kind = ("one", "one mod p^k", "unit", "any")[i // 6 % 4]
            if kind == "one":
                d = Fraction(1)
            elif kind == "one mod p^k":
                d = 1 + p ** rng.randint(1, 4) * rand_unit(rng, p)  # v(1 - det) = k exactly
            elif kind == "unit":
                d = rand_unit(rng, p)
            else:
                d = rand_rational(rng, p)
            k = rand_symplectic(rng, p) @ Mat2.diagonal(d, 1)
            noise = rand_lattice(rng, p).scaled(rng.randint(-3, 2))
            det = k.det()
            n1 = padic_norm(1 - det, p)
            ref = (n1, noise.measure, n1 * noise.measure, n1 * noise.measure <= 1)
            chk = channel_validity(k, noise)
            assert (chk.one_minus_det_norm, chk.noise_measure, chk.product, chk.ok) == ref
            assert all(type(x) is Fraction for x in ref[:3])
            if ref[3]:
                GaussianChannel(k, noise)
            else:
                with pytest.raises(NotAChannelError) as err:
                    GaussianChannel(k, noise)
                assert str(err.value) == (
                    f"admissibility fails: |1 - det K|_p * measure = {ref[0]} * {ref[1]} = {ref[2]} > 1"
                )
            seen[kind] += 1
            seen["inadmissible"] += not ref[3]
            seen["boundary"] += ref[2] == 1
        assert min(seen.values()) >= 50, seen


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
        with pytest.raises(ValueError, match=r"^prime mismatch: 5 vs 3$"):  # state prime first, from &
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


class TestRuntimeInvariants:
    """Each output check fires on a planted fault; the plant lives only inside the test."""

    def test_apply_refuses_an_output_above_measure_one(self, monkeypatch):
        chan = GaussianChannel(Mat2.diagonal(3, 1), standard_lattice(3))
        monkeypatch.setattr(Lattice, "__and__", lambda lat, other: Lattice._from_canonical(-1, 0, 0, lat.p))
        refusal = r"^admissible channel produced output measure 3 > 1$"
        with pytest.raises(InvariantViolation, match=refusal) as caught:
            chan.apply(GaussianState(standard_lattice(3)))
        assert caught.value.__suppress_context__  # GaussianState's own refusal is not chained

    def test_witness_refuses_an_output_off_the_pullback(self, monkeypatch):
        chan = GaussianChannel(Mat2.diagonal(3, 1), standard_lattice(3))
        intersect = Lattice.__and__
        monkeypatch.setattr(Lattice, "__and__", lambda lat, other: intersect(lat, other).scaled(1))
        with pytest.raises(InvariantViolation, match="witness output lattice"):
            chan.entropy_gain_witness(chan.witness_threshold())


class TestGainLaw:
    def test_pinned_gains(self):
        p3 = standard_lattice(3)
        assert GaussianChannel(Mat2.diagonal(3, 1), p3).entropy_gain() == LogLedger({3: -1})
        assert GaussianChannel(Mat2.identity(), p3).entropy_gain() == LogLedger()
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

    def test_witness_is_the_entropy_difference(self):
        # the witness is one ledger of rank exponents; the reference applies the channel to
        # gamma(p**n L) and subtracts the two entropy ledgers
        rng = random.Random(42)
        gains = set()
        for p in (*PRIMES, 1000003):
            for _ in range(20):
                chan = rand_valid_channel(rng, p)
                n0 = chan.witness_threshold()
                for n in range(n0, n0 + 3):
                    inp = GaussianState(chan.noise.scaled(n))
                    assert chan.entropy_gain_witness(n) == chan.apply(inp).entropy() - inp.entropy()
                gains.add(chan.entropy_gain().terms.get(p, 0))
        assert {-3, 0, 3} <= gains

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
            lambda lat: Lattice._from_canonical(lat.a, lat.b, 2 * lat.slope, lat.p),
            lambda lat: Lattice._from_canonical(lat.a, lat.b + 1, lat.slope, lat.p),
            lambda lat: Lattice._from_canonical(lat.a, lat.b - 1, lat.slope, lat.p),
        ],
        ids=["doubled-corner", "b-plus-one", "b-minus-one"],
    )
    def test_norm_checks_the_reduced_image(self, monkeypatch, mutate):
        k, noise = Mat2.parse("1,1;0,3"), Lattice(Mat2.parse("3,0;1,9"), 3)
        honest = noise.transformed(k.inverse())
        assert mutate(honest) != honest
        image = Lattice._image  # the channel reduces P = K^-1 L through it, knowing v(det K^-1)
        monkeypatch.setattr(Lattice, "_image", lambda lat, g, s: mutate(image(lat, g, s)))
        chan = GaussianChannel(k, noise)
        assert chan._pulled == mutate(honest)
        with pytest.raises(InvariantViolation):
            chan.identity_output_norm()

    def test_norm_consistent_with_gain(self):
        rng = random.Random(41)
        for p in (2, 3, 5):
            for _ in range(30):
                chan = rand_valid_channel(rng, p)
                norm = chan.identity_output_norm()
                assert LogLedger.single(p, -int(valuation(norm, p))) == chan.entropy_gain()


def edge_channel(rng: random.Random, p: int) -> GaussianChannel:
    """An admissible channel on the edge: det K = 1 + p^k u and a noise of measure exactly p^k > 1."""
    k = rng.randint(1, 3)
    transform = rand_symplectic(rng, p) @ Mat2.diagonal(1 + p**k * rand_unit(rng, p), 1)
    noise = rand_lattice(rng, p)
    noise = noise.transformed(Mat2.diagonal(Fraction(p) ** (-k - noise.a - noise.b), 1))  # a + b = -k
    assert channel_validity(transform, noise).product == 1
    return GaussianChannel(transform, noise)


class TestChannelSemigroup:
    """(K1, L1) then (K2, L2) maps pi to pi(K1 K2 z) [z in K2^-1 L1 & L2]: one Gaussian channel."""

    def test_composite_applies_as_the_sequence(self):
        # K2^-1 L1 goes through transformed(K2.inverse()), not the channel's adj K pullback
        rng = random.Random(49)
        seen = {"noise measure > 1": 0, "product 1, det K != 1": 0}
        for i in range(400):
            p = PRIMES[i % len(PRIMES)]
            make = (edge_channel if rng.random() < 0.75 else rand_valid_channel for _ in "12")
            first, second = (channel(rng, p) for channel in make)
            transform = first.transform @ second.transform
            noise = first.noise.transformed(second.transform.inverse()) & second.noise
            check = channel_validity(transform, noise)
            assert check.ok, (first, second)  # a composite of completely positive maps is one
            composite = GaussianChannel(transform, noise)
            state = rand_state(rng, p, shifted=True)
            out, want = second.apply(first.apply(state)), composite.apply(state)
            assert (out.lattice, out.shift) == (want.lattice, want.shift)  # adj(K1 K2) = adj K2 adj K1
            assert first.entropy_gain() + second.entropy_gain() == composite.entropy_gain()
            seen["noise measure > 1"] += noise.measure > 1
            seen["product 1, det K != 1"] += check.product == 1 and transform.det() != 1
        assert min(seen.values()) >= 10, seen


class TestDerivedOnce:
    """A channel is immutable and derives adj K, K^-1 L and its threshold in the constructor."""

    def test_witness_reductions(self, monkeypatch):
        rng = random.Random(43)
        channels = [rand_valid_channel(rng, p) for p in PRIMES for _ in range(4)]
        calls = []
        image = Lattice._image

        def counting(lat, g, s):
            calls.append(s)
            return image(lat, g, s)

        monkeypatch.setattr(Lattice, "_image", counting)
        for built in channels:
            calls.clear()
            chan = GaussianChannel(built.transform, built.noise)  # one image, K^-1 L = adj K (p**g L)
            assert len(calls) == 1
            n0 = chan.witness_threshold()
            assert len(calls) == 1
            chan.entropy_gain_witness(n0)  # the apply alone
            assert len(calls) == 2
            chan.entropy_gain_witness(n0 + 1)
            assert len(calls) == 3
            # every image is under adj K, reduced with the channel's own v(det adj K) = v(det K) = -g
            assert set(calls) == {valuation(built.transform.det(), built.p)}

    def test_witness_sequence_builds_no_canonical_matrix(self, monkeypatch):
        # the exact-witness sequence reads (a, b, c) only; the canonical Mat2 waits for a reader
        p, k = 3, Mat2.parse("1,1;0,3")
        built, lazy = [], Lattice.__getattr__

        def counting(lat, name):
            built.append(name)
            return lazy(lat, name)

        monkeypatch.setattr(Lattice, "__getattr__", counting)
        noise = Lattice(Mat2.parse("9,3;1,2/3"), p)
        chan = GaussianChannel(k, noise)
        n0 = chan.witness_threshold()
        gains = [chan.entropy_gain_witness(n) for n in range(n0, n0 + 3)]
        out = chan.apply(GaussianState(Lattice(Mat2.parse("0,3;1,9"), p), Vec2(1, Fraction(1, 3))))
        assert gains == [chan.entropy_gain()] * 3 and out.entropy() == LogLedger({3: 3})
        assert built == []
        # the spy sees a reader: the first read fills the slot, later reads never reach it
        first = out.lattice.canonical
        assert out.lattice.canonical is first and out.lattice.basis is first
        assert built == ["canonical", "basis"]

    def test_threshold_computed_once(self, monkeypatch):
        k, noise = Mat2.diagonal(9, 1), standard_lattice(3)
        calls = []

        def counting(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        for owner, name in (
            (Mat2, "inverse"),
            (Mat2, "__matmul__"),
            (Mat2, "det"),
            (Mat2, "_det_ratio"),
            (Mat2, "scaled"),
            (qpadic.lattice, "_image_of"),
        ):
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        chan = GaussianChannel(k, noise)
        assert all(getattr(chan, slot) is not None for slot in GaussianChannel.__slots__)
        # the int ratio of det K once, shared by admissibility and g = -v(det K); one reduction,
        # K^-1 L under adj K; no reduced det, and no K^-1 = adj K / det K
        assert calls.count("_det_ratio") == 1 and calls.count("_image_of") == 1
        assert not {"det", "inverse", "scaled"} & set(calls)
        calls.clear()
        assert [chan.witness_threshold() for _ in range(3)] == [2, 2, 2]
        assert calls == []
        chan.entropy_gain_witness(2)
        chan.entropy_gain_witness(3)
        assert not {"det", "_det_ratio", "inverse", "scaled"} & set(calls)

    def test_admissibility_builds_no_fraction(self, monkeypatch):
        # an admissible pair is accepted on the int verdict alone: no |1 - det K|_p, no measure,
        # no ChannelValidity; a rejected pair words its message from channel_validity's Fractions
        rng = random.Random(44)
        pairs = [(c.transform, c.noise) for c in (rand_valid_channel(rng, p) for p in PRIMES for _ in range(20))]
        bad = (Mat2.diagonal(4, 1), diag_lattice(3, Fraction(1, 3), Fraction(1, 3)))
        calls = []

        def spy(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        for name in ("padic_norm", "channel_validity", "ChannelValidity"):
            monkeypatch.setattr(qpadic.channels, name, spy(name, getattr(qpadic.channels, name)))
        for name in ("det", "inverse", "scaled"):
            monkeypatch.setattr(Mat2, name, spy(name, getattr(Mat2, name)))
        measure = Lattice.measure.fget
        monkeypatch.setattr(Lattice, "measure", property(spy("measure", measure)))
        for k, noise in pairs:
            GaussianChannel(k, noise)
        assert calls == []
        with pytest.raises(NotAChannelError, match=r"= 1/3 \* 9 = 3 > 1$"):
            GaussianChannel(*bad)
        assert calls[0] == "channel_validity" and "padic_norm" in calls and "measure" in calls

    def test_zero_shift_skips_adjugate(self, monkeypatch):
        # adj(K) fixes the zero shift of every witness input; a nonzero shift takes one adj(K) @ alpha
        rng = random.Random(46)
        channels = [rand_valid_channel(rng, p) for p in PRIMES for _ in range(4)]
        products, matmul = [], Mat2.__matmul__

        def counting(m, other):
            products.append(other)
            return matmul(m, other)

        monkeypatch.setattr(Mat2, "__matmul__", counting)
        assert GaussianState(standard_lattice(3)).shift is Vec2.zero()  # one shared zero vector
        for chan in channels:
            n0 = chan.witness_threshold()
            gains = [chan.entropy_gain_witness(n) for n in range(n0, n0 + 3)]
            assert gains == [chan.entropy_gain()] * 3 and products == []
            alpha = Vec2(Fraction(1, chan.p), 1)
            out = chan.apply(GaussianState(chan.noise.scaled(n0), alpha))
            assert products == [alpha] and out.shift == matmul(chan.transform.adjugate(), alpha)
            products.clear()

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
        assert a - a == LogLedger()
        assert -a == LogLedger({2: -1, 3: 2})
        assert not LogLedger()

    def test_value_and_render(self):
        import math

        led = LogLedger({3: -1})
        assert abs(led.value() + math.log(3)) < 1e-15
        assert led.render() == "-1*ln(3)"
        assert led.render("2") == "-1*log2(3)"
        assert LogLedger().render("10") == "0"
        assert LogLedger({2: 2, 5: 1}).render() == "2*ln(2) + 1*ln(5)"

    def test_value_is_a_float(self):
        for led in (LogLedger(), LogLedger({3: 2})):
            assert type(led.value()) is float
        assert LogLedger().value() == 0.0

    def test_value_in_base_e_is_the_plain_sum(self):
        import math

        for terms in ({}, {3: 1}, {2: 2, 5: -1}, {7: -3, 999983: 4}):
            assert LogLedger(terms).value() == sum((e * math.log(q) for q, e in terms.items()), 0.0)

    def test_hash_and_repr(self):
        assert hash(LogLedger({3: 1, 5: 0})) == hash(LogLedger.single(3, 1))
        assert repr(LogLedger({5: -2, 3: 1})) == "LogLedger({3: 1, 5: -2})"
        assert len({LogLedger({3: 1, 5: 0}), LogLedger.single(3, 1), LogLedger()}) == 2

    def test_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            LogLedger({3: Fraction(1, 2)})
        # a bool is an int to isinstance; it would render as True*ln(3) or 2*ln(True)
        # a key must be prime: {4: 1} would render 1*ln(4) and compare unequal to {2: 2}
        bad = ((3, True), (True, 2), (3, False), (False, 1), (1, 2), (0, 1), (-3, 1), (3.0, 1), (4, 1), (9, 2))
        for q, e in bad:
            with pytest.raises(ValueError):
                LogLedger({q: e})
            with pytest.raises(ValueError):
                LogLedger.single(q, e)
        assert LogLedger({3: 1}).render() == "1*ln(3)" and LogLedger.single(3, 1) == LogLedger({3: 1})
        assert LogLedger({2: 2}).render() == "2*ln(2)"
        assert LogLedger({Prime(3): 1}) == LogLedger({3: 1}) and LogLedger.single(Prime(5), -1) == LogLedger({5: -1})

    def test_derived_ledgers_are_sorted_and_reduced(self):
        a, b = LogLedger({5: 1, 7: 2}), LogLedger({2: -1, 5: 1})
        assert (a + b).terms == {2: -1, 5: 2, 7: 2} and list((a + b).terms) == [2, 5, 7]
        assert (a - b).render() == "1*ln(2) + 2*ln(7)" and list((b - a).terms) == [2, 7]
        assert (a - a).is_zero() and (a + -a).render() == "0" and not -LogLedger()
        assert LogLedger.single(3, 0) == LogLedger() and LogLedger.single(3, 0).render() == "0"
        with pytest.raises(ValueError):
            LogLedger().render("7")
