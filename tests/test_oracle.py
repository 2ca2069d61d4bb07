"""Finite Weyl-operator oracle: internal sanity plus agreement with the exact layer.

The window convention throughout: a lattice L with p^m Z_p^2 <= L <= p^-m Z_p^2,
m = N/2, maps to its window image {p^m * z mod p^N : z in L} in (Z/p^N)^2 (for
diag(p^e1, p^e2) * L0 the product subgroup p^(m+e1)Z x p^(m+e2)Z), a phase-space
point z maps to p^m * z mod p^N, and an exact shift alpha maps to the finite
shift -p^m * alpha mod p^N.
"""

import cmath
import dataclasses
import math
import random

import numpy as np
import pytest

from fractions import Fraction

import qpadic.oracle
import qpadic.padic
from qpadic.adelic import gain_exponent
from qpadic.channels import GaussianState, channel_validity
from qpadic.errors import NotAStateError
from qpadic.lattice import Lattice, Mat2, Vec2, standard_lattice
from qpadic.ledger import LogLedger
from qpadic.padic import Prime
from qpadic.oracle import (
    ScanCase,
    WeylSystem,
    _block_spectrum,
    _fits_window,
    _operator_norm,
    _state_exponents,
    _subgroup_density,
    _weyl_entries,
    _window_mask,
    ccr_deviation,
    ccr_scan,
    channel_scan,
    char_indicator_deviation,
    char_table,
    entropy_nats,
    exponent_lattice,
    fourier_subgroup_deviation,
    gaussian_density,
    run_battery,
    validate_density,
    weyl_operator,
)

from conftest import battery_transforms, count_calls, window_lattices

SYS = WeylSystem(3, 2)
BATTERY_SYSTEMS = ((3, 2), (5, 2), (7, 2), (3, 4))


def weyl_sum_density(system, mask):
    """p^(-N) * sum of W(-z1, -z2) over the set points of mask, one operator at a time."""
    d = system.dim
    rho = np.zeros((d, d), dtype=complex)
    for z1, z2 in zip(*np.nonzero(mask)):
        rho += weyl_operator(system, -int(z1), -int(z2))
    return rho / d


def shifted(system, rho, shift):
    """W(shift) rho W(shift)^H by the dense product: rho moved by the finite shift."""
    w = weyl_operator(system, *shift)
    return w @ rho @ w.conj().T


def dense_ccr_defect(system, a1, b1, a2, b2, weyl=weyl_operator):
    """||W(z1) W(z2) - exp(2*pi*i*h*D(z1, z2)/p^N) W(z1 + z2)||_2 by one SVD of the dense defect."""
    d = system.dim
    phase = np.exp(2j * np.pi * (system.half * (a1 * b2 - b1 * a2) % d) / d)
    lhs = weyl(system, a1, b1) @ weyl(system, a2, b2)
    return np.linalg.norm(lhs - phase * weyl(system, a1 + a2, b1 + b2), 2)


def indicator(system, k):
    """Boolean vector of the subgroup p^k Z / p^N Z of Z/p^N."""
    return np.arange(system.dim) % (system.p**k) == 0


def product_mask(system, k1, k2):
    return np.outer(indicator(system, k1), indicator(system, k2))


def coset_count(h):
    """gcd of d and every offset x - y at which h[x, y] is nonzero, one entry at a time."""
    return math.gcd(len(h), *(int(x) - int(y) for x, y in zip(*np.nonzero(h))))


def scan_mask(system, transform, noise, inputs):
    """Output mask of one scan case: the input subgroup pulled back by K, within the noise."""
    d, m = system.dim, system.window
    ka, kb, kc, kd = transform
    z1, z2 = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return (
        indicator(system, m + inputs[0])[(ka * z1 + kb * z2) % d]
        & indicator(system, m + inputs[1])[(kc * z1 + kd * z2) % d]
        & product_mask(system, m + noise[0], m + noise[1])
    )


NOISES = ((0, 0), (-1, 0), (1, -1))

# criterion 9's scan grid at (3, 2)
CRITERION_9_TRANSFORMS = ((1, 0, 0, 1), (1, 1, 0, 1), (2, 0, 0, 1), (3, 0, 0, 1),
                          (1, 0, 0, 3), (3, 0, 0, 3), (3, 0, 3, 1), (2, 0, 0, 3))
CRITERION_9_NOISES = ((0, 0), (1, 0), (1, -1), (-1, 0), (0, -1), (-1, 1))


class TestSystemParameters:
    def test_derived_quantities(self):
        assert (SYS.dim, SYS.half, SYS.window) == (9, 5, 1)
        assert (2 * SYS.half) % SYS.dim == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            WeylSystem(2, 2)  # needs an odd prime
        with pytest.raises(ValueError):
            WeylSystem(3, 3)  # needs even N
        with pytest.raises(ValueError):
            WeylSystem(4, 2)
        with pytest.raises(ValueError):
            WeylSystem(7, 4)  # 2401 over the dimension cap

    @pytest.mark.parametrize("p", [3.0, "3", True, 2, 9])
    def test_prime_must_be_an_odd_int_prime(self, p):
        # a float 3.0 used to pass and fail later in run_battery with a TypeError
        with pytest.raises(ValueError, match="p must be an odd prime"):
            WeylSystem(p, 2)

    def test_holds_a_prime_and_scans_without_testing_it(self, monkeypatch):
        system = WeylSystem(3, 2)
        assert type(system.p) is Prime and system == SYS and repr(system) == "WeylSystem(p=3, N=2)"
        calls = count_calls(monkeypatch, qpadic.padic, "is_prime")
        assert all(case.agree for case in channel_scan(system, Mat2.diagonal(3, 1), (0, 0)))
        assert type(exponent_lattice(system.p, 1, 0).p) is Prime and calls == []

    def test_accepted_sizes(self):
        for p, n in ((3, 2), (5, 2), (7, 2), (3, 4)):
            assert WeylSystem(p, n).dim <= 343


class TestWeylOperators:
    def test_identity_at_origin(self):
        assert np.allclose(weyl_operator(SYS, 0, 0), np.eye(9))

    def test_unitary(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            a, b = rng.integers(0, 9, size=2)
            w = weyl_operator(SYS, int(a), int(b))
            assert np.abs(w @ w.conj().T - np.eye(9)).max() < 1e-13

    def test_inverse_is_negation(self):
        for a, b in ((1, 0), (0, 1), (2, 5), (8, 8)):
            w = weyl_operator(SYS, a, b)
            winv = weyl_operator(SYS, -a, -b)
            assert np.abs(w @ winv - np.eye(9)).max() < 1e-13

    def test_composition_rule_spot_checks(self):
        for z1, z2 in (((1, 0), (0, 1)), ((2, 3), (4, 5)), ((8, 1), (1, 8))):
            assert ccr_deviation(SYS, z1, z2) < 1e-13

    def test_sampled_scan_is_seeded(self):
        s52 = WeylSystem(5, 2)
        dev1, n1 = ccr_scan(s52)
        dev2, n2 = ccr_scan(s52)
        assert (dev1, n1) == (dev2, n2)
        assert n1 == 500 and dev1 < 1e-10

    @pytest.mark.parametrize("p,n", BATTERY_SYSTEMS)
    def test_pair_policy(self, monkeypatch, p, n):
        # every pair at 81 phase-space points; above that, 500 pairs drawn from
        # random.Random(0) in the order a1, b1, a2, b2
        system, d = WeylSystem(p, n), p**n
        seen = []
        monkeypatch.setattr(qpadic.oracle, "ccr_deviation", lambda s, z1, z2: seen.append((z1, z2)) or 0.0)
        assert ccr_scan(system) == (0.0, len(seen))
        if d * d <= 81:
            points = [(a, b) for a in range(d) for b in range(d)]
            assert seen == [(z1, z2) for z1 in points for z2 in points]
        else:
            rng = random.Random(0)
            draw = [tuple(rng.randrange(d) for _ in range(4)) for _ in range(500)]
            assert seen == [((a1, b1), (a2, b2)) for a1, b1, a2, b2 in draw]

    @pytest.mark.parametrize("p,n", BATTERY_SYSTEMS)
    def test_phases_come_from_the_root_table(self, p, n):
        # bitwise: entry k of the table is exp(2*pi*i*k/d), evaluated at every index this call reads
        system = WeylSystem(p, n)
        d, h, x = system.dim, system.half, np.arange(system.dim)
        for a in range(d):
            for b in range(d):
                phases, cols = qpadic.oracle._weyl_entries(system, a, b)
                assert np.array_equal(phases, np.exp(2j * np.pi * ((b * x + h * a * b) % d) / d))
                assert np.array_equal(cols, (x + a) % d)
        twist = np.exp(2j * np.pi * ((h * np.outer(x, x)) % d) / d)
        assert np.array_equal(system._char_grids[1], twist)

    @pytest.mark.parametrize("p,n", BATTERY_SYSTEMS)
    def test_deviation_is_the_dense_operator_norm(self, p, n):
        system = WeylSystem(p, n)
        rng = np.random.default_rng(62)
        for _ in range(100):
            a1, b1, a2, b2 = (int(v) for v in rng.integers(-system.dim, system.dim, 4))
            want = dense_ccr_defect(system, a1, b1, a2, b2)
            assert abs(ccr_deviation(system, (a1, b1), (a2, b2)) - want) < 1e-14

    def test_full_grid_takes_no_svd(self, monkeypatch):
        # every passing pair leaves a defect with the support of W(z1 + z2), read off without an SVD
        calls = count_calls(monkeypatch, np.linalg, "norm")
        assert ccr_scan(SYS)[0] < 1e-10
        assert calls == []

    def test_off_support_entry_takes_the_svd(self, monkeypatch):
        build = qpadic.oracle.weyl_operator

        def planted(system, a, b):
            w = build(system, a, b)
            w[0, (a + 1) % system.dim] += 1  # row 0 now holds two nonzeros
            return w

        monkeypatch.setattr(qpadic.oracle, "weyl_operator", planted)
        for (a1, b1), (a2, b2) in (((1, 2), (4, 5)), ((2, 7), (3, 1)), ((8, 8), (5, 3))):
            want = dense_ccr_defect(SYS, a1, b1, a2, b2, weyl=planted)
            calls = count_calls(monkeypatch, np.linalg, "norm")
            dev = ccr_deviation(SYS, (a1, b1), (a2, b2))
            assert len(calls) == 1 and abs(dev - want) < 1e-14 and dev > 0.5


class TestOperatorNorm:
    """_operator_norm against np.linalg.norm(m, 2), the SVD it stands in for."""

    @staticmethod
    def monomial(rng, d):
        """A complex matrix with at most one nonzero per row and column; about a fifth of its rows are 0."""
        m = np.zeros((d, d), dtype=complex)
        keep = rng.random(d) > 0.2
        keep[rng.integers(d)] = False
        rows = np.flatnonzero(keep)
        m[rows, rng.permutation(d)[: len(rows)]] = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
        return m

    @staticmethod
    def assert_norm(m):
        want = np.linalg.norm(m, 2)
        assert abs(_operator_norm(m) - want) <= 1e-12 * want

    @pytest.mark.parametrize("d", [9, 25, 49, 81])
    def test_monomial_matrices(self, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            m = self.monomial(rng, d)
            assert not m.any(axis=1).all()  # a zero row
            self.assert_norm(m)

    @pytest.mark.parametrize("transpose", [False, True], ids=["row", "column"])
    def test_two_nonzeros_in_one_line(self, transpose):
        # the pair is alone in its row and columns and dominates the monomial background, so
        # every other line holds at most one nonzero and the largest entry is not the norm
        rng = np.random.default_rng(63)
        for d in (9, 25):
            m = self.monomial(rng, d) / 10
            m[2], m[:, [3, 5]] = 0, 0
            m[2, [3, 5]] = 1 + 1j, -1
            self.assert_norm(m.T if transpose else m)
            assert np.linalg.norm(m, 2) > np.abs(m).max() + 0.25

    def test_zero_matrix(self):
        assert _operator_norm(np.zeros((9, 9), dtype=complex)) == 0 == np.linalg.norm(np.zeros((9, 9)), 2)


class TestGaussianDensities:
    def test_window_and_state_errors(self):
        with pytest.raises(ValueError):
            gaussian_density(SYS, 2, 0)
        with pytest.raises(NotAStateError):
            gaussian_density(SYS, -1, 0)

    @pytest.mark.parametrize("p,n", BATTERY_SYSTEMS)
    def test_state_rule_is_gaussian_state(self, p, n):
        # over the window grid the refusal is GaussianState's, message and all, exactly where e1 + e2 < 0
        system, m = WeylSystem(p, n), n // 2
        for e1 in range(-m, m + 1):
            for e2 in range(-m, m + 1):
                if e1 + e2 >= 0:
                    gaussian_density(system, e1, e2)
                    continue
                with pytest.raises(NotAStateError) as want:
                    GaussianState(exponent_lattice(p, e1, e2))
                with pytest.raises(NotAStateError) as got:
                    gaussian_density(system, e1, e2)
                assert str(got.value) == str(want.value)

    def test_char_table_matches_pointwise_trace(self):
        # the full (a, b) grid, so a sign or index slip in the DFT shows; a
        # Gaussian's table vanishes where the h*a*b twist is not 1, so a
        # generic density covers the twist. Each system builds its tables once, so the systems
        # interleave, and (3, 2) comes back as the same instance and as a fresh equal one
        rng = np.random.default_rng(61)
        systems = ((SYS, (2, 7)), (WeylSystem(5, 2), (4, 11)), (SYS, (1, 3)), (WeylSystem(3, 2), (5, 1)))
        for system, shift in systems:
            d = system.dim
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            generic = g @ g.conj().T / np.trace(g @ g.conj().T)
            for rho in (shifted(system, gaussian_density(system, 0, 0), shift), generic):
                table = char_table(system, rho)
                pointwise = [[np.trace(rho @ weyl_operator(system, a, b)) for b in range(d)] for a in range(d)]
                assert np.abs(table - np.array(pointwise)).max() < 1e-12
        assert systems[3][0] == SYS and hash(systems[3][0]) == hash(SYS)

    def test_shifted_char_has_indicator_magnitude(self):
        rho = shifted(SYS, gaussian_density(SYS, 0, 1), (4, 1))
        table = np.abs(char_table(SYS, rho))
        z = np.arange(9)
        expected = np.outer(z % 3 == 0, z % 9 == 0).astype(float)
        assert np.abs(table - expected).max() < 1e-10

    def test_spectra_depend_only_on_exponent_sum(self):
        a = np.sort(np.linalg.eigvalsh(gaussian_density(SYS, 1, 0)))
        b = np.sort(np.linalg.eigvalsh(gaussian_density(SYS, 0, 1)))
        c = np.sort(np.linalg.eigvalsh(shifted(SYS, gaussian_density(SYS, 1, 0), (3, 5))))
        assert np.abs(a - b).max() < 1e-12
        assert np.abs(a - c).max() < 1e-12


class TestDensityBuilder:
    """The DFT builder against the plain sum of Weyl operators it stands for.

    From d = 25 on, each random mask holds about 100 points, which keeps that sum cheap at d = 81.
    """

    @pytest.mark.parametrize("p,n", BATTERY_SYSTEMS)
    def test_matches_weyl_sum(self, p, n):
        system = WeylSystem(p, n)
        d = system.dim
        rng = np.random.default_rng(62)
        masks = [product_mask(system, k1, k2) for k1 in range(n + 1) for k2 in range(n + 1)]
        masks += [rng.random((d, d)) < min(0.3, 100 / d**2) for _ in range(5)]
        for mask in masks:
            assert np.abs(_subgroup_density(system, mask) - weyl_sum_density(system, mask)).max() < 1e-12

    @pytest.mark.parametrize("p,n", BATTERY_SYSTEMS)
    def test_masks_with_empty_rows(self, p, n):
        # rows z1 that miss the mask are skipped by the builder and must come out exactly 0
        system = WeylSystem(p, n)
        d = system.dim
        rng = np.random.default_rng(63)
        masks = []
        for keep in (0.5, 0.2):
            mask = rng.random((d, d)) < min(0.4, 100 / (keep * d**2))
            mask[rng.random(d) >= keep] = False
            masks.append(mask)
        one_row = np.zeros((d, d), dtype=bool)
        one_row[p, ::p] = True
        masks += [one_row, np.zeros((d, d), dtype=bool)]
        assert all(not mask.any(axis=1).all() for mask in masks)
        for mask in masks:
            rho = _subgroup_density(system, mask)
            assert np.abs(rho - weyl_sum_density(system, mask)).max() < 1e-12
            x = np.arange(d)
            for z1 in np.flatnonzero(~mask.any(axis=1)):
                assert not rho[x, (x - z1) % d].any()

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2)])
    def test_gaussian_density_matches_weyl_sum(self, p, n):
        system = WeylSystem(p, n)
        m = system.window
        for e1 in range(-m, m + 1):
            for e2 in range(max(-m, -e1), m + 1):
                want = weyl_sum_density(system, product_mask(system, m + e1, m + e2))
                assert np.abs(gaussian_density(system, e1, e2) - want).max() < 1e-12


class TestExactFiniteShiftConvention:
    def test_char_agrees_with_exact_state(self):
        p, m, d = 3, SYS.window, SYS.dim
        for ax, ay in ((Fraction(1, 3), Fraction(0)), (Fraction(2, 3), Fraction(1, 3))):
            alpha = Vec2(ax, ay)
            exact = GaussianState(standard_lattice(p), alpha)
            t = (int(-(p**m) * ax) % d, int(-(p**m) * ay) % d)
            rho = shifted(SYS, gaussian_density(SYS, 0, 0), t)
            for z1 in range(-1, 2):
                for z2 in range(-1, 2):
                    phase = exact.char(Vec2(z1, z2))
                    want = 0j if phase is None else cmath.exp(2j * math.pi * float(phase.angle))
                    got = np.trace(rho @ weyl_operator(SYS, (p**m * z1) % d, (p**m * z2) % d))
                    assert abs(got - want) < 1e-12


class TestFourierDuality:
    def test_exponent_swap_example(self):
        # dual of p^2 Z x p^1 Z is p^(N-1) Z x p^(N-2) Z = p^1 Z x p^0 Z
        assert fourier_subgroup_deviation(SYS, 2, 1) < 1e-10


class TestWindowMask:
    """The one mask builder against Fraction membership, and its window check."""

    def test_matches_fraction_membership(self):
        lattices = sheared = mismatches = 0
        for p, n in ((3, 2), (5, 2)):
            system = WeylSystem(p, n)
            d, scale = system.dim, p**system.window
            for lat in window_lattices(system):
                want = [
                    [lat.contains(Vec2(Fraction(z1, scale), Fraction(z2, scale))) for z2 in range(d)]
                    for z1 in range(d)
                ]
                mismatches += not np.array_equal(_window_mask(system, lat), np.array(want))
                lattices += 1
                sheared += lat.slope != 0
        assert (lattices, sheared, mismatches) == (68, 50, 0)

    def test_out_of_window_exponents_raise(self):
        rho = gaussian_density(SYS, 0, 0)
        for e1, e2 in ((2, 0), (0, 3), (-2, 2), (2, -1)):
            with pytest.raises(ValueError, match="leaves the window"):
                gaussian_density(SYS, e1, e2)
            with pytest.raises(ValueError, match="leaves the window"):
                char_indicator_deviation(SYS, rho, e1, e2)
        for e1, e2 in ((0, 5), (3, 0), (-1, 1), (0, -1)):
            with pytest.raises(ValueError, match="leaves the window"):
                fourier_subgroup_deviation(SYS, e1, e2)
        for noise in ((2, 0), (0, -2), (-2, 2)):
            with pytest.raises(ValueError, match="leaves the window"):
                channel_scan(SYS, Mat2.identity(), noise)

    def test_window_is_two_sided(self):
        # at m = 1, (0, 1, 1/3) lies in 3^-1 Z_3^2 but misses (3, 0): v(0 - 3/3) = 0 < b = 1
        inside_only = Lattice._from_canonical(0, 1, Fraction(1, 3), Prime(3))
        assert inside_only.contains(Vec2(0, 3)) and not inside_only.contains(Vec2(3, 0))
        assert not _fits_window(SYS, inside_only)
        with pytest.raises(ValueError, match="leaves the window"):
            _window_mask(SYS, inside_only)
        assert _fits_window(SYS, Lattice._from_canonical(-1, 1, Fraction(1), Prime(3)))

    @pytest.mark.parametrize("p,n", BATTERY_SYSTEMS)
    def test_window_is_the_containment_rule(self, p, n):
        # candidates (a, b, j / p^(m+a+1)) reach one step past the window on every side, so
        # every bound fails for some candidate, each of the two slope bounds included
        system = WeylSystem(p, n)
        m = system.window
        inner, outer = exponent_lattice(p, m, m), exponent_lattice(p, -m, -m)
        fitting, slope_only = set(), {"inner": 0, "outer": 0}
        for a in range(-m - 1, m + 2):
            for b in range(-m - 1, m + 2):
                pa, pb = Fraction(p) ** a, Fraction(p) ** b
                for j in range(p ** (m + b + 1)):
                    lat = Lattice(Mat2(pa, 0, Fraction(j) / Fraction(p) ** (m + a + 1) * pa, pb), p)
                    in_inner, in_outer = inner.issubset(lat), lat.issubset(outer)
                    assert _fits_window(system, lat) == (in_inner and in_outer), (lat.a, lat.b, lat.slope)
                    if in_inner and in_outer:
                        fitting.add(lat)
                    elif -m <= lat.a <= m and -m <= lat.b <= m:
                        slope_only["outer" if in_inner else "inner"] += 1
        assert fitting == set(window_lattices(system))
        assert min(slope_only.values()) > 0

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 2)])
    def test_lattice_operations_are_mask_operations(self, p, n):
        # on every ordered pair of window lattices: the mask of L1 & L2 is the AND of the masks, the
        # mask of L1 + L2 is their subgroup sum (the support of the cyclic convolution, one fft2
        # product), and L1.issubset(L2) is the inclusion of masks; the window is closed under & and +
        system = WeylSystem(p, n)
        lattices = window_lattices(system)
        masks = np.array([_window_mask(system, lat) for lat in lattices])
        mask_of = dict(zip(lattices, masks))
        spectra = np.fft.rfft2(masks)
        for one, mask, spectrum in zip(lattices, masks, spectra):
            meets = np.array([mask_of[one & two] for two in lattices])
            assert np.array_equal(meets, mask & masks), one
            joins = np.array([mask_of[one + two] for two in lattices])
            assert np.array_equal(joins, np.fft.irfft2(spectrum * spectra, s=mask.shape) > 0.5), one
            inclusions = [one.issubset(two) for two in lattices]
            assert inclusions == (~(mask & ~masks).any(axis=(1, 2))).tolist(), one

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 2)])
    def test_transformed_is_a_mask_permutation(self, p, n):
        # g in SL2(Z) keeps the window and maps the window image of L onto that of g L point by
        # point: the mask of L.transformed(g) read at g z mod p^N is the mask of L at z
        system = WeylSystem(p, n)
        d, lattices = system.dim, window_lattices(system)
        z1, z2 = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        for g in (Mat2(0, -1, 1, 0), Mat2(1, 1, 0, 1), Mat2(1, 0, 1, 1), Mat2(2, 1, 1, 1)):
            ga, gb, gc, gd = (int(q) for q in (g.a, g.b, g.c, g.d))
            gz = (ga * z1 + gb * z2) % d, (gc * z1 + gd * z2) % d
            for lat in lattices:
                image = _window_mask(system, lat.transformed(g))
                assert np.array_equal(image[gz], _window_mask(system, lat)), (str(g), lat)


class TestShiftClasses:
    """gamma(L, alpha) depends on alpha only modulo L^perp, in the finite model too."""

    def test_shifts_agree_exactly_modulo_the_dual(self):
        tallies = {}
        for p, n in ((3, 2), (5, 2)):
            system = WeylSystem(p, n)
            d = system.dim
            shift = (1, p + 1)
            agreed = differed = 0
            for e1, e2 in qpadic.oracle._state_exponents(system):
                centered = gaussian_density(system, e1, e2)
                rho = shifted(system, centered, shift)
                dual = _window_mask(system, exponent_lattice(p, e1, e2).dual())
                for w1 in range(d):
                    for w2 in range(d):
                        moved = shifted(system, centered, (shift[0] + w1, shift[1] + w2))
                        same = np.abs(moved - rho).max() < 1e-12
                        assert same == dual[w1, w2], (p, n, e1, e2, w1, w2)
                        agreed += same
                        differed += not same
            tallies[p, n] = agreed, differed
        assert tallies == {(3, 2): (162, 324), (5, 2): (950, 2800)}


class TestDensityValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            validate_density(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        bad = np.eye(3, dtype=complex)
        bad[0, 1] = 1j
        with pytest.raises(ValueError):
            validate_density(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            validate_density(np.eye(3, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            validate_density(bad)

    def test_psd_tolerance_is_fixed_at_1e_10(self):
        near = np.diag([1 + 5e-11, -5e-11, 0.0]).astype(complex)
        assert validate_density(near)[0] == -5e-11
        past = np.diag([1 + 2e-10, -2e-10, 0.0]).astype(complex)
        with pytest.raises(ValueError, match=r"minimum eigenvalue -2\.000e-10 below -1e-10"):
            validate_density(past)

    def test_returns_ascending_spectrum(self):
        rho = shifted(SYS, gaussian_density(SYS, 1, 0), (3, 5))
        lams = validate_density(rho)
        assert np.all(np.diff(lams) >= 0)
        assert np.abs(lams - np.linalg.eigvalsh(rho)).max() < 1e-15
        flat = np.diag([0.5, 0.25, 0.25]).astype(complex)
        assert np.allclose(validate_density(flat), [0.25, 0.25, 0.5])

    def test_maximally_mixed_entropy(self):
        assert abs(entropy_nats(np.eye(9) / 9) - np.log(9)) < 1e-12

    @pytest.mark.parametrize("e", [-1, 1])
    def test_pure_entropy_is_not_negative_zero(self, e):
        # the spectrum is exactly (0, ..., 0, 1): its sum is 0.0, whose negation is -0.0
        assert math.copysign(1.0, entropy_nats(gaussian_density(SYS, e, -e))) == 1.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_entries(self, value):
        # NaN > 1e-12 is False, so a NaN entry used to pass the hermitian and trace checks
        for at in ((0, 0), (0, 1)):
            bad = gaussian_density(SYS, 0, 0)
            bad[at] = value
            with pytest.raises(ValueError, match="non-finite"):
                validate_density(bad)
            with pytest.raises(ValueError, match="non-finite"):
                entropy_nats(bad)

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError, match="nonempty"):
            validate_density(np.zeros((0, 0), dtype=complex))


class TestChannelScan:
    def test_witnesses_inadmissible_channel(self):
        # det 3 with noise of measure 3 fails the exact inequality at input (0,0)
        cases = channel_scan(SYS, Mat2.diagonal(3, 1), (-1, 0))
        bad = [c for c in cases if not c.expected_predicate]
        assert [c.input for c in bad] == [(0, 0)]
        assert bad[0].min_eig < -1e-6
        assert all(c.agree for c in cases)

    def test_valid_channel_spectra(self):
        cases = channel_scan(SYS, Mat2.diagonal(3, 1), (0, 0))
        assert cases and all(c.expected_predicate and c.agree for c in cases)
        by_input = {c.input: c for c in cases}
        assert by_input[(0, 1)].output_exponent == 1
        assert abs(by_input[(0, 1)].entropy_nats - np.log(3)) < 1e-9
        assert by_input[(1, -1)].output_exponent == 0

    def test_unit_determinant_with_loose_noise(self):
        cases = channel_scan(SYS, Mat2.identity(), (-1, 0))
        assert cases and all(c.expected_predicate and c.agree for c in cases)

    def test_trace_is_one(self):
        for case in channel_scan(SYS, Mat2.diagonal(2, 1), (0, 0)):
            assert abs(case.trace - 1) < 1e-12

    def test_noise_window_checked(self):
        with pytest.raises(ValueError):
            channel_scan(SYS, Mat2.identity(), (2, 0))

    def test_integer_transform_required(self):
        with pytest.raises(ValueError):
            channel_scan(SYS, Mat2.diagonal(Fraction(1, 3), 1), (0, 0))

    def test_exponent_lattice_helper(self):
        lat = exponent_lattice(3, 1, -1)
        assert str(lat.canonical) == "3,0;0,1/3"
        assert lat.measure == 1

    def test_exponent_lattice_matches_reduction(self):
        # the closed form skips the reduction; compare it with a reduced user basis
        for p, n in BATTERY_SYSTEMS:
            m = WeylSystem(p, n).window
            for e1 in range(-m, m + 1):
                for e2 in range(-m, m + 1):
                    lat = exponent_lattice(p, e1, e2)
                    want = Lattice(Mat2.diagonal(Fraction(p) ** e1, Fraction(p) ** e2), p)
                    assert lat == want and lat.measure == want.measure
        with pytest.raises(ValueError, match="not a prime"):
            exponent_lattice(9, 0, 0)

    def test_a_fitting_pullback_makes_a_fitting_output(self):
        # the scan tests only the pullback K^-1 L_in: the output K^-1 L_in & L_noise lies in the
        # noise, which fits, and contains p^m Z_p^2 as both do; over the battery grid and
        # criterion 9's grid the pullback test alone skips 90 of the 1,179 inputs
        systems = [WeylSystem(p, n) for p, n in BATTERY_SYSTEMS]
        grid = [(system, k, noise) for system in systems for k in battery_transforms(system.p) for noise in NOISES]
        grid += [(SYS, k, noise) for k in CRITERION_9_TRANSFORMS for noise in CRITERION_9_NOISES]
        inputs = skipped = unfit_outputs = 0
        for system, k, noise in grid:
            transform, noise_lat = Mat2(*k), exponent_lattice(system.p, *noise)
            adjugate, gain = transform.adjugate(), gain_exponent(transform, system.p)
            for e in _state_exponents(system):
                pulled = exponent_lattice(system.p, *e)._pulled_back(adjugate, gain)
                inputs += 1
                if not _fits_window(system, pulled):
                    skipped += 1
                else:
                    unfit_outputs += not _fits_window(system, pulled & noise_lat)
        assert (len(grid), inputs, skipped, unfit_outputs) == (156, 1179, 90, 0)

    def test_one_window_test_per_input(self, monkeypatch):
        # per scan: one test of each input's pullback, one in the noise mask, one in each kept input's mask
        fits = count_calls(monkeypatch, qpadic.oracle, "_fits_window")
        inputs = len(_state_exponents(SYS))
        kept = 0
        for k in CRITERION_9_TRANSFORMS:
            for noise in CRITERION_9_NOISES:
                fits.clear()
                cases = channel_scan(SYS, Mat2(*k), noise)
                assert len(fits) == inputs + 1 + len(cases)
                kept += len(cases)
        assert (kept, inputs * len(CRITERION_9_TRANSFORMS) * len(CRITERION_9_NOISES) - kept) == (252, 36)

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2)])
    def test_shared_masks_keep_their_own_spectra(self, p, n, monkeypatch):
        # shears make non-product output masks; a case must never carry another case's spectrum
        system = WeylSystem(p, n)
        eigvalsh = np.linalg.eigvalsh
        solves = count_calls(monkeypatch, np.linalg, "eigvalsh")
        total = 0
        for k in ((1, 1, 0, 1), (2, 1, 1, 1), (1, 1, 1, 1 + p)):
            for noise in ((0, 0), (-1, 0), (1, -1)):
                cases = channel_scan(system, Mat2(*k), noise)
                total += len(cases)
                for case in cases:
                    assert case.agree
                    mask = scan_mask(system, k, noise, case.input)
                    fresh = eigvalsh(weyl_sum_density(system, mask))
                    assert np.abs(np.array(case.spectrum) - fresh).max() < 1e-12
        assert 0 < len(solves) < total


class TestOutputLatticeMask:
    """Each scan's numerical output mask is the window image of its exact output lattice.

    channel_scan compares the finite output with out_lat only through the rank n = a + b;
    this compares the whole subgroup with the window mask of out_lat, so a wrong corner or
    pivot in the exact image shows.
    """

    def test_masks_match_exact_output_lattices(self):
        cases = corners = mismatches = 0
        for p, n in ((3, 2), (5, 2), (3, 4)):
            system = WeylSystem(p, n)
            for k in battery_transforms(p):
                for noise in NOISES:
                    for case in channel_scan(system, Mat2(*k), noise):
                        g = case.input
                        lat = output_lattice(p, {"transform": k, "input": g, "noise": noise})
                        mask = scan_mask(system, k, noise, g)
                        mismatches += not np.array_equal(mask, _window_mask(system, lat))
                        cases += 1
                        corners += lat.canonical.c != 0
        assert (cases, mismatches) == (687, 0)
        assert corners == 109  # the shears give nonzero corners; the diagonal grid gives none


def admissibility_transforms(p):
    """The battery's transforms and four more, with det K = 1 + p, 1 - p, 1 + p^2 and -1."""
    return battery_transforms(p) + [(1 + p, 0, 0, 1), (1, p, 1, 1), (1, 0, 0, 1 + p * p), (0, 1, 1, 0)]


class TestCompletePositivity:
    """Admissibility against complete positivity, a route that never reads the verdict's formula.

    The finite channel W(z) -> [z in S] W(K z), S the window image of the noise lattice, is
    completely positive iff its Choi matrix C = d^-1 * sum over z in S of W(K z)^T (x) W(-z) is
    positive semidefinite, and so iff Holevo's kernel chi(h * (1 - det K) * D(s_i, s_j)) on S is:
    each coset block of C is unitarily equivalent to that kernel. C is d^2 x d^2, so it is built
    at (3, 2) alone, and the kernel, with |S| rows, carries (5, 2).
    """

    def test_dense_choi_is_psd_iff_admissible(self):
        d, x = SYS.dim, np.arange(SYS.dim)
        # the monomial entries of all d^2 Weyl operators, indexed by the flat point a * d + b
        phases, cols = map(np.array, zip(*(_weyl_entries(SYS, a, b) for a in range(d) for b in range(d))))
        verdicts, edge = [], 0
        for lat in window_lattices(SYS):
            z1, z2 = np.nonzero(_window_mask(SYS, lat))
            minus = -z1 % d * d + -z2 % d
            for k in admissibility_transforms(3):
                ka, kb, kc, kd = k
                image = (ka * z1 + kb * z2) % d * d + (kc * z1 + kd * z2) % d
                # W(K z)^T holds phase[j] at (col[j], j) and W(-z) phase[k] at (k, col[k]), so the
                # Kronecker product puts their product at (col[j] * d + k, j * d + col[k])
                rows = cols[image][:, :, None] * d + x
                columns = x[:, None] * d + cols[minus][:, None, :]
                flat = (rows * d * d + columns).ravel()
                values = (phases[image][:, :, None] * phases[minus][:, None, :]).ravel()
                choi = np.bincount(flat, values.real, d**4) + 1j * np.bincount(flat, values.imag, d**4)
                psd = np.linalg.eigvalsh(choi.reshape(d * d, d * d) / d).min() >= -1e-9
                check = channel_validity(Mat2(*k), lat)
                assert psd == check.ok, (k, lat)
                verdicts.append(check.ok)
                edge += check.product == 3
        assert (len(verdicts), verdicts.count(False), edge) == (299, 32, 26)

    @pytest.mark.parametrize("p,n,counts", [(3, 2, (299, 32, 26)), (5, 2, (572, 36, 36))], ids=["3-2", "5-2"])
    def test_kernel_is_psd_iff_admissible(self, p, n, counts):
        system = WeylSystem(p, n)
        d, h = system.dim, pow(2, -1, system.dim)
        verdicts, edge = [], 0
        for lat in window_lattices(system):
            s = np.argwhere(_window_mask(system, lat))
            if len(s) > 125:  # p^-1 Z_p^2 at (5, 2), whose kernel has 625 rows
                continue
            delta = np.outer(s[:, 0], s[:, 1]) - np.outer(s[:, 1], s[:, 0])
            # the kernel reads K only through c = h * (1 - det K) mod p^N, and -c gives its conjugate
            psd = {}
            for ka, kb, kc, kd in admissibility_transforms(p):
                c = h * (1 - (ka * kd - kb * kc)) % d
                key = min(c, d - c)
                if key not in psd:
                    kernel = np.exp(2j * np.pi * (c * delta % d) / d)
                    psd[key] = np.linalg.eigvalsh(kernel).min() >= -1e-9
                check = channel_validity(Mat2(ka, kb, kc, kd), lat)
                assert psd[key] == check.ok, ((ka, kb, kc, kd), lat)
                verdicts.append(check.ok)
                edge += check.product == p  # one step past the edge
        # (pairs, inadmissible pairs, pairs one step past the edge, |1 - det K|_p * measure = p)
        assert (len(verdicts), verdicts.count(False), edge) == counts


class TestGainIsTheMinimum:
    """The entropy gain log|det K|_p as the least S_out - S_in over inputs, read from spectra alone."""

    NOISES = ((0, 0), (-1, 0), (1, -1), (0, 1), (-1, 1), (1, 0))

    @pytest.mark.parametrize("p,n,attained", [(3, 2, 39), (5, 2, 41), (7, 2, 41), (3, 4, 49)])
    def test_gain_bounds_every_output_and_is_attained(self, p, n, attained):
        # S_in = sum(input) * ln p; the bound holds with equality iff the pullback K^-1 L_in lies in L
        system, log_p = WeylSystem(p, n), math.log(p)
        channels, minima = 0, 0
        for k in battery_transforms(p):
            transform = Mat2(*k)
            g = gain_exponent(transform, p)
            for noise in self.NOISES:
                noise_lat = exponent_lattice(p, *noise)
                if not channel_validity(transform, noise_lat).ok:
                    continue
                channels += 1
                at_minimum = False
                for case in channel_scan(system, transform, noise):
                    assert case.psd and case.entropy_nats is not None, (k, noise, case.input)  # a state
                    excess = case.entropy_nats - sum(case.input) * log_p - g * log_p
                    pulled = exponent_lattice(p, *case.input)._pulled_back(transform.adjugate(), g)
                    inside = pulled.issubset(noise_lat)
                    assert excess >= -1e-9, (k, noise, case.input)
                    assert (abs(excess) < 1e-9) == inside, (k, noise, case.input)
                    at_minimum |= inside
                minima += at_minimum
        assert (channels, minima) == (49, attained)


def spectra(rhos):
    """Entropies -sum(lam * ln lam) over eigenvalues above 1e-12, and least eigenvalues, of a stack."""
    lams = np.linalg.eigvalsh(rhos)
    kept = np.where(lams > 1e-12, lams, 1.0)  # ln 1 = 0 drops the rest
    return -(kept * np.log(kept)).sum(axis=-1), lams.min(axis=-1)


class TestGainOverAllInputs:
    """The gain log|det K|_p as the least S_out - S_in over every input, Gaussian or not, at (3, 2).

    The finite channel keeps the characteristic values on the noise's window image S, read at K z:
    rho -> d^-1 * sum over z in S of Tr(rho W(K z)) W(-z). It is built from char_table and
    weyl_operator alone, batched over inputs, for every admissible (battery transform, product
    noise) channel of the window, and must agree with the scan's output density on Gaussian inputs.
    """

    EPSILONS = (1e-3, 1e-2, 0.1, 0.5)

    def test_no_input_goes_below_the_gain(self):
        d, p, log_p = SYS.dim, SYS.p, math.log(SYS.p)
        window, rng = range(-SYS.window, SYS.window + 1), np.random.default_rng(18)
        x = rng.normal(size=(60, d, d)) + 1j * rng.normal(size=(60, d, d))
        mixed = x @ x.conj().transpose(0, 2, 1)
        mixed /= np.trace(mixed, axis1=1, axis2=2)[:, None, None]
        exponents = _state_exponents(SYS)
        inputs = np.concatenate([[gaussian_density(SYS, *e) for e in exponents], mixed])
        chars = np.array([char_table(SYS, rho).ravel() for rho in inputs])  # Tr(rho W(z)) at z1 * d + z2
        minus = np.array([weyl_operator(SYS, -z1, -z2) for z1 in range(d) for z2 in range(d)]) / d
        entropy_in = spectra(inputs)[0]
        z1, z2 = np.divmod(np.arange(d * d), d)
        channels = attained = mixtures = 0
        for k in battery_transforms(p):
            transform, (ka, kb, kc, kd) = Mat2(*k), k
            gain = gain_exponent(transform, p) * log_p
            kz = (ka * z1 + kb * z2) % d * d + (kc * z1 + kd * z2) % d
            for noise in ((e1, e2) for e1 in window for e2 in window):
                noise_lat = exponent_lattice(p, *noise)
                if not channel_validity(transform, noise_lat).ok:
                    continue
                channels += 1
                s = np.flatnonzero(_window_mask(SYS, noise_lat))
                out = np.tensordot(chars[:, kz[s]], minus[s], 1)
                for e, rho in zip(exponents, out):  # on a Gaussian input, the scan's output density
                    assert np.abs(rho - _subgroup_density(SYS, scan_mask(SYS, k, noise, e))).max() < 1e-12
                excess = spectra(out)[0] - entropy_in - gain
                at_bound = np.flatnonzero(np.abs(excess[: len(exponents)]) < 1e-9)
                attained += len(at_bound) > 0
                # mixtures (1 - eps) * gamma + eps * sigma of each Gaussian gamma at the bound, sigma random
                gamma = np.tile(at_bound, len(self.EPSILONS))
                sigma = rng.integers(len(exponents), len(inputs), size=len(gamma))
                eps = np.repeat(self.EPSILONS, len(at_bound))[:, None, None]
                rho_in = (1 - eps) * inputs[gamma] + eps * inputs[sigma]
                rho_out = np.concatenate([out, (1 - eps) * out[gamma] + eps * out[sigma]])
                mixtures += len(gamma)
                entropy_out, low = spectra(rho_out)
                excess = np.concatenate([excess, entropy_out[len(out) :] - spectra(rho_in)[0] - gain])
                assert np.abs(rho_out - rho_out.conj().transpose(0, 2, 1)).max() < 1e-12, (k, noise)
                assert np.abs(np.trace(rho_out, axis1=1, axis2=2) - 1).max() < 1e-12, (k, noise)
                assert low.min() >= -1e-9, (k, noise)
                assert excess.min() >= -1e-9, (k, noise)
        assert (channels, attained, mixtures) == (66, 52, 552)


class TestBlockSpectrum:
    """The coset-block solve against one full eigvalsh of the same matrix."""

    @pytest.mark.parametrize("p,n", BATTERY_SYSTEMS)
    def test_matches_full_solve_on_oracle_densities(self, p, n, monkeypatch):
        system = WeylSystem(p, n)
        d, m = system.dim, system.window
        densities = [
            shifted(system, gaussian_density(system, e1, e2), shift)
            for e1 in range(-m, m + 1)
            for e2 in range(max(-m, -e1), m + 1)
            for shift in ((0, 0), (1, p + 1))
        ]
        count_calls(monkeypatch, qpadic.oracle, "_block_spectrum", lambda h: h, densities)
        for k in battery_transforms(p):
            for noise in NOISES:
                channel_scan(system, Mat2(*k), noise)
        monkeypatch.undo()
        cosets = set()
        for h in densities:
            assert np.abs(_block_spectrum(h) - np.linalg.eigvalsh(h)).max() < 1e-12
            cosets.add(coset_count(h))
        # the corpus holds full solves, proper splits and, past d = 9, a split into 1x1 blocks
        assert 1 in cosets and any(1 < g < d for g in cosets)
        assert d == 9 or d in cosets

    def test_dense_diagonal_and_zero_matrices(self, monkeypatch):
        rng = np.random.default_rng(64)
        for d in (9, 25, 81):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            dense = a + a.conj().T
            diagonal = np.diag(rng.normal(size=d)).astype(complex)
            assert coset_count(dense) == 1 and coset_count(diagonal) == d
            for h in (dense, diagonal):
                assert np.abs(_block_spectrum(h) - np.linalg.eigvalsh(h)).max() < 1e-12
            # 1x1 blocks take no solve and give, bit for bit, what a stacked eigvalsh of them gives
            stacked = np.sort(np.linalg.eigvalsh(diagonal.diagonal().reshape(d, 1, 1)), axis=None)
            solves = count_calls(monkeypatch, np.linalg, "eigvalsh")
            assert np.array_equal(_block_spectrum(diagonal), stacked)
            assert not _block_spectrum(np.zeros((d, d), dtype=complex)).any()
            assert solves == []
            monkeypatch.undo()

    def test_planted_entry_outside_the_cosets(self):
        # one entry off the density's cosets merges blocks; the spectrum stays the full one
        system = WeylSystem(3, 4)
        rho = gaussian_density(system, 1, 0)
        assert coset_count(rho) == 27
        for (x, y), want in (((0, 9), 9), ((5, 11), 3), ((0, 1), 1), ((80, 0), 1)):
            h = rho.copy()
            h[x, y] += 0.03 + 0.01j
            h[y, x] += 0.03 - 0.01j
            assert coset_count(h) == want
            assert np.abs(_block_spectrum(h) - np.linalg.eigvalsh(h)).max() < 1e-12

    def test_scan_splits_by_the_density_it_solves(self, monkeypatch):
        # the split comes from the matrix, not from the mask that built it
        system = WeylSystem(3, 4)
        build = qpadic.oracle._subgroup_density

        def planted(system, mask):
            rho = build(system, mask)
            rho[0, 1] += 0.01
            rho[1, 0] += 0.01
            return rho

        monkeypatch.setattr(qpadic.oracle, "_subgroup_density", planted)
        k = (3, 0, 0, 1)
        cases = channel_scan(system, Mat2(*k), (0, 0))
        assert cases
        for case in cases:
            rho = planted(system, scan_mask(system, k, (0, 0), case.input))
            want = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
            assert np.abs(np.array(case.spectrum) - want).max() < 1e-12


def output_lattice(p, case):
    """Exact output lattice K^-1 L_in & L_noise of a reported scan case."""
    inverse = Mat2(*case["transform"]).inverse()
    return exponent_lattice(p, *case["input"]).transformed(inverse) & exponent_lattice(p, *case["noise"])


@pytest.fixture(scope="module")
def battery():
    """One (3, 2) battery report, shared by the tests that only read it."""
    return run_battery(SYS)


class TestBattery:
    def test_full_battery_passes(self, battery):
        assert battery["all_checks_pass"]
        assert battery["ccr"]["pairs"] == 9**4
        assert battery["ccr"]["max_deviation"] < 1e-10
        assert battery["fourier_max_deviation"] < 1e-10
        assert all(row["ok"] for row in battery["states"])
        assert all(case["agree"] for case in battery["channel_cases"])

    def test_battery_is_deterministic(self, no_ccr):
        import json

        a = json.dumps(run_battery(SYS), sort_keys=True)
        b = json.dumps(run_battery(SYS), sort_keys=True)
        assert a == b

    def test_expected_entropy_is_the_ledger_value(self, battery):
        # the ledger value of GaussianState.entropy() is a float, bitwise n * log(p)
        for row in battery["states"]:
            assert row["expected_entropy_nats"] == sum(row["exponents"]) * math.log(SYS.p)
            assert type(row["expected_entropy_nats"]) is float

    @pytest.mark.parametrize(
        "name,fault",
        [
            ("entropy", lambda s: LogLedger.single(s.p, s.rank_exponent() + min(s.rank_exponent(), 1))),
            ("is_pure", lambda s: s.lattice.a == 0),
            ("rank_exponent", lambda s: max(s.lattice.a, s.lattice.b)),
        ],
    )
    def test_a_fault_in_the_exact_state_facts_fails(self, monkeypatch, no_ccr, name, fault):
        assert run_battery(SYS)["all_checks_pass"] is True
        monkeypatch.setattr(GaussianState, name, fault)
        assert run_battery(SYS)["all_checks_pass"] is False

    def test_pure_exactly_at_exponent_sum_zero(self, battery, no_ccr):
        for rows in (battery["states"], run_battery(WeylSystem(3, 4))["states"]):
            assert any(row["pure"] for row in rows)
            assert any(not row["pure"] for row in rows)
            for row in rows:
                assert row["pure"] is (sum(row["exponents"]) == 0)

    def test_one_eigensolve_per_state_and_case(self, monkeypatch, no_ccr):
        densities = count_calls(monkeypatch, qpadic.oracle, "_block_spectrum", lambda h: h)
        solves = count_calls(monkeypatch, np.linalg, "eigvalsh")
        report = run_battery(SYS)
        # one spectrum per distinct output lattice within each (transform, noise) scan
        outputs = {
            (tuple(case["transform"]), tuple(case["noise"]), output_lattice(SYS.p, case))
            for case in report["channel_cases"]
        }
        assert len(report["channel_cases"]) == 147 and len(outputs) == 86
        assert len(densities) == len(report["states"]) + len(outputs)
        # each spectrum is one stacked eigvalsh, or none when every block is 1x1
        diagonal = [h for h in densities if coset_count(h) == SYS.dim]
        assert 0 < len(diagonal) < len(densities)
        assert len(solves) == len(densities) - len(diagonal)

    def test_grid_has_shears_and_nonzero_corners(self, battery):
        transforms = {tuple(case["transform"]) for case in battery["channel_cases"]}
        assert transforms == set(battery_transforms(SYS.p))
        corners = [output_lattice(SYS.p, case).canonical.c for case in battery["channel_cases"]]
        assert any(corner != 0 for corner in corners)

    def test_case_rows_are_scan_case_fields(self, battery):
        keys = ["transform", "noise", "input", "trace", "min_eig", "spectrum", "entropy_nats",
                "output_exponent", "expected_predicate", "psd", "agree"]
        assert [field.name for field in dataclasses.fields(ScanCase)] == keys
        assert all(list(row) == keys for row in battery["channel_cases"])

    @pytest.mark.parametrize("p,n", BATTERY_SYSTEMS)
    def test_no_negative_zero(self, no_ccr, p, n):
        # the CCR figures, a count and a max of |entries|, cannot be -0.0
        report = run_battery(WeylSystem(p, n))
        rows = report["states"] + report["channel_cases"]
        zeros = [v for row in rows for value in row.values() for v in np.ravel(value) if v == 0.0]
        assert zeros and all(math.copysign(1.0, v) == 1.0 for v in zeros)
