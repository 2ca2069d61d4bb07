"""Finite Weyl-operator oracle: internal sanity plus agreement with the exact layer.

The window convention throughout: a lattice diag(p^e1, p^e2) * L0 with
|e_i| <= m = N/2 maps to the product subgroup p^(m+e1)Z x p^(m+e2)Z of
(Z/p^N)^2, a phase-space point z maps to p^m * z mod p^N, and an exact
shift alpha maps to the finite shift -p^m * alpha mod p^N.
"""

import math

import numpy as np
import pytest

from fractions import Fraction

import qpadic.oracle
import qpadic.padic
from qpadic.channels import GaussianState
from qpadic.errors import NotAStateError
from qpadic.lattice import Lattice, Mat2, Vec2, standard_lattice
from qpadic.padic import Prime
from qpadic.oracle import (
    WeylSystem,
    _block_spectrum,
    _indicator,
    _subgroup_density,
    ccr_deviation,
    ccr_scan,
    channel_scan,
    char_indicator_deviation,
    char_table,
    char_value,
    entropy_nats,
    exponent_lattice,
    fourier_subgroup_deviation,
    gaussian_density,
    run_battery,
    validate_density,
    weyl_operator,
)

SYS = WeylSystem(3, 2)
BATTERY_SYSTEMS = ((3, 2), (5, 2), (7, 2), (3, 4))


def weyl_sum_density(system, mask):
    """p^(-N) * sum of W(-z1, -z2) over the set points of mask, one operator at a time."""
    d = system.dim
    rho = np.zeros((d, d), dtype=complex)
    for z1, z2 in zip(*np.nonzero(mask)):
        rho += weyl_operator(system, -int(z1), -int(z2))
    return rho / d


def product_mask(system, k1, k2):
    return np.outer(_indicator(system, k1), _indicator(system, k2))


def coset_count(h):
    """gcd of d and every offset x - y at which h[x, y] is nonzero, one entry at a time."""
    return math.gcd(len(h), *(int(x) - int(y) for x, y in zip(*np.nonzero(h))))


def scan_mask(system, transform, noise, inputs):
    """Output mask of one scan case: the input subgroup pulled back by K, within the noise."""
    d, m = system.dim, system.window
    ka, kb, kc, kd = transform
    z1, z2 = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return (
        _indicator(system, m + inputs[0])[(ka * z1 + kb * z2) % d]
        & _indicator(system, m + inputs[1])[(kc * z1 + kd * z2) % d]
        & product_mask(system, m + noise[0], m + noise[1])
    )


def battery_transforms(p):
    """run_battery's transforms at p: diagonals, then shears and a nonzero-corner transform."""
    return [(1, 0, 0, 1), (p, 0, 0, 1), (1, 0, 0, p), (2, 0, 0, 1), (p, 0, 0, p),
            (1, 1, 0, 1), (2, 1, 1, 1), (1, 0, 1, 1), (3, 0, 3, 1)]


NOISES = ((0, 0), (-1, 0), (1, -1))


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
        calls = []
        monkeypatch.setattr(qpadic.padic, "is_prime", lambda n: calls.append(n))
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

    def test_full_grid_scan(self):
        dev, pairs = ccr_scan(SYS)
        assert pairs == 9**4
        assert dev < 1e-10

    def test_sampled_scan_is_seeded(self):
        s52 = WeylSystem(5, 2)
        dev1, n1 = ccr_scan(s52, sample=100, seed=3)
        dev2, n2 = ccr_scan(s52, sample=100, seed=3)
        assert (dev1, n1) == (dev2, n2)
        assert n1 == 100 and dev1 < 1e-10

    @pytest.mark.parametrize("sample", [0, -3])
    def test_empty_sample_is_refused(self, sample):
        # an empty sample used to report a vacuous (0.0, 0)
        with pytest.raises(ValueError, match="sample must be positive"):
            ccr_scan(SYS, sample=sample)


class TestGaussianDensities:
    @pytest.mark.parametrize("e1,e2", [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1), (1, -1)])
    def test_density_is_a_scaled_projector(self, e1, e2):
        rho = gaussian_density(SYS, e1, e2)
        validate_density(rho)
        n = e1 + e2
        # gamma = p^-n * P with P a projector of rank p^n
        assert np.abs(rho @ rho - (3.0**-n) * rho).max() < 1e-12
        lams = np.sort(np.linalg.eigvalsh(rho))
        flat = np.zeros(9)
        flat[-(3**n):] = 3.0**-n
        assert np.abs(lams - flat).max() < 1e-10

    def test_entropy_matches_rank_exponent(self):
        for e1, e2, n in ((0, 0, 0), (1, 0, 1), (-1, 1, 0), (1, 1, 2)):
            ent = entropy_nats(gaussian_density(SYS, e1, e2))
            assert abs(ent - n * np.log(3)) < 1e-9

    def test_purity_only_at_exponent_sum_zero(self):
        pure = gaussian_density(SYS, 0, 0)
        assert np.abs(pure @ pure - pure).max() < 1e-12
        mixed = gaussian_density(SYS, 1, 0)
        assert np.abs(mixed @ mixed - mixed).max() > 0.01

    def test_window_and_state_errors(self):
        with pytest.raises(ValueError):
            gaussian_density(SYS, 2, 0)
        with pytest.raises(NotAStateError):
            gaussian_density(SYS, -1, 0)

    def test_char_table_matches_pointwise_trace(self):
        # the full (a, b) grid, so a sign or index slip in the DFT shows; a
        # Gaussian's table vanishes where the h*a*b twist is not 1, so a
        # generic density covers the twist
        rng = np.random.default_rng(61)
        for system, shift in ((SYS, (2, 7)), (WeylSystem(5, 2), (4, 11))):
            d = system.dim
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            generic = g @ g.conj().T / np.trace(g @ g.conj().T)
            for rho in (gaussian_density(system, 0, 0, shift=shift), generic):
                table = char_table(system, rho)
                pointwise = [[char_value(system, rho, a, b) for b in range(d)] for a in range(d)]
                assert np.abs(table - np.array(pointwise)).max() < 1e-12

    @pytest.mark.parametrize("e1,e2", [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1)])
    def test_char_is_subgroup_indicator(self, e1, e2):
        rho = gaussian_density(SYS, e1, e2)
        assert char_indicator_deviation(SYS, rho, e1, e2) < 1e-10

    def test_shifted_char_has_indicator_magnitude(self):
        rho = gaussian_density(SYS, 0, 1, shift=(4, 1))
        table = np.abs(char_table(SYS, rho))
        z = np.arange(9)
        expected = np.outer(z % 3 == 0, z % 9 == 0).astype(float)
        assert np.abs(table - expected).max() < 1e-10

    def test_spectra_depend_only_on_exponent_sum(self):
        a = np.sort(np.linalg.eigvalsh(gaussian_density(SYS, 1, 0)))
        b = np.sort(np.linalg.eigvalsh(gaussian_density(SYS, 0, 1)))
        c = np.sort(np.linalg.eigvalsh(gaussian_density(SYS, 1, 0, shift=(3, 5))))
        assert np.abs(a - b).max() < 1e-12
        assert np.abs(a - c).max() < 1e-12


class TestDensityBuilder:
    """The DFT builder against the plain sum of Weyl operators it stands for."""

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2)])
    def test_matches_weyl_sum(self, p, n):
        system = WeylSystem(p, n)
        d = system.dim
        rng = np.random.default_rng(62)
        masks = [product_mask(system, k1, k2) for k1 in range(n + 1) for k2 in range(n + 1)]
        masks += [rng.random((d, d)) < 0.3 for _ in range(5)]
        for mask in masks:
            assert np.abs(_subgroup_density(system, mask) - weyl_sum_density(system, mask)).max() < 1e-12

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2)])
    def test_masks_with_empty_rows(self, p, n):
        # rows z1 that miss the mask are skipped by the builder and must come out exactly 0
        system = WeylSystem(p, n)
        d = system.dim
        rng = np.random.default_rng(63)
        masks = []
        for keep in (0.5, 0.2):
            mask = rng.random((d, d)) < 0.4
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
            rho = gaussian_density(SYS, 0, 0, shift=t)
            for z1 in range(-1, 2):
                for z2 in range(-1, 2):
                    phase = exact.char(Vec2(z1, z2))
                    want = 0j if phase is None else phase.to_complex()
                    got = char_value(SYS, rho, (p**m * z1) % d, (p**m * z2) % d)
                    assert abs(got - want) < 1e-12


class TestFourierDuality:
    def test_all_subgroups_at_two_systems(self):
        for system in (SYS, WeylSystem(5, 2)):
            worst = max(
                fourier_subgroup_deviation(system, e1, e2)
                for e1 in range(system.N + 1)
                for e2 in range(system.N + 1)
            )
            assert worst < 1e-10

    def test_exponent_swap_example(self):
        # dual of p^2 Z x p^1 Z is p^(N-1) Z x p^(N-2) Z = p^1 Z x p^0 Z
        assert fourier_subgroup_deviation(SYS, 2, 1) < 1e-10


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
        rho = gaussian_density(SYS, 1, 0, shift=(3, 5))
        lams = validate_density(rho)
        assert np.all(np.diff(lams) >= 0)
        assert np.abs(lams - np.linalg.eigvalsh(rho)).max() < 1e-15
        flat = np.diag([0.5, 0.25, 0.25]).astype(complex)
        assert np.allclose(validate_density(flat), [0.25, 0.25, 0.5])

    def test_maximally_mixed_entropy(self):
        assert abs(entropy_nats(np.eye(9) / 9) - np.log(9)) < 1e-12

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
        bad = [c for c in cases if not c.expected_valid]
        assert [c.input_exponents for c in bad] == [(0, 0)]
        assert bad[0].min_eigenvalue < -1e-6
        assert all(c.agree for c in cases)

    def test_valid_channel_spectra(self):
        cases = channel_scan(SYS, Mat2.diagonal(3, 1), (0, 0))
        assert cases and all(c.expected_valid and c.agree for c in cases)
        by_input = {c.input_exponents: c for c in cases}
        assert by_input[(0, 1)].output_exponent == 1
        assert abs(by_input[(0, 1)].entropy_nats - np.log(3)) < 1e-9
        assert by_input[(1, -1)].output_exponent == 0

    def test_unit_determinant_with_loose_noise(self):
        cases = channel_scan(SYS, Mat2.identity(), (-1, 0))
        assert cases and all(c.expected_valid and c.agree for c in cases)

    def test_trace_is_one(self):
        for case in channel_scan(SYS, Mat2.diagonal(2, 1), (0, 0)):
            assert abs(case.trace - 1) < 1e-12

    def test_explicit_inputs_checked(self):
        with pytest.raises(ValueError):
            channel_scan(SYS, Mat2.identity(), (0, 0), input_exponents=[(2, 0)])
        with pytest.raises(ValueError):
            # pullback by diag(3,1) drags exponent -1 to -2, off the window
            channel_scan(SYS, Mat2.diagonal(3, 1), (0, 0), input_exponents=[(-1, 1)])

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

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 2)])
    def test_shared_masks_keep_their_own_spectra(self, p, n, monkeypatch):
        # shears make non-product output masks; a case must never carry another case's spectrum
        system = WeylSystem(p, n)
        solves = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            solves.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        total = 0
        for k in ((1, 1, 0, 1), (2, 1, 1, 1), (1, 1, 1, 1 + p)):
            for noise in ((0, 0), (-1, 0), (1, -1)):
                cases = channel_scan(system, Mat2(*k), noise)
                total += len(cases)
                for case in cases:
                    assert case.agree
                    mask = scan_mask(system, k, noise, case.input_exponents)
                    fresh = eigvalsh(weyl_sum_density(system, mask))
                    assert np.abs(np.array(case.spectrum) - fresh).max() < 1e-12
        assert 0 < len(solves) < total


class TestBlockSpectrum:
    """The coset-block solve against one full eigvalsh of the same matrix."""

    @pytest.mark.parametrize("p,n", BATTERY_SYSTEMS)
    def test_matches_full_solve_on_oracle_densities(self, p, n, monkeypatch):
        system = WeylSystem(p, n)
        d, m = system.dim, system.window
        densities = [
            gaussian_density(system, e1, e2, shift=shift)
            for e1 in range(-m, m + 1)
            for e2 in range(max(-m, -e1), m + 1)
            for shift in ((0, 0), (1, p + 1))
        ]
        solve = qpadic.oracle._block_spectrum

        def recorded(h):
            densities.append(h)
            return solve(h)

        monkeypatch.setattr(qpadic.oracle, "_block_spectrum", recorded)
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

    def test_dense_diagonal_and_zero_matrices(self):
        rng = np.random.default_rng(64)
        for d in (9, 25, 81):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            dense = a + a.conj().T
            diagonal = np.diag(rng.normal(size=d)).astype(complex)
            assert coset_count(dense) == 1 and coset_count(diagonal) == d
            for h in (dense, diagonal):
                assert np.abs(_block_spectrum(h) - np.linalg.eigvalsh(h)).max() < 1e-12
            assert not _block_spectrum(np.zeros((d, d), dtype=complex)).any()

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
            rho = planted(system, scan_mask(system, k, (0, 0), case.input_exponents))
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

    def test_battery_is_deterministic(self):
        import json

        a = json.dumps(run_battery(SYS, seed=1), sort_keys=True)
        b = json.dumps(run_battery(SYS, seed=1), sort_keys=True)
        assert a == b

    def test_pure_exactly_at_exponent_sum_zero(self, battery):
        for rows in (battery["states"], run_battery(WeylSystem(3, 4), max_cases=0)["states"]):
            assert any(row["pure"] for row in rows)
            assert any(not row["pure"] for row in rows)
            for row in rows:
                assert row["pure"] is (sum(row["exponents"]) == 0)

    def test_one_eigensolve_per_state_and_case(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        report = run_battery(SYS)
        # one solve per distinct output lattice within each (transform, noise) scan
        outputs = {
            (tuple(case["transform"]), tuple(case["noise"]), output_lattice(SYS.p, case))
            for case in report["channel_cases"]
        }
        assert len(report["channel_cases"]) == 147 and len(outputs) == 86
        assert len(calls) == len(report["states"]) + len(outputs)

    def test_grid_has_shears_and_nonzero_corners(self, battery):
        transforms = {tuple(case["transform"]) for case in battery["channel_cases"]}
        assert transforms == set(battery_transforms(SYS.p))
        corners = [output_lattice(SYS.p, case).corner for case in battery["channel_cases"]]
        assert any(corner != 0 for corner in corners)

    def test_max_cases_truncates(self, battery):
        report = run_battery(SYS, max_cases=5)
        assert report["channel_cases"] == battery["channel_cases"][:5]
