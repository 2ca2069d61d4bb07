"""Acceptance suite: eleven go/no-go checks with stated tolerances and budgets.

Each criterion prints exactly one PASS/FAIL line (written straight to the
real stdout so the verdict survives pytest's capture). Criteria that the
project brief gives a time budget enforce it after the work completes.

Corpora are seeded and shared: criteria 1 and 2 run over the same random
lattices, criteria 3 and 4 over the same random channels.
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qpadic.adelic import adelic_report
from qpadic.channels import GaussianChannel, GaussianState
from qpadic.cli import main as cli_main
from qpadic.lattice import Lattice, Mat2, standard_lattice
from qpadic.ledger import LogLedger
from qpadic.oracle import (
    WeylSystem,
    _dual_deviation,
    ccr_scan,
    channel_scan,
    char_indicator_deviation,
    entropy_nats,
    exponent_lattice,
    gaussian_density,
)
from qpadic.padic import valuation

import conftest
from conftest import (
    PRIMES,
    WINDOW_LATTICE_COUNTS,
    rand_lattice,
    rand_symplectic,
    rand_valid_channel,
    window_lattices,
)

from test_cli import GOLDEN_CASES
from test_lattice import generic_reduction


@contextlib.contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed > budget:
            raise AssertionError(f"took {elapsed:.2f}s, budget {budget:.0f}s")
    except BaseException:
        conftest.ACCEPTANCE_LINES.append(f"[{number:2d}] FAIL {label}")
        raise
    conftest.ACCEPTANCE_LINES.append(f"[{number:2d}] PASS {label} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def lattice_corpus():
    rng = random.Random(101)
    corpus = []
    for p in PRIMES:
        corpus.extend((p, rand_lattice(rng, p)) for _ in range(200))
    return corpus


@pytest.fixture(scope="module")
def channel_corpus():
    rng = random.Random(102)
    corpus = []
    for p in (2, 3, 5, 7):
        for _ in range(50):
            corpus.append(rand_valid_channel(rng, p))
    return corpus


def test_criterion_1_duality_identity(lattice_corpus):
    with criterion(1, "duality identity on 1000 random lattices", budget=5.0):
        assert len(lattice_corpus) >= 1000
        for _, lat in lattice_corpus:
            dual = lat.dual()
            assert lat.measure * dual.measure == 1
            assert dual.dual() == lat


def test_criterion_2_self_duality_equivalence(lattice_corpus):
    with criterion(2, "self-duality is exactly measure one"):
        for _, lat in lattice_corpus:
            assert (lat.measure == 1) == (lat.dual() == lat)
        rng = random.Random(103)
        for _ in range(100):
            p = rng.choice(PRIMES)
            lat = rand_lattice(rng, p)
            s = rand_symplectic(rng, p)
            assert lat.transformed(s).measure == lat.measure


def test_criterion_3_gain_witness(channel_corpus):
    with criterion(3, "witness entropy difference equals the gain law", budget=10.0):
        assert len(channel_corpus) >= 200
        for chan in channel_corpus:
            p = chan.p
            gain = chan.entropy_gain()
            assert gain == LogLedger.single(p, -int(valuation(chan.transform.det(), p)))
            n0 = chan.witness_threshold()
            inverse = chan.transform.inverse()
            for n in (n0, n0 + 1, n0 + 2):
                assert chan.entropy_gain_witness(n) == gain
                inp = GaussianState(chan.noise.scaled(n))
                out = chan.apply(inp)
                # K^-1 p^n L reduced from its raw generators, independent of apply's closed form
                pulled = generic_reduction(list((inverse @ inp.lattice.basis).columns()), p)
                assert out.lattice.canonical == pulled


def test_criterion_4_gain_identity_norm_consistency(channel_corpus):
    with criterion(4, "gain equals minus log of the identity-output norm"):
        for chan in channel_corpus:
            norm = chan.identity_output_norm()
            v = int(valuation(norm, chan.p))
            assert LogLedger.single(chan.p, -v) == chan.entropy_gain()


def test_criterion_5_adelic_sum_zero():
    with criterion(5, "adelic gains cancel exactly over 500 transforms", budget=2.0):
        rng = random.Random(104)
        for _ in range(500):
            num = rng.randint(1, 10**6) * rng.choice((1, -1))
            den = rng.randint(1, 10**6)
            k = Mat2(Fraction(num, den), Fraction(rng.randint(-5, 5)), 0, 1)
            assert adelic_report(k).sum_is_zero
        pinned = adelic_report(Mat2.diagonal(12, Fraction(1, 5)))
        assert pinned.prime_gains == {2: -2, 3: -1, 5: 1}
        assert pinned.real_gain == {2: 2, 3: 1, 5: -1}
        assert pinned.sum_is_zero


def test_criterion_6_oracle_ccr():
    with criterion(6, "finite Weyl composition rule under 1e-10"):
        # ccr_scan's policy: the full pair grid at 81 phase-space points, 500 seeded pairs above
        dev, pairs = ccr_scan(WeylSystem(3, 2))
        assert pairs == 9**4 and dev < 1e-10
        for p, n in ((5, 2), (7, 2), (3, 4)):
            dev, pairs = ccr_scan(WeylSystem(p, n))
            assert pairs == 500 and dev < 1e-10


def test_criterion_7_oracle_state_spectra():
    with criterion(7, "finite Gaussian spectra, entropy, purity, characters", budget=60.0):
        for p, n in ((3, 2), (5, 2), (7, 2), (3, 4)):
            system = WeylSystem(p, n)
            m = system.window
            spectra_by_rank: dict[int, list[np.ndarray]] = {}
            for e1 in range(-m, m + 1):
                for e2 in range(-m, m + 1):
                    if e1 + e2 < 0:
                        continue
                    rank_exp = e1 + e2
                    rho = gaussian_density(system, e1, e2)
                    lams = np.sort(np.linalg.eigvalsh(rho))
                    flat = np.zeros(system.dim)
                    flat[-(p**rank_exp):] = float(p) ** (-rank_exp)
                    assert np.abs(lams - flat).max() < 1e-10
                    ent = entropy_nats(rho)
                    assert abs(ent - rank_exp * np.log(p)) < 1e-9
                    purity = float(np.real(np.trace(rho @ rho)))
                    assert (abs(purity - 1) < 1e-10) == (rank_exp == 0)
                    assert char_indicator_deviation(system, rho, e1, e2) < 1e-10
                    spectra_by_rank.setdefault(rank_exp, []).append(lams)
            for group in spectra_by_rank.values():
                for other in group[1:]:
                    assert np.abs(group[0] - other).max() < 1e-9


def test_criterion_8_oracle_fourier_duality():
    with criterion(8, "window character sums match the mask of Lattice.dual"):
        for (p, n), counts in WINDOW_LATTICE_COUNTS.items():
            system = WeylSystem(p, n)
            lattices = window_lattices(system)
            assert (len(lattices), sum(lat.slope != 0 for lat in lattices)) == counts
            for lat in lattices:
                assert _dual_deviation(system, lat) < 1e-10, (p, n, lat.a, lat.b, lat.slope)


def test_criterion_9_oracle_admissibility_boundary():
    with criterion(9, "PSD verdicts match the exact inequality casewise", budget=60.0):
        system = WeylSystem(3, 2)
        transforms = [
            Mat2.identity(),
            Mat2(1, 1, 0, 1),
            Mat2.diagonal(2, 1),
            Mat2.diagonal(3, 1),
            Mat2.diagonal(1, 3),
            Mat2.diagonal(3, 3),
            Mat2(3, 0, 3, 1),
            Mat2.diagonal(2, 3),
        ]
        noises = [(0, 0), (1, 0), (1, -1), (-1, 0), (0, -1), (-1, 1)]
        seen_valid = seen_violating = 0
        for k in transforms:
            for noise in noises:
                for case in channel_scan(system, k, noise):
                    assert case.agree, (str(k), noise, case.input)
                    if case.expected_predicate:
                        seen_valid += 1
                        assert case.min_eig >= -1e-9
                    else:
                        seen_violating += 1
                        assert case.min_eig < -1e-6
        # the grid genuinely spans both sides of the exact inequality
        assert seen_valid > 50 and seen_violating > 5


def test_criterion_10_cross_module_agreement():
    with criterion(10, "exact pipeline matches oracle spectra and entropy"):
        system = WeylSystem(3, 2)
        p = 3
        pairs = [
            (Mat2.identity(), (0, 0)),
            (Mat2.identity(), (-1, 0)),
            (Mat2(1, 1, 0, 1), (0, 0)),
            (Mat2.diagonal(2, 1), (0, 0)),
            (Mat2.diagonal(3, 1), (0, 0)),
            (Mat2.diagonal(3, 1), (1, 0)),
            (Mat2.diagonal(1, 3), (0, 1)),
            (Mat2(3, 0, 3, 1), (0, 0)),
            (Mat2.diagonal(3, 3), (1, -1)),
        ]
        checked = 0
        for k, noise_exp in pairs:
            noise = exponent_lattice(p, *noise_exp)
            chan = GaussianChannel(k, noise)
            for case in channel_scan(system, k, noise_exp):
                assert case.expected_predicate and case.agree
                inp = GaussianState(exponent_lattice(p, *case.input))
                out = chan.apply(inp)
                n_exact = out.rank_exponent()
                assert n_exact == case.output_exponent
                assert abs(case.entropy_nats - out.entropy().value()) < 1e-9
                flat = np.zeros(system.dim)
                flat[-(p**n_exact):] = float(p) ** (-n_exact)
                assert np.abs(np.sort(case.spectrum) - flat).max() < 1e-9
                checked += 1
        assert checked >= 30
        # witness pipeline at the threshold, pushed through the finite model
        chan = GaussianChannel(Mat2.diagonal(3, 1), standard_lattice(3))
        n0 = chan.witness_threshold()
        witness_in = chan.noise.scaled(n0)
        [case] = [c for c in channel_scan(system, chan.transform, (0, 0)) if c.input == (n0, n0)]
        out = chan.apply(GaussianState(witness_in))
        assert case.output_exponent == out.rank_exponent()
        assert abs(case.entropy_nats - out.entropy().value()) < 1e-9


def test_criterion_11_cli_determinism():
    with criterion(11, "golden CLI outputs are byte-stable"):
        golden_dir = Path(__file__).parent / "golden"

        def run(args):
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = cli_main(args)
            assert code == 0 and err.getvalue() == ""
            return buf.getvalue()

        for name, args in sorted(GOLDEN_CASES.items()):
            first = run(args)
            second = run(args)
            assert first == second
            assert first == (golden_dir / name).read_text()
            json.loads(first)  # stays parseable
