"""Shared deterministic generators for the property-style tests.

Everything random in this suite flows through a seeded random.Random so
failures reproduce exactly. The bulk lattice corpora use plain loops since
they are cheaper per case and the acceptance criteria put time budgets
on them.
"""

from __future__ import annotations

import os

# One BLAS thread, set before anything imports numpy, as the benchmark does: with another
# process on the host, an idle pool of BLAS threads slows each small oracle product sharply.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import math  # noqa: E402
import random  # noqa: E402
from fractions import Fraction  # noqa: E402

import pytest  # noqa: E402

from qpadic.channels import GaussianChannel, GaussianState, channel_validity  # noqa: E402
from qpadic.lattice import Lattice, Mat2, Vec2  # noqa: E402

PRIMES = (2, 3, 5, 7, 11)

#: One verdict line per acceptance criterion, shown after the test summary.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def rand_unit(rng: random.Random, p: int) -> Fraction:
    """A rational with valuation exactly 0: both parts coprime to p."""
    while True:
        num = rng.randint(-40, 40)
        den = rng.randint(1, 40)
        if num != 0 and num % p and den % p:
            return Fraction(num, den)


def rand_rational(rng: random.Random, p: int, vmin: int = -4, vmax: int = 4) -> Fraction:
    """A nonzero rational with p-adic valuation drawn from [vmin, vmax]."""
    v = rng.randint(vmin, vmax)
    scale = Fraction(p**v) if v >= 0 else Fraction(1, p**-v)
    return rand_unit(rng, p) * scale


def rand_vector(rng: random.Random, p: int) -> Vec2:
    x = Fraction(0) if rng.random() < 0.15 else rand_rational(rng, p)
    y = Fraction(0) if rng.random() < 0.15 and x != 0 else rand_rational(rng, p)
    return Vec2(x, y)


def rand_basis(rng: random.Random, p: int) -> Mat2:
    while True:
        m = Mat2.from_columns(rand_vector(rng, p), rand_vector(rng, p))
        if m.det() != 0:
            return m


def rand_lattice(rng: random.Random, p: int) -> Lattice:
    return Lattice(rand_basis(rng, p), p)


def solved_subset(a: Lattice, b: Lattice) -> bool:
    """a <= b by the linear solve: both canonical columns of a pass b.contains, no exponent read."""
    return all(b.contains(col) for col in a.canonical.columns())


def rand_unimodular(rng: random.Random, p: int) -> Mat2:
    """Integer matrix invertible over Z_p: built from shears, swaps, units.

    Right-multiplying a basis by one of these never changes the lattice.
    """
    m = Mat2.identity()
    swap = Mat2(Fraction(0), Fraction(1), Fraction(1), Fraction(0))
    for _ in range(rng.randint(1, 5)):
        kind = rng.randrange(3)
        if kind == 0:
            m = m @ Mat2(Fraction(1), Fraction(rng.randint(-9, 9)), Fraction(0), Fraction(1))
        elif kind == 1:
            m = m @ Mat2(Fraction(1), Fraction(0), Fraction(rng.randint(-9, 9)), Fraction(1))
        else:
            u = rng.choice([k for k in range(1, 2 * p) if k % p] + [-1])
            m = m @ swap @ Mat2.diagonal(u, 1)
    assert m.det() != 0 and m.det().numerator % p and abs(m.det().denominator) == 1
    return m


def rand_symplectic(rng: random.Random, p: int) -> Mat2:
    """Determinant-one rational matrix: a short product of shears."""
    m = Mat2.identity()
    for _ in range(rng.randint(1, 4)):
        t = rand_rational(rng, p, -2, 2)
        if rng.random() < 0.5:
            m = m @ Mat2(Fraction(1), t, Fraction(0), Fraction(1))
        else:
            m = m @ Mat2(Fraction(1), Fraction(0), t, Fraction(1))
    assert m.det() == 1
    return m


def rand_valid_channel(
    rng: random.Random, p: int, det_valuation: int | None = None
) -> GaussianChannel:
    """A random admissible channel, optionally with v_p(det K) pinned.

    K = S @ diag(p^v * unit, unit') has the requested determinant
    valuation; the noise lattice is shrunk just enough for the
    admissibility inequality to hold exactly.
    """
    v = rng.randint(-3, 3) if det_valuation is None else det_valuation
    scale = Fraction(p**v) if v >= 0 else Fraction(1, p**-v)
    core = Mat2.diagonal(scale * rand_unit(rng, p), rand_unit(rng, p))
    k = rand_symplectic(rng, p) @ core
    noise = rand_lattice(rng, p)
    n = 0
    while not channel_validity(k, noise.scaled(n)).ok:
        n += 1
    return GaussianChannel(k, noise.scaled(n))


def rand_state(rng: random.Random, p: int, shifted: bool = False) -> GaussianState:
    lat = rand_lattice(rng, p)
    n = 0
    while lat.scaled(n).measure > 1:
        n += 1
    shift = rand_vector(rng, p) if shifted else None
    return GaussianState(lat.scaled(n), shift)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260816)


def count_calls(monkeypatch, owner, name, record=lambda *args: args, calls=None):
    """Patch owner.name to record each call and then call through; returns the list of records.

    A record is record(*args) of the call's positional arguments, by default their tuple. Pass
    calls to share one list between patches, which keeps the order of calls across them.
    """
    calls = [] if calls is None else calls
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(record(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def window_lattices(system) -> list[Lattice]:
    """Every lattice of the oracle window at system, sorted by (a, b, slope).

    The candidates are (a, b, j / p^(m+a)) for a, b in [-m, m] and 0 <= j < p^(m+b), each
    reduced by the generic constructor, kept where p^m Z_p^2 <= L <= p^-m Z_p^2 holds.
    """
    from qpadic.oracle import _fits_window  # here, so the benchmark's generator imports skip numpy

    p, m = system.p, system.window
    found = set()
    for a in range(-m, m + 1):
        for b in range(-m, m + 1):
            pa, pb = Fraction(p) ** a, Fraction(p) ** b
            for j in range(p ** (m + b)):
                lat = Lattice(Mat2(pa, 0, Fraction(j, p ** (m + a)) * pa, pb), p)
                if _fits_window(system, lat):
                    found.add(lat)
    return sorted(found, key=lambda lat: (lat.a, lat.b, lat.slope))


#: (lattices, sheared lattices) of the window at each battery system.
WINDOW_LATTICE_COUNTS = {(3, 2): (23, 14), (5, 2): (45, 36), (7, 2): (75, 66), (3, 4): (237, 212)}


def battery_transforms(p):
    """run_battery's transforms at p: diagonals, then shears and a nonzero-corner transform."""
    return [(1, 0, 0, 1), (p, 0, 0, 1), (1, 0, 0, p), (2, 0, 0, 1), (p, 0, 0, p),
            (1, 1, 0, 1), (2, 1, 1, 1), (1, 0, 1, 1), (3, 0, 3, 1)]


@pytest.fixture
def failing_last_scan(monkeypatch):
    """Plant one disagreeing case at the end of the oracle battery's last channel scan."""
    import qpadic.oracle

    scan = qpadic.oracle.channel_scan

    def planted(system, transform, noise):
        cases = scan(system, transform, noise)
        if transform == Mat2(3, 0, 3, 1) and noise == (1, -1):
            cases[-1].agree = False
        return cases

    monkeypatch.setattr(qpadic.oracle, "channel_scan", planted)


@pytest.fixture
def nan_fourier(monkeypatch):
    """Make the oracle's Fourier check read NaN at exponents (1, 1) alone, inside the (3, 2) grid."""
    import qpadic.oracle

    check = qpadic.oracle.fourier_subgroup_deviation

    def planted(system, e1, e2):
        return math.nan if (e1, e2) == (1, 1) else check(system, e1, e2)

    monkeypatch.setattr(qpadic.oracle, "fourier_subgroup_deviation", planted)


@pytest.fixture
def no_ccr(monkeypatch):
    """Stub the CCR scan, most of a battery's time, in tests that read no CCR result."""
    import qpadic.oracle

    monkeypatch.setattr(qpadic.oracle, "ccr_scan", lambda system: (0.0, 0))
