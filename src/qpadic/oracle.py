"""Finite Weyl-operator models on Z/p^N for cross-checking the exact modules.

For an odd prime p and even N, phase space is (Z/p^N)^2 and W(a, b) acts
on C^(p^N) by

    (W(a, b) f)(x) = exp(2*pi*i*(b*x + h*a*b)/p^N) * f(x + a),

where h is the inverse of 2 mod p^N. These matrices satisfy the same
composition rule as the exact characters:

    W(z) W(z') = exp(2*pi*i*h*D(z, z')/p^N) * W(z + z'),   D((a,b),(a',b')) = a*b' - b*a'.

A window of half-width m = N/2 embeds exact data: the lattice
diag(p^e1, p^e2) * L0 with -m <= e_i <= m becomes the product subgroup
p^(m+e1)Z x p^(m+e2)Z, and a phase-space point z with entries of
valuation >= -m becomes p^m * z mod p^N. One builder makes every density,
p^(-N) * sum of W(-z) over a point set S, as one inverse DFT over z2 of the rows
z1 that meet S, scattered in place: a product subgroup gives an exact Gaussian
state, its channel image within the noise subgroup a channel output. Spectra are
solved per coset block of the matrix's own nonzero offsets. A channel scan solves
each distinct output subgroup once and checks every case against its own exact
prediction; spectra, entropies and characteristic functions are checked too.

Everything here is floating point by design; tolerances are carried by
the callers. The exact modules never import this one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NotAStateError
from .lattice import Lattice, Mat2, standard_lattice
from .padic import require_prime, valuation

__all__ = [
    "DIMENSION_CAP",
    "ScanCase",
    "WeylSystem",
    "ccr_deviation",
    "ccr_scan",
    "channel_scan",
    "char_indicator_deviation",
    "char_table",
    "char_value",
    "entropy_nats",
    "exponent_lattice",
    "fourier_subgroup_deviation",
    "gaussian_density",
    "run_battery",
    "validate_density",
    "weyl_operator",
]

#: Hard cap on the Hilbert-space dimension p**N.
DIMENSION_CAP = 343

EIGENVALUE_FLOOR = 1e-12
PSD_TOLERANCE = 1e-9
WITNESS_TOLERANCE = 1e-6


@dataclass(frozen=True)
class WeylSystem:
    """Finite model parameters: odd prime p, even window width N."""

    p: int
    N: int

    def __post_init__(self) -> None:
        try:
            p = require_prime(self.p)
            if p == 2:
                raise ValueError
        except ValueError:
            raise ValueError(f"p must be an odd prime, got {self.p!r}") from None
        object.__setattr__(self, "p", p)
        if not isinstance(self.N, int) or self.N <= 0 or self.N % 2:
            raise ValueError(f"N must be a positive even integer, got {self.N!r}")
        # 2**N > DIMENSION_CAP already rules out a huge N before p**N is taken
        if self.N >= DIMENSION_CAP.bit_length() or self.p**self.N > DIMENSION_CAP:
            raise ValueError(
                f"dimension {self.p}**{self.N} exceeds the cap {DIMENSION_CAP}"
            )

    @property
    def dim(self) -> int:
        return self.p**self.N

    @property
    def half(self) -> int:
        """Inverse of 2 modulo p**N."""
        return pow(2, -1, self.dim)

    @property
    def window(self) -> int:
        """Half-width m = N/2 of the exponent window."""
        return self.N // 2


def weyl_operator(system: WeylSystem, a: int, b: int) -> np.ndarray:
    """Matrix of W(a, b); coordinates are taken mod p**N."""
    d = system.dim
    a %= d
    b %= d
    x = np.arange(d)
    phases = np.exp(2j * np.pi * ((b * x + system.half * a * b) % d) / d)
    out = np.zeros((d, d), dtype=complex)
    out[x, (x + a) % d] = phases
    return out


def ccr_deviation(system: WeylSystem, z1: tuple[int, int], z2: tuple[int, int]) -> float:
    """Operator-norm defect of W(z1) W(z2) = phase * W(z1 + z2)."""
    d = system.dim
    a1, b1 = z1
    a2, b2 = z2
    lhs = weyl_operator(system, a1, b1) @ weyl_operator(system, a2, b2)
    disc = a1 * b2 - b1 * a2
    phase = np.exp(2j * np.pi * ((system.half * disc) % d) / d)
    rhs = phase * weyl_operator(system, a1 + a2, b1 + b2)
    return float(np.linalg.norm(lhs - rhs, 2))


def ccr_scan(system: WeylSystem, sample: int | None = None, seed: int = 0) -> tuple[float, int]:
    """Max CCR defect over pairs of phase-space points.

    With sample=None the full pair grid is used; that is only sensible
    when the phase space is tiny (d**2 <= 81), so larger systems should
    pass a positive sample size. Returns (max deviation, number of pairs checked).
    """
    if sample is not None and sample <= 0:
        raise ValueError(f"sample must be positive, got {sample}")
    d = system.dim
    points = [(a, b) for a in range(d) for b in range(d)]
    if sample is None:
        pairs = [(z1, z2) for z1 in points for z2 in points]
    else:
        rng = random.Random(seed)
        pairs = [
            (
                (rng.randrange(d), rng.randrange(d)),
                (rng.randrange(d), rng.randrange(d)),
            )
            for _ in range(sample)
        ]
    worst = 0.0
    for z1, z2 in pairs:
        dev = ccr_deviation(system, z1, z2)
        if dev > worst:
            worst = dev
    return worst, len(pairs)


def _indicator(system: WeylSystem, k: int) -> np.ndarray:
    """Boolean vector of the subgroup p^k Z / p^N Z of Z/p^N."""
    if not 0 <= k <= system.N:
        raise ValueError(f"subgroup exponent {k} outside [0, {system.N}]")
    return np.arange(system.dim) % (system.p**k) == 0


def _subgroup_density(system: WeylSystem, mask: np.ndarray) -> np.ndarray:
    """p^(-N) * sum of W(-z) over the phase-space points z with mask[z] set."""
    d = system.dim
    rows = np.flatnonzero(mask.any(axis=1))  # the other rows z1 sum to an exact 0
    z1 = rows[:, None]
    # W(-z1, -z2)[x, (x - z1) % d] = exp(2*pi*i*z2*(h*z1 - x)/d): DFT entry k belongs at x = h*z1 - k
    x = (system.half * z1 - np.arange(d)) % d
    rho = np.zeros((d, d), dtype=complex)
    rho[x, (x - z1) % d] = np.fft.ifft(mask[rows], axis=1)
    return rho


def gaussian_density(
    system: WeylSystem,
    exponent1: int,
    exponent2: int,
    shift: tuple[int, int] = (0, 0),
) -> np.ndarray:
    """Density matrix of the finite Gaussian state for a product subgroup.

    The subgroup is S = p^(m+exponent1)Z x p^(m+exponent2)Z, the window
    image of diag(p^exponent1, p^exponent2) * L0. The density is
    p^(-N) * sum over z in S of W(-z), conjugated by W(shift). Requires
    window exponents in [-m, m] and exponent1 + exponent2 >= 0 (otherwise
    the sum is not positive and no state exists).
    """
    m = system.window
    if not (-m <= exponent1 <= m and -m <= exponent2 <= m):
        raise ValueError(f"exponents {(exponent1, exponent2)} outside window [-{m}, {m}]")
    if exponent1 + exponent2 < 0:
        raise NotAStateError(
            f"exponent sum {exponent1 + exponent2} < 0: subgroup is not isotropic"
        )
    mask = np.zeros((system.dim, system.dim), dtype=bool)
    mask[:: system.p ** (m + exponent1), :: system.p ** (m + exponent2)] = True  # the subgroup S
    rho = _subgroup_density(system, mask)
    if shift != (0, 0):
        w = weyl_operator(system, *shift)
        rho = w @ rho @ w.conj().T
    return rho


def char_value(system: WeylSystem, rho: np.ndarray, a: int, b: int) -> complex:
    """Characteristic function Tr(rho W(a, b))."""
    return complex(np.trace(rho @ weyl_operator(system, a, b)))


def char_table(system: WeylSystem, rho: np.ndarray) -> np.ndarray:
    """All characteristic values at once; entry [a, b] is Tr(rho W(a, b))."""
    d = system.dim
    x = np.arange(d)
    # row a holds the diagonal rho[x + a, x]; a length-d DFT over x gives every b
    diagonals = rho[(x[:, None] + x) % d, x]
    twist = np.exp(2j * np.pi * ((system.half * np.outer(x, x)) % d) / d)
    return d * np.fft.ifft(diagonals, axis=1) * twist


def char_indicator_deviation(
    system: WeylSystem, rho: np.ndarray, exponent1: int, exponent2: int
) -> float:
    """Max departure of the characteristic table from the subgroup indicator."""
    m = system.window
    table = char_table(system, rho)
    expected = np.outer(_indicator(system, m + exponent1), _indicator(system, m + exponent2))
    return float(np.abs(table - expected).max())


def fourier_subgroup_deviation(system: WeylSystem, e1: int, e2: int) -> float:
    """Verify the normalized character sum of p^e1 Z x p^e2 Z is the dual indicator.

    The dual of a product subgroup swaps and reflects the exponents:
    (p^e1 Z x p^e2 Z)-perp = p^(N-e2)Z x p^(N-e1)Z. Returns the max
    absolute deviation over the full phase-space grid.
    """
    d = system.dim
    s1 = np.nonzero(_indicator(system, e1))[0]
    s2 = np.nonzero(_indicator(system, e2))[0]
    z = np.arange(d)
    # D(z, s) = z1*s2 - z2*s1 splits into two separable sums
    col = np.exp(2j * np.pi * (np.outer(z, s2) % d) / d).sum(axis=1) / len(s2)
    row = np.exp(-2j * np.pi * (np.outer(z, s1) % d) / d).sum(axis=1) / len(s1)
    table = np.outer(col, row)
    expected = np.outer(_indicator(system, system.N - e2), _indicator(system, system.N - e1))
    return float(np.abs(table - expected).max())


def _block_spectrum(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian h of size d, one block per coset of gZ in Z/d:
    g = gcd(d, every x - y with h[x, y] != 0), so no nonzero entry leaves its block."""
    d = len(h)
    x, y = np.nonzero(h != 0)
    g = int(np.gcd.reduce(x - y, initial=d))
    if g == 1:
        return np.linalg.eigvalsh(h)
    # index q*g + r lies in coset r: block r is h[q*g + r, q'*g + r] over q, q'
    blocks = h.reshape(d // g, g, d // g, g).diagonal(0, 1, 3).transpose(2, 0, 1)
    return np.sort(np.linalg.eigvalsh(blocks), axis=None)


def validate_density(rho: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of rho; ValueError unless it is a density matrix."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.size == 0:
        raise ValueError("density matrix must be square and nonempty")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has a non-finite entry")
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > 1e-12:
        raise ValueError(f"not hermitian: max asymmetry {herm:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1) > 1e-12:
        raise ValueError(f"trace {tr} differs from 1")
    lams = _block_spectrum(rho)
    low = float(lams.min())
    if low < -1e-10:
        raise ValueError(f"minimum eigenvalue {low:.3e} below -1e-10")
    return lams


def _entropy(spectrum: np.ndarray) -> float:
    lams = spectrum[spectrum > EIGENVALUE_FLOOR]
    return float(-(lams * np.log(lams)).sum())


def _flat_deviation(spectrum: np.ndarray, p: int, n: int) -> float:
    """Max distance from the flat spectrum: p^(-n) with multiplicity p^n, else 0."""
    flat = np.zeros(len(spectrum))
    flat[-(p**n):] = float(p) ** (-n)
    return float(np.abs(np.sort(spectrum) - flat).max())


def entropy_nats(rho: np.ndarray) -> float:
    """Von Neumann entropy -sum(lam * ln lam) over eigenvalues above 1e-12."""
    return _entropy(validate_density(rho))


def exponent_lattice(p: int, e1: int, e2: int) -> Lattice:
    """The exact lattice diag(p^e1, p^e2) * L0 matching a product subgroup."""
    return Lattice._from_canonical(e1, e2, Fraction(0), require_prime(p))  # already canonical


def _state_exponents(system: WeylSystem) -> list[tuple[int, int]]:
    """Window exponent pairs (e1, e2) of the centered Gaussian states: e1 + e2 >= 0."""
    m = system.window
    return [(g, h) for g in range(-m, m + 1) for h in range(-m, m + 1) if g + h >= 0]


def _fits_window(system: WeylSystem, lat: Lattice) -> bool:
    m = system.window
    pivots_fit = -m <= lat.a <= m and -m <= lat.b <= m
    return pivots_fit and (lat.corner == 0 or valuation(lat.corner, lat.p) >= -m)


@dataclass
class ScanCase:
    """One (transform, noise, input) evaluation of the finite channel."""

    transform: tuple[int, int, int, int]
    noise_exponents: tuple[int, int]
    input_exponents: tuple[int, int]
    trace: float
    min_eigenvalue: float
    spectrum: list[float]
    entropy_nats: float | None
    output_exponent: int
    expected_valid: bool
    psd: bool
    agree: bool

    def to_json_dict(self) -> dict:
        return {
            "transform": list(self.transform),
            "noise": list(self.noise_exponents),
            "input": list(self.input_exponents),
            "trace": self.trace,
            "min_eig": self.min_eigenvalue,
            "spectrum": self.spectrum,
            "entropy_nats": self.entropy_nats,
            "output_exponent": self.output_exponent,
            "expected_predicate": self.expected_valid,
            "psd": self.psd,
            "agree": self.agree,
        }


def _int_matrix(transform: Mat2) -> tuple[int, int, int, int]:
    entries = []
    for q in (transform.a, transform.b, transform.c, transform.d):
        if q.denominator != 1:
            raise ValueError(
                "finite scan needs an integer transform; clear unit denominators first"
            )
        entries.append(int(q))
    return tuple(entries)


def channel_scan(
    system: WeylSystem,
    transform: Mat2,
    noise_exponents: tuple[int, int],
    input_exponents: list[tuple[int, int]] | None = None,
) -> list[ScanCase]:
    """Compare finite channel outputs against the exact admissibility data.

    For each Gaussian input the finite output density is built pointwise,
    pi_out(z) = pi_in(K z) * [z in S_noise], and its spectrum is compared
    with the exact output lattice K^-1 L_in intersect L_noise: positive
    semidefinite iff the exact measure is <= 1, and when it is a state the
    spectrum must be flat at p^(-n) with multiplicity p^n. Inputs whose
    output masks coincide share one density and one eigensolve.

    Inputs are centered Gaussians given by window exponent pairs with a
    nonnegative sum. When input_exponents is None the full admissible
    window grid is scanned, silently dropping inputs whose operative
    lattices leave the window; explicitly requested inputs raise
    ValueError instead, since a clipped window would not be faithful.
    """
    p = system.p
    d = system.dim
    m = system.window
    k_int = _int_matrix(transform)
    if transform.det() == 0:
        raise ValueError("transform must be nonsingular")
    a0, b0 = noise_exponents
    noise_lat = exponent_lattice(p, a0, b0)
    if not _fits_window(system, noise_lat):
        raise ValueError(f"noise exponents {noise_exponents} leave the window")
    inverse = transform.inverse()

    explicit = input_exponents is not None
    grid = list(input_exponents) if explicit else _state_exponents(system)

    noise_mask = np.outer(_indicator(system, m + a0), _indicator(system, m + b0))
    zs = np.arange(d)
    ka, kb, kc, kd = (v % d for v in k_int)
    z1g, z2g = np.meshgrid(zs, zs, indexing="ij")
    w1 = (ka * z1g + kb * z2g) % d
    w2 = (kc * z1g + kd * z2g) % d

    cases: list[ScanCase] = []
    solved: dict[bytes, tuple[np.ndarray, float, float]] = {}  # output mask -> spectrum, min, trace
    for g, h in grid:
        if not (-m <= g <= m and -m <= h <= m) or g + h < 0:
            if explicit:
                raise ValueError(f"input exponents {(g, h)} are not an admissible state")
            continue
        input_lat = exponent_lattice(p, g, h)
        pulled = input_lat.transformed(inverse)
        out_lat = pulled & noise_lat
        if not (_fits_window(system, pulled) and _fits_window(system, out_lat)):
            if explicit:
                raise ValueError(
                    f"input {(g, h)} drives the scan outside the window margin"
                )
            continue

        out_mask = _indicator(system, m + g)[w1] & _indicator(system, m + h)[w2] & noise_mask
        key = out_mask.tobytes()
        if key not in solved:
            rho = _subgroup_density(system, out_mask)
            spectrum = _block_spectrum((rho + rho.conj().T) / 2)
            solved[key] = spectrum, float(spectrum.min()), float(np.real(np.trace(rho)))
        spectrum, min_eig, trace = solved[key]
        n_out = out_lat.a + out_lat.b
        expected_valid = n_out >= 0
        psd = min_eig >= -PSD_TOLERANCE

        entropy: float | None = None
        if expected_valid:
            agree = psd and _flat_deviation(spectrum, p, n_out) < 1e-9
            if psd:
                entropy = _entropy(spectrum)
        else:
            agree = min_eig < -WITNESS_TOLERANCE
        cases.append(
            ScanCase(
                transform=k_int,
                noise_exponents=(a0, b0),
                input_exponents=(g, h),
                trace=trace,
                min_eigenvalue=min_eig,
                spectrum=spectrum.tolist(),
                entropy_nats=entropy,
                output_exponent=n_out,
                expected_valid=expected_valid,
                psd=psd,
                agree=agree,
            )
        )
    return cases


def run_battery(
    system: WeylSystem, seed: int = 0, max_cases: int | None = None
) -> dict:
    """Full deterministic oracle run: CCR, states, Fourier duality, channels.

    Returns a JSON-ready dict; 'all_checks_pass' aggregates every check at
    the standard tolerances (1e-10 algebraic, 1e-9 eigenvalue-based).
    """
    if max_cases is not None and max_cases < 0:
        raise ValueError(f"max_cases must be non-negative, got {max_cases}")
    p = system.p

    if system.dim <= 9:
        ccr_dev, ccr_pairs = ccr_scan(system)
    else:
        ccr_dev, ccr_pairs = ccr_scan(system, sample=500, seed=seed)

    states = []
    states_ok = True
    for e1, e2 in _state_exponents(system):
        n = e1 + e2
        rho = gaussian_density(system, e1, e2)
        lams = validate_density(rho)
        spectrum_dev = _flat_deviation(lams, p, n)
        ent = _entropy(lams)
        expected_ent = n * float(np.log(p))
        char_dev = char_indicator_deviation(system, rho, e1, e2)
        pure = abs(float((lams**2).sum()) - 1) < 1e-10
        ok = (
            spectrum_dev < 1e-10
            and abs(ent - expected_ent) < 1e-9
            and char_dev < 1e-10
            and pure == (n == 0)
        )
        states_ok = states_ok and ok
        states.append(
            {
                "exponents": [e1, e2],
                "rank": p**n,
                "entropy_nats": ent,
                "expected_entropy_nats": expected_ent,
                "spectrum_deviation": spectrum_dev,
                "char_deviation": char_dev,
                "pure": pure,
                "ok": ok,
            }
        )

    fourier_dev = 0.0
    for e1 in range(0, system.N + 1):
        for e2 in range(0, system.N + 1):
            fourier_dev = max(fourier_dev, fourier_subgroup_deviation(system, e1, e2))

    transforms = [
        Mat2.identity(),
        Mat2.diagonal(p, 1),
        Mat2.diagonal(1, p),
        Mat2.diagonal(2, 1),
        Mat2.diagonal(p, p),
        *(Mat2(*k) for k in ((1, 1, 0, 1), (2, 1, 1, 1), (1, 0, 1, 1), (3, 0, 3, 1))),  # shears, corners
    ]
    noises = [(0, 0), (-1, 0), (1, -1)]
    channel_cases: list[ScanCase] = []
    for k in transforms:
        for noise in noises:
            channel_cases.extend(channel_scan(system, k, noise))
    if max_cases is not None:
        channel_cases = channel_cases[:max_cases]
    channels_ok = all(case.agree for case in channel_cases)

    all_ok = ccr_dev < 1e-10 and fourier_dev < 1e-10 and states_ok and channels_ok
    return {
        "p": p,
        "N": system.N,
        "ccr": {"pairs": ccr_pairs, "max_deviation": ccr_dev},
        "states": states,
        "fourier_max_deviation": fourier_dev,
        "channel_cases": [case.to_json_dict() for case in channel_cases],
        "all_checks_pass": bool(all_ok),
    }
