"""Finite Weyl-operator models on Z/p^N for cross-checking the exact modules.

For an odd prime p and even N, phase space is (Z/p^N)^2 and W(a, b) acts
on C^(p^N) by

    (W(a, b) f)(x) = exp(2*pi*i*(b*x + h*a*b)/p^N) * f(x + a),

where h is the inverse of 2 mod p^N. These matrices satisfy the same
composition rule as the exact characters:

    W(z) W(z') = exp(2*pi*i*h*D(z, z')/p^N) * W(z + z'),   D((a,b),(a',b')) = a*b' - b*a'.

A window of half-width m = N/2 embeds exact data: a point z with entries of
valuation >= -m becomes p^m * z mod p^N, and a lattice (a, b, sigma) with
p^m Z_p^2 <= L <= p^-m Z_p^2 becomes its window image, the points
z1 = p^(m+a) * t, z2 = s * t mod p^(m+b) with s = sigma * p^(m+a) an integer.
One builder makes every such mask; the Fourier check compares the annihilator of
a mask with the mask of the exact dual. One builder makes every density,
p^(-N) * sum of W(-z) over a point set S, as one inverse DFT over z2 of the rows z1
that meet S, scattered through one index table per system: the image of a state
lattice gives an exact Gaussian state, its pullback by K within the noise image a
channel output. Every phase is read from one table of the p^N roots of unity, built
once per system. Spectra take one path, a stacked solve over the coset blocks of the
matrix's own nonzero offsets (one block is the full solve, 1x1 blocks the diagonal); a
channel scan solves and judges each distinct pair of output density and exact prediction
once. The CCR check takes every pair when phase space has at most _CCR_GRID_POINTS points, else
_CCR_SAMPLE pairs from random.Random(0), and bounds each defect's norm by its largest row or column
|sum|, exact on a monomial defect. The exact layer owns the rules: GaussianState refuses measure > 1 and
gives each state's rank, entropy and purity, and adelic.gain_exponent gives the gain.

Everything here is floating point by design; each tolerance is one module-level name,
which every check and message reads. The exact modules never import this one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .adelic import gain_exponent
from .channels import GaussianState
from .errors import InvariantViolation
from .lattice import Lattice, Mat2
from .padic import _MR_BOUND, require_prime, valuation

__all__ = [
    "DIMENSION_CAP",
    "ScanCase",
    "WeylSystem",
    "ccr_deviation",
    "ccr_scan",
    "channel_scan",
    "char_indicator_deviation",
    "char_table",
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

ROUNDING_TOLERANCE = 1e-12  # entry rounding of a built density: asymmetry, |trace - 1|, eigenvalues read as 0
DEFECT_TOLERANCE = 1e-10  # one identity of the finite model: CCR, Fourier, a state's spectrum and characters
SPECTRUM_TOLERANCE = 1e-9  # eigensolve error: a scan output's least eigenvalue and flatness, a state's entropy
WITNESS_TOLERANCE = 1e-6  # a negative eigenvalue this large witnesses a non-state; rounding never reaches it

_CCR_GRID_POINTS = 81  # ccr_scan checks every pair when phase space has at most this many points
_CCR_SAMPLE = 500  # else this many pairs from random.Random(0)


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
            if isinstance(self.p, int) and self.p >= _MR_BOUND:
                raise  # no test decided p, so is_prime's own message says why
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

    @cached_property  # in the instance __dict__, like _char_grids: equality and hashing stay on (p, N)
    def _roots(self) -> np.ndarray:
        """The p**N roots of unity: entry k is exp(2*pi*i*k/p**N)."""
        return np.exp(2j * np.pi * np.arange(self.dim) / self.dim)

    @cached_property
    def _char_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """char_table's tables: the flat index of rho[x + a, x] at [a, x], the twist at [a, b]."""
        d, x = self.dim, np.arange(self.dim)
        return (x[:, None] + x) % d * d + x, self._roots[(self.half * np.outer(x, x)) % d]

    @cached_property
    def _density_scatter(self) -> np.ndarray:
        """_subgroup_density's table: the flat index in rho of inverse-DFT entry [z1, k], at row
        x = h*z1 - k and column x - z1, where W(-z1, -z2)[x, x - z1] = exp(2*pi*i*z2*(h*z1 - x)/d)."""
        d, z = self.dim, np.arange(self.dim)
        x = (self.half * z[:, None] - z) % d
        return x * d + (x - z[:, None]) % d


def _weyl_entries(system: WeylSystem, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """W(a, b) is monomial: row x holds phases[x] in column cols[x] = x + a; coordinates mod p**N."""
    d = system.dim
    a %= d
    b %= d
    x = np.arange(d)
    return system._roots[(b * x + system.half * a * b) % d], (x + a) % d


def weyl_operator(system: WeylSystem, a: int, b: int) -> np.ndarray:
    """Matrix of W(a, b); coordinates are taken mod p**N."""
    phases, cols = _weyl_entries(system, a, b)
    out = np.zeros((system.dim, system.dim), dtype=complex)
    out[np.arange(system.dim), cols] = phases
    return out


def ccr_deviation(system: WeylSystem, z1: tuple[int, int], z2: tuple[int, int]) -> float:
    """Defect of W(z1) W(z2) = phase * W(z1 + z2), as _operator_norm bounds its operator norm."""
    (a1, b1), (a2, b2) = z1, z2
    lhs = weyl_operator(system, a1, b1) @ weyl_operator(system, a2, b2)
    phase = system._roots[system.half * (a1 * b2 - b1 * a2) % system.dim]
    rhs = phase * weyl_operator(system, a1 + a2, b1 + b2)
    return _operator_norm(lhs - rhs)


def _operator_norm(m: np.ndarray) -> float:
    """max(largest column |sum|, largest row |sum|): never below the spectral norm, and equal to it, the
    largest |entry|, when m has at most one nonzero per row and column, as a passing CCR defect has."""
    a = np.abs(m)
    return float(max(a.sum(axis=0).max(), a.sum(axis=1).max()))


def ccr_scan(system: WeylSystem) -> tuple[float, int]:
    """Max CCR defect over pairs of phase-space points, NaN if any is, and the number of pairs checked.

    Every pair when phase space has at most _CCR_GRID_POINTS points (p**N = 9), else
    _CCR_SAMPLE pairs drawn from random.Random(0), the same pairs on every run.
    """
    d = system.dim
    if d * d <= _CCR_GRID_POINTS:
        points = [(a, b) for a in range(d) for b in range(d)]
        pairs = [(z1, z2) for z1 in points for z2 in points]
    else:
        rng = random.Random(0)
        pairs = [
            ((rng.randrange(d), rng.randrange(d)), (rng.randrange(d), rng.randrange(d)))
            for _ in range(_CCR_SAMPLE)
        ]
    return float(np.max([ccr_deviation(system, z1, z2) for z1, z2 in pairs])), len(pairs)


def _fits_window(system: WeylSystem, lat: Lattice) -> bool:
    """p^m Z_p^2 <= lat <= p^-m Z_p^2: a and b in [-m, m], and v(sigma) >= -m - a, so that
    s = sigma * p^(m+a) is an integer, and v(sigma) >= b - m, so that s * t is well defined."""
    m = system.window
    pivots_fit = -m <= lat.a <= m and -m <= lat.b <= m
    return pivots_fit and (lat.slope == 0 or valuation(lat.slope, lat.p) >= max(-m - lat.a, lat.b - m))


def _window_mask(system: WeylSystem, lat: Lattice) -> np.ndarray:
    """Mask of the window image {z mod p^N : p^-m z in lat}: z1 = p^(m+a) * t, z2 = s * t mod
    p^(m+b) with s = sigma * p^(m+a). Rows t and t + q share the offset s * t for
    q = p^(m+b) / gcd(s, p^(m+b)), so q strided slices set it; q = 1 for a product."""
    if not _fits_window(system, lat):
        raise ValueError(f"lattice (a, b, sigma) = ({lat.a}, {lat.b}, {lat.slope}) leaves the window")
    d, m = system.dim, system.window
    step, modulus = system.p ** (m + lat.a), system.p ** (m + lat.b)
    num, den = lat.slope.as_integer_ratio()
    s = num * step // den
    q = modulus // math.gcd(s, modulus)
    mask = np.zeros((d, d), dtype=bool)
    for t in range(q):
        mask[step * t :: step * q, s * t % modulus :: modulus] = True
    return mask


def _subgroup_density(system: WeylSystem, mask: np.ndarray) -> np.ndarray:
    """p^(-N) * sum of W(-z) over the phase-space points z with mask[z] set."""
    d = system.dim
    rows = np.flatnonzero(mask.any(axis=1))  # the other rows z1 sum to an exact 0
    rho = np.zeros(d * d, dtype=complex)
    rho[system._density_scatter[rows]] = np.fft.ifft(mask[rows], axis=1)
    return rho.reshape(d, d)


def gaussian_density(system: WeylSystem, exponent1: int, exponent2: int) -> np.ndarray:
    """Density matrix of the finite Gaussian state of diag(p^exponent1, p^exponent2) * L0.

    The density is p^(-N) * sum of W(-z) over the window image S of that lattice. Requires
    window exponents in [-m, m] (ValueError) and a lattice that GaussianState accepts, of
    measure <= 1 (NotAStateError, with that class's message).
    """
    lat = exponent_lattice(system.p, exponent1, exponent2)
    mask = _window_mask(system, lat)
    GaussianState(lat)  # the exact layer's state rule
    return _subgroup_density(system, mask)


def char_table(system: WeylSystem, rho: np.ndarray) -> np.ndarray:
    """All characteristic values at once; entry [a, b] is Tr(rho W(a, b))."""
    index, twist = system._char_grids
    # row a holds the diagonal rho[x + a, x]; an unscaled inverse DFT over x gives every b
    return np.fft.ifft(np.take(rho, index), axis=1, norm="forward") * twist


def char_indicator_deviation(
    system: WeylSystem, rho: np.ndarray, exponent1: int, exponent2: int
) -> float:
    """Max departure of the characteristic table from the window image of the state lattice."""
    expected = _window_mask(system, exponent_lattice(system.p, exponent1, exponent2))
    return float(np.abs(char_table(system, rho) - expected).max())


def fourier_subgroup_deviation(system: WeylSystem, e1: int, e2: int) -> float:
    """Fourier duality of the product subgroup p^e1 Z x p^e2 Z, e1 and e2 in [0, N]: the window
    image of diag(p^(e1-m), p^(e2-m)) * L0, checked by _dual_deviation."""
    return _dual_deviation(system, exponent_lattice(system.p, e1 - system.window, e2 - system.window))


def _dual_deviation(system: WeylSystem, lat: Lattice) -> float:
    """Max departure of the normalized character sum of the window image S of lat from the mask
    of lat.dual(): the sum over s in S of exp(2*pi*i*(z1*s2 - z2*s1)/p^N) is fft2 read at (z2, -z1)."""
    d = system.dim
    mask = _window_mask(system, lat)
    table = np.fft.fft2(mask).T[-np.arange(d) % d] / np.count_nonzero(mask)
    return float(np.abs(table - _window_mask(system, lat.dual())).max())


def _block_spectrum(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian h of size d, one block per coset of gZ in Z/d:
    g = gcd(d, every x - y with h[x, y] != 0), so no nonzero entry leaves its block.
    g = 1 gives one block, the full solve; g = d gives 1x1 blocks, whose eigenvalues are the
    real diagonal, as eigvalsh returns them."""
    d = len(h)
    flat = np.flatnonzero(h != 0)  # entry x*d + y has offset x - y; a bool array scans faster than h
    g = int(np.gcd.reduce(flat // d - flat % d, initial=d))
    if g == d:
        return np.sort(h.diagonal().real)
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
    if herm > ROUNDING_TOLERANCE:
        raise ValueError(f"not hermitian: max asymmetry {herm:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1) > ROUNDING_TOLERANCE:
        raise ValueError(f"trace {tr} differs from 1")
    lams = _block_spectrum(rho)
    low = float(lams.min())
    if low < -DEFECT_TOLERANCE:
        raise ValueError(f"minimum eigenvalue {low:.3e} below {-DEFECT_TOLERANCE:g}")
    return lams


def _entropy(spectrum: np.ndarray) -> float:
    lams = spectrum[spectrum > ROUNDING_TOLERANCE]
    return 0.0 - float((lams * np.log(lams)).sum())  # not -x, which is -0.0 on a pure spectrum


def _flat_deviation(spectrum: np.ndarray, p: int, n: int) -> float:
    """Max distance of an ascending spectrum from the flat one: p^(-n) with multiplicity p^n, else 0."""
    flat = np.zeros(len(spectrum))
    flat[-(p**n):] = float(p) ** (-n)
    return float(np.abs(spectrum - flat).max())


def entropy_nats(rho: np.ndarray) -> float:
    """Von Neumann entropy -sum(lam * ln lam) over eigenvalues above ROUNDING_TOLERANCE."""
    return _entropy(validate_density(rho))


def exponent_lattice(p: int, e1: int, e2: int) -> Lattice:
    """The exact lattice diag(p^e1, p^e2) * L0 matching a product subgroup."""
    return Lattice._from_canonical(e1, e2, Fraction(0), require_prime(p))  # already canonical


def _state_exponents(system: WeylSystem) -> list[tuple[int, int]]:
    """Window exponent pairs (e1, e2) of the centered Gaussian states: e1 + e2 >= 0."""
    m = system.window
    return [(g, h) for g in range(-m, m + 1) for h in range(-m, m + 1) if g + h >= 0]


@dataclass
class ScanCase:
    """One (transform, noise, input) evaluation of the finite channel; its fields are the report keys."""

    transform: tuple[int, int, int, int]
    noise: tuple[int, int]
    input: tuple[int, int]
    trace: float
    min_eig: float
    spectrum: list[float]
    entropy_nats: float | None
    output_exponent: int
    expected_predicate: bool
    psd: bool
    agree: bool


def channel_scan(system: WeylSystem, transform: Mat2, noise_exponents: tuple[int, int]) -> list[ScanCase]:
    """Compare finite channel outputs against the exact admissibility data.

    For each Gaussian input the finite output density is built pointwise,
    pi_out(z) = pi_in(K z) * [z in S_noise], and its spectrum is compared
    with the exact output lattice K^-1 L_in intersect L_noise: positive
    semidefinite iff the exact measure is <= 1, and when it is a state the
    spectrum must be flat at p^(-n) with multiplicity p^n. Inputs whose
    output mask and rank exponent coincide share one density, one eigensolve and one verdict.

    Inputs are the centered Gaussians of the window grid, window exponent
    pairs with a nonnegative sum. An input is skipped when its pullback leaves the
    window, which would clip it; the output, pullback meet L_noise, then fits too.
    """
    p, d = system.p, system.dim
    entries = (transform.a, transform.b, transform.c, transform.d)
    if any(q.denominator != 1 for q in entries):
        raise ValueError("finite scan needs an integer transform; clear unit denominators first")
    k_int = tuple(map(int, entries))
    gain = gain_exponent(transform, p)  # refuses a singular K before a noise outside the window
    a0, b0 = noise_exponents
    noise_lat = exponent_lattice(p, a0, b0)
    noise_mask = _window_mask(system, noise_lat)  # ValueError when the noise leaves the window
    adjugate = transform.adjugate()

    z = np.arange(d)
    ka, kb, kc, kd = (v % d for v in k_int)
    kz = (ka * z[:, None] + kb * z) % d * d + (kc * z[:, None] + kd * z) % d  # flat index of K z

    cases: list[ScanCase] = []
    scanned: dict[tuple[bytes, int], tuple] = {}  # (output mask, n_out) -> spectrum, min, trace, verdict
    for g, h in _state_exponents(system):
        in_lat = exponent_lattice(p, g, h)
        pulled = in_lat._pulled_back(adjugate, gain)  # K^-1 L, as the channel forms it
        if not _fits_window(system, pulled):
            continue
        out_lat = pulled & noise_lat

        out_mask = _window_mask(system, in_lat).ravel()[kz] & noise_mask
        n_out = out_lat.a + out_lat.b
        key = out_mask.tobytes(), n_out
        if key not in scanned:
            rho = _subgroup_density(system, out_mask)
            spectrum = _block_spectrum(rho)  # eigvalsh reads one triangle
            min_eig = float(spectrum.min())
            psd = min_eig >= -SPECTRUM_TOLERANCE
            if n_out >= 0:  # a predicted state: flat at p^(-n_out)
                agree = psd and _flat_deviation(spectrum, p, n_out) < SPECTRUM_TOLERANCE
                entropy = _entropy(spectrum) if psd else None
            else:
                agree, entropy = min_eig < -WITNESS_TOLERANCE, None
            scanned[key] = spectrum, min_eig, float(np.real(np.trace(rho))), psd, agree, entropy
        spectrum, min_eig, trace, psd, agree, entropy = scanned[key]
        cases.append(
            ScanCase(
                transform=k_int,
                noise=(a0, b0),
                input=(g, h),
                trace=trace,
                min_eig=min_eig,
                spectrum=spectrum.tolist(),
                entropy_nats=entropy,
                output_exponent=n_out,
                expected_predicate=n_out >= 0,
                psd=psd,
                agree=agree,
            )
        )
    return cases


def run_battery(system: WeylSystem) -> dict:
    """Full deterministic oracle run: CCR, states, Fourier duality, channels.

    Returns a JSON-ready dict whose 'all_checks_pass' needs the CCR and Fourier defects below
    DEFECT_TOLERANCE; per state, the spectrum's distance from flat, the character table's from its window mask
    and |sum(lam^2) - 1| below DEFECT_TOLERANCE, and the entropy within SPECTRUM_TOLERANCE of the ledger's;
    per channel case, a predicted state with min eigenvalue >= -SPECTRUM_TOLERANCE and as close to flat, a
    predicted non-state with one below -WITNESS_TOLERANCE. A refused state density raises InvariantViolation.
    """
    p = system.p

    ccr_dev, ccr_pairs = ccr_scan(system)

    states = []
    for e1, e2 in _state_exponents(system):
        state = GaussianState(exponent_lattice(p, e1, e2))
        mask = _window_mask(system, state.lattice)
        n = state.rank_exponent()
        rho = _subgroup_density(system, mask)
        try:
            lams = validate_density(rho)
        except ValueError as exc:
            raise InvariantViolation(f"oracle state {e1},{e2} at p={p}, N={system.N}: {exc}") from exc
        spectrum_dev = _flat_deviation(lams, p, n)
        ent = _entropy(lams)
        expected_ent = state.entropy().value()
        char_dev = float(np.abs(char_table(system, rho) - mask).max())
        pure = abs(float((lams**2).sum()) - 1) < DEFECT_TOLERANCE
        ok = (
            spectrum_dev < DEFECT_TOLERANCE
            and abs(ent - expected_ent) < SPECTRUM_TOLERANCE
            and char_dev < DEFECT_TOLERANCE
            and pure == state.is_pure()
        )
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

    exponents = range(system.N + 1)
    fourier_dev = float(np.max([fourier_subgroup_deviation(system, e1, e2) for e1 in exponents for e2 in exponents]))

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

    all_ok = all(row["ok"] for row in states) and all(case.agree for case in channel_cases)
    all_ok = all_ok and ccr_dev < DEFECT_TOLERANCE and fourier_dev < DEFECT_TOLERANCE
    return {
        "p": p,
        "N": system.N,
        "ccr": {"pairs": ccr_pairs, "max_deviation": ccr_dev},
        "states": states,
        "fourier_max_deviation": fourier_dev,
        # vars, not dataclasses.asdict, which deep-copies every spectrum entry
        "channel_cases": [vars(case) for case in channel_cases],
        "all_checks_pass": bool(all_ok),
    }
