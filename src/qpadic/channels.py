"""Gaussian states and Gaussian channels over the p-adic phase plane.

A Gaussian state is determined by a lattice L with measure(L) <= 1 and a
phase-space shift alpha; its characteristic function is

    z |-> chi(sympl(alpha, z)) * [z in L],

zero off the lattice. The state is the normalized projector onto the
fixed subspace attached to L, so its von Neumann entropy is the exact
ledger -log(measure(L)) = n * log(p) when measure(L) = p**(-n).

A Gaussian channel is a pair (K, L_noise) acting on characteristic
functions by pi(z) |-> pi(K z) * [z in L_noise]. The pair is admissible
iff |1 - det K|_p * measure(L_noise) <= 1, checked exactly. Applying the
channel to a Gaussian state gives another Gaussian state with lattice
K^-1 L_state intersect L_noise and shift adj(K) * alpha.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

from .adelic import gain_exponent
from .errors import InvariantViolation, NotAChannelError, NotAStateError
from .ledger import LogLedger
from .lattice import Lattice, Mat2, Vec2, sympl
from .padic import PhaseQ, additive_character, padic_norm
from .value import FrozenValue

__all__ = [
    "ChannelValidity",
    "GaussianChannel",
    "GaussianState",
    "channel_validity",
]


class GaussianState:
    """Gaussian state gamma(L, shift); requires measure(L) <= 1."""

    __slots__ = ("lattice", "shift")

    def __init__(self, lattice: Lattice, shift: Vec2 | None = None):
        if lattice.a + lattice.b < 0:
            raise NotAStateError(
                f"no Gaussian state for measure {lattice.measure} > 1 (lattice {lattice.canonical})"
            )
        self.lattice = lattice
        self.shift = shift if shift is not None else Vec2.zero()

    @property
    def p(self) -> int:
        return self.lattice.p

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussianState):
            return NotImplemented
        return self.lattice == other.lattice and self.shift == other.shift

    def __repr__(self) -> str:
        return f"GaussianState(p={self.p}, lattice='{self.lattice.canonical}', shift='{self.shift}')"

    def char(self, z: Vec2) -> PhaseQ | None:
        """Characteristic function at z: a PhaseQ on the lattice, else None (zero)."""
        if not self.lattice.contains(z):
            return None
        return additive_character(sympl(self.shift, z), self.p)

    def entropy(self) -> LogLedger:
        """Exact entropy ledger n * log(p) where measure = p**(-n)."""
        return LogLedger.single(self.p, self.rank_exponent())

    def rank_exponent(self) -> int:
        """The state is 1/rank times a projector of rank p**n; returns n."""
        return self.lattice.a + self.lattice.b

    def is_pure(self) -> bool:
        """Purity is exactly self-duality of the lattice."""
        return self.lattice.is_self_dual()

    def unitarily_equivalent(self, other: "GaussianState") -> bool:
        """Equal measures iff the states are unitarily equivalent; shifts never matter."""
        self.lattice._require_same_prime(other.lattice)
        return self.rank_exponent() == other.rank_exponent()


class ChannelValidity(FrozenValue):
    """Exact pieces of the admissibility inequality |1 - det K|_p * |L| <= 1."""

    __slots__ = ("one_minus_det_norm", "noise_measure", "product", "ok")

    def __new__(cls, one_minus_det_norm, noise_measure, product, ok) -> "ChannelValidity":
        return cls._of(one_minus_det_norm, noise_measure, product, ok)


def channel_validity(transform: Mat2, noise: Lattice) -> ChannelValidity:
    det = transform.det()
    if det == 0:
        raise ValueError("channel transform must be nonsingular")
    n1 = padic_norm(1 - det, noise.p)
    product = n1 * noise.measure
    return ChannelValidity(n1, noise.measure, product, product <= 1)


class GaussianChannel:
    """Admissible Gaussian channel (K, L_noise); immutable, so K^-1, K^-1 L and n0 are derived once."""

    __slots__ = ("_transform", "_noise", "_inverse", "_adjugate", "_threshold", "_pulled")
    transform = property(attrgetter("_transform"), doc="The transform K (read-only).")
    noise = property(attrgetter("_noise"), doc="The noise lattice (read-only).")

    def __init__(self, transform: Mat2, noise: Lattice):
        check = channel_validity(transform, noise)
        if not check.ok:
            raise NotAChannelError(
                "admissibility fails: |1 - det K|_p * measure = "
                f"{check.one_minus_det_norm} * {check.noise_measure} = {check.product} > 1"
            )
        self._transform, self._noise, self._adjugate = transform, noise, transform.adjugate()
        self._inverse = self._adjugate.scaled(1 / transform.det())
        self._pulled = pulled = noise.transformed(self._inverse)
        self._threshold = max(
            0,
            noise.a - pulled.a,
            noise.b - pulled.b,
            noise.b - pulled.a - pulled._slope_valuation(noise),
            -((noise.a + noise.b) // 2),
        )

    @property
    def p(self) -> int:
        return self._noise.p

    def __repr__(self) -> str:
        return f"GaussianChannel(p={self.p}, transform='{self.transform}', noise='{self.noise.canonical}')"

    def apply(self, state: GaussianState) -> GaussianState:
        """Output state: lattice K^-1 L intersect L_noise, shift adj(K) * alpha.

        The shift rule comes from the exact 2x2 identity
        sympl(alpha, K z) = sympl(adj(K) alpha, z). The output measure
        can never exceed 1 for an admissible channel, so a violation here
        is a logic bug, not bad input.
        """
        if state.p != self.p:
            raise ValueError(f"prime mismatch: state at {state.p}, channel at {self.p}")
        out = state.lattice.transformed(self._inverse) & self._noise
        if out.a + out.b < 0:
            raise InvariantViolation(
                f"admissible channel produced output measure {out.measure} > 1"
            )
        return GaussianState(out, self._adjugate @ state.shift)

    def entropy_gain(self) -> LogLedger:
        """Exact entropy gain: log of |det K|_p, i.e. exponent -v_p(det K)."""
        return LogLedger.single(self.p, gain_exponent(self._transform, self.p))

    def witness_threshold(self) -> int:
        """Smallest n0 >= 0 such that the shrinking-noise witness works for all n >= n0.

        Read off (a, b, c) of L and P = K^-1 L, with s = a + b and sigma = c / p**a:
        p**n L lies in L iff n >= 0, and has measure <= 1 iff 2n >= -s. p**n P lies
        in L iff its columns (0, p**(n + b_P)) and (p**(n + a_P), p**n c_P) do, i.e.
        n >= b_L - b_P, n >= a_L - a_P and n >= b_L - a_P - v(sigma_P - sigma_L), the
        last dropping out when the slopes agree. The admissible channel maps the state
        gamma(p**n L) to gamma(p**n P), so P needs no measure bound of its own.
        """
        return self._threshold

    def entropy_gain_witness(self, n: int) -> LogLedger:
        """Entropy difference realized on the witness state gamma(p**n * L).

        For n at or above the threshold the output lattice is exactly
        K^-1 * (p**n L), checked against p**n * (K^-1 L) scaled in closed
        form, so the difference of exact entropy ledgers equals the gain.
        """
        if n < self._threshold:
            raise ValueError(f"witness index {n} is below the threshold")
        inp = GaussianState(self._noise.scaled(n))
        out = self.apply(inp)
        if out.lattice != self._pulled.scaled(n):
            raise InvariantViolation("witness output lattice is not the pulled-back input")
        return out.entropy() - inp.entropy()

    def identity_output_norm(self) -> Fraction:
        """Exact norm of the channel applied to the identity: |det K|_p ** -1.

        Read off as the measure ratio of K^-1 L_noise to L_noise. Every call
        first checks the reduced K^-1 L_noise by mutual containment, which
        solves B x = v instead of reducing: K^-1 maps the canonical columns
        of L_noise into it, and K maps its canonical columns into L_noise.
        """
        noise, pulled = self._noise, self._pulled
        if not (
            all(pulled.contains(self._inverse @ v) for v in noise.canonical.columns())
            and all(noise.contains(self._transform @ v) for v in pulled.canonical.columns())
        ):
            raise InvariantViolation("reduced K^-1 L_noise is not the image of the noise lattice")
        return pulled.measure / noise.measure
