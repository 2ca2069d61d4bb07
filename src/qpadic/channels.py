"""Gaussian states and Gaussian channels over the p-adic phase plane.

A Gaussian state is determined by a lattice L with measure(L) <= 1 and a
phase-space shift alpha; its characteristic function is

    z |-> chi(sympl(alpha, z)) * [z in L],

zero off the lattice. The state is the normalized projector onto the
fixed subspace attached to L, so its von Neumann entropy is the exact
ledger -log(measure(L)) = n * log(p) when measure(L) = p**(-n).

A Gaussian channel is a pair (K, L_noise) acting on characteristic
functions by pi(z) |-> pi(K z) * [z in L_noise]. The pair is admissible
iff |1 - det K|_p * measure(L_noise) <= 1, that is v_p(den - num) - v_p(den) + a + b >= 0
for det K = num / den in ints. Applying the channel to a Gaussian state gives another
Gaussian state with lattice K^-1 L_state intersect L_noise, formed as adj(K) * (p**g L_state)
for g = -v_p(det K) since a p-adic unit fixes a Z_p-lattice, and shift adj(K) * alpha.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

from .errors import InvariantViolation, NotAChannelError, NotAStateError
from .ledger import LogLedger
from .lattice import Lattice, Mat2, Vec2, sympl
from .padic import PhaseQ, _ratio_valuation, additive_character, padic_norm
from .value import FrozenValue

__all__ = [
    "ChannelValidity",
    "GaussianChannel",
    "GaussianState",
    "channel_validity",
]


class GaussianState:
    """Gaussian state gamma(L, shift); requires measure(L) <= 1."""

    __slots__ = ("_lattice", "_shift")
    lattice = property(attrgetter("_lattice"), doc="The state lattice (read-only).")
    shift = property(attrgetter("_shift"), doc="The phase-space shift (read-only).")

    def __init__(self, lattice: Lattice, shift: Vec2 | None = None):
        if lattice.a + lattice.b < 0:
            raise NotAStateError(
                f"no Gaussian state for measure {lattice.measure} > 1 (lattice {lattice.canonical})"
            )
        self._lattice = lattice
        self._shift = shift if shift is not None else Vec2.zero()

    @property
    def p(self) -> int:
        return self._lattice.p

    def __eq__(self, other: object) -> bool:
        """Equal lattices and shifts equal modulo L^perp = L.dual(), on which chi is trivial."""
        if not isinstance(other, GaussianState):
            return NotImplemented
        return self._lattice == other._lattice and self._lattice.dual().contains(self._shift - other._shift)

    def __repr__(self) -> str:
        return f"GaussianState(p={self.p}, lattice='{self._lattice.canonical}', shift='{self._shift}')"

    def char(self, z: Vec2) -> PhaseQ | None:
        """Characteristic function at z: a PhaseQ on the lattice, else None (zero)."""
        if not self._lattice.contains(z):
            return None
        return additive_character(sympl(self._shift, z), self.p)

    def entropy(self) -> LogLedger:
        """Exact entropy ledger n * log(p) where measure = p**(-n)."""
        return LogLedger.single(self.p, self.rank_exponent())

    def rank_exponent(self) -> int:
        """The state is 1/rank times a projector of rank p**n; returns n."""
        return self._lattice.a + self._lattice.b

    def is_pure(self) -> bool:
        """Purity is exactly self-duality of the lattice."""
        return self._lattice.is_self_dual()

    def unitarily_equivalent(self, other: "GaussianState") -> bool:
        """Equal measures iff the states are unitarily equivalent; shifts never matter."""
        self._lattice._require_same_prime(other._lattice)
        return self.rank_exponent() == other.rank_exponent()


class ChannelValidity(FrozenValue):
    """Exact pieces of the admissibility inequality |1 - det K|_p * |L| <= 1."""

    __slots__ = ("one_minus_det_norm", "noise_measure", "product", "ok")

    def __new__(cls, one_minus_det_norm, noise_measure, product, ok) -> "ChannelValidity":
        return cls._of(one_minus_det_norm, noise_measure, product, ok)


def channel_validity(transform: Mat2, noise: Lattice) -> ChannelValidity:
    num, den, ok = _admissibility(transform, noise)
    n1 = padic_norm(Fraction(den - num, den), noise.p)
    return ChannelValidity(n1, noise.measure, n1 * noise.measure, ok)


def _admissibility(transform: Mat2, noise: Lattice) -> tuple[int, int, bool]:
    """(num, den) of det K, den > 0, and the verdict v_p(den - num) - v_p(den) + a + b >= 0."""
    num, den = transform._det_ratio()
    return num, den, _ratio_valuation(den - num, den, noise.p) + noise.a + noise.b >= 0


class GaussianChannel:
    """Admissible Gaussian channel (K, L_noise); immutable, so adj K, K^-1 L and n0 are derived once."""

    __slots__ = ("_transform", "_noise", "_adjugate", "_gain", "_threshold", "_pulled")
    transform = property(attrgetter("_transform"), doc="The transform K (read-only).")
    noise = property(attrgetter("_noise"), doc="The noise lattice (read-only).")

    def __init__(self, transform: Mat2, noise: Lattice):
        num, den, ok = _admissibility(transform, noise)
        if not ok:
            check = channel_validity(transform, noise)  # the exact Fractions word the message
            raise NotAChannelError(
                "admissibility fails: |1 - det K|_p * measure = "
                f"{check.one_minus_det_norm} * {check.noise_measure} = {check.product} > 1"
            )
        self._transform, self._noise, self._adjugate = transform, noise, transform.adjugate()
        self._gain = _ratio_valuation(den, num, noise.p)  # g = -v_p(det K), reused by every image
        self._pulled = pulled = noise._pulled_back(self._adjugate, self._gain)
        self._threshold = max(0, pulled._gap(noise), -((noise.a + noise.b) // 2))

    @property
    def p(self) -> int:
        return self._noise.p

    def __repr__(self) -> str:
        return f"GaussianChannel(p={self.p}, transform='{self.transform}', noise='{self.noise.canonical}')"

    def apply(self, state: GaussianState) -> GaussianState:
        """Output state: lattice K^-1 L intersect L_noise, shift adj(K) * alpha.

        The shift rule comes from the exact 2x2 identity
        sympl(alpha, K z) = sympl(adj(K) alpha, z). The output measure
        can never exceed 1 for an admissible channel, so GaussianState
        refusing the output is a logic bug, not bad input.
        """
        out = state._lattice._pulled_back(self._adjugate, self._gain) & self._noise  # & owns the prime rule
        shift = state._shift  # adj(K) fixes the zero shift, which every witness input has
        try:
            return GaussianState(out, shift if shift.is_zero() else self._adjugate @ shift)
        except NotAStateError:
            raise InvariantViolation(f"admissible channel produced output measure {out.measure} > 1") from None

    def entropy_gain(self) -> LogLedger:
        """Exact entropy gain: log of |det K|_p, i.e. exponent -v_p(det K)."""
        return LogLedger.single(self.p, self._gain)

    def witness_threshold(self) -> int:
        """Smallest n0 >= 0 such that the shrinking-noise witness works for all n >= n0.

        For L and P = K^-1 L, with s = a + b of L: p**n L lies in L iff n >= 0, and
        has measure <= 1 iff 2n >= -s. p**n P lies in L iff n >= P._gap(L), the one
        containment rule on (a, b, sigma). The admissible channel maps the state
        gamma(p**n L) to gamma(p**n P), so P needs no measure bound of its own.
        """
        return self._threshold

    def entropy_gain_witness(self, n: int) -> LogLedger:
        """Entropy difference realized on the witness state gamma(p**n * L).

        For n at or above the threshold the output lattice is exactly
        K^-1 * (p**n L), checked against p**n * (K^-1 L) scaled in closed
        form, so the difference of the rank exponents, one ledger, is the gain.
        """
        if n < self._threshold:
            raise ValueError(f"witness index {n} is below the threshold")
        inp = GaussianState(self._noise.scaled(n))
        out = self.apply(inp)
        if out._lattice != self._pulled.scaled(n):
            raise InvariantViolation("witness output lattice is not the pulled-back input")
        return LogLedger.single(self.p, out.rank_exponent() - inp.rank_exponent())

    def identity_output_norm(self) -> Fraction:
        """Exact norm of the channel applied to the identity: |det K|_p ** -1.

        Read off as the measure ratio of K^-1 L_noise to L_noise. Every call
        first checks the reduced K^-1 L_noise by mutual containment, which
        solves B x = v instead of reducing: K^-1 maps the canonical columns
        of L_noise into it, and K maps its canonical columns into L_noise.
        """
        noise, pulled, inverse = self._noise, self._pulled, self._transform.inverse()
        if not (
            all(pulled.contains(inverse @ v) for v in noise.canonical.columns())
            and all(noise.contains(self._transform @ v) for v in pulled.canonical.columns())
        ):
            raise InvariantViolation("reduced K^-1 L_noise is not the image of the noise lattice")
        return pulled.measure / noise.measure
