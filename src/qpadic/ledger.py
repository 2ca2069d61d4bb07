"""Exact integer combinations of logarithms of primes.

Entropies and entropy gains in this package always take the form
sum_q e_q * log(q) over finitely many primes q with integer exponents.
They are stored symbolically and compared exactly; the float in nats and
the text in each base of _BASE_LABELS are presentation concerns.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from .padic import require_prime

__all__ = ["LogLedger"]

#: The log bases that render and the CLI accept, each with its label in the text form.
_BASE_LABELS = {"e": "ln", "2": "log2", "10": "log10"}


def _check_term(q: object, e: object) -> None:
    """A key must pass require_prime, free for a Prime; an exponent must be an int, not a bool."""
    require_prime(q)
    if not isinstance(e, int) or isinstance(e, bool):
        raise ValueError(f"ledger exponent {e!r} is not an integer")


class LogLedger:
    """Formal sum of integer multiples of log(prime). Empty means zero."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        for q, e in (terms or {}).items():
            _check_term(q, e)
        self._terms = {q: e for q, e in sorted((terms or {}).items()) if e}

    @classmethod
    def _of(cls, terms: Mapping[int, int]) -> "LogLedger":
        """A ledger of terms already checked, such as the sum of two ledgers; zeros are dropped."""
        ledger = object.__new__(cls)
        ledger._terms = {q: e for q, e in sorted(terms.items()) if e}
        return ledger

    @classmethod
    def single(cls, prime: int, exponent: int) -> "LogLedger":
        _check_term(prime, exponent)
        return cls._of({prime: exponent})

    @property
    def terms(self) -> dict[int, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "LogLedger") -> "LogLedger":
        return self._of({q: self._terms.get(q, 0) + other._terms.get(q, 0) for q in self._terms | other._terms})

    def __sub__(self, other: "LogLedger") -> "LogLedger":
        return self._of({q: self._terms.get(q, 0) - other._terms.get(q, 0) for q in self._terms | other._terms})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogLedger):
            return NotImplemented
        return self._terms == other._terms

    def value(self) -> float:
        """Numeric value in nats. Exactness ends here."""
        return sum((e * math.log(q) for q, e in self._terms.items()), 0.0)

    def render(self, base: str = "e") -> str:
        """Deterministic text form, e.g. '-1*ln(3)' or '2*log2(3) + 1*log2(5)'."""
        if base not in _BASE_LABELS:
            raise ValueError(f"unknown log base {base!r}; expected one of {', '.join(_BASE_LABELS)}")
        if not self._terms:
            return "0"
        return " + ".join(f"{e}*{_BASE_LABELS[base]}({q})" for q, e in self._terms.items())

    def __repr__(self) -> str:
        return f"LogLedger({self._terms!r})"
