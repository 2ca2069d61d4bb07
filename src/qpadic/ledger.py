"""Exact integer combinations of logarithms of primes.

Entropies and entropy gains in this package always take the form
sum_q e_q * log(q) over finitely many primes q with integer exponents.
They are stored symbolically and compared exactly; conversion to a float
in a given base is a presentation concern.
"""

from __future__ import annotations

import math
from typing import Mapping

_BASE_LABELS = {"e": "ln", "2": "log2", "10": "log10"}


class LogLedger:
    """Formal sum of integer multiples of log(prime). Empty means zero."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        for q, e in (terms or {}).items():
            if not isinstance(q, int) or not isinstance(e, int):
                raise ValueError("ledger terms must map integer primes to integer exponents")
            if e != 0:
                clean[q] = e
        self._terms = dict(sorted(clean.items()))

    @classmethod
    def zero(cls) -> "LogLedger":
        return cls()

    @classmethod
    def single(cls, prime: int, exponent: int) -> "LogLedger":
        return cls({prime: exponent})

    @property
    def terms(self) -> dict[int, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: "LogLedger") -> "LogLedger":
        merged = dict(self._terms)
        for q, e in other._terms.items():
            merged[q] = merged.get(q, 0) + e
        return LogLedger(merged)

    def __neg__(self) -> "LogLedger":
        return LogLedger({q: -e for q, e in self._terms.items()})

    def __sub__(self, other: "LogLedger") -> "LogLedger":
        return self + (-other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogLedger):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    def value(self, base: float = math.e) -> float:
        """Numeric value in the given base. Exactness ends here."""
        total = sum(e * math.log(q) for q, e in self._terms.items())
        if base == math.e:
            return total
        return total / math.log(base)

    def render(self, base: str = "e") -> str:
        """Deterministic text form, e.g. '-1*ln(3)' or '2*log2(3) + 1*log2(5)'."""
        if base not in _BASE_LABELS:
            raise ValueError(f"unknown log base {base!r}; expected one of e, 2, 10")
        if not self._terms:
            return "0"
        label = _BASE_LABELS[base]
        parts = [f"{e}*{label}({q})" for q, e in self._terms.items()]
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LogLedger({self._terms!r})"
