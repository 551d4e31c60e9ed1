"""Sequences, compositions (type classes) and zero-order empirical entropy.

Symbols are stored zero-based; all textual I/O renders them one-based
(``"2 1 1"``), which is the interchange format used by the CLI.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import (
    EmptyCompositionError,
    EmptySequenceError,
    SequenceParseError,
)

__all__ = [
    "Alphabet",
    "Sequence",
    "Composition",
    "EntropyValue",
    "composition_of",
    "empirical_entropy",
    "weighted_entropy",
    "entropy_of_composition",
    "distinct_symbol_count",
    "parse_sequence",
    "format_sequence",
]


@dataclass(frozen=True)
class Alphabet:
    """A finite symbol alphabet of the given size, symbols 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.size}")


@dataclass(frozen=True)
class Sequence:
    """An ordered string of symbol indices over an alphabet."""

    alphabet: Alphabet
    symbols: tuple[int, ...]

    def __post_init__(self):
        size = self.alphabet.size
        for s in self.symbols:
            if not 0 <= s < size:
                raise ValueError(f"symbol {s} out of range for alphabet of size {size}")

    @property
    def length(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return format_sequence(self)


@dataclass(frozen=True)
class Composition:
    """Per-symbol occurrence counts; all sequences sharing one composition
    form a type class and have identical empirical entropy."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError(f"negative count in {self.counts}")

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class EntropyValue:
    """Empirical entropy in units of log-`base` symbols (bits when base=2)."""

    bits_per_symbol: float
    base: float = 2.0

    def __float__(self) -> float:
        return self.bits_per_symbol


def composition_of(seq: Sequence) -> Composition:
    """Count symbol occurrences, yielding the sequence's type class."""
    counts = [0] * seq.alphabet.size
    for s in seq.symbols:
        counts[s] += 1
    return Composition(tuple(counts))


def _check_base(base: float) -> None:
    """An entropy base must be a finite number above 1 (NaN is neither)."""
    if not (math.isfinite(base) and base > 1.0):
        raise ValueError(f"entropy base must be a finite number > 1, got {base}")


def entropy_of_composition(comp: Composition, base: float = 2.0) -> EntropyValue:
    """Zero-order entropy of the count distribution: -sum (n_i/N) log (n_i/N).

    Zero counts contribute nothing.  Equals ``empirical_entropy`` of any
    sequence with this composition (same arithmetic path).  Terms are
    summed in sorted count order, so every permutation of the counts gives
    the same float.
    """
    n = comp.total
    if n == 0:
        raise EmptyCompositionError("entropy of an empty composition is undefined")
    _check_base(base)
    acc = 0.0
    for c in sorted(comp.counts):
        if c:
            p = c / n
            acc -= p * math.log(p, base)
    # -0.0 creeps in for single-symbol compositions
    return EntropyValue(acc + 0.0, base)


def empirical_entropy(seq: Sequence, base: float = 2.0) -> EntropyValue:
    """Zero-order empirical entropy of a sequence, frequencies taken from
    the sequence itself."""
    if seq.length == 0:
        raise EmptySequenceError("entropy of an empty sequence is undefined")
    return entropy_of_composition(composition_of(seq), base)


def weighted_entropy(seq: Sequence, base: float = 2.0) -> float:
    """Empirical entropy multiplied by the sequence length."""
    return seq.length * empirical_entropy(seq, base).bits_per_symbol


def distinct_symbol_count(seq: Sequence) -> int:
    """Number of distinct symbols actually present in the sequence."""
    return sum(1 for c in composition_of(seq).counts if c)


_SEPARATORS = re.compile(r"[,\s]+")


def parse_sequence(text: str, alphabet: Alphabet) -> Sequence:
    """Parse whitespace- or comma-separated one-based symbols ("2 1 1")."""
    symbols = []
    for token in _SEPARATORS.split(text.strip()):
        if not token:
            continue
        try:
            value = int(token)
        except ValueError:
            raise SequenceParseError(f"not an integer symbol: {token!r}") from None
        if not 1 <= value <= alphabet.size:
            raise SequenceParseError(
                f"symbol {value} outside 1..{alphabet.size}"
            )
        symbols.append(value - 1)
    return Sequence(alphabet, tuple(symbols))


def format_sequence(seq: Sequence) -> str:
    """Render a sequence as space-separated one-based symbols."""
    return " ".join(str(s + 1) for s in seq.symbols)
