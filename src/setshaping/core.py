"""Sequences, compositions (type classes) and zero-order empirical entropy.

Symbols are stored zero-based; all textual I/O renders them one-based
(``"2 1 1"``), which is the interchange format used by the CLI.
"""
from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

from .errors import (
    EmptyCompositionError,
    EmptySequenceError,
    SequenceParseError,
    TooLargeError,
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


# the symbol types a Sequence accepts: int (bool included) and numpy's
# integers, each read by its __index__
_INTEGERS = (int, np.integer)


class Sequence:
    """An ordered string of symbol indices over an alphabet.

    The symbols are held packed, in the narrowest unsigned type that holds
    |A| - 1: bytes up to |A| = 256, above that a memoryview of 2, 4 or 8
    bytes a symbol.  Either reads as a sequence of ints, and numpy reads it
    as an array with no copy (_symbol_array); ``symbols`` unpacks it into a
    tuple.  Immutable: equality and hash compare the alphabet and the
    packed symbols.
    """

    # __setattr__ refuses every assignment, so the constructors fill the
    # slots through their descriptors: two C calls a sequence
    __slots__ = ("alphabet", "_symbols")

    def __init__(self, alphabet: Alphabet, symbols) -> None:
        # a tuple is read as it is; any other iterable is read once, here
        symbols = tuple(symbols)
        self._check(alphabet, symbols)
        _set_alphabet(self, alphabet)
        _set_symbols(self, _pack(symbols, alphabet.size))

    @staticmethod
    def _check(alphabet: Alphabet, symbols: tuple) -> None:
        """Refuse a symbol that is not an integer or is outside the alphabet."""
        size = alphabet.size
        # one pass in C builds each set; the checks then see each distinct
        # type and symbol once, where a loop runs per symbol in Python.
        # Types, not values: {1, 1.0} is {1}
        if not all(issubclass(t, _INTEGERS) for t in set(map(type, symbols))):
            bad = next(s for s in symbols if not isinstance(s, _INTEGERS))
            raise ValueError(f"symbol {bad!r} is not an integer")
        distinct = set(symbols)
        if distinct and not (0 <= min(distinct) and max(distinct) < size):
            bad = next(s for s in symbols if not 0 <= s < size)
            raise ValueError(f"symbol {bad} out of range for alphabet of size {size}")

    @classmethod
    def _from_buffer(cls, alphabet: Alphabet, symbols) -> "Sequence":
        """A Sequence over symbols that _pack or _pack_array made from
        symbols the caller has checked, or made, in range: skips _check."""
        seq = object.__new__(cls)
        _set_alphabet(seq, alphabet)
        _set_symbols(seq, symbols)
        return seq

    @property
    def symbols(self) -> tuple[int, ...]:
        return tuple(self._symbols)

    @property
    def length(self) -> int:
        return len(self._symbols)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.alphabet == other.alphabet and self._symbols == other._symbols

    def __hash__(self) -> int:
        symbols = self._symbols
        # a memoryview of wider symbols hashes by the bytes it views
        return hash((self.alphabet, symbols if symbols.__class__ is bytes else symbols.obj))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # a wider alphabet's memoryview does not pickle; the tuple does
        return self.__class__, (self.alphabet, self.symbols)

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(alphabet={self.alphabet!r}, "
            f"symbols={self.symbols!r})"
        )

    def __str__(self) -> str:
        return format_sequence(self)


_set_alphabet = Sequence.alphabet.__set__
_set_symbols = Sequence._symbols.__set__


def _pack(symbols, size: int):
    """In-range symbols, any iterable of ints, packed as a Sequence over an
    alphabet of `size` symbols holds them."""
    if size <= 256:
        # bytearray takes an iterable faster than bytes does
        return bytes(bytearray(symbols))
    return _pack_array(np.fromiter(symbols, _symbol_type(size)))


def _symbol_type(size: int) -> np.dtype:
    """The numpy type a Sequence over |A| = size packs its symbols in: the
    narrowest unsigned type holding size - 1."""
    dtype = np.min_scalar_type(size - 1)
    if dtype.kind != "u":
        raise TooLargeError(f"alphabet of size {size} has symbols wider than 64 bits")
    return dtype


def _pack_array(symbols: np.ndarray):
    """An array of the alphabet's _symbol_type, packed as a Sequence over
    that alphabet holds it."""
    if symbols.itemsize == 1:
        return symbols.tobytes()
    return memoryview(symbols.tobytes()).cast(symbols.dtype.char)


@dataclass(frozen=True)
class Composition:
    """Per-symbol occurrence counts; all sequences sharing one composition
    form a type class and have identical empirical entropy."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if self.counts and min(self.counts) < 0:
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
    return Composition(tuple(_counts(seq)))


def _counts(seq: Sequence) -> list[int]:
    """Each symbol's occurrences, counted in one pass in C."""
    return np.bincount(_symbol_array(seq), minlength=seq.alphabet.size).tolist()


def _symbol_array(seq: Sequence) -> np.ndarray:
    """The symbols as a read-only numpy array of their packed type, with
    no copy."""
    symbols = seq._symbols
    return np.frombuffer(symbols, np.uint8 if symbols.__class__ is bytes else symbols.format)


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


class _Memo(dict):
    """Maps each key through `convert`, called once per distinct key, the
    first time that key is looked up."""

    __slots__ = ("convert",)

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, key):
        self[key] = value = self.convert(key)
        return value


# the ASCII bytes str.split breaks at, and the comma
_SEPARATORS = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f ,"
# 1 for a digit's byte, 0 for any other
_IS_DIGIT = bytes(c in b"0123456789" for c in range(256))
# a one-digit token's symbol is one below its digit; "0" and every byte
# that is neither a digit nor a separator map to 255, which no one-digit
# symbol equals
_SYMBOL = bytes(c - ord("1") if c in b"123456789" else 255 for c in range(256))
_DIGIT_SYMBOLS = bytes(range(9))
# symbol s to the byte of its one-digit name s + 1
_DIGIT_NAMES = bytes.maketrans(_DIGIT_SYMBOLS, b"123456789")


def _parse_digits(text: str, size: int) -> bytes | None:
    """The packed symbols of a text over |A| = size <= 256 whose every
    token is one digit naming a symbol, by bytes.translate; None for any
    other text."""
    if size > 256 or not text.isascii():
        return None
    data = text.encode("ascii")
    digit = np.frombuffer(data.translate(_IS_DIGIT), np.bool_)
    if (digit[1:] & digit[:-1]).any():
        return None
    symbols = data.translate(_SYMBOL, _SEPARATORS)
    # a byte left once the alphabet's symbols are deleted is a token that
    # is not one digit, or a symbol out of range
    if symbols.translate(None, _DIGIT_SYMBOLS[:size]):
        return None
    return symbols


def parse_sequence(text: str, alphabet: Alphabet) -> Sequence:
    """Parse whitespace- or comma-separated one-based symbols ("2 1 1").

    An ASCII text over |A| <= 256 whose every token is one digit naming
    a symbol is read by byte tables (_parse_digits): one translate marks
    the digits and numpy checks that no two are adjacent, one deletes the
    separators and maps each digit to its symbol, which is already the
    packed form a Sequence holds, and one deleting the alphabet's symbols
    must leave nothing.  Every other text is split as below: the split is
    what reads tokens such as "+1", "01" or "12", non-ASCII separators and
    alphabets above 256 symbols, and it makes every error, so each error
    names the first bad token.

    ``str.split`` breaks at the same whitespace as re's ``\\s`` (both ask
    ``Py_UNICODE_ISSPACE``) and drops empty tokens.  ``int`` judges each
    distinct token once, so "+1" and "01" read as 1, and the range is
    checked once per distinct symbol.  The symbols go straight into the
    packed type a Sequence holds.
    """
    symbols = _parse_digits(text, alphabet.size)
    if symbols is not None:
        return Sequence._from_buffer(alphabet, symbols)
    tokens = text.replace(",", " ").split()
    symbol_of = _Memo(lambda token: int(token) - 1)
    size = alphabet.size
    try:
        symbols = _pack(map(symbol_of.__getitem__, tokens), size)
    except (ValueError, OverflowError):
        # int() refused a token, or a symbol fell outside the packed type
        # (and so outside 1..size, which the range check below reports):
        # reading every token first puts a bad integer before a bad range
        try:
            for token in tokens:
                symbol_of[token]
        except ValueError:
            # tokens are read in order, so the first one not read is the bad one
            bad = next(token for token in tokens if token not in symbol_of)
            raise SequenceParseError(f"not an integer symbol: {bad!r}") from None
    distinct = symbol_of.values()
    if distinct and not (0 <= min(distinct) and max(distinct) < size):
        bad = next(s for s in map(symbol_of.__getitem__, tokens) if not 0 <= s < size)
        raise SequenceParseError(f"symbol {bad + 1} outside 1..{size}")
    return Sequence._from_buffer(alphabet, symbols)


def format_sequence(seq: Sequence) -> str:
    """Render a sequence as space-separated one-based symbols.

    Over |A| <= 9 every name is one digit, the rule _parse_digits reads
    by: one translate maps the packed symbols to their digits, which fill
    the even bytes of a text of spaces.  A wider alphabet's names are
    joined by _join_words, each distinct name rendered once."""
    symbols = seq._symbols
    if seq.alphabet.size <= 9:
        text = bytearray(b" ") * (2 * len(symbols) - 1)
        text[::2] = symbols.translate(_DIGIT_NAMES)
        return text.decode("ascii")
    return _join_words(seq, _Memo(lambda s: str(s + 1)), " ")


def _group_length(n: int, size: int) -> int:
    """The g for which _join_words looks up g symbols at a time in a
    message of n symbols over |A| = size: the largest whose table of
    |A|**g entries holds at most one entry per 128 symbols of the message
    and at most 256 entries, else 1.  A one-symbol alphabet counts as two,
    so that g stays bounded."""
    base = size if size > 1 else 2
    g, entries = 1, base * base
    while entries <= n >> 7 and entries <= 256:
        g += 1
        entries *= base
    return g


def _join_words(seq: Sequence, word, sep: str) -> str:
    """sep.join(word[s] for s in seq.symbols), with g = _group_length(n, |A|)
    symbols a lookup: a table holds the joined words of every g-symbol
    group, indexed by its symbols read as base-|A| digits, and the last
    n mod g symbols take one word each.  At g = 1, for short messages,
    the words are joined one per symbol with no table."""
    symbols, size = seq._symbols, seq.alphabet.size
    n = len(symbols)
    g = _group_length(n, size)
    if g == 1:
        return sep.join(map(word.__getitem__, symbols))
    words = [word[s] for s in range(size)]
    groups = words
    for _ in range(g - 1):
        groups = [f"{head}{sep}{last}" for head in groups for last in words]
    whole = n - n % g
    digits = _symbol_array(seq)[:whole].reshape(-1, g)
    # |A|**g <= 256, so the symbols are bytes and so is every step of
    # Horner's rule: no temporary wider than a byte per group
    index = digits[:, 0].copy()
    for j in range(1, g):
        index *= size
        index += digits[:, j]
    parts = np.array(groups, object).take(index).tolist()
    parts += map(word.__getitem__, symbols[whole:])
    return sep.join(parts)
