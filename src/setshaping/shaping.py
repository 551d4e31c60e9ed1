"""The set-shaping transform: a bijection from all length-N sequences onto
the |A|**N lowest-entropy sequences of length N+K.

The bijection is rank-preserving between the two entropy orderings: the
r-th length-N sequence maps to the r-th length-(N+K) sequence.  Orderings
do not depend on the entropy base (log bases rescale monotonically), so
no parameter here takes one; they are cached per (length, alphabet size).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .combinatorics import (
    ClassOrdering,
    class_ordering,
    rank_sequence,
    unrank_sequence,
)
from .core import Alphabet, Composition, Sequence, entropy_of_composition
from .errors import (
    AlphabetTooSmallError,
    BadLengthError,
    NotInShapedSubsetError,
)

__all__ = [
    "ShapingParams",
    "ShapedSubsetStats",
    "transform",
    "inverse_transform",
    "shaped_subset_stats",
    "shared_ordering",
]

MIN_ALPHABET = 3


@dataclass(frozen=True)
class ShapingParams:
    """Parameters of one transform instance.

    extra_length is the amount K by which sequences grow; the default 1
    matches the canonical worked example.  Alphabets smaller than 3 are
    rejected outright: the subset-selection argument does not apply to
    them, and we deliberately leave binary alphabets untested territory.
    There is no entropy base: the map only compares entropies.
    """

    length: int
    alphabet: Alphabet
    extra_length: int = 1

    def __post_init__(self):
        if self.alphabet.size < MIN_ALPHABET:
            raise AlphabetTooSmallError(
                f"shaping requires an alphabet of size >= {MIN_ALPHABET}, "
                f"got {self.alphabet.size}"
            )
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        if self.extra_length < 1:
            raise ValueError(f"extra_length must be >= 1, got {self.extra_length}")

    @property
    def target_length(self) -> int:
        return self.length + self.extra_length

    @property
    def subset_size(self) -> int:
        """|A|**N: how many target sequences the shaped subset contains."""
        return self.alphabet.size**self.length


@lru_cache(maxsize=64)
def shared_ordering(n: int, alphabet: Alphabet) -> ClassOrdering:
    """Entropy ordering for (n, alphabet), built once and shared."""
    return class_ordering(n, alphabet)


def transform(seq: Sequence, params: ShapingParams) -> Sequence:
    """Map seq to the equally-ranked sequence of length N+K.

    The image always lies in the shaped subset: its global rank is below
    |A|**N by construction.
    """
    if seq.alphabet != params.alphabet:
        raise ValueError(
            f"sequence alphabet {seq.alphabet.size} != params alphabet "
            f"{params.alphabet.size}"
        )
    if seq.length != params.length:
        raise BadLengthError(
            f"transform expects length {params.length}, got {seq.length}"
        )
    r = rank_sequence(seq, shared_ordering(params.length, params.alphabet))
    target = shared_ordering(params.target_length, params.alphabet)
    return unrank_sequence(params.target_length, params.alphabet, r, target)


def inverse_transform(seq: Sequence, params: ShapingParams) -> Sequence:
    """Recover the original length-N sequence from a shaped one.

    Rejects any length-(N+K) sequence whose global rank is >= |A|**N;
    those lie outside the transform's image.
    """
    if seq.alphabet != params.alphabet:
        raise ValueError(
            f"sequence alphabet {seq.alphabet.size} != params alphabet "
            f"{params.alphabet.size}"
        )
    if seq.length != params.target_length:
        raise BadLengthError(
            f"inverse expects length {params.target_length}, got {seq.length}"
        )
    r = rank_sequence(seq, shared_ordering(params.target_length, params.alphabet))
    if r >= params.subset_size:
        raise NotInShapedSubsetError(
            f"rank {r} is outside the shaped subset of size {params.subset_size}"
        )
    return unrank_sequence(
        params.length, params.alphabet, r, shared_ordering(params.length, params.alphabet)
    )


@dataclass(frozen=True)
class ShapedSubsetStats:
    """Which type classes make up the shaped subset.

    class_census pairs each composition with how many of its sequences are
    included; the final class may be partially included when |A|**N falls
    mid-class, in which case the cut follows in-class lexicographic order.
    max_entropy_in_subset is that class's entropy, in bits per symbol.
    """

    params: ShapingParams
    max_entropy_in_subset: float
    class_census: tuple[tuple[Composition, int], ...] = field(repr=False)

    @property
    def sequence_count(self) -> int:
        return sum(count for _, count in self.class_census)


def shaped_subset_stats(params: ShapingParams) -> ShapedSubsetStats:
    """List the classes (with per-class included counts) forming the subset."""
    target = shared_ordering(params.target_length, params.alphabet)
    census = tuple((Composition(c), n) for c, n in target.spans(0, params.subset_size))
    return ShapedSubsetStats(
        params=params,
        max_entropy_in_subset=entropy_of_composition(census[-1][0]).bits_per_symbol,
        class_census=census,
    )
