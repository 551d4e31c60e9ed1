"""Entropy-ordered enumeration of all length-N sequences over an alphabet.

The total order on sequences is (class entropy ascending, counts vector
lexicographic ascending, in-class lexicographic ascending).  For a fixed
length N, entropy ascending is equivalent to ``prod n_i**n_i`` descending,
which we compare as exact big integers: no floating point enters the sort,
so equal-entropy classes (including distinct count multisets such as
(2,2,2,2) vs (4,1,1,1,1) at N=8) tie exactly and fall through to the
lexicographic rule.

Classes whose counts are permutations of one multiset share that product
and their size, so an ordering is built per count multiset: the exact
product and multinomial are computed once per partition of N, the
partitions are sorted, and each expands into its distinct permutations in
lexicographic order.  The ordering stores plain counts tuples.

Ranks are plain Python ints and therefore arbitrary precision; |A|**N
overflows machine words almost immediately (3**41 > 2**64).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, combinations, groupby, repeat
from operator import itemgetter, mul
from typing import Iterator

from .core import Alphabet, Composition, Sequence, entropy_of_composition
from .errors import RankOutOfRangeError, TooManyClassesError

__all__ = [
    "RankIndex",
    "ClassOrdering",
    "multinomial",
    "composition_count",
    "enumerate_compositions",
    "class_ordering",
    "rank_in_class",
    "unrank_in_class",
    "rank_sequence",
    "unrank_sequence",
    "DEFAULT_CLASS_CAP",
]

RankIndex = int

DEFAULT_CLASS_CAP = 5_000_000


def multinomial(comp: Composition) -> int:
    """Size of a type class: N! / prod(n_i!), computed exactly."""
    result = 1
    partial = 0
    for n in comp.counts:
        partial += n
        result *= math.comb(partial, n)
    return result


def composition_count(n: int, alphabet: Alphabet) -> int:
    """Number of compositions of n into |A| non-negative parts."""
    return math.comb(n + alphabet.size - 1, alphabet.size - 1)


def enumerate_compositions(n: int, alphabet: Alphabet) -> Iterator[Composition]:
    """Yield every composition of n into |A| parts, in lexicographic order
    of the counts vector."""
    # stars and bars: bar positions ascending lexicographically give counts
    # ascending lexicographically
    end = (n + alphabet.size - 1,)
    for bars in combinations(range(n + alphabet.size - 1), alphabet.size - 1):
        yield Composition(
            tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + end))
        )


def _partitions(n: int, parts: int) -> Iterator[list[int]]:
    """Yield every partition of n into at most `parts` parts, padded with
    zeros to exactly `parts` counts, as a new non-decreasing list: the
    lexicographically first counts vector of its multiset."""
    p = [n] + [0] * (parts - 1)  # non-increasing; walked in reverse lex order
    while True:
        yield p[::-1]
        # rightmost part that can shrink by one while the parts after it
        # absorb the rest without exceeding it
        rest = 1 + p[-1]
        i = parts - 2
        while i >= 0 and rest > (parts - 1 - i) * (p[i] - 1):
            rest += p[i]
            i -= 1
        if i < 0:
            return
        p[i] -= 1
        top = p[i]
        for j in range(i + 1, parts):
            p[j] = min(top, rest)
            rest -= p[j]


def _permutations(counts: list[int]) -> Iterator[tuple[int, ...]]:
    """Distinct permutations of a non-decreasing list, lexicographically
    ascending (next-permutation; mutates its argument)."""
    last = len(counts) - 1
    while True:
        yield tuple(counts)
        i = last - 1
        while i >= 0 and counts[i] >= counts[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while counts[j] <= counts[i]:
            j -= 1
        counts[i], counts[j] = counts[j], counts[i]
        counts[i + 1 :] = counts[: i : -1]


@dataclass(frozen=True)
class ClassOrdering:
    """All compositions of (length, alphabet) sorted by the entropy order,
    as counts tuples, with cumulative sequence counts for rank arithmetic.

    Built once per count multiset (see the module docstring); immutable
    after construction; rank/unrank are pure given the ordering.
    """

    length: int
    alphabet: Alphabet
    compositions: tuple[tuple[int, ...], ...]
    cumulative: tuple[int, ...] = field(repr=False)
    _index: dict[tuple[int, ...], int] = field(repr=False)

    @property
    def sequence_count(self) -> int:
        return self.cumulative[-1] if self.cumulative else 0

    def class_index(self, comp: Composition) -> int:
        return self._index[comp.counts]

    def class_of_rank(self, r: RankIndex) -> int:
        """Index of the class holding global rank r."""
        return bisect_right(self.cumulative, r)

    def class_start(self, i: int) -> int:
        """Global rank of the first sequence in class i."""
        return self.cumulative[i - 1] if i else 0

    def class_entropy(self, i: int) -> float:
        """Empirical entropy of class i, in bits per symbol."""
        return entropy_of_composition(Composition(self.compositions[i])).bits_per_symbol


def class_ordering(
    n: int, alphabet: Alphabet, max_classes: int = DEFAULT_CLASS_CAP
) -> ClassOrdering:
    """Materialize the entropy-ordered class list for length-n sequences
    (the order compares exact integers, so it has no log base).

    Raises TooManyClassesError, before allocating anything, when the
    ordering has more than max_classes classes or more than 4 * max_classes
    stored counts (classes times |A|).
    """
    if n < 1:
        raise ValueError(f"ordering requires length >= 1, got {n}")
    size = alphabet.size
    total_classes = composition_count(n, alphabet)
    if total_classes > max_classes or total_classes * size > 4 * max_classes:
        raise TooManyClassesError(
            f"{total_classes} compositions of {size} counts for length {n} "
            f"exceed the cap of {max_classes} classes or "
            f"{4 * max_classes} counts"
        )
    factorial = list(accumulate(range(1, n + 1), mul, initial=1))
    self_power = [c**c for c in range(n + 1)]
    keyed = []
    for counts in _partitions(n, size):
        prod = 1
        denominator = 1
        for c in counts:
            prod *= self_power[c]
            denominator *= factorial[c]
        keyed.append((prod, counts, factorial[n] // denominator))
    # prod n^n descending == entropy ascending for fixed N (exact ints)
    keyed.sort(key=itemgetter(0), reverse=True)
    comps = []
    sizes = []
    for _, group in groupby(keyed, key=itemgetter(0)):
        group = list(group)
        start = len(comps)
        for _, counts, class_size in group:
            comps.extend(_permutations(counts))
            sizes.extend(repeat(class_size, len(comps) - len(sizes)))
        if len(group) > 1:
            # distinct multisets with equal entropy: lexicographic on counts
            tied = sorted(zip(comps[start:], sizes[start:]))
            comps[start:] = [c for c, _ in tied]
            sizes[start:] = [s for _, s in tied]
    return ClassOrdering(
        length=n,
        alphabet=alphabet,
        compositions=tuple(comps),
        cumulative=tuple(accumulate(sizes)),
        _index=dict(zip(comps, range(len(comps)))),
    )


def rank_in_class(seq: Sequence) -> RankIndex:
    """Position of seq in the lexicographic order of its type class.

    Standard prefix-count method: at each position, add the number of
    permutations of the remaining multiset that start with a smaller
    symbol.  ``remaining * counts[s] // remaining_total`` is exact.
    """
    counts = [0] * seq.alphabet.size
    for s in seq.symbols:
        counts[s] += 1
    remaining = multinomial(Composition(tuple(counts)))
    total = seq.length
    rank = 0
    for sym in seq.symbols:
        for smaller in range(sym):
            if counts[smaller]:
                rank += remaining * counts[smaller] // total
        remaining = remaining * counts[sym] // total
        counts[sym] -= 1
        total -= 1
    return rank


def unrank_in_class(comp: Composition, r: RankIndex) -> Sequence:
    """Inverse of rank_in_class: the r-th lexicographic sequence of a class."""
    size = len(comp.counts)
    total = comp.total
    remaining = multinomial(comp)
    if not 0 <= r < remaining:
        raise RankOutOfRangeError(
            f"rank {r} outside class of size {remaining} for counts {comp.counts}"
        )
    counts = list(comp.counts)
    symbols = []
    for _ in range(comp.total):
        for sym in range(size):
            if not counts[sym]:
                continue
            here = remaining * counts[sym] // total
            if r < here:
                symbols.append(sym)
                remaining = here
                counts[sym] -= 1
                total -= 1
                break
            r -= here
    return Sequence(Alphabet(size), tuple(symbols))


def rank_sequence(seq: Sequence, ordering: ClassOrdering) -> RankIndex:
    """Global rank of seq in the entropy order; bijective over 0..|A|**N - 1."""
    if seq.length != ordering.length or seq.alphabet != ordering.alphabet:
        raise ValueError(
            f"sequence of length {seq.length} over alphabet {seq.alphabet.size} "
            f"does not match ordering ({ordering.length}, {ordering.alphabet.size})"
        )
    counts = [0] * seq.alphabet.size
    for s in seq.symbols:
        counts[s] += 1
    i = ordering._index[tuple(counts)]
    return ordering.class_start(i) + rank_in_class(seq)


def unrank_sequence(
    n: int, alphabet: Alphabet, r: RankIndex, ordering: ClassOrdering
) -> Sequence:
    """Exact inverse of rank_sequence."""
    if n != ordering.length or alphabet != ordering.alphabet:
        raise ValueError(
            f"requested ({n}, {alphabet.size}) does not match ordering "
            f"({ordering.length}, {ordering.alphabet.size})"
        )
    if not 0 <= r < ordering.sequence_count:
        raise RankOutOfRangeError(
            f"rank {r} outside 0..{ordering.sequence_count - 1}"
        )
    i = ordering.class_of_rank(r)
    return unrank_in_class(
        Composition(ordering.compositions[i]), r - ordering.class_start(i)
    )
