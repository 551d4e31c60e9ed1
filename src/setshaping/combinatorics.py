"""Entropy-ordered enumeration of all length-N sequences over an alphabet.

The total order on sequences is (class entropy ascending, counts vector
lexicographic ascending, in-class lexicographic ascending).  For a fixed
length N, entropy ascending is equivalent to ``prod n_i**n_i`` descending,
which we compare as exact big integers: no floating point enters the sort,
so equal-entropy classes (including distinct count multisets such as
(2,2,2,2) vs (4,1,1,1,1) at N=8) tie exactly and fall through to the
lexicographic rule.

Classes whose counts are permutations of one multiset share that product
and their size, so an ordering is kept per count multiset, not per class:
the exact product and multinomial are computed once per partition of N,
the partitions are sorted, and each becomes one group of classes, its
multiset's distinct permutations in lexicographic order.  A class is then
found by arithmetic on its group: the group's first rank, plus the
lexicographic rank of the counts vector among its multiset's permutations
(the same prefix-count method as ``rank_in_class``; Knuth, TAOCP 4A
§7.2.1.2) times the class size.  Only the rare groups of distinct
multisets with exactly equal products store their classes, merged
lexicographically.

Ranks are plain Python ints and therefore arbitrary precision; |A|**N
overflows machine words almost immediately (3**41 > 2**64).
"""
from __future__ import annotations

import collections.abc
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, groupby, repeat
from operator import itemgetter, mul, sub
from typing import Iterator, NamedTuple

from .core import Alphabet, Composition, Sequence
from .errors import RankOutOfRangeError, TooManyClassesError

__all__ = [
    "RankIndex",
    "ClassOrdering",
    "multinomial",
    "composition_count",
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


def _lex_rank(symbols, counts: list[int], remaining: int) -> int:
    """Position of `symbols` in the lexicographic order of the distinct
    orderings of its own multiset: counts[s] occurrences of each symbol s,
    `remaining` orderings in all.  Consumes counts.

    Standard prefix-count method: at each position, add the number of
    orderings of the rest that start with a smaller symbol, one term for
    all of them.  ``remaining * counts[s] // total`` is exact, and so is
    ``remaining * sum(counts[:sym]) // total``.
    """
    total = len(symbols)
    rank = 0
    for sym in symbols:
        if remaining == 1:  # one distinct symbol left: nothing smaller follows
            break
        if sym:
            rank += remaining * sum(counts[:sym]) // total
        remaining = remaining * counts[sym] // total
        counts[sym] -= 1
        total -= 1
    return rank


def _lex_unrank(counts, remaining: int, r: int) -> list[int]:
    """Inverse of _lex_rank: the r-th of the `remaining` distinct orderings
    of the multiset with counts[s] occurrences of each symbol s; r must be
    below `remaining`.  Each symbol's orderings are skipped in one step
    (none for a symbol with count 0)."""
    counts = list(counts)
    total = sum(counts)
    symbols = []
    while remaining > 1:
        sym = 0
        here = remaining * counts[0] // total
        while r >= here:
            r -= here
            sym += 1
            here = remaining * counts[sym] // total
        symbols.append(sym)
        remaining = here
        counts[sym] -= 1
        total -= 1
    # one ordering left: the remaining copies of one symbol
    for sym, c in enumerate(counts):
        symbols.extend(repeat(sym, c))
    return symbols


class _Permutations(NamedTuple):
    """Group of the classes of one count multiset: its distinct
    permutations in lexicographic order, `classes` of them, each of
    `class_size` sequences.  The multiset is `values` (ascending), each
    repeated `repeats` times."""

    values: tuple[int, ...]
    repeats: tuple[int, ...]
    classes: int
    class_size: int

    @property
    def total(self) -> int:
        return self.classes * self.class_size

    def position(self, counts: tuple[int, ...]) -> int:
        symbols = [self.values.index(c) for c in counts]
        return _lex_rank(symbols, list(self.repeats), self.classes)

    def counts(self, j: int) -> tuple[int, ...]:
        return tuple([self.values[s] for s in _lex_unrank(self.repeats, self.classes, j)])

    def size(self, j: int) -> int:
        return self.class_size

    def offset(self, j: int) -> int:
        return j * self.class_size

    def locate(self, offset: int) -> tuple[int, int]:
        return divmod(offset, self.class_size)

    def walk(self, j: int = 0) -> Iterator[tuple[tuple[int, ...], int]]:
        if j:
            start = list(self.counts(j))
        else:  # the multiset ascending, with no unrank (whole-group walks)
            start = [v for v, k in zip(self.values, self.repeats) for _ in range(k)]
        return zip(_permutations(start), repeat(self.class_size))


class _Tie(NamedTuple):
    """Group of the classes of distinct count multisets with exactly equal
    entropy, stored one by one in lexicographic order: class j starts
    `offsets[j]` ranks after the group's first, and the last offset is the
    group's sequence count."""

    members: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]

    @property
    def classes(self) -> int:
        return len(self.members)

    @property
    def total(self) -> int:
        return self.offsets[-1]

    def position(self, counts: tuple[int, ...]) -> int:
        return bisect_left(self.members, counts)

    def counts(self, j: int) -> tuple[int, ...]:
        return self.members[j]

    def size(self, j: int) -> int:
        return self.offsets[j + 1] - self.offsets[j]

    def offset(self, j: int) -> int:
        return self.offsets[j]

    def locate(self, offset: int) -> tuple[int, int]:
        j = bisect_right(self.offsets, offset) - 1
        return j, offset - self.offsets[j]

    def walk(self, j: int = 0) -> Iterator[tuple[tuple[int, ...], int]]:
        return zip(self.members[j:], map(sub, self.offsets[j + 1 :], self.offsets[j:]))


class _Classes(collections.abc.Sequence):
    """Read-only view of an ordering's counts vectors by class index; each
    is computed on access, none is stored."""

    __slots__ = ("_ordering",)

    def __init__(self, ordering: ClassOrdering):
        self._ordering = ordering

    def __len__(self) -> int:
        return self._ordering.class_count

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        return self._ordering.class_counts(i + len(self) if i < 0 else i)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return (counts for counts, _ in self._ordering.classes())


@dataclass(frozen=True)
class ClassOrdering:
    """All compositions of (length, alphabet) in the entropy order, kept as
    one group per count multiset (or per exact tie between multisets).

    `classes()` walks (counts, class size) in order, and `spans(lo, hi)`
    walks the classes that meet a rank range, each with its sequences
    inside the range; `class_span` and `locate` find one class by its
    counts vector or by a rank.  `compositions`, a lazy view of the counts
    vectors by class index, is kept for the benchmark's tracer, which
    counts the classes of each ordering it sees.  No per-class table is
    held.  Immutable after construction; rank/unrank are pure given the
    ordering.
    """

    length: int
    alphabet: Alphabet
    _groups: tuple[_Permutations | _Tie, ...] = field(repr=False)
    # rank of each group's first sequence, then the sequence count
    _starts: tuple[int, ...] = field(repr=False)
    # index of each group's first class, then the class count
    _firsts: tuple[int, ...] = field(repr=False)
    # sorted counts vector (the multiset) -> index of its group
    _group_of: dict[tuple[int, ...], int] = field(repr=False)

    @property
    def sequence_count(self) -> int:
        return self._starts[-1]

    @property
    def class_count(self) -> int:
        return self._firsts[-1]

    @property
    def compositions(self) -> _Classes:
        return _Classes(self)

    def classes(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Every class's counts vector and size, in order."""
        for group in self._groups:
            yield from group.walk()

    def spans(self, lo: RankIndex, hi: RankIndex) -> Iterator[tuple[tuple[int, ...], int]]:
        """Each class that meets the ranks [lo, hi), in order: its counts
        vector and how many of its sequences lie in the range.  Nothing for
        an empty range; RankOutOfRangeError, before anything is yielded,
        unless 0 <= lo <= hi <= sequence_count."""
        if not 0 <= lo <= hi <= self.sequence_count:
            raise RankOutOfRangeError(
                f"ranks [{lo}, {hi}) outside 0..{self.sequence_count}"
            )
        if lo == hi:
            return
        g, j, offset = self._at(lo)
        left = hi - lo + offset  # ranks from the first class's start to hi
        groups = self._groups
        while True:
            for counts, size in groups[g].walk(j):
                yield counts, min(size, left) - offset
                left -= size
                if left <= 0:
                    return
                offset = 0
            g, j = g + 1, 0

    def _find(self, counts: tuple[int, ...]) -> tuple[int, int]:
        """Group of a counts vector and its class's position in the group."""
        g = self._group_of[tuple(sorted(counts))]
        return g, self._groups[g].position(counts)

    def class_counts(self, i: int) -> tuple[int, ...]:
        """Counts vector of class i."""
        if not 0 <= i < self.class_count:
            raise IndexError(f"class {i} outside 0..{self.class_count - 1}")
        g = bisect_right(self._firsts, i) - 1
        return self._groups[g].counts(i - self._firsts[g])

    def class_span(self, counts: tuple[int, ...]) -> tuple[RankIndex, int]:
        """Global rank of the first sequence with this counts vector, and
        the size of its class."""
        g, j = self._find(counts)
        group = self._groups[g]
        return self._starts[g] + group.offset(j), group.size(j)

    def _at(self, r: RankIndex) -> tuple[int, int, int]:
        """Group of global rank r, its class's position in the group and
        r's offset within the class."""
        starts = self._starts
        if not 0 <= r < starts[-1]:
            raise RankOutOfRangeError(f"rank {r} outside 0..{starts[-1] - 1}")
        g = bisect_right(starts, r) - 1
        j, offset = self._groups[g].locate(r - starts[g])
        return g, j, offset

    def locate(self, r: RankIndex) -> tuple[tuple[int, ...], int, int]:
        """The class holding global rank r: its counts vector, its size and
        r's offset within it."""
        g, j, offset = self._at(r)
        group = self._groups[g]
        return group.counts(j), group.size(j), offset


def class_ordering(
    n: int, alphabet: Alphabet, max_classes: int = DEFAULT_CLASS_CAP
) -> ClassOrdering:
    """Build the entropy-ordered class groups for length-n sequences (the
    order compares exact integers, so it has no log base).

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
    factorial = list(accumulate(range(1, max(n, size) + 1), mul, initial=1))
    self_power = [c**c for c in range(n + 1)]
    keyed = []
    for counts in _partitions(n, size):
        prod = 1
        denominator = 1
        for c in counts:
            prod *= self_power[c]
            denominator *= factorial[c]
        values, repeats = zip(*((v, len(list(run))) for v, run in groupby(counts)))
        classes = factorial[size]
        for k in repeats:
            classes //= factorial[k]
        group = _Permutations(values, repeats, classes, factorial[n] // denominator)
        keyed.append((prod, tuple(counts), group))
    # prod n^n descending == entropy ascending for fixed N (exact ints)
    keyed.sort(key=itemgetter(0), reverse=True)
    groups = []
    group_of = {}
    for _, tied in groupby(keyed, key=itemgetter(0)):
        tied = list(tied)
        if len(tied) == 1:
            group = tied[0][2]
        else:
            # distinct multisets with equal entropy: lexicographic on counts
            members, sizes = zip(*sorted(
                member for _, _, permutations in tied for member in permutations.walk()
            ))
            group = _Tie(members, tuple(accumulate(sizes, initial=0)))
        for _, multiset, _ in tied:
            group_of[multiset] = len(groups)
        groups.append(group)
    return ClassOrdering(
        length=n,
        alphabet=alphabet,
        _groups=tuple(groups),
        _starts=tuple(accumulate((g.total for g in groups), initial=0)),
        _firsts=tuple(accumulate((g.classes for g in groups), initial=0)),
        _group_of=group_of,
    )


def rank_in_class(seq: Sequence) -> RankIndex:
    """Position of seq in the lexicographic order of its type class."""
    counts = [0] * seq.alphabet.size
    for s in seq.symbols:
        counts[s] += 1
    return _lex_rank(seq.symbols, counts, multinomial(Composition(tuple(counts))))


def unrank_in_class(comp: Composition, r: RankIndex) -> Sequence:
    """Inverse of rank_in_class: the r-th lexicographic sequence of a class."""
    remaining = multinomial(comp)
    if not 0 <= r < remaining:
        raise RankOutOfRangeError(
            f"rank {r} outside class of size {remaining} for counts {comp.counts}"
        )
    symbols = _lex_unrank(comp.counts, remaining, r)
    return Sequence(Alphabet(len(comp.counts)), tuple(symbols))


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
    start, size = ordering.class_span(tuple(counts))
    # rank_in_class, with the class size the ordering already holds
    return start + _lex_rank(seq.symbols, counts, size)


def unrank_sequence(
    n: int, alphabet: Alphabet, r: RankIndex, ordering: ClassOrdering
) -> Sequence:
    """Exact inverse of rank_sequence."""
    if n != ordering.length or alphabet != ordering.alphabet:
        raise ValueError(
            f"requested ({n}, {alphabet.size}) does not match ordering "
            f"({ordering.length}, {ordering.alphabet.size})"
        )
    counts, size, offset = ordering.locate(r)
    # unrank_in_class, with the class size the ordering already holds
    return Sequence(alphabet, tuple(_lex_unrank(counts, size, offset)))
