"""Entropy-ordered enumeration of all length-N sequences over an alphabet.

The total order on sequences is (class entropy ascending, counts vector
lexicographic ascending, in-class lexicographic ascending).  For a fixed
length N, entropy ascending is equivalent to ``sum n_i ln n_i`` descending,
and to ``prod n_i**n_i`` descending in exact integers.  Equal-entropy
classes, including distinct count multisets such as (2,2,2,2) vs
(4,1,1,1,1) at N=8, tie exactly and fall through to the lexicographic rule.

Classes whose counts are permutations of one multiset share their entropy
and their size, so an ordering is kept per count multiset, not per class.
The partitions of N are built as one integer array, a part at a time, and
sorted by the float key ``sum c ln c``; only neighbours whose keys lie
within the key's error bound of each other (see ``class_ordering``) are
compared again with the exact ``prod c**c``.  Each partition becomes one
group of classes, its multiset's distinct permutations in lexicographic
order.  A class is then found by arithmetic on its group: the group's first
rank, plus the lexicographic rank of the counts vector among its multiset's
permutations (the same prefix-count method as ``rank_in_class``; Knuth,
TAOCP 4A §7.2.1.2) times the class size.  Only the rare groups of distinct
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
from itertools import accumulate, compress, groupby, repeat
from operator import mul
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .core import Alphabet, Composition, Sequence, _counts, _pack
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


def _partition_rows(n: int, parts: int) -> np.ndarray:
    """Every partition of n into at most `parts` parts, one int64 row each,
    padded with zeros to exactly `parts` counts in ascending order: the
    lexicographically first counts vector of its multiset.

    Built a part at a time: each prefix row is repeated once per value its
    next part can take, from the prefix's last part up to an equal share of
    what is left.  At most n parts are nonzero, so only min(n, parts) are
    built and the rest are the leading zeros."""
    nonzero = min(n, parts)
    rows = np.zeros((1, 0), dtype=np.int64)
    low = np.zeros(1, dtype=np.int64)  # each prefix's last part
    left = np.full(1, n, dtype=np.int64)  # what its remaining parts sum to
    for i in range(nonzero - 1):
        choices = left // (nonzero - i) - low + 1
        first = np.cumsum(choices) - choices
        part = np.repeat(low - first, choices) + np.arange(first[-1] + choices[-1])
        rows = np.column_stack((np.repeat(rows, choices, axis=0), part))
        left = np.repeat(left, choices) - part
        low = part
    full = np.zeros((len(left), parts), dtype=np.int64)
    full[:, parts - nonzero : -1] = rows
    full[:, -1] = left
    return full


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
    repeated `repeats` times; `first`, its first class, is the multiset ascending."""

    first: tuple[int, ...]
    values: tuple[int, ...]
    repeats: tuple[int, ...]
    classes: int
    class_size: int

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
        start = list(self.counts(j) if j else self.first)
        return zip(_permutations(start), repeat(self.class_size))

    def multisets(self, lo: int, hi: int, apart=None) -> Iterable[tuple[tuple[int, ...], int, int]]:
        size = self.class_size
        # comparisons, not max and min: this runs once per group read
        if lo < 0:
            lo = 0
        if hi > self.classes * size:
            hi = self.classes * size
        if apart is not None and apart(self.first):
            return _class_rows(self, lo, hi)
        return ((self.first, (hi - 1) // size - lo // size + 1, hi - lo),)


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
        for i in range(j, len(self.members)):  # by index: no copy of the rest
            yield self.members[i], self.offsets[i + 1] - self.offsets[i]

    def multisets(self, lo: int, hi: int, apart=None) -> Iterable[tuple[tuple[int, ...], int, int]]:
        return _class_rows(self, max(lo, 0), hi)


def _class_rows(group, lo: int, hi: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Each class of a group that meets its ranks [lo, hi), lo >= 0, as a
    row of its own: its counts vector, 1 and how many of its sequences lie
    in the range (a class met in full gives its own size, as in spans)."""
    j, offset = group.locate(lo)
    left = hi - lo + offset  # ranks from class j's start to hi
    for counts, size in group.walk(j):
        yield counts, 1, min(size, left) - offset if offset else min(size, left)
        left -= size
        if left <= 0:
            return
        offset = 0


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
        count = len(self)
        if not -count <= i < count:
            raise IndexError(f"class {i} outside {-count}..{count - 1}")
        return self._ordering.class_counts(i % count)


@dataclass(frozen=True)
class ClassOrdering:
    """All compositions of (length, alphabet) in the entropy order, kept as
    one group per count multiset (or per exact tie between multisets).

    `spans(lo, hi)` walks the classes that meet a rank range, in order,
    each with its sequences inside the range (`spans(0, sequence_count)`
    walks them all), and `multiset_spans(hi, lo)` walks them a count
    multiset at a time, each multiset outside an exact tie one row, none
    of its classes found; `class_span` and `locate` find one class by its
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

    def spans(self, lo: RankIndex, hi: RankIndex) -> Iterator[tuple[tuple[int, ...], int]]:
        """Each class that meets the ranks [lo, hi), in order: its counts
        vector and how many of its sequences lie in the range
        (``multiset_spans`` with every multiset's classes apart).  Nothing
        for an empty range; RankOutOfRangeError, before anything is
        yielded, unless 0 <= lo <= hi <= sequence_count."""
        for counts, _, met in self.multiset_spans(hi, lo, lambda first: True):
            yield counts, met

    def multiset_spans(
        self, hi: RankIndex, lo: RankIndex = 0, apart=None
    ) -> Iterator[tuple[tuple[int, ...], int, int]]:
        """The classes that meet the ranks [lo, hi), one count multiset at a
        time, in order: the multiset ascending (the first of its classes),
        how many of its classes meet the range and how many of the range's
        ranks they hold, with none of its classes found.  Only the
        multisets holding ranks lo and hi - 1 are cut.  A group of exactly
        tied multisets gives each of its classes in turn as a row of its
        own (the class, 1, its ranks in the range), and so does a multiset
        for which ``apart(first)`` holds.  The group holding lo is found by
        bisection and the groups are read one at a time from there.
        Nothing for an empty range; RankOutOfRangeError, before anything is
        yielded, unless 0 <= lo <= hi <= sequence_count."""
        if not 0 <= lo <= hi <= self.sequence_count:
            raise RankOutOfRangeError(
                f"ranks [{lo}, {hi}) outside 0..{self.sequence_count}"
            )
        if lo == hi:
            return
        starts, groups = self._starts, self._groups
        for g in range(bisect_right(starts, lo) - 1, len(groups)):
            start = starts[g]
            if start >= hi:
                return
            yield from groups[g].multisets(lo - start, hi - start, apart)

    def _tally_rows(self, lo: RankIndex, hi: RankIndex, apart, key) -> tuple[list, list[int]]:
        """The ranks [lo, hi), 0 <= lo < hi <= sequence_count, as tally
        rows in order: each row's key, and the rank, counted from lo, at
        which each row after the first begins, then hi - lo.

        ``multiset_spans(hi, lo, apart)`` with each row keyed by
        ``key(counts)`` and neighbours that share a key merged, read in one
        loop from one bisection.  A multiset outside an exact tie that
        ``apart`` does not flag is one row, keyed by the multiset ascending
        (its first class, which ``key`` must map to itself), its ranks
        read off the groups' first ranks; only ties and flagged multisets
        go through ``multisets`` and ``key``."""
        starts, groups = self._starts, self._groups
        keys, begins = [], []
        g = bisect_right(starts, lo) - 1
        start = starts[g]
        while start < hi:
            group = groups[g]
            g += 1
            if type(group) is _Permutations and not apart(group.first):
                # a multiset is in one group only, so no neighbour shares
                # its key
                if keys:
                    begins.append(start - lo)
                keys.append(group.first)
            else:
                rank = start - lo if start > lo else 0
                for counts, _, met in group.multisets(lo - start, hi - start, apart):
                    row = key(counts)
                    if not keys or row != keys[-1]:
                        if keys:
                            begins.append(rank)
                        keys.append(row)
                    rank += met
            start = starts[g]
        begins.append(hi - lo)
        return keys, begins

    def _find(self, counts: tuple[int, ...], first=None) -> tuple[int, int]:
        """Group of a counts vector and its class's position in the group
        (``first`` as ``class_span`` takes it)."""
        try:
            g = self._group_of[tuple(sorted(counts)) if first is None else first]
        except KeyError:
            raise ValueError(
                f"counts {tuple(counts)} is not a class of ordering "
                f"({self.length}, {self.alphabet.size})"
            ) from None
        return g, self._groups[g].position(counts)

    def class_counts(self, i: int) -> tuple[int, ...]:
        """Counts vector of class i."""
        if not 0 <= i < self.class_count:
            raise IndexError(f"class {i} outside 0..{self.class_count - 1}")
        g = bisect_right(self._firsts, i) - 1
        return self._groups[g].counts(i - self._firsts[g])

    def class_span(self, counts: tuple[int, ...], first=None) -> tuple[RankIndex, int]:
        """Global rank of the first sequence with this counts vector, and
        the size of its class; ValueError unless the vector is one of the
        ordering's classes.  ``first``, if given, must be the counts
        ascending: a caller that has sorted them saves sorting them again."""
        g, j = self._find(counts, first)
        group = self._groups[g]
        return self._starts[g] + group.offset(j), group.size(j)

    def locate(self, r: RankIndex) -> tuple[tuple[int, ...], int, int]:
        """The class holding global rank r: its counts vector, its size and
        r's offset within it."""
        starts = self._starts
        if not 0 <= r < starts[-1]:
            raise RankOutOfRangeError(f"rank {r} outside 0..{starts[-1] - 1}")
        g = bisect_right(starts, r) - 1
        group = self._groups[g]
        j, offset = group.locate(r - starts[g])
        return group.counts(j), group.size(j), offset


# Bound on how far two float entropy keys of one length may lie apart while
# their exact keys are equal or ordered the other way; see class_ordering.
_KEY_ERROR = 2.0**-30


def class_ordering(
    n: int, alphabet: Alphabet, max_classes: int = DEFAULT_CLASS_CAP
) -> ClassOrdering:
    """Build the entropy-ordered class groups for length-n sequences (the
    order is decided in exact integers, so it has no log base).

    The partitions of n are sorted by the float key ``sum c ln c``,
    descending, which is entropy ascending.  Each key is within
    ``2**-36 * n ln n`` of its exact value: a table entry ``c * log(c)``
    is within a few ulps (2**-50 relative) of ``c ln c``, counts 0 and 1
    add exactly 0, and summing k nonzero terms adds at most
    ``(k - 1) * 2**-53`` times their sum, which is at most ``n ln n``
    since each ``c ln c <= c ln n``.  That takes k < 2**16, and
    k <= min(|A|, n / 2), so only orderings of over 10**54,000 classes
    could break it.  So two partitions whose exact keys tie, or are
    ordered the other way from their float keys, have float keys within
    ``2**-35 * n ln n`` of each other, and so does every partition sorted
    between them.  Each run of neighbours whose float keys differ by less
    than ``2**-30 * (n ln n + 1)``, 32 times that, is sorted again by the
    exact ``prod c**c``; between runs the float order is exact.  At
    (100,4) the widest float spread inside an exact tie is 5.7e-14, and
    the narrowest gap between distinct keys is 6.2e-7 against a bound of
    4.3e-7: 16 of 8,037 partitions are compared exactly (164 of 83,834 at
    (1000,3)).

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
    rows = _partition_rows(n, size)
    c_log_c = np.array([0.0] + [c * math.log(c) for c in range(1, n + 1)])
    keys = c_log_c[rows].sum(axis=1)
    order = np.argsort(-keys)
    rows, keys = rows[order], keys[order]
    ties = []  # [first, end) rows of each exact tie between multisets
    near = np.flatnonzero(keys[:-1] - keys[1:] < _KEY_ERROR * (n * math.log(n) + 1))
    for run in np.split(near, np.flatnonzero(np.diff(near) > 1) + 1):
        if not run.size:
            continue
        lo, hi = int(run[0]), int(run[-1]) + 2
        exact = [math.prod([c**c for c in row]) for row in rows[lo:hi].tolist()]
        resort = sorted(range(hi - lo), key=exact.__getitem__, reverse=True)
        rows[lo:hi] = rows[lo:hi][resort]
        for _, tied in groupby(resort, key=exact.__getitem__):
            k = len(list(tied))
            if k > 1:
                ties.append((lo, lo + k))
            lo += k
    # Rows with the same runs of equal counts (at most 2**(|A| - 1) such
    # patterns; found by their packed run-start bits) share their repeats and
    # their class count, |A|! over the product of the run lengths'
    # factorials; a row's distinct values are its counts where a run starts.
    run_starts = np.diff(rows, axis=1, prepend=-1) != 0
    packed = np.packbits(run_starts, axis=1)
    _, first_row, pattern_of = np.unique(
        packed.view(f"V{packed.shape[1]}").reshape(-1), return_index=True, return_inverse=True
    )
    factorial = list(accumulate(range(1, max(n, size) + 1), mul, initial=1))
    # a class's size: n! / prod c!
    factorials = np.array(factorial[: n + 1], dtype=object)
    sizes = (factorial[n] // np.multiply.reduce(factorials[rows], axis=1)).tolist()
    multisets = list(zip(*rows.T.tolist()))
    # a row of distinct counts is its own values; the others keep the ints
    # of their multiset key (above 256 a second tolist() would make its own)
    values = multisets.copy()
    repeats_of, classes_of = [], []
    for p, pattern in enumerate(run_starts[first_row]):
        run_lengths = tuple(np.diff(np.flatnonzero(pattern), append=size).tolist())
        repeats_of.append(run_lengths)
        classes_of.append(factorial[size] // math.prod([factorial[k] for k in run_lengths]))
        if len(run_lengths) < size:
            keep = pattern.tolist()
            for i in np.flatnonzero(pattern_of == p).tolist():
                values[i] = tuple(compress(multisets[i], keep))
    pattern_of = pattern_of.tolist()
    repeats = list(map(repeats_of.__getitem__, pattern_of))
    classes = list(map(classes_of.__getitem__, pattern_of))
    # drop the arrays before the groups are built: it keeps the build's peak down
    del keys, order, rows, run_starts, packed, factorials

    groups = list(map(_Permutations, multisets, values, repeats, classes, sizes))
    # boundary[i]: row i starts a group (and the end, at len(multisets))
    boundary = [True] * (len(groups) + 1)
    for lo, hi in reversed(ties):
        # distinct multisets with equal entropy: lexicographic on counts
        members, member_sizes = zip(*sorted(
            member for permutations in groups[lo:hi] for member in permutations.walk()
        ))
        groups[lo:hi] = [_Tie(members, tuple(accumulate(member_sizes, initial=0)))]
        boundary[lo + 1 : hi] = repeat(False, hi - lo - 1)
    return ClassOrdering(
        length=n,
        alphabet=alphabet,
        _groups=tuple(groups),
        _starts=tuple(compress(accumulate(map(mul, classes, sizes), initial=0), boundary)),
        _firsts=tuple(compress(accumulate(classes, initial=0), boundary)),
        _group_of=dict(zip(multisets, accumulate(boundary[1:], initial=0))),
    )


def rank_in_class(seq: Sequence) -> RankIndex:
    """Position of seq in the lexicographic order of its type class."""
    counts = _counts(seq)
    return _lex_rank(seq._symbols, counts, multinomial(Composition(tuple(counts))))


def unrank_in_class(comp: Composition, r: RankIndex) -> Sequence:
    """Inverse of rank_in_class: the r-th lexicographic sequence of a class."""
    remaining = multinomial(comp)
    if not 0 <= r < remaining:
        raise RankOutOfRangeError(
            f"rank {r} outside class of size {remaining} for counts {comp.counts}"
        )
    size = len(comp.counts)
    symbols = _pack(_lex_unrank(comp.counts, remaining, r), size)
    return Sequence._from_buffer(Alphabet(size), symbols)


def rank_sequence(seq: Sequence, ordering: ClassOrdering) -> RankIndex:
    """Global rank of seq in the entropy order; bijective over 0..|A|**N - 1."""
    if seq.length != ordering.length or seq.alphabet != ordering.alphabet:
        raise ValueError(
            f"sequence of length {seq.length} over alphabet {seq.alphabet.size} "
            f"does not match ordering ({ordering.length}, {ordering.alphabet.size})"
        )
    counts = _counts(seq)
    start, size = ordering.class_span(tuple(counts))
    # rank_in_class, with the class size the ordering already holds
    return start + _lex_rank(seq._symbols, counts, size)


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
    symbols = _pack(_lex_unrank(counts, size, offset), alphabet.size)
    return Sequence._from_buffer(alphabet, symbols)
