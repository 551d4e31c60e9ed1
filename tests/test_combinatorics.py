import math
import random
import tracemalloc
from bisect import bisect_left, bisect_right
from itertools import accumulate, groupby, permutations, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setshaping import (
    Alphabet,
    Composition,
    Sequence,
    class_ordering,
    composition_count,
    empirical_entropy,
    entropy_of_composition,
    multinomial,
    parse_sequence,
    rank_in_class,
    rank_sequence,
    unrank_in_class,
    unrank_sequence,
)
from setshaping.errors import RankOutOfRangeError, TooManyClassesError

from oracles import (
    all_tuples,
    compositions,
    counts_of,
    entropy_sorted_tuples,
    multiset_permutations,
    reference_class_order,
    reference_lex_rank,
    reference_lex_unrank,
    reference_spans,
)
from setshaping.combinatorics import _Permutations, _Tie, _lex_rank, _lex_unrank

A3 = Alphabet(3)
A4 = Alphabet(4)


class TestMultinomial:
    def test_310(self):
        assert multinomial(Composition((3, 1, 0))) == 4
        assert multinomial(Composition((3, 1, 0))) == len(
            multiset_permutations((3, 1, 0))
        )

    def test_constant_class(self):
        assert multinomial(Composition((3, 0, 0))) == 1

    def test_all_distinct(self):
        assert multinomial(Composition((1, 1, 1))) == 6
        assert multinomial(Composition((1, 1, 1))) == len(
            multiset_permutations((1, 1, 1))
        )

    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=4).filter(
            lambda c: sum(c) <= 8  # keep the factorial oracle tractable
        )
    )
    def test_matches_enumeration(self, counts):
        assert multinomial(Composition(tuple(counts))) == len(
            multiset_permutations(tuple(counts))
        )

    def test_total_sequence_count(self):
        for n, size in [(3, 3), (4, 3), (5, 2), (3, 4)]:
            total = sum(multinomial(Composition(c)) for c in compositions(n, size))
            assert total == size**n


class TestClassOrdering:
    def test_zero_entropy_classes_first(self):
        ordering = class_ordering(3, A3)
        first = list(ordering.compositions[:3])
        assert first == [(0, 0, 3), (0, 3, 0), (3, 0, 0)]

    def test_cumulative_27_at_n4(self):
        ordering = class_ordering(4, A3)
        classes = [counts for counts, _ in ordering.spans(0, 3**4)]
        assert ordering.class_span(classes[9])[0] == 27
        for c in classes[3:9]:
            assert sorted(c) == [0, 1, 3]

    def test_length1(self):
        ordering = class_ordering(1, Alphabet(5))
        classes = [counts for counts, _ in ordering.spans(0, 5)]
        assert len(ordering.compositions) == len(classes) == 5
        assert all(
            entropy_of_composition(Composition(c)).bits_per_symbol == 0.0 for c in classes
        )

    @pytest.mark.parametrize("n, size", [(5, 3), (9, 3), (6, 4), (7, 5), (6, 6)])
    def test_matches_brute_sort(self, n, size):
        # independent float-keyed sort of the compositions
        from oracles import brute_entropy_of_counts

        alphabet = Alphabet(size)
        ordering = class_ordering(n, alphabet)
        expected = sorted(
            compositions(n, size),
            key=lambda c: (brute_entropy_of_counts(c), c),
        )
        assert list(ordering.compositions) == expected

    @pytest.mark.parametrize(
        "size, first, second",
        [
            (5, (2, 2, 2, 2, 0), (4, 1, 1, 1, 1)),
            # prod n^n = 186,624 for both; float entropies put them the
            # other way round
            (4, (1, 1, 2, 6), (3, 0, 3, 4)),
        ],
        ids=["N8-A5", "N10-A4"],
    )
    def test_exact_tie_across_count_multisets(self, size, first, second):
        # distinct count multisets with exactly equal entropy: the order
        # between them must be purely lexicographic
        ordering = class_ordering(sum(first), Alphabet(size))
        entropies = [
            entropy_of_composition(Composition(c)).bits_per_symbol for c in (first, second)
        ]
        assert abs(entropies[0] - entropies[1]) < 1e-15
        assert ordering.class_span(first)[0] < ordering.class_span(second)[0]

    @pytest.mark.parametrize(
        "n, size",
        [
            (8, 5), (10, 4), (12, 6), (20, 4), (40, 3), (2, 7), (3, 9), (1, 12),
            # the smallest points with a 3-member exact-tie group
            (22, 5), (16, 6),
            # |A|=1, one class per symbol, two groups, the worked example
            (1, 1), (5, 1), (1, 7), (2, 30), (3, 3),
        ],
    )
    def test_matches_reference_order(self, n, size):
        ordering = class_ordering(n, Alphabet(size))
        classes, cumulative = reference_class_order(n, size)
        assert list(ordering.compositions) == classes
        assert [ordering.compositions[i] for i in range(len(classes))] == classes
        assert ordering.sequence_count == cumulative[-1]
        walk = list(ordering.spans(0, ordering.sequence_count))
        assert [counts for counts, _ in walk] == classes
        assert list(accumulate(size for _, size in walk)) == cumulative
        starts = [0] + cumulative[:-1]
        for counts, first, end in zip(classes, starts, cumulative):
            size = end - first
            assert ordering.class_span(counts) == (first, size)
            assert ordering.locate(first) == (counts, size, 0)
            assert ordering.locate(end - 1) == (counts, size, size - 1)
            assert list(ordering.spans(first, end)) == [(counts, size)]

    def test_float_keyed_order_n30_a7(self):
        # 1,947,792 classes in 1,598 groups, 190 of them exact ties.
        # reference_class_order takes about 12 s and 460 MiB here, so the
        # walk is held to the reference's sort key as it goes: strictly
        # increasing in (-prod c**c, counts), so no class repeats, one class
        # per composition, each of size n! / prod c!
        n, alphabet = 30, Alphabet(7)
        factorial = [math.factorial(c) for c in range(n + 1)]
        by_multiset = {}
        previous = None
        classes = sequences = 0
        for counts, size in class_ordering(n, alphabet).spans(0, 7**n):
            multiset = tuple(sorted(counts))
            if multiset not in by_multiset:
                by_multiset[multiset] = (
                    -math.prod(c**c for c in multiset),
                    factorial[n] // math.prod(factorial[c] for c in multiset),
                )
            key, class_size = by_multiset[multiset]
            assert previous is None or previous < (key, counts)
            assert size == class_size
            previous = (key, counts)
            classes += 1
            sequences += size
        assert classes == composition_count(n, alphabet)
        assert sequences == 7**n

    @pytest.mark.parametrize(
        "first, second",
        [((0, 0, 7, 7, 8), (1, 1, 2, 4, 14)), ((1, 1, 3, 8, 9), (1, 3, 3, 3, 12))],
    )
    def test_exact_tie_with_unequal_float_keys_n22_a5(self, first, second):
        # sum c ln c over the ascending counts, as the build sums its table
        def float_key(counts):
            return sum(c * math.log(c) for c in sorted(counts) if c)

        assert float_key(first) != float_key(second)
        assert math.prod(c**c for c in first) == math.prod(c**c for c in second)
        # every permutation of both multisets: one tie group, whose classes
        # follow each other in lexicographic order
        members = sorted(set(permutations(first)) | set(permutations(second)))
        ordering = class_ordering(22, Alphabet(5))
        spans = [ordering.class_span(counts) for counts in members]
        for (start, size), (following, _) in zip(spans, spans[1:]):
            assert start + size == following

    def test_compositions_view(self):
        ordering = class_ordering(4, A3)
        view = ordering.compositions
        listed = list(view)
        assert len(view) == len(listed) == 15
        assert view[-1] == view[14] == listed[-1]
        assert view[3:9] == tuple(listed[3:9])
        with pytest.raises(IndexError):
            view[15]
        with pytest.raises(IndexError):
            view[-16]
        for r in (3**4, -1):
            with pytest.raises(RankOutOfRangeError):
                ordering.locate(r)
        for lo, hi in ((3**4, 3**4 + 1), (-1, 0)):
            with pytest.raises(RankOutOfRangeError):
                next(ordering.spans(lo, hi))

    def test_cumulative_strictly_increasing(self):
        ordering = class_ordering(6, A3)
        starts = [ordering.class_span(counts)[0] for counts, _ in ordering.spans(0, 3**6)]
        assert len(starts) == len(ordering.compositions)
        assert all(a < b for a, b in zip(starts, starts[1:]))
        assert ordering.sequence_count == 3**6

    def test_retained_memory_per_multiset(self):
        # one group per count multiset (8,029 at (100,4)), not one entry per
        # class (176,851): about 4 MiB retained, against 39 MiB for a table
        # of counts, cumulative sizes and an index per class
        tracemalloc.start()
        try:
            ordering = class_ordering(100, A4)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ordering.compositions) == composition_count(100, A4)
        assert retained < 13 * 2**20

    def test_build_peak_memory(self):
        # what the build holds at its peak, its array passes' temporaries
        # included: 3.6 MiB (3.0 MiB retained) with CPython 3.11 and numpy
        # 2.4, against 4.1 MiB when each group's values were a copy of its
        # multiset key and 5.3 MiB when each partition carried an exact
        # prod c**c key and a multinomial computed in Python.  The bound
        # adds a sixth to the 4.1 MiB for other interpreter and numpy
        # versions
        tracemalloc.start()
        try:
            class_ordering(100, A4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.75 * 2**20

    def test_values_share_the_key_ints(self):
        # above 256 every int is an object of its own: a group's values
        # hold the ints of its multiset key, not copies (a (1000,3) build
        # retains 55.2 MiB, 64.5 MiB when they were copies)
        ordering = class_ordering(300, A3)
        shared = 0
        for multiset, g in ordering._group_of.items():
            group = ordering._groups[g]
            if isinstance(group, _Permutations):
                for v in group.values:
                    assert any(v is c for c in multiset)
                    shared += v > 256
        assert shared == 506

    def test_class_cap(self):
        with pytest.raises(TooManyClassesError):
            class_ordering(100, Alphabet(4), max_classes=1000)

    def test_large_alphabet(self):
        assert len(class_ordering(1, Alphabet(1200)).compositions) == 1200
        # 720,600 classes of 1,200 counts: refused before anything is built
        with pytest.raises(TooManyClassesError):
            class_ordering(2, Alphabet(1200))


def _tie_groups(n, size):
    """Each group of classes of distinct count multisets with exactly equal
    entropy, in the reference class order: its rank range [first, end) and
    its number of multisets."""
    classes, cumulative = reference_class_order(n, size)
    rows = zip(classes, [0] + cumulative[:-1], cumulative)
    groups = []
    for _, tied in groupby(rows, key=lambda row: math.prod(x**x for x in row[0])):
        tied = list(tied)
        multisets = len({tuple(sorted(counts)) for counts, _, _ in tied})
        if multisets > 1:
            groups.append((tied[0][1], tied[-1][2], multisets))
    return groups


class TestSpans:
    """ClassOrdering.spans(lo, hi): each class meeting the ranks [lo, hi),
    in order, with how many of its sequences lie in the range."""

    def test_empty_range_yields_nothing(self):
        ordering = class_ordering(4, A3)
        for r in (0, 5, 27, 3**4):
            assert list(ordering.spans(r, r)) == []

    @pytest.mark.parametrize(
        "lo, hi",
        [(-1, 0), (-1, 5), (0, 3**4 + 1), (80, 3**4 + 1), (5, 4), (3**4 + 1, 3**4 + 1)],
    )
    def test_out_of_range_raises_before_yielding(self, lo, hi):
        spans = class_ordering(4, A3).spans(lo, hi)
        with pytest.raises(RankOutOfRangeError):
            next(spans)

    def test_every_range_n4_a3(self):
        ordering = class_ordering(4, A3)
        total = ordering.sequence_count
        ranges = [(lo, hi) for lo in range(total) for hi in range(lo + 1, total + 1)]
        assert len(ranges) == 3321
        for lo, hi in ranges:
            assert list(ordering.spans(lo, hi)) == reference_spans(4, 3, lo, hi)

    @pytest.mark.parametrize(
        "n, size, most_tied",
        [(8, 5, 2), (10, 4, 2), (22, 5, 3)],
        ids=["N8-A5", "N10-A4", "N22-A5"],
    )
    def test_random_ranges_around_exact_ties(self, n, size, most_tied):
        ordering = class_ordering(n, Alphabet(size))
        _, cumulative = reference_class_order(n, size)
        boundaries = set([0] + cumulative)
        ties = _tie_groups(n, size)
        assert max(multisets for _, _, multisets in ties) == most_tied
        rng = random.Random(1000 * n + size)
        total = ordering.sequence_count
        ranges = []
        for first, end, _ in ties:
            # starting before or inside the group, ending inside or after it
            for _ in range(24):
                lo = rng.randrange(max(0, first - 3 * (end - first)), end)
                hi = rng.randrange(lo + 1, min(total, end + 3 * (end - first)) + 1)
                ranges.append((lo, hi))
        assert any(lo < first and end < hi for first, end, _ in ties for lo, hi in ranges)
        assert any(first < lo < end for first, end, _ in ties for lo, _ in ranges)
        for _ in range(20):
            lo = rng.randrange(total)
            ranges.append((lo, rng.randrange(lo + 1, total + 1)))
        assert any(lo not in boundaries and hi not in boundaries for lo, hi in ranges)
        for lo, hi in ranges:
            spans = list(ordering.spans(lo, hi))
            assert spans == reference_spans(n, size, lo, hi)
            assert sum(included for _, included in spans) == hi - lo


class TestTieWalk:
    @pytest.mark.parametrize("n, size", [(8, 5), (10, 4), (22, 5)])
    def test_walk_from_every_class(self, n, size):
        # walk(j) yields the tie's classes from j on, each with its size
        ties = [g for g in class_ordering(n, Alphabet(size))._groups if isinstance(g, _Tie)]
        assert ties
        for tie in ties:
            for j in range(tie.classes):
                sizes = [end - start for start, end in zip(tie.offsets[j:], tie.offsets[j + 1 :])]
                assert list(tie.walk(j)) == list(zip(tie.members[j:], sizes))


def _merge_runs(rows):
    """(distinct counts, classes, ranks) rows with consecutive equal distinct
    counts summed into one."""
    merged = []
    for key, run in groupby(rows, key=lambda row: row[0]):
        run = list(run)
        merged.append((key, sum(row[1] for row in run), sum(row[2] for row in run)))
    return merged


def _by_multiset(spans):
    """ClassOrdering.spans rows grouped by each class's distinct counts."""
    return _merge_runs((tuple(sorted(set(counts))), 1, included) for counts, included in spans)


class TestMultisetSpans:
    """ClassOrdering.multiset_spans(hi): the classes meeting the ranks
    [0, hi) one count multiset at a time, which is spans(0, hi) grouped by
    multiset outside exact ties and by class inside them, each row keyed by
    its first class."""

    @pytest.mark.parametrize(
        "n, size", [(8, 5), (10, 4), (12, 6), (22, 5)], ids=["N8-A5", "N10-A4", "N12-A6", "N22-A5"]
    )
    def test_spans_grouped_by_multiset(self, n, size):
        ordering = class_ordering(n, Alphabet(size))
        total = ordering.sequence_count
        ties = _tie_groups(n, size)
        assert ties
        # every class of spans(0, total), with its first rank, and the runs of
        # consecutive classes of one multiset outside a tie, or of one class
        # inside it, each with its first class and first rank: spans(0, hi)
        # grouped is the runs before the one holding rank hi - 1, then that
        # run cut at hi
        classes, sizes = zip(*ordering.spans(0, total))
        starts = list(accumulate(sizes, initial=0))
        keys = [
            counts if any(first <= start < end for first, end, _ in ties) else tuple(sorted(counts))
            for counts, start in zip(classes, starts)
        ]
        run_firsts = [i for i in range(len(keys)) if i == 0 or keys[i] != keys[i - 1]]
        runs = _merge_runs(zip(keys, repeat(1), sizes))
        assert len(runs) == len(run_firsts)
        # a multiset's first class is the multiset ascending
        assert all(classes[i] == keys[i] for i in run_firsts)
        assert len(run_firsts) < len(classes)

        def grouped(hi):
            if hi == 0:
                return []
            met = bisect_left(starts, hi)  # classes starting below hi
            r = bisect_right(run_firsts, met - 1) - 1
            first = run_firsts[r]
            return runs[:r] + [(keys[first], met - first, hi - starts[first])]

        # the first rank of each row of the whole walk: every group's, and
        # every tied class's
        rows = ordering.multiset_spans(total)
        firsts = list(accumulate((ranks for _, _, ranks in rows), initial=0))
        rng = random.Random(100 * n + size)
        random_his = [rng.randrange(1, total) for _ in range(12)]
        his = {0, 1, total, *random_his}
        his.update(first + d for first in firsts for d in (-1, 0, 1) if 0 <= first + d <= total)
        for hi in sorted(his):
            walk = list(ordering.multiset_spans(hi))
            assert walk == grouped(hi)
            assert sum(ranks for _, _, ranks in walk) == hi
        for hi in (0, 1, total, *random_his):
            by_distinct = [
                (tuple(sorted(set(first))), met, ranks)
                for first, met, ranks in ordering.multiset_spans(hi)
            ]
            assert _merge_runs(by_distinct) == _by_multiset(ordering.spans(0, hi))

    def test_one_row_per_multiset_outside_ties(self):
        # (22,5): each multiset outside an exact tie is one row, and each
        # class inside one is a row of its own
        ordering = class_ordering(22, Alphabet(5))
        walk = list(ordering.multiset_spans(ordering.sequence_count))
        classes, cumulative = reference_class_order(22, 5)
        ties = _tie_groups(22, 5)
        tied = [
            counts
            for counts, start in zip(classes, [0] + cumulative[:-1])
            if any(first <= start < end for first, end, _ in ties)
        ]
        untied = {tuple(sorted(c)) for c in classes} - {tuple(sorted(c)) for c in tied}
        assert len(walk) == len(untied) + len(tied) < len(classes)
        assert sum(met for _, met, _ in walk) == ordering.class_count

    @pytest.mark.parametrize("hi", [-1, 3**4 + 1])
    def test_out_of_range_raises_before_yielding(self, hi):
        walk = class_ordering(4, A3).multiset_spans(hi)
        with pytest.raises(RankOutOfRangeError):
            next(walk)


class TestRankInClass:
    def test_113_family(self):
        assert rank_in_class(parse_sequence("1 1 3", A3)) == 0
        assert rank_in_class(parse_sequence("1 3 1", A3)) == 1
        assert rank_in_class(parse_sequence("3 1 1", A3)) == 2

    def test_constant(self):
        assert rank_in_class(parse_sequence("2 2 2", A3)) == 0

    def test_unrank_examples(self):
        assert unrank_in_class(Composition((2, 0, 1)), 1).symbols == (0, 2, 0)
        assert unrank_in_class(Composition((3, 0, 0)), 0).symbols == (0, 0, 0)
        assert unrank_in_class(Composition((1, 1, 1)), 5).symbols == (2, 1, 0)

    def test_out_of_range(self):
        with pytest.raises(RankOutOfRangeError):
            unrank_in_class(Composition((2, 0, 1)), 3)
        with pytest.raises(RankOutOfRangeError):
            unrank_in_class(Composition((2, 0, 1)), -1)

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(
            lambda c: 1 <= sum(c) <= 8
        )
    )
    @settings(max_examples=40)
    def test_matches_sorted_enumeration(self, counts):
        counts = tuple(counts)
        perms = multiset_permutations(counts)
        alphabet = Alphabet(len(counts))
        for i, t in enumerate(perms):
            assert rank_in_class(Sequence(alphabet, t)) == i
            assert unrank_in_class(Composition(counts), i).symbols == t


class TestLexLoopsAgainstReference:
    """_lex_rank and _lex_unrank, which take each position's smaller symbols
    in one step, against the loops with one step per smaller symbol."""

    @pytest.mark.parametrize(
        "counts", [(2, 0, 1), (0, 3, 0, 2), (1, 1, 1, 1), (2, 0, 0, 2, 1, 0), (4,), (0, 0, 5)]
    )
    def test_every_rank_of_small_classes(self, counts):
        size = multinomial(Composition(counts))
        for r in range(size):
            symbols = _lex_unrank(counts, size, r)
            assert symbols == reference_lex_unrank(counts, size, r)
            assert _lex_rank(symbols, list(counts), size) == r
            assert reference_lex_rank(symbols, list(counts), size) == r

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(1, 16),
        length=st.integers(1, 300),
        data=st.data(),
    )
    def test_random_multisets(self, size, length, data):
        # zero counts and symbols missing at either end included
        weights = data.draw(st.lists(st.integers(0, 5), min_size=size, max_size=size))
        if not any(weights):
            weights[data.draw(st.integers(0, size - 1))] = 1
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        symbols = rng.choices(range(size), weights=weights, k=length)
        counts = counts_of(symbols, size)
        remaining = multinomial(Composition(counts))
        r = _lex_rank(symbols, list(counts), remaining)
        assert r == reference_lex_rank(symbols, list(counts), remaining)
        assert _lex_unrank(counts, remaining, r) == symbols
        for r in {0, remaining - 1, rng.randrange(remaining)}:
            assert _lex_unrank(counts, remaining, r) == reference_lex_unrank(
                counts, remaining, r
            )


class TestGlobalRank:
    def test_worked_example_ranks(self):
        ordering = class_ordering(3, A3)
        assert rank_sequence(parse_sequence("3 3 3", A3), ordering) == 0
        assert rank_sequence(parse_sequence("1 1 1", A3), ordering) == 2
        assert unrank_sequence(3, A3, 26, ordering).symbols == (2, 1, 0)  # "3 2 1"

    @pytest.mark.parametrize("n,size", [(3, 3), (4, 3), (5, 3), (3, 4), (4, 4)])
    def test_matches_exhaustive_sort_oracle(self, n, size):
        alphabet = Alphabet(size)
        ordering = class_ordering(n, alphabet)
        expected = entropy_sorted_tuples(n, size)
        for r, t in enumerate(expected):
            assert rank_sequence(Sequence(alphabet, t), ordering) == r
            assert unrank_sequence(n, alphabet, r, ordering).symbols == t

    def test_bijection_exhaustive(self):
        for n, size in [(7, 3), (9, 3), (6, 4)]:
            alphabet = Alphabet(size)
            ordering = class_ordering(n, alphabet)
            seen = set()
            for t in all_tuples(n, size):
                seen.add(rank_sequence(Sequence(alphabet, t), ordering))
            assert seen == set(range(size**n))

    def test_round_trip_large_n(self):
        n, size = 50, 4
        alphabet = Alphabet(size)
        ordering = class_ordering(n, alphabet)
        rng = random.Random(20240817)
        total = size**n
        assert total > 2**64  # arbitrary-precision territory
        for _ in range(200):
            r = rng.randrange(total)
            s = unrank_sequence(n, alphabet, r, ordering)
            assert rank_sequence(s, ordering) == r
        for _ in range(200):
            t = tuple(rng.randrange(size) for _ in range(n))
            s = Sequence(alphabet, t)
            assert unrank_sequence(
                n, alphabet, rank_sequence(s, ordering), ordering
            ) == s

    def test_round_trip_every_sequence_n8_a5(self):
        # the smallest point with an exact tie between count multisets:
        # (2,2,2,2,0) and (4,1,1,1,1) and their permutations interleave
        alphabet = Alphabet(5)
        ordering = class_ordering(8, alphabet)
        ranks = set()
        for t in all_tuples(8, 5):
            s = Sequence(alphabet, t)
            r = rank_sequence(s, ordering)
            assert unrank_sequence(8, alphabet, r, ordering) == s
            ranks.add(r)
        assert ranks == set(range(5**8))

    def test_round_trip_around_exact_tie_n10_a4(self):
        # every rank of the tied (1,1,2,6) / (3,0,3,4) group and of the
        # five classes on either side of it
        ordering = class_ordering(10, A4)
        classes, cumulative = reference_class_order(10, 4)
        tied = [i for i, c in enumerate(classes) if sorted(c) in ([1, 1, 2, 6], [0, 3, 3, 4])]
        lo, hi = tied[0] - 5, tied[-1] + 6
        first = ordering.class_span(classes[lo])[0]
        end = ordering.class_span(classes[hi])[0]
        assert (first, end) == (cumulative[lo - 1], cumulative[hi - 1])
        for r in range(first, end):
            s = unrank_sequence(10, A4, r, ordering)
            assert rank_sequence(s, ordering) == r
            counts = counts_of(s.symbols, 4)
            assert counts == classes[bisect_right(cumulative, r)] == ordering.locate(r)[0]

    def test_entropy_monotone_in_rank(self):
        ordering = class_ordering(5, A3)
        entropies = [
            empirical_entropy(unrank_sequence(5, A3, r, ordering)).bits_per_symbol
            for r in range(3**5)
        ]
        for a, b in zip(entropies, entropies[1:]):
            assert a <= b + 1e-9

    def test_rank_range_checks(self):
        ordering = class_ordering(3, A3)
        with pytest.raises(RankOutOfRangeError):
            unrank_sequence(3, A3, 27, ordering)
        with pytest.raises(ValueError):
            rank_sequence(parse_sequence("1 1", A3), ordering)
        with pytest.raises(ValueError):
            unrank_sequence(4, A3, 0, ordering)
