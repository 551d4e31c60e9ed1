import random
import tracemalloc
from itertools import accumulate

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
    enumerate_compositions,
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
    counts_of,
    entropy_sorted_tuples,
    multiset_permutations,
    reference_class_order,
    reference_lex_rank,
    reference_lex_unrank,
)
from setshaping.combinatorics import _lex_rank, _lex_unrank

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
            total = sum(
                multinomial(c) for c in enumerate_compositions(n, Alphabet(size))
            )
            assert total == size**n


class TestEnumerateCompositions:
    def test_count_n3(self):
        comps = list(enumerate_compositions(3, A3))
        assert len(comps) == 10 == composition_count(3, A3)

    def test_count_n4(self):
        assert len(list(enumerate_compositions(4, A3))) == 15

    def test_n0(self):
        assert [c.counts for c in enumerate_compositions(0, A3)] == [(0, 0, 0)]

    def test_large_alphabet(self):
        comps = [c.counts for c in enumerate_compositions(1, Alphabet(1200))]
        assert len(comps) == 1200
        assert comps == sorted(comps)

    def test_lexicographic_and_complete(self):
        comps = [c.counts for c in enumerate_compositions(3, A3)]
        assert comps == sorted(comps)
        assert len(set(comps)) == len(comps)
        assert all(sum(c) == 3 for c in comps)


class TestClassOrdering:
    def test_zero_entropy_classes_first(self):
        ordering = class_ordering(3, A3)
        first = list(ordering.compositions[:3])
        assert first == [(0, 0, 3), (0, 3, 0), (3, 0, 0)]

    def test_cumulative_27_at_n4(self):
        ordering = class_ordering(4, A3)
        assert ordering.class_start(9) == 27
        for c in ordering.compositions[3:9]:
            assert sorted(c) == [0, 1, 3]

    def test_length1(self):
        ordering = class_ordering(1, Alphabet(5))
        assert len(ordering.compositions) == 5
        assert all(ordering.class_entropy(i) == 0.0 for i in range(5))

    @pytest.mark.parametrize("n, size", [(5, 3), (9, 3), (6, 4), (7, 5), (6, 6)])
    def test_matches_brute_sort(self, n, size):
        # independent float-keyed sort of the compositions
        from oracles import brute_entropy_of_counts

        alphabet = Alphabet(size)
        ordering = class_ordering(n, alphabet)
        expected = sorted(
            (c.counts for c in enumerate_compositions(n, alphabet)),
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
        i = ordering.class_index(Composition(first))
        j = ordering.class_index(Composition(second))
        assert abs(ordering.class_entropy(i) - ordering.class_entropy(j)) < 1e-15
        assert i < j

    @pytest.mark.parametrize(
        "n, size",
        [
            (8, 5), (10, 4), (12, 6), (20, 4), (40, 3), (2, 7), (3, 9), (1, 12),
            # the smallest points with a 3-member exact-tie group
            (22, 5), (16, 6),
        ],
    )
    def test_matches_reference_order(self, n, size):
        ordering = class_ordering(n, Alphabet(size))
        classes, cumulative = reference_class_order(n, size)
        assert list(ordering.compositions) == classes
        assert [ordering.compositions[i] for i in range(len(classes))] == classes
        assert list(accumulate(size for _, size in ordering.classes())) == cumulative
        starts = [0] + cumulative[:-1]
        assert [ordering.class_start(i) for i in range(len(classes))] == starts
        assert ordering.sequence_count == cumulative[-1]
        assert [ordering.class_index(Composition(c)) for c in classes] == list(
            range(len(classes))
        )
        for i, (first, end) in enumerate(zip(starts, cumulative)):
            assert ordering.class_of_rank(first) == i == ordering.class_of_rank(end - 1)
            size = end - first
            assert ordering.class_span(classes[i]) == (first, size)
            assert ordering.locate(first) == (classes[i], size, 0)
            assert ordering.locate(end - 1) == (classes[i], size, size - 1)

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
            ordering.class_start(-1)
        with pytest.raises(RankOutOfRangeError):
            ordering.class_of_rank(3**4)
        with pytest.raises(RankOutOfRangeError):
            ordering.class_of_rank(-1)

    def test_cumulative_strictly_increasing(self):
        ordering = class_ordering(6, A3)
        starts = [ordering.class_start(i) for i in range(len(ordering.compositions))]
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

    def test_class_cap(self):
        with pytest.raises(TooManyClassesError):
            class_ordering(100, Alphabet(4), max_classes=1000)

    def test_large_alphabet(self):
        assert len(class_ordering(1, Alphabet(1200)).compositions) == 1200
        # 720,600 classes of 1,200 counts: refused before anything is built
        with pytest.raises(TooManyClassesError):
            class_ordering(2, Alphabet(1200))


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
        classes, _ = reference_class_order(10, 4)
        tied = [i for i, c in enumerate(classes) if sorted(c) in ([1, 1, 2, 6], [0, 3, 3, 4])]
        lo, hi = tied[0] - 5, tied[-1] + 6
        for r in range(ordering.class_start(lo), ordering.class_start(hi)):
            s = unrank_sequence(10, A4, r, ordering)
            assert rank_sequence(s, ordering) == r
            assert counts_of(s.symbols, 4) == classes[ordering.class_of_rank(r)]

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
