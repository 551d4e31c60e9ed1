import pytest

from setshaping import (
    Alphabet,
    Sequence,
    class_ordering,
    composition_of,
    inverse_transform,
    parse_sequence,
    shaped_subset_stats,
    transform,
    unrank_sequence,
    weighted_entropy,
)
from setshaping.shaping import ShapingParams, shared_ordering
from setshaping.errors import (
    AlphabetTooSmallError,
    BadLengthError,
    NotInShapedSubsetError,
)

from oracles import all_tuples, brute_entropy, entropy_sorted_tuples

A3 = Alphabet(3)
A4 = Alphabet(4)
P331 = ShapingParams(length=3, alphabet=A3, extra_length=1)


class TestParams:
    def test_alphabet_restriction(self):
        with pytest.raises(AlphabetTooSmallError):
            ShapingParams(length=3, alphabet=Alphabet(2))
        with pytest.raises(AlphabetTooSmallError):
            ShapingParams(length=3, alphabet=Alphabet(1))

    def test_range_checks(self):
        with pytest.raises(ValueError):
            ShapingParams(length=0, alphabet=A3)
        with pytest.raises(ValueError):
            ShapingParams(length=3, alphabet=A3, extra_length=0)

    def test_derived(self):
        assert P331.target_length == 4
        assert P331.subset_size == 27


class TestTransform:
    def test_constant_rows(self):
        for text, expected in [
            ("1 1 1", "1 1 1 1"),
            ("2 2 2", "2 2 2 2"),
            ("3 3 3", "3 3 3 3"),
        ]:
            assert str(transform(parse_sequence(text, A3), P331)) == expected

    def test_output_always_in_subset(self):
        target = shared_ordering(4, A3)
        from setshaping import rank_sequence

        for t in all_tuples(3, 3):
            image = transform(Sequence(A3, t), P331)
            assert image.length == 4
            assert rank_sequence(image, target) < 27

    def test_nonconstant_images_are_type_31(self):
        entropies = []
        for t in all_tuples(3, 3):
            if len(set(t)) == 1:
                continue
            image = transform(Sequence(A3, t), P331)
            assert sorted(composition_of(image).counts) == [0, 1, 3]
            entropies.append(weighted_entropy(image))
        assert len(entropies) == 24
        for h in entropies:
            assert h == pytest.approx(3.245, abs=1e-3)

    def test_length_mismatch(self):
        with pytest.raises(BadLengthError):
            transform(parse_sequence("1 1", A3), P331)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            transform(parse_sequence("1 1 1", A4), P331)


class TestInverse:
    def test_round_trip_all_27(self):
        for t in all_tuples(3, 3):
            s = Sequence(A3, t)
            assert inverse_transform(transform(s, P331), P331) == s

    def test_constant_row_inverted(self):
        assert str(inverse_transform(parse_sequence("1 1 1 1", A3), P331)) == "1 1 1"

    def test_full_support_rejected(self):
        # any 3-distinct-symbol length-4 string ranks >= 45 > 27
        with pytest.raises(NotInShapedSubsetError):
            inverse_transform(parse_sequence("1 2 3 1", A3), P331)

    def test_boundary(self):
        # rank 26 inverts; rank 27 is the first sequence outside the subset
        ordering = shared_ordering(4, A3)
        last_in = unrank_sequence(4, A3, 26, ordering)
        assert inverse_transform(last_in, P331).length == 3
        first_out = unrank_sequence(4, A3, 27, ordering)
        with pytest.raises(NotInShapedSubsetError):
            inverse_transform(first_out, P331)

    def test_length_mismatch(self):
        with pytest.raises(BadLengthError):
            inverse_transform(parse_sequence("1 1 1", A3), P331)


class TestBijectivity:
    @pytest.mark.parametrize(
        "n,size,k", [(2, 3, 1), (3, 3, 2), (4, 3, 1), (5, 3, 1), (3, 4, 1)]
    )
    def test_injective_and_invertible(self, n, size, k):
        alphabet = Alphabet(size)
        params = ShapingParams(length=n, alphabet=alphabet, extra_length=k)
        images = set()
        for t in all_tuples(n, size):
            s = Sequence(alphabet, t)
            image = transform(s, params)
            assert image.length == n + k
            images.add(image.symbols)
            assert inverse_transform(image, params) == s
        assert len(images) == size**n

    def test_rank_preserved(self):
        from setshaping import rank_sequence

        source = shared_ordering(3, A3)
        target = shared_ordering(4, A3)
        for t in all_tuples(3, 3):
            s = Sequence(A3, t)
            assert rank_sequence(s, source) == rank_sequence(
                transform(s, P331), target
            )


class TestSubsetStats:
    def test_worked_example_scale(self):
        stats = shaped_subset_stats(P331)
        assert stats.sequence_count == 27
        assert len(stats.class_census) == 9
        sizes = sorted(count for _, count in stats.class_census)
        assert sizes == [1, 1, 1, 4, 4, 4, 4, 4, 4]
        for comp, _ in stats.class_census:
            assert sum(1 for c in comp.counts if c) <= 2
        assert stats.max_entropy_in_subset == pytest.approx(3.245 / 4, abs=1e-3)

    def test_partial_boundary_class(self):
        # 81 = 3 + 30 + 4*10 + 8: the last (3,2)-type class is cut mid-class
        params = ShapingParams(length=4, alphabet=A3, extra_length=1)
        stats = shaped_subset_stats(params)
        assert stats.sequence_count == 81
        assert [c for _, c in stats.class_census][-1] == 8

    def test_max_entropy_is_boundary_class(self):
        # the boundary class (0,3,5) is the first of its multiset, so the
        # class before it has a lower entropy
        params = ShapingParams(length=5, alphabet=A3, extra_length=3)
        stats = shaped_subset_stats(params)
        assert stats.class_census[-1][0].counts == (0, 3, 5)
        subset = entropy_sorted_tuples(8, 3)[: 3**5]
        expected = max(brute_entropy(t) for t in subset)
        assert stats.max_entropy_in_subset == pytest.approx(expected, abs=1e-12)

    def test_length1(self):
        params = ShapingParams(length=1, alphabet=A3, extra_length=1)
        stats = shaped_subset_stats(params)
        assert stats.sequence_count == 3
        assert all(count == 1 for _, count in stats.class_census)
        assert all(
            max(comp.counts) == 2 for comp, _ in stats.class_census
        )  # constants of length 2
