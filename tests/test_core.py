import itertools
import math
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setshaping import (
    Alphabet,
    Composition,
    Sequence,
    composition_of,
    distinct_symbol_count,
    empirical_entropy,
    entropy_of_composition,
    format_sequence,
    parse_sequence,
    weighted_entropy,
)
from setshaping.errors import (
    EmptyCompositionError,
    EmptySequenceError,
    SequenceParseError,
)

from oracles import (
    all_tuples,
    brute_entropy,
    compositions,
    counts_of,
    reference_parse_sequence,
)

A3 = Alphabet(3)


def seq(text, alphabet=A3):
    return parse_sequence(text, alphabet)


class TestComposition:
    def test_counts_113(self):
        assert composition_of(seq("1 1 3")).counts == (2, 0, 1)

    def test_counts_constant(self):
        assert composition_of(seq("1 1 1")).counts == (3, 0, 0)

    def test_counts_1231(self):
        # cross-checked against an independent frequency tally
        s = seq("1 2 3 1")
        assert composition_of(s).counts == (2, 1, 1)
        assert composition_of(s).counts == counts_of(s.symbols, 3)

    def test_total(self):
        assert composition_of(seq("1 2 3 1")).total == 4
        assert Composition((0, 0, 0)).total == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Composition((1, -1, 0))


class TestEntropy:
    def test_weighted_221(self):
        s = seq("2 2 1")
        assert weighted_entropy(s) == pytest.approx(2.755, abs=1e-3)
        assert empirical_entropy(s).bits_per_symbol == pytest.approx(0.9183, abs=1e-4)

    def test_constant_is_zero(self):
        assert weighted_entropy(seq("1 1 1")) == 0.0

    def test_full_support_123(self):
        assert weighted_entropy(seq("1 2 3")) == pytest.approx(4.755, abs=1e-3)
        assert empirical_entropy(seq("1 2 3")).bits_per_symbol == pytest.approx(
            math.log2(3)
        )

    def test_weighted_2111(self):
        assert weighted_entropy(seq("2 1 1 1")) == pytest.approx(3.245, abs=1e-3)

    def test_weighted_3333(self):
        assert weighted_entropy(seq("3 3 3 3")) == 0.0

    def test_weighted_length5_skew(self):
        # frozen from the direct H0 formula; brute log-sum agrees
        s = seq("1 1 1 2 3")
        assert weighted_entropy(s) == pytest.approx(6.854752972273344, rel=1e-12)
        assert weighted_entropy(s) == pytest.approx(5 * brute_entropy(s.symbols))

    def test_composition_entropy_examples(self):
        assert entropy_of_composition(Composition((2, 1, 0))).bits_per_symbol == (
            pytest.approx(0.9183, abs=1e-4)
        )
        assert entropy_of_composition(Composition((4, 0, 0))).bits_per_symbol == 0.0
        assert entropy_of_composition(Composition((1, 1, 1))).bits_per_symbol == (
            pytest.approx(math.log2(3))
        )

    def test_base_parameter(self):
        s = seq("1 2 3")
        assert empirical_entropy(s, base=3.0).bits_per_symbol == pytest.approx(1.0)
        with pytest.raises(ValueError):
            empirical_entropy(s, base=1.0)

    @pytest.mark.parametrize("base", [math.nan, math.inf, 1.0, 0.5])
    def test_base_must_be_finite_above_one(self, base):
        with pytest.raises(ValueError):
            entropy_of_composition(Composition((1, 2)), base)

    @pytest.mark.parametrize("n, size", [(6, 4), (9, 6)])
    def test_permutations_give_one_float(self, n, size):
        # one float per multiset: the terms are summed in sorted order
        multisets = {tuple(sorted(c)) for c in compositions(n, size)}
        for counts in multisets:
            values = {
                entropy_of_composition(Composition(p)).bits_per_symbol
                for p in set(itertools.permutations(counts))
            }
            assert len(values) == 1, counts

    def test_empty_sequence_rejected(self):
        with pytest.raises(EmptySequenceError):
            empirical_entropy(Sequence(A3, ()))
        with pytest.raises(EmptySequenceError):
            weighted_entropy(Sequence(A3, ()))

    def test_empty_composition_rejected(self):
        with pytest.raises(EmptyCompositionError):
            entropy_of_composition(Composition((0, 0, 0)))

    def test_same_arithmetic_path(self):
        # exact equality demanded: both route through the same formula
        for t in all_tuples(4, 3):
            s = Sequence(A3, t)
            assert (
                empirical_entropy(s).bits_per_symbol
                == entropy_of_composition(composition_of(s)).bits_per_symbol
            )


class TestDistinctSymbols:
    def test_examples(self):
        assert distinct_symbol_count(seq("1 1 3")) == 2
        assert distinct_symbol_count(seq("1 1 1 1")) == 1

    def test_average_over_length3_set(self):
        total = sum(
            distinct_symbol_count(Sequence(A3, t)) for t in all_tuples(3, 3)
        )
        assert total == 57  # 57/27 = 2.111...


@st.composite
def sequences(draw, max_size=4, max_len=12):
    size = draw(st.integers(1, max_size))
    symbols = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=max_len))
    return Sequence(Alphabet(size), tuple(symbols))


class TestInvariants:
    @given(sequences())
    def test_entropy_bounds(self, s):
        h = empirical_entropy(s).bits_per_symbol
        assert -1e-12 <= h <= math.log2(s.alphabet.size) + 1e-12
        counts = composition_of(s).counts
        if max(counts) == s.length:
            assert h == 0.0
        used = [c for c in counts if c]
        if len(set(used)) == 1 and len(used) == s.alphabet.size:
            assert h == pytest.approx(math.log2(s.alphabet.size))

    @given(sequences(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, s, rnd):
        shuffled = list(s.symbols)
        rnd.shuffle(shuffled)
        p = Sequence(s.alphabet, tuple(shuffled))
        assert empirical_entropy(p) == empirical_entropy(s)
        assert distinct_symbol_count(p) == distinct_symbol_count(s)

    @given(sequences())
    def test_matches_brute_oracle(self, s):
        assert empirical_entropy(s).bits_per_symbol == pytest.approx(
            brute_entropy(s.symbols), abs=1e-12
        )

    @given(st.permutations([3, 1, 0, 2]))
    def test_composition_permutation_invariance(self, counts):
        base_val = entropy_of_composition(Composition((3, 1, 0, 2)))
        assert entropy_of_composition(
            Composition(tuple(counts))
        ).bits_per_symbol == pytest.approx(base_val.bits_per_symbol, abs=1e-12)


class TestTextFormat:
    def test_round_trip(self):
        s = seq("2 1 1")
        assert parse_sequence(format_sequence(s), A3) == s

    def test_comma_separated(self):
        assert seq("2,1,1").symbols == (1, 0, 0)
        assert seq(" 2, 1  3 ").symbols == (1, 0, 2)

    def test_empty_text(self):
        assert seq("").symbols == ()
        assert seq("  \n").symbols == ()

    def test_bad_token(self):
        with pytest.raises(SequenceParseError):
            seq("1 x 2")

    def test_out_of_range(self):
        with pytest.raises(SequenceParseError, match=r"^symbol 4 outside 1\.\.3$"):
            seq("1 4 2")
        with pytest.raises(SequenceParseError, match=r"^symbol 0 outside 1\.\.3$"):
            seq("0 1 2")
        with pytest.raises(SequenceParseError, match=r"^symbol -1 outside 1\.\.3$"):
            seq("1 -1 2")

    def test_symbols_validated(self):
        with pytest.raises(ValueError):
            Sequence(A3, (0, 3))
        with pytest.raises(ValueError):
            Alphabet(0)


# separators: commas, ASCII whitespace, the information separators
# \x1c-\x1f, NEL, no-break space, an en quad and the ideographic space
_SEPARATOR_CHARS = ", \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2000\u3000"
_separators = st.text(_SEPARATOR_CHARS, min_size=1, max_size=3)
_tokens = st.one_of(
    st.integers(-2, 7).map(str),
    st.sampled_from(["+1", "01", "+02", "1_0", "x", "1.5", "1\u200b", "\u0663"]),
)


@st.composite
def separated_texts(draw):
    """Tokens joined by separator runs, with or without separators (or a
    lone comma) in front and behind."""
    tokens = draw(st.lists(_tokens, max_size=12))
    text = ""
    for token in tokens:
        text += draw(_separators) + token
    text += draw(st.sampled_from(["", ",", " ", ",\n", "\u3000,"]))
    if draw(st.booleans()):
        text = text.lstrip(_SEPARATOR_CHARS)
    return text


class TestParseAgainstRegexTokenizer:
    """parse_sequence against the regex tokenizer it replaced (oracles)."""

    def _check(self, text, size):
        try:
            want = reference_parse_sequence(text, size)
        except ValueError as expected:
            with pytest.raises(SequenceParseError) as raised:
                parse_sequence(text, Alphabet(size))
            assert str(raised.value) == str(expected)
        else:
            assert parse_sequence(text, Alphabet(size)).symbols == want

    @given(separated_texts(), st.integers(1, 5))
    def test_separated_tokens(self, text, size):
        self._check(text, size)

    @given(
        st.text(_SEPARATOR_CHARS + "0123456789+-_x.\u200b", max_size=30),
        st.integers(1, 12),
    )
    def test_any_text(self, text, size):
        self._check(text, size)

    def test_every_code_point_splits_alike(self):
        # str.split and re's \s agree on whitespace over all of Unicode
        text = "x".join(map(chr, range(sys.maxunicode + 1)))
        want = [t for t in re.split(r"[,\s]+", text.strip()) if t]
        assert text.replace(",", " ").split() == want
