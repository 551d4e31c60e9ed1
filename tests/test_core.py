import itertools
import math
import pickle
import random
import re
import sys
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from setshaping import (
    Alphabet,
    Composition,
    Sequence,
    SchemeFormat,
    build_code,
    composition_of,
    decode,
    distinct_symbol_count,
    empirical_entropy,
    encode,
    encode_message,
    entropy_of_composition,
    format_sequence,
    inverse_transform,
    parse_sequence,
    rank_in_class,
    transform,
    unrank_in_class,
    weighted_entropy,
)
from setshaping import core
from setshaping.shaping import ShapingParams
from setshaping.errors import (
    EmptyCompositionError,
    EmptySequenceError,
    SequenceParseError,
    TooLargeError,
)

from oracles import (
    all_tuples,
    brute_entropy,
    compositions,
    counts_of,
    reference_format,
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
        assert Composition(()).total == 0

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


@st.composite
def long_name_sequences(draw):
    """Up to 60 symbols over an alphabet of 1 to 1,200, so names run to
    four digits."""
    size = draw(st.integers(1, 1200))
    symbols = draw(st.lists(st.integers(0, size - 1), max_size=60))
    return Sequence(Alphabet(size), tuple(symbols))


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

    @pytest.mark.parametrize(
        "symbols",
        [
            (0.5, 1, True, np.int64(2)),
            # a value check would see {1, 1.0} as {1}
            (1, 1.0),
            (2, np.float64(1.0)),
            (0, Fraction(1)),
            (Decimal(2),),
            (0, "1"),
            (None,),
            (np.bool_(True),),
        ],
    )
    def test_symbols_must_be_integers(self, symbols):
        bad = next(s for s in symbols if type(s) not in (int, bool, np.int64))
        with pytest.raises(ValueError, match=rf"^symbol {re.escape(repr(bad))} is not an integer$"):
            Sequence(A3, symbols)

    def test_bool_symbols_accepted(self):
        # bool is an int subclass: True and False read as 1 and 0
        s = Sequence(A3, (True, False, True, 2))
        assert s == Sequence(A3, (1, 0, 1, 2))
        assert composition_of(s).counts == (1, 2, 1)
        assert format_sequence(s) == "2 1 2 3"
        assert rank_in_class(s) == rank_in_class(Sequence(A3, (1, 0, 1, 2)))
        for fmt in SchemeFormat:
            assert encode_message(s, fmt) == encode_message(Sequence(A3, (1, 0, 1, 2)), fmt)

    @pytest.mark.parametrize("size", [3, 300])
    def test_numpy_integer_symbols_accepted(self, size):
        # every numpy integer type reads by its __index__, in the byte array
        # of small alphabets and the wider ones of larger alphabets alike
        plain = (1, 0, 1, 2) * 300
        types = itertools.cycle((np.int64, np.uint8, np.int16, np.uint32))
        s = Sequence(Alphabet(size), tuple(t(v) for v, t in zip(plain, types)))
        assert s == Sequence(Alphabet(size), plain)
        assert composition_of(s) == composition_of(Sequence(Alphabet(size), plain))
        assert format_sequence(s) == " ".join(str(v + 1) for v in plain)
        for fmt in SchemeFormat:
            assert encode_message(s, fmt) == encode_message(Sequence(Alphabet(size), plain), fmt)
        with pytest.raises(ValueError, match="out of range"):
            Sequence(Alphabet(size), (np.int64(size),))

    @given(long_name_sequences())
    @example(Sequence(Alphabet(65535), (65534, 0, 9999, 65534)))
    def test_multi_digit_names_round_trip(self, s):
        text = format_sequence(s)
        assert text == " ".join(str(x + 1) for x in s.symbols)
        assert parse_sequence(text, s.alphabet) == s


def _refuse_range_checks(monkeypatch):
    """Make Sequence's own range check fail the test if anything runs it."""

    def refuse(*args):
        raise AssertionError("symbols range-checked a second time")

    monkeypatch.setattr(Sequence, "_check", refuse)


class TestSymbolsCheckedWhereTheyEnter:
    """parse_sequence, decode and the unrank paths make sequences whose
    symbols are in range by construction, without Sequence's own pass."""

    def test_parse(self, monkeypatch):
        _refuse_range_checks(monkeypatch)
        assert parse_sequence("2 1 3 1", A3).symbols == (1, 0, 2, 0)
        with pytest.raises(SequenceParseError, match=r"^symbol 4 outside 1\.\.3$"):
            parse_sequence("2 4 1", A3)

    def test_decode(self, monkeypatch):
        seq = Sequence(A3, (2, 0, 0, 1, 0))
        table = build_code(composition_of(seq))
        payload = encode(seq, table)
        _refuse_range_checks(monkeypatch)
        assert decode(payload, table, seq.length) == seq

    def test_unrank_in_class(self, monkeypatch):
        comp = Composition((2, 1, 0, 1))
        want = sorted(t for t in all_tuples(4, 4) if counts_of(t, 4) == comp.counts)
        _refuse_range_checks(monkeypatch)
        got = [unrank_in_class(comp, r) for r in range(len(want))]
        assert [s.symbols for s in got] == want
        assert {s.alphabet for s in got} == {Alphabet(4)}

    def test_transform_and_inverse(self, monkeypatch):
        params = ShapingParams(length=3, alphabet=A3, extra_length=1)
        seqs = [Sequence(A3, t) for t in all_tuples(3, 3)]
        shaped = [transform(s, params) for s in seqs]
        _refuse_range_checks(monkeypatch)
        assert [transform(s, params) for s in seqs] == shaped
        assert [inverse_transform(f, params) for f in shaped] == seqs


class TestSequenceInputs:
    """A Sequence packs whatever iterable it is given, so equality and hash
    do not depend on the container the symbols came in."""

    @pytest.mark.parametrize(
        "make",
        [list, lambda t: (s for s in t), np.array, lambda t: np.array(t, np.uint16)],
        ids=["list", "generator", "ndarray", "ndarray-uint16"],
    )
    def test_equals_the_tuple_built(self, make):
        want = Sequence(A3, (0, 1, 2, 2))
        got = Sequence(A3, make((0, 1, 2, 2)))
        assert got == want
        assert hash(got) == hash(want)
        assert got.symbols == (0, 1, 2, 2)
        assert got.length == 4

    def test_symbols_are_plain_ints(self):
        s = Sequence(A3, (True, 0, np.int64(2)))
        assert s.symbols == (1, 0, 2)
        assert [type(x) for x in s.symbols] == [int, int, int]

    def test_immutable(self):
        s = Sequence(A3, (0, 1))
        for name in ("alphabet", "symbols", "length"):
            with pytest.raises(FrozenInstanceError):
                setattr(s, name, None)
        with pytest.raises(FrozenInstanceError):
            del s.alphabet
        assert s.symbols == (0, 1)

    def test_alphabet_wider_than_64_bits(self):
        top = 2**64 - 1
        assert Sequence(Alphabet(2**64), (top, 0)).symbols == (top, 0)
        with pytest.raises(TooLargeError, match="wider than 64 bits"):
            Sequence(Alphabet(2**64 + 1), (0,))
        with pytest.raises(TooLargeError, match="wider than 64 bits"):
            parse_sequence("1", Alphabet(2**64 + 1))


# one alphabet each side of every step of the packed type (1, 2, 4 bytes)
_WIDTH_SIZES = [1, 3, 256, 257, 65536, 65537]


def _wide_symbols(size, n=2000):
    """n symbols over |A| = size: both ends of the alphabet, its middle and
    random symbols, enough for the grouped text join at small |A|."""
    rng = random.Random(size)
    picks = (0, size - 1, size // 2)
    return tuple(rng.choice(picks) if rng.random() < 0.5 else rng.randrange(size) for _ in range(n))


class TestPackedWidths:
    """Sequences in every packed type against the tuple they are built from."""

    @pytest.mark.parametrize("size", _WIDTH_SIZES)
    def test_against_the_tuple(self, size):
        alphabet = Alphabet(size)
        want = _wide_symbols(size)
        s = Sequence(alphabet, want)
        assert s.symbols == want
        assert s.length == len(want)
        same = Sequence(alphabet, list(want))
        assert s == same
        assert hash(s) == hash(same)
        assert s != Sequence(alphabet, want[:-1])
        if size > 1:
            assert s != Sequence(alphabet, want[:-1] + ((want[-1] + 1) % size,))
        assert s != Sequence(Alphabet(size + 1), want)
        assert repr(s) == f"Sequence(alphabet=Alphabet(size={size}), symbols={want!r})"
        back = pickle.loads(pickle.dumps(s))
        assert back == s
        assert back.symbols == want

    @pytest.mark.parametrize("size", _WIDTH_SIZES)
    def test_bool_and_numpy_integer_inputs(self, size):
        alphabet = Alphabet(size)
        want = _wide_symbols(size)
        types = itertools.cycle((np.int64, np.uint32, np.uint64, int))
        mixed = tuple(bool(v) if v < 2 else t(v) for v, t in zip(want, types))
        s = Sequence(alphabet, mixed)
        assert s == Sequence(alphabet, want)
        assert s.symbols == want
        assert {type(v) for v in s.symbols} == {int}

    @pytest.mark.parametrize("size", _WIDTH_SIZES)
    @pytest.mark.parametrize("n", [0, 1, 7, 2000])
    def test_format_and_composition(self, size, n):
        want = _wide_symbols(size, n)
        s = Sequence(Alphabet(size), want)
        assert format_sequence(s) == reference_format(want)
        assert parse_sequence(format_sequence(s), Alphabet(size)) == s
        assert composition_of(s).counts == counts_of(want, size)


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


_ascii_separators = st.text(
    [c for c in _SEPARATOR_CHARS if c.isascii()], min_size=1, max_size=3
)


@st.composite
def ascii_digit_texts(draw):
    """ASCII texts of one-digit tokens, which parse reads by byte tables,
    and, in half of them, one token it must split: "+1", "01" or "12"."""
    tokens = draw(st.lists(st.sampled_from("0123456789"), max_size=12))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(tokens)))
        tokens.insert(at, draw(st.sampled_from(["+1", "01", "12"])))
    text = "".join(draw(_ascii_separators) + token for token in tokens)
    text += draw(st.sampled_from(["", ",", " ", ",\n"]))
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
            got = parse_sequence(text, Alphabet(size))
            assert got.symbols == want
            # the same packed type as a Sequence built from the tuple
            assert hash(got) == hash(Sequence(Alphabet(size), want))

    @given(separated_texts(), st.integers(1, 5))
    def test_separated_tokens(self, text, size):
        self._check(text, size)

    @given(
        st.text(_SEPARATOR_CHARS + "0123456789+-_x.\u200b", max_size=30),
        st.integers(1, 12),
    )
    def test_any_text(self, text, size):
        self._check(text, size)

    @given(
        ascii_digit_texts(),
        st.one_of(st.integers(1, 10), st.sampled_from([256, 257, 300])),
    )
    @example("1 12 3", 256)
    @example("2,01\t3", 4)
    @example("+1\n2", 4)
    @example("1 2 3 4 5 6 7 8 9", 257)
    def test_ascii_digit_tokens(self, text, size):
        self._check(text, size)

    def test_byte_table_separators_are_split_whitespace(self):
        want = {c for c in range(128) if chr(c).isspace()} | {ord(",")}
        assert set(core._SEPARATORS) == want

    def test_every_code_point_splits_alike(self):
        # str.split and re's \s agree on whitespace over all of Unicode
        text = "x".join(map(chr, range(sys.maxunicode + 1)))
        want = [t for t in re.split(r"[,\s]+", text.strip()) if t]
        assert text.replace(",", " ").split() == want
