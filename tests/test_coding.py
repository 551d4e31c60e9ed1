import itertools
import math
import random
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from setshaping import (
    Alphabet,
    Bits,
    CodeTable,
    Composition,
    Container,
    SchemeFormat,
    Sequence,
    build_code,
    composition_of,
    decode,
    deserialize_scheme,
    empirical_entropy,
    encode,
    encode_message,
    format_sequence,
    pack_container,
    parse_sequence,
    serialize_scheme,
    total_compressed_length,
    unpack_container,
)
from setshaping import coding, core
from setshaping.bitio import (
    BitReader,
    BitWriter,
    _bits_from_string,
    _string_from_bits as _text,
)
from setshaping.cli import compress_sequence, restore_sequence
from setshaping.coding import (
    EncodedMessage,
    _huffman_lengths,
    _jump_depth,
    payload_bit_count,
    scheme_bit_count,
)
from setshaping.errors import (
    EmptyCompositionError,
    EmptySequenceError,
    MalformedPayloadError,
    SetShapingError,
    TooLargeError,
    UncodableSymbolError,
)

from oracles import (
    all_tuples,
    best_prefix_payload,
    compositions,
    counts_of,
    reference_codeword_join,
    reference_decode,
    reference_encode,
    reference_format,
)

A3 = Alphabet(3)

BOTH_FORMATS = [SchemeFormat.LENGTH_LIST, SchemeFormat.COUNT_TABLE]


class TestBitIO:
    def test_round_trip(self):
        w = BitWriter()
        w.write(0b101, 3)
        w.write(0, 2)
        w.write(0b11111111111, 11)
        bits = w.getvalue()
        assert bits.bit_length == 16
        r = BitReader(bits)
        assert r.read(3) == 0b101
        assert r.read(2) == 0
        assert r.read(11) == 0b11111111111
        assert r.remaining == 0

    def test_padding_is_zero(self):
        w = BitWriter()
        w.write(1, 1)
        bits = w.getvalue()
        assert bits.data == b"\x80"
        assert bits.bit_length == 1

    def test_overrun(self):
        r = BitReader(Bits(b"\x00", 3))
        r.read(3)
        with pytest.raises(MalformedPayloadError):
            r.read(1)

    def test_negative_bit_length_refused(self):
        with pytest.raises(ValueError, match="bit_length must be >= 0, got -5"):
            Bits(b"", -5)

    def test_value_range_checked(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(4, 2)
        with pytest.raises(ValueError):
            w.write(-1, 2)

    @given(st.lists(st.tuples(st.integers(0, 2**20), st.integers(1, 24))))
    @settings(max_examples=50)
    def test_random_round_trip(self, items):
        items = [(v & ((1 << n) - 1), n) for v, n in items]
        w = BitWriter()
        for v, n in items:
            w.write(v, n)
        r = BitReader(w.getvalue())
        assert [r.read(n) for _, n in items] == [v for v, _ in items]

    def test_every_width_1_to_64(self):
        rng = random.Random(64)
        items = [(1, 1)]  # one leading bit puts every later field off byte alignment
        for width in range(1, 65):
            for value in ((1 << width) - 1, 0, rng.getrandbits(width)):
                items.append((value, width))
        w = BitWriter()
        for v, n in items:
            w.write(v, n)
        bits = w.getvalue()
        assert bits.bit_length == sum(n for _, n in items)
        r = BitReader(bits)
        assert [r.read(n) for _, n in items] == [v for v, _ in items]
        assert r.remaining == 0

    @pytest.mark.parametrize("length", [*range(71), 170_000])
    def test_packing_against_reference(self, length):
        # each length's text against the int(text, 2) packing of a one-bit
        # code's join, which zero-pads the final byte; the writer gets the
        # same bits in fields of 1 to 64 bits, so some straddle bytes
        rng = random.Random(length)
        bits = [rng.getrandbits(1) for _ in range(length)]
        want = Bits(*reference_codeword_join(bits, (1, 1), (0, 1)))
        text = "".join(map(str, bits))
        assert _bits_from_string(text) == want
        w = BitWriter()
        pos = 0
        while pos < length:
            width = min(rng.randint(1, 64), length - pos)
            w.write(int(text[pos : pos + width], 2), width)
            pos += width
        assert w.getvalue() == want

    def test_zero_width(self):
        w = BitWriter()
        w.write(0, 0)
        assert w.bit_length == 0
        assert w.getvalue() == Bits.empty()
        w.write(0b10, 2)
        w.write(0, 0)
        assert w.getvalue() == Bits(b"\x80", 2)
        with pytest.raises(ValueError):
            w.write(1, 0)
        r = BitReader(Bits(b"\x80", 2))
        assert r.read(0) == 0
        assert r.read(2) == 0b10
        assert r.read(0) == 0
        assert r.remaining == 0
        with pytest.raises(ValueError):
            r.read(-1)

    def test_empty_stream(self):
        assert BitWriter().getvalue() == Bits.empty()
        r = BitReader(Bits.empty())
        assert r.remaining == 0
        assert r.read(0) == 0
        with pytest.raises(MalformedPayloadError):
            r.read_bit()

    def test_exact_byte_boundary(self):
        w = BitWriter()
        w.write(0xA5, 8)
        w.write(0x3C, 8)
        bits = w.getvalue()
        assert bits == Bits(b"\xa5\x3c", 16)
        r = BitReader(bits)
        assert r.read(8) == 0xA5
        assert [r.read_bit() for _ in range(8)] == [0, 0, 1, 1, 1, 1, 0, 0]
        with pytest.raises(MalformedPayloadError):
            r.read_bit()

    def test_overrun_by_one_bit(self):
        r = BitReader(Bits(b"\xff\xf8", 13))
        assert r.read(5) == 0b11111
        with pytest.raises(MalformedPayloadError):
            r.read(r.remaining + 1)
        assert r.remaining == 8  # a failed read consumes nothing
        assert r.read(8) == 0xFF


class TestBuildCode:
    def test_counts_211(self):
        table = build_code(Composition((2, 1, 1)))
        assert table.lengths == (1, 2, 2)
        assert table.codewords == (0b0, 0b10, 0b11)

    def test_single_symbol_convention(self):
        table = build_code(Composition((4, 0, 0)))
        assert table.lengths == (1, 0, 0)

    def test_equal_counts_tiebreak(self):
        table = build_code(Composition((1, 1, 1)))
        assert sorted(table.lengths) == [1, 2, 2]

    def test_empty_rejected(self):
        with pytest.raises(EmptyCompositionError):
            build_code(Composition((0, 0, 0)))

    def test_deterministic(self):
        comp = Composition((5, 5, 3, 3, 1))
        assert build_code(comp) == build_code(comp)

    def test_kraft_equality_when_multiple_symbols(self):
        for n in range(1, 7):
            for counts in compositions(n, 4):
                comp = Composition(counts)
                if comp.total == 0 or sum(1 for c in comp.counts if c) < 2:
                    continue
                num, denom = build_code(comp).kraft_sum_num_denom()
                assert num == denom

    def test_optimal_vs_brute_force_spot(self):
        for counts in [(2, 1, 1), (5, 3, 2), (1, 1, 1, 1), (7, 1, 1, 1)]:
            table = build_code(Composition(counts))
            assert payload_bit_count(Composition(counts), table) == (
                best_prefix_payload(counts)
            )


def heap_lengths(rows):
    return [build_code(Composition(tuple(row))).lengths for row in rows]


@st.composite
def count_rows(draw):
    """Rows of one alphabet size: zero counts, rows with one used symbol,
    and counts drawn from a few values so that nodes tie."""
    size = draw(st.integers(1, 32))
    values = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=3))
    count = st.one_of(st.just(0), st.sampled_from(values), st.integers(1, 10**6))
    lone = st.integers(0, size - 1).flatmap(
        lambda s: st.integers(1, 10**6).map(lambda c: [0] * s + [c] + [0] * (size - 1 - s))
    )
    row = st.one_of(st.lists(count, min_size=size, max_size=size), lone)
    return draw(st.lists(row.filter(any), min_size=1, max_size=8))


class TestHuffmanLengths:
    """The array pass the tallies use against build_code's heap."""

    @pytest.mark.parametrize(
        "size, top", [(1, 20), (2, 20), (3, 14), (4, 10), (5, 8), (6, 7), (7, 6), (8, 6)]
    )
    def test_every_composition(self, size, top):
        rows = [c for n in range(1, top + 1) for c in compositions(n, size)]
        lengths = _huffman_lengths(np.array(rows, np.int64))
        assert list(map(tuple, lengths.tolist())) == heap_lengths(rows)

    @given(count_rows())
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_rows(self, rows):
        lengths = _huffman_lengths(np.array(rows, np.int64))
        assert list(map(tuple, lengths.tolist())) == heap_lengths(rows)

    @pytest.mark.parametrize(
        "row, expected",
        [((1, 1, 1), [2, 2, 1]), ((2, 1, 1, 2), [2, 3, 3, 1]), ((0, 3, 3, 3, 0), [0, 2, 2, 1, 0])],
    )
    def test_ties_break_on_smallest_symbol(self, row, expected):
        # equal counts merge the node holding the smaller symbol first
        assert _huffman_lengths(np.array([row], np.int64)).tolist() == [expected]
        assert heap_lengths([row]) == [tuple(expected)]

    def test_lone_symbol_gets_one_bit(self):
        rows = [(0, 0, 7, 0), (5, 0, 0, 0), (2, 1, 0, 0)]
        assert _huffman_lengths(np.array(rows, np.int64)).tolist() == [
            [0, 0, 1, 0],
            [1, 0, 0, 0],
            [1, 1, 0, 0],
        ]
        assert _huffman_lengths(np.array([(9,)], np.int64)).tolist() == [[1]]

    def test_empty_row_rejected(self):
        with pytest.raises(EmptyCompositionError):
            _huffman_lengths(np.array([(1, 2, 0), (0, 0, 0)], np.int64))


class TestEncode:
    def test_given_table_2111(self):
        table = CodeTable.from_lengths(A3, (1, 2, 0))
        payload = encode(parse_sequence("2 1 1 1", A3), table)
        assert payload.bit_length == 5

    def test_constant_payload_is_n_bits(self):
        table = CodeTable.from_lengths(A3, (1, 0, 0))
        assert encode(parse_sequence("1 1 1 1", A3), table).bit_length == 4

    def test_uncodable_symbol(self):
        table = CodeTable.from_lengths(A3, (1, 2, 0))
        with pytest.raises(UncodableSymbolError):
            encode(parse_sequence("3 1", A3), table)

    def test_symbol_past_the_table_is_uncodable(self):
        # a table over a smaller alphabet has no codeword for the symbols
        # past it; those before it encode as usual, a group at a time in a
        # long message
        table = CodeTable.from_lengths(A3, (1, 2, 2))
        alphabet = Alphabet(5)
        with pytest.raises(UncodableSymbolError, match="^symbol 5 has no codeword$"):
            encode(Sequence(alphabet, (0, 4, 1)), table)
        symbols = tuple(random.Random(5).choices(range(3), k=20000))
        assert core._group_length(len(symbols), alphabet.size) > 1
        assert encode(Sequence(alphabet, symbols), table) == Bits(
            *reference_codeword_join(symbols, table.lengths, table.codewords)
        )

    def test_payload_counts_match_bits(self):
        rng = random.Random(99)
        for _ in range(50):
            size = rng.randint(2, 6)
            n = rng.randint(1, 40)
            t = tuple(rng.randrange(size) for _ in range(n))
            seq = Sequence(Alphabet(size), t)
            comp = composition_of(seq)
            table = build_code(comp)
            assert encode(seq, table).bit_length == payload_bit_count(comp, table)

    def test_entropy_sandwich_over_length3_set(self):
        # N*H0 <= payload < N*(H0+1) for every non-degenerate message
        for t in all_tuples(3, 3):
            if len(set(t)) == 1:
                continue
            seq = Sequence(A3, t)
            comp = composition_of(seq)
            payload = payload_bit_count(comp, build_code(comp))
            wh = 3 * empirical_entropy(seq).bits_per_symbol
            assert wh - 1e-9 <= payload < wh + 3


class TestDecode:
    def test_round_trip_all_27(self):
        for t in all_tuples(3, 3):
            seq = Sequence(A3, t)
            table = build_code(composition_of(seq))
            assert decode(encode(seq, table), table, 3) == seq

    def test_round_trip_random_large(self):
        rng = random.Random(4242)
        alphabet = Alphabet(5)
        for _ in range(300):
            t = tuple(rng.randrange(5) for _ in range(100))
            seq = Sequence(alphabet, t)
            table = build_code(composition_of(seq))
            assert decode(encode(seq, table), table, 100) == seq

    def test_peak_memory_of_a_long_decode(self):
        # about 0.8 M payload bits, enough that a per-bit array kept past
        # its use shows: the peak, 7.6 MiB, comes when the hop bits are
        # taken at every position, through an intp copy of the windows
        # (6.1 MiB); 7.2 MiB while the jump table is squared, the windows
        # kept for the hop starts, and 3.4 MiB when the 129k hop starts
        # expand into their symbols.  8.4 MiB when every bit position kept
        # its own symbol, and a view that kept the 3 MiB jump table to the
        # end read 11.1 MiB.  Traced, the decode takes about 0.18 s, 15
        # times its untraced time
        rng = random.Random(3)
        symbols = tuple(rng.choices(range(4), weights=(6, 2, 1, 1), k=500_000))
        seq = Sequence(Alphabet(4), symbols)
        table = build_code(composition_of(seq))
        payload = encode(seq, table)
        tracemalloc.start()
        try:
            decoded = decode(payload, table, seq.length)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decoded == seq
        assert peak < 11 * 2**20

    def test_empty_payload(self):
        table = CodeTable.from_lengths(A3, (1, 1, 0))
        assert decode(Bits.empty(), table, 0).symbols == ()

    def test_truncated_payload(self):
        seq = parse_sequence("1 2 3 1", A3)
        table = build_code(composition_of(seq))
        payload = encode(seq, table)
        clipped = Bits(payload.data[:-1] or b"", max(0, payload.bit_length - 8))
        with pytest.raises(MalformedPayloadError):
            decode(clipped, table, 4)

    def test_leftover_bits(self):
        seq = parse_sequence("1 2 3 1", A3)
        table = build_code(composition_of(seq))
        with pytest.raises(MalformedPayloadError):
            decode(encode(seq, table), table, 3)

    def test_unmatchable_pattern(self):
        # code (1,2,0): patterns starting 11 match nothing
        table = CodeTable.from_lengths(A3, (1, 2, 0))
        with pytest.raises(MalformedPayloadError, match="matches no codeword"):
            decode(Bits(b"\xc0", 2), table, 1)

    def test_code_without_codewords(self):
        # as the per-bit decoder: no bit to read is an exhausted stream, and
        # any first bit matches no codeword
        table = CodeTable.from_lengths(A3, (0, 0, 0))
        with pytest.raises(MalformedPayloadError, match="exhausted after 0 of 1"):
            decode(Bits.empty(), table, 1)
        with pytest.raises(MalformedPayloadError, match="^bit pattern 1 matches no"):
            decode(Bits(b"\x80", 1), table, 1)
        assert decode(Bits.empty(), table, 0).symbols == ()

    def test_table_with_more_lengths_than_its_alphabet(self):
        # decode's one check of the table's symbols is the decoded
        # sequence's range check: it fails even when the message uses only
        # symbols inside the alphabet
        wide = CodeTable.from_lengths(A3, (1, 2, 2))
        table = CodeTable(Alphabet(2), wide.lengths, wide.codewords)
        payload = encode(Sequence(A3, (0, 1, 0)), wide)
        with pytest.raises(ValueError, match="^symbol 2 has a codeword"):
            decode(payload, table, 3)

    @pytest.mark.parametrize("depth", [8, 9, 16, 17, 32, 33, 40, 64, 70])
    def test_deep_code_round_trip(self, depth, monkeypatch):
        # lengths (1, 2, ..., depth, depth): a complete code whose longest
        # codewords are far deeper than any lookup table could index; the
        # depths put the windows at both ends of each integer type, and
        # past 64 bits in byte strings of the payload's text
        texts = []
        monkeypatch.setattr(
            coding, "_string_from_bits", lambda bits: texts.append(bits) or _text(bits)
        )
        alphabet = Alphabet(depth + 1)
        table = CodeTable.from_lengths(alphabet, tuple(range(1, depth + 1)) + (depth,))
        assert table.max_length == depth
        rng = random.Random(depth)
        symbols = list(range(depth + 1)) * 2
        symbols += [rng.randrange(depth + 1) for _ in range(50)]
        rng.shuffle(symbols)
        seq = Sequence(alphabet, tuple(symbols))
        payload = encode(seq, table)
        assert decode(payload, table, seq.length) == seq
        with pytest.raises(MalformedPayloadError):
            decode(payload, table, seq.length + 1)
        assert len(texts) == (2 if depth > 64 else 0)

    def test_negative_symbol_count(self):
        # refused before the payload is read, whether or not it holds bits
        table = CodeTable.from_lengths(A3, (1, 2, 2))
        for payload in (Bits.empty(), Bits(b"\x00", 1)):
            with pytest.raises(ValueError, match="^negative symbol count -1$"):
                decode(payload, table, -1)

    def test_untrusted_length_fails_when_bits_run_out(self):
        table = build_code(Composition((2, 1, 1)))
        start = time.perf_counter()
        with pytest.raises(MalformedPayloadError, match="exhausted"):
            decode(Bits(b"\x00", 8), table, 10**18)
        assert time.perf_counter() - start < 1.0


class TestIntWindows:
    @pytest.mark.parametrize("types", coding._WINDOW_TYPES, ids=lambda t: str(t[0]))
    def test_window_at_every_bit_position(self, types):
        # one array in position order: the window at p is the integer of
        # the payload's text from p, zero past its end, as at the last
        # positions, whose windows run past it
        bits = types[0].itemsize * 8
        rng = random.Random(bits)
        for length in [*range(41), 1001]:
            text = "".join(rng.choices("01", k=length))
            windows = coding._int_windows(_pack(text).data, types, length + 1)
            assert windows.shape[0] > length
            padded = text + "0" * (len(windows) + bits)
            want = [int(padded[p : p + bits], 2) for p in range(len(windows))]
            assert windows.tolist() == want


# alphabet sizes on both sides of each dtype of the symbol array (a byte
# up to 256 symbols), of one-digit names (up to 9 symbols) and of the
# largest grouped alphabets
GRID_SIZES = (1, 2, 3, 4, 5, 9, 10, 16, 17, 64, 65, 255, 256, 257, 1000)


def _grid_lengths(size):
    """0, 1, and the message lengths on both sides of every step of
    _group_length, with every tail n mod g on each side."""
    lengths = {0, 1}
    g = 1
    for n in range(2, 1 << 16):
        step = core._group_length(n, size)
        if step != g:
            lengths.update(range(n - g, n + step))
            g = step
    # the steps above are all there are: g stops growing, also at |A| = 1,
    # where |A|**g never outgrows a table
    assert core._group_length(1 << 60, size) == g
    return sorted(lengths)


class TestGroupedJoinsAgainstReference:
    """encode and format_sequence look up a group of symbols at a time in
    long messages; every output must equal the one-symbol-at-a-time join."""

    @pytest.mark.parametrize("size", GRID_SIZES)
    def test_grid(self, size):
        alphabet = Alphabet(size)
        rng = random.Random(size)
        lengths = _grid_lengths(size)
        weights = [1 / (s + 1) for s in range(size)]
        message = rng.choices(range(size), weights=weights, k=lengths[-1])
        for n in lengths:
            symbols = tuple(message[:n])
            seq = Sequence(alphabet, symbols)
            counts = counts_of(symbols, size)
            assert composition_of(seq).counts == counts
            assert format_sequence(seq) == reference_format(symbols)
            if not n:
                continue
            table = build_code(Composition(counts))
            payload = Bits(
                *reference_codeword_join(symbols, table.lengths, table.codewords)
            )
            assert encode(seq, table) == payload
            for fmt in SchemeFormat:
                source = Composition(counts) if fmt is SchemeFormat.COUNT_TABLE else table
                assert encode_message(seq, fmt) == EncodedMessage(
                    serialize_scheme(source, fmt), payload
                )

    def test_code_deeper_than_64_bits(self):
        # test_deep_code_round_trip's 70-bit code; a code that deep needs 71
        # symbols, more than any grouped alphabet has
        depth = 70
        alphabet = Alphabet(depth + 1)
        table = CodeTable.from_lengths(alphabet, tuple(range(1, depth + 1)) + (depth,))
        rng = random.Random(depth)
        message = [rng.randrange(depth + 1) for _ in range(40000)]
        for n in [*_grid_lengths(depth + 1), len(message)]:
            symbols = tuple(message[:n])
            assert encode(Sequence(alphabet, symbols), table) == Bits(
                *reference_codeword_join(symbols, table.lengths, table.codewords)
            )


def _pack(text):
    """'0'/'1' text as Bits, zero-padded; independent of bitio."""
    if not text:
        return Bits.empty()
    pad = -len(text) % 8
    data = int(text + "0" * pad, 2).to_bytes((len(text) + pad) // 8, "big")
    return Bits(data, len(text))


@st.composite
def codes_and_messages(draw):
    """A code (complete from build_code, or any Kraft-feasible length list,
    so also incomplete ones), a message over its codable symbols, and that
    message's payload and length, mutated or not."""
    size = draw(st.integers(1, 8))
    if draw(st.booleans()):
        counts = draw(st.lists(st.integers(0, 30), min_size=size, max_size=size))
        assume(any(counts))
        table = build_code(Composition(tuple(counts)))
    else:
        lengths = draw(st.lists(st.integers(0, 7), min_size=size, max_size=size))
        while sum(2.0**-l for l in lengths if l) > 1:
            lengths = [l + 1 if l else 0 for l in lengths]
        table = CodeTable.from_lengths(Alphabet(size), tuple(lengths))
    codable = [s for s, l in enumerate(table.lengths) if l]
    symbols = draw(st.lists(st.sampled_from(codable), max_size=40)) if codable else []
    seq = Sequence(table.alphabet, tuple(symbols))
    text = "".join(format(table.codewords[s], f"0{table.lengths[s]}b") for s in symbols)
    n = len(symbols)
    mutations = ["none", "flip", "truncate", "extend", "n+1", "n-1"]
    mutation = draw(st.sampled_from(mutations))
    if mutation == "flip" and text:
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + "10"[int(text[i])] + text[i + 1 :]
    elif mutation == "truncate" and text:
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif mutation == "extend":
        text += draw(st.text("01", min_size=1, max_size=70))
    elif mutation == "n+1":
        n += 1
    elif mutation == "n-1" and n:
        n -= 1
    return table, seq, _pack(text), n


class TestDecodeAgainstReference:
    @given(codes_and_messages())
    @settings(max_examples=400)
    def test_same_result_as_per_bit_decoder(self, case):
        table, seq, payload, n = case
        expected = reference_encode(seq.symbols, table.lengths, table.codewords)
        assert encode(seq, table) == Bits(*expected)
        try:
            want = reference_decode(
                payload.data, payload.bit_length, table.lengths, table.codewords, n
            )
        except ValueError as expected:
            with pytest.raises(MalformedPayloadError) as raised:
                decode(payload, table, n)
            assert _error_kind(str(raised.value)) == _error_kind(str(expected))
        else:
            assert decode(payload, table, n).symbols == want


# message lengths on both sides of each step of the jump depth
_JUMP_STEPS = (255, 256, 1023, 1024, 4095, 4096, 16383, 16384, 65535, 65536)

# codes on both sides of each choice of decode's hop width: shortest
# codeword 1 and 2 (4 codewords a hop), 3 and 4 (2 a hop), 5 (one), a code
# exactly 8 bits deep, and one deeper than the 8-bit table
_HOP_CODES = {
    "complete": (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10),
    "complete8": (1, 2, 3, 4, 5, 6, 7, 8, 8),
    "incomplete": (1, 2, 0),
    "shortest2": (2, 2, 2, 3, 4, 4),
    "shortest3": (3, 3, 3, 3, 3, 3, 3, 4, 5, 6, 7, 8, 8),
    "shortest4": (4,) * 12 + (5,),
    "shortest5": (5,) * 31 + (6, 6),
}


def _hop_starts(ends, k):
    """The index of each hop's first codeword, for codewords ending at
    ends: from its start a hop reads the whole codewords that end within
    8 bits, at most k of them, and at least one."""
    starts, i = [], 0
    while i < len(ends):
        starts.append(i)
        begin = ends[i - 1] if i else 0
        j = i + 1
        while j < min(i + k, len(ends)) and ends[j] - begin <= 8:
            j += 1
        i = j
    return starts


class TestJumpDepthsAgainstReference:
    def test_lengths_straddle_every_step(self):
        depths = [_jump_depth(n) for n in _JUMP_STEPS]
        assert depths == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5]

    @pytest.mark.parametrize(
        "length, hops", [(101, False), (256, False), (4095, False), (4096, True), (100_000, True)]
    )
    def test_several_codewords_a_hop_from_4096(self, monkeypatch, length, hops):
        # a code at most 8 bits deep hops several codewords at a time, from
        # its hop tables, only from jump depth 3 (4,096 codewords): codec's
        # 101 symbols stay below, bulk's 100k above
        built = []

        def tables(*args):
            built.append(args)
            return hop_tables(*args)

        hop_tables = coding._hop_tables
        monkeypatch.setattr(coding, "_hop_tables", tables)
        table = CodeTable.from_lengths(Alphabet(4), (1, 2, 3, 3))
        rng = random.Random(length)
        seq = Sequence(Alphabet(4), tuple(rng.choices(range(4), (6, 2, 1, 1), k=length)))
        assert decode(encode(seq, table), table, length) == seq
        assert bool(built) == hops

    @pytest.mark.parametrize("length", _JUMP_STEPS)
    @pytest.mark.parametrize("lengths", _HOP_CODES.values(), ids=_HOP_CODES.keys())
    def test_mutations(self, length, lengths):
        """The mutations of codes_and_messages at codeword i inside a hop
        (the second codeword of a hop mid-message, where the hop holds
        two, and a hop between anchors where the chase jumps), at the last
        anchor and within the last 8 payload bits: flip its first bit, cut
        its last bit and all after it, or end the payload with it and read
        it with random bits after it, one codeword more or one less.  The
        decode gives the reference's symbols or its failure message, word
        for word."""
        table = CodeTable.from_lengths(Alphabet(len(lengths)), lengths)
        rng = random.Random(length)
        codable = [s for s, l in enumerate(lengths) if l]
        weights = [2.0 ** -lengths[s] for s in codable]
        words = [
            format(table.codewords[s], f"0{lengths[s]}b")
            for s in rng.choices(codable, weights, k=length)
        ]
        ends = list(itertools.accumulate(map(len, words)))
        text = "".join(words)
        # decode's hop width and jump depth, as its docstring gives them
        depth = _jump_depth(length)
        k = 1
        if max(lengths) <= 8 and depth >= 3:
            k = min(4, 8 // min(lengths[s] for s in codable))
            depth = max(depth - k.bit_length() + 1, 0)
        hops = _hop_starts(ends, k)
        middle = (len(hops) // 2 >> depth << depth) + (1 << depth >> 1)
        inside = hops[middle] + (hops[middle + 1] - hops[middle] > 1)
        last_anchor = hops[(len(hops) - 1) >> depth << depth]
        near_end = next(i for i, stop in enumerate(ends) if stop > len(text) - 8)
        cases = [(text, length)]
        for i in sorted({inside, last_anchor, near_end, length - 1}):
            start, stop = ends[i] - len(words[i]), ends[i]
            extra = "".join(rng.choices("01", k=rng.randint(1, 70)))
            cases += [
                (text[:start] + "10"[int(text[start])] + text[start + 1 :], length),
                (text[: stop - 1], length),
                (text[:stop] + extra, i + 1),
                (text[:stop], i + 2),
                (text[:stop], i),
            ]
        for bits, n in cases:
            payload = _pack(bits)
            try:
                want = reference_decode(
                    payload.data, payload.bit_length, lengths, table.codewords, n
                )
            except ValueError as expected:
                with pytest.raises(MalformedPayloadError) as raised:
                    decode(payload, table, n)
                assert str(raised.value) == str(expected)
            else:
                assert decode(payload, table, n).symbols == want


def _error_kind(message):
    """Which of the three ways a decode can fail a message names."""
    for kind in ("exhausted", "no codeword", "unread bits"):
        if kind in message:
            return kind
    return message


class TestScheme:
    def test_length_list_bit_cost(self):
        table = CodeTable.from_lengths(A3, (1, 2, 2))
        bits = serialize_scheme(table, SchemeFormat.LENGTH_LIST)
        assert bits.bit_length == 11  # 5-bit Lmax + 3 fields of 2 bits

    def test_count_table_bit_cost(self):
        bits = serialize_scheme(Composition((3, 1, 0)), SchemeFormat.COUNT_TABLE)
        assert bits.bit_length == 9  # 3 fields of ceil(log2 5) bits

    def test_bit_count_helpers_match(self):
        rng = random.Random(7)
        for _ in range(80):
            size = rng.randint(1, 6)
            counts = [0] * size
            for _ in range(rng.randint(1, 30)):
                counts[rng.randrange(size)] += 1
            comp = Composition(tuple(counts))
            table = build_code(comp)
            assert (
                serialize_scheme(table, SchemeFormat.LENGTH_LIST).bit_length
                == scheme_bit_count(comp, SchemeFormat.LENGTH_LIST, table)
            )
            assert (
                serialize_scheme(comp, SchemeFormat.COUNT_TABLE).bit_length
                == scheme_bit_count(comp, SchemeFormat.COUNT_TABLE)
            )

    def test_round_trip_both_formats(self):
        rng = random.Random(13)
        for _ in range(60):
            size = rng.randint(1, 6)
            counts = [0] * size
            for _ in range(rng.randint(1, 50)):
                counts[rng.randrange(size)] += 1
            comp = Composition(tuple(counts))
            table = build_code(comp)
            alphabet = Alphabet(size)
            for fmt in BOTH_FORMATS:
                source = comp if fmt is SchemeFormat.COUNT_TABLE else table
                bits = serialize_scheme(source, fmt)
                assert deserialize_scheme(bits, fmt, alphabet, comp.total) == table

    def test_count_table_needs_counts(self):
        table = CodeTable.from_lengths(A3, (1, 2, 2))
        with pytest.raises(TypeError):
            serialize_scheme(table, SchemeFormat.COUNT_TABLE)

    def test_count_sum_mismatch_rejected(self):
        bits = serialize_scheme(Composition((3, 1, 0)), SchemeFormat.COUNT_TABLE)
        with pytest.raises(MalformedPayloadError):
            deserialize_scheme(bits, SchemeFormat.COUNT_TABLE, A3, 5)

    def test_overlong_code_is_domain_error(self):
        # Fibonacci counts over 33 symbols (N = 9,227,464) give Lmax = 32,
        # one more than the 5-bit header can hold
        fib = [1, 1]
        while len(fib) < 33:
            fib.append(fib[-1] + fib[-2])
        table = build_code(Composition(tuple(fib)))
        assert table.max_length == 32
        with pytest.raises(SetShapingError):
            serialize_scheme(table, SchemeFormat.LENGTH_LIST)

    def test_kraft_violating_lengths_rejected(self):
        with pytest.raises(ValueError):
            CodeTable.from_lengths(A3, (1, 1, 1))


class TestTotals:
    def test_221(self):
        seq = parse_sequence("2 2 1", A3)
        result = total_compressed_length(seq, SchemeFormat.COUNT_TABLE)
        assert result.payload_bits == 3  # lengths (1,1,0)
        assert result.scheme_bits == 3 * 2  # 3 fields of ceil(log2 4) bits
        assert result.total_bits == 9

    def test_constant(self):
        seq = parse_sequence("1 1 1 1 1", A3)
        result = total_compressed_length(seq, SchemeFormat.LENGTH_LIST)
        assert result.payload_bits == 5
        assert result.scheme_bits == 5 + 3 * 1

    def test_matches_encode_message(self):
        rng = random.Random(3)
        for _ in range(40):
            size = rng.randint(2, 5)
            n = rng.randint(1, 30)
            seq = Sequence(
                Alphabet(size), tuple(rng.randrange(size) for _ in range(n))
            )
            for fmt in BOTH_FORMATS:
                message = encode_message(seq, fmt)
                totals = total_compressed_length(seq, fmt)
                assert message.scheme_bits == totals.scheme_bits
                assert message.payload_bits == totals.payload_bits
                assert message.total_bits == totals.total_bits

    def test_empty_rejected(self):
        with pytest.raises(EmptySequenceError):
            total_compressed_length(Sequence(A3, ()), SchemeFormat.LENGTH_LIST)


class TestContainer:
    def _round_trip(self, seq, fmt, shaped=False, extra=0):
        message = encode_message(seq, fmt)
        container = Container(
            scheme_format=fmt,
            alphabet_size=seq.alphabet.size,
            sequence_length=seq.length,
            scheme=message.scheme,
            payload=message.payload,
            shaped=shaped,
            extra_length=extra,
        )
        data = pack_container(container)
        back = unpack_container(data)
        assert back == container
        table = deserialize_scheme(back.scheme, fmt, seq.alphabet, seq.length)
        assert decode(back.payload, table, back.sequence_length) == seq
        return data, container

    def test_round_trip_fields(self):
        seq = parse_sequence("2 1 1 3 3 1", A3)
        for fmt in BOTH_FORMATS:
            data, container = self._round_trip(seq, fmt)
            assert data[:4] == b"SSTC"
            assert container.framing_bits == 8 * len(data) - (
                container.scheme.bit_length + container.payload.bit_length
            )

    def test_shaped_flag_round_trip(self):
        seq = parse_sequence("1 1 1 2", A3)
        _, container = self._round_trip(
            seq, SchemeFormat.COUNT_TABLE, shaped=True, extra=1
        )
        assert container.shaped and container.extra_length == 1

    def test_bad_magic(self):
        with pytest.raises(MalformedPayloadError):
            unpack_container(b"XXXX" + bytes(26))

    def test_bad_version(self):
        seq = parse_sequence("1 2", A3)
        data, _ = self._round_trip(seq, SchemeFormat.LENGTH_LIST)
        with pytest.raises(MalformedPayloadError):
            unpack_container(data[:4] + bytes([99]) + data[5:])

    def test_truncated(self):
        seq = parse_sequence("1 2 3", A3)
        data, _ = self._round_trip(seq, SchemeFormat.LENGTH_LIST)
        for cut in (3, 10, len(data) - 1):
            with pytest.raises(MalformedPayloadError):
                unpack_container(data[:cut])

    def test_trailing_garbage(self):
        seq = parse_sequence("1 2 3", A3)
        data, _ = self._round_trip(seq, SchemeFormat.LENGTH_LIST)
        with pytest.raises(MalformedPayloadError):
            unpack_container(data + b"\x00")

    def test_unknown_flags(self):
        seq = parse_sequence("1 2", A3)
        data, _ = self._round_trip(seq, SchemeFormat.LENGTH_LIST)
        mutated = bytearray(data)
        mutated[6] |= 0x80
        with pytest.raises(MalformedPayloadError):
            unpack_container(bytes(mutated))

    def test_nonzero_pad_bits_rejected(self):
        # "1 2 3 1 1" has an 11-bit lengths scheme and a 7-bit payload
        seq = parse_sequence("1 2 3 1 1", A3)
        data, container = self._round_trip(seq, SchemeFormat.LENGTH_LIST)
        # the scheme bytes follow the fixed header
        scheme_end = coding._HEADER.size + len(container.scheme.data)
        blocks = [(scheme_end, container.scheme), (len(data), container.payload)]
        for end, block in blocks:
            pad = -block.bit_length % 8
            assert pad
            for bit in range(pad):
                mutated = bytearray(data)
                mutated[end - 1] ^= 1 << bit
                with pytest.raises(MalformedPayloadError, match="pad bits"):
                    unpack_container(bytes(mutated))

    @pytest.mark.parametrize("extra_length", [1, 2])
    def test_shaped_length_not_above_extra_length(self, extra_length):
        # a valid plain container of one symbol, flagged shaped with K >= N:
        # the inverse transform would have no shaped message to read
        data = compress_sequence(parse_sequence("2", A3), SchemeFormat.LENGTH_LIST)
        shaped = replace(unpack_container(data), shaped=True, extra_length=extra_length)
        with pytest.raises(MalformedPayloadError, match="not longer than extra length"):
            unpack_container(pack_container(shaped))

    @pytest.mark.parametrize("extra_length", [1, 255])
    def test_plain_container_with_extra_length(self, extra_length):
        # K counts the symbols shaping added; a plain message has none, so
        # only K = 0 is its container
        data = compress_sequence(parse_sequence("2 1 3", A3), SchemeFormat.LENGTH_LIST)
        plain = replace(unpack_container(data), extra_length=extra_length)
        with pytest.raises(MalformedPayloadError, match="plain container with extra length"):
            unpack_container(pack_container(plain))

    def test_determinism(self):
        seq = parse_sequence("3 1 2 2 1", A3)
        first, _ = self._round_trip(seq, SchemeFormat.COUNT_TABLE)
        second, _ = self._round_trip(seq, SchemeFormat.COUNT_TABLE)
        assert first == second

    @pytest.mark.parametrize(
        "alphabet_size, extra_length",
        [(0, 0), (65536, 0), (70000, 0), (3, -1), (3, 256), (3, 300)],
    )
    def test_fields_beyond_their_byte_widths(self, alphabet_size, extra_length):
        message = encode_message(parse_sequence("1 2 3", A3), SchemeFormat.LENGTH_LIST)
        with pytest.raises(TooLargeError):
            Container(
                scheme_format=SchemeFormat.LENGTH_LIST,
                alphabet_size=alphabet_size,
                sequence_length=3,
                scheme=message.scheme,
                payload=message.payload,
                shaped=extra_length > 0,
                extra_length=extra_length,
            )


# the fuzz grid: plain containers at |A| = 3, 4, 12 and 300, and shaped ones
# (K = 1 and 7, N + K symbols) at |A| = 3 and 4, of N = 1, 5 and 40 symbols
CONTAINER_GRID = [
    (size, n, fmt, k)
    for size, n, fmt in itertools.product((3, 4, 12, 300), (1, 5, 40), SchemeFormat)
    for k in ((0, 1, 7) if size <= 4 else (0,))
]


def _grid_container(size, n, fmt, k):
    seq = Sequence(Alphabet(size), [(i * i + 3 * i) % size for i in range(n)])
    return compress_sequence(seq, fmt, shaped=k > 0, extra_length=max(k, 1))


def _mutations(data):
    """Every truncation, one trailing byte, and each byte set to 0, 1, 0x80,
    0xFF and to itself ^ 1; each input with the index of the byte it set
    (None for a truncation or the trailing byte)."""
    for cut in range(len(data)):
        yield None, data[:cut]
    yield None, data + b"\x00"
    for i, byte in enumerate(data):
        for value in (0, 1, 0x80, 0xFF, byte ^ 1):
            yield i, data[:i] + bytes([value]) + data[i + 1 :]


class TestContainerFuzz:
    @pytest.mark.parametrize("size, n, fmt, k", CONTAINER_GRID)
    def test_unpack_accepts_only_containers_it_packs(self, size, n, fmt, k):
        # an accepted input is the one container of its fields; any other is
        # refused as a malformed payload, never with another exception
        for _, data in _mutations(_grid_container(size, n, fmt, k)):
            try:
                container = unpack_container(data)
            except MalformedPayloadError:
                continue
            assert pack_container(container) == data

    @pytest.mark.parametrize("size, n, fmt, k", CONTAINER_GRID)
    def test_restore_raises_only_domain_errors(self, size, n, fmt, k):
        data = _grid_container(size, n, fmt, k)
        # the sequence length N is left alone: a mutated N can make a shaped
        # restore build orderings such as (296,4) and (297,4), over a second
        # each, a cost of untrusted input that this grid does not bound
        box = unpack_container(data)
        low = pack_container(replace(box, sequence_length=0))
        high = pack_container(replace(box, sequence_length=(1 << 64) - 1))
        length_field = {i for i, (a, b) in enumerate(zip(low, high)) if a != b}
        assert length_field
        for i, mutated in _mutations(data):
            if i in length_field:
                continue
            try:
                seq = restore_sequence(mutated)
            except SetShapingError:
                continue
            assert isinstance(seq, Sequence)
