"""Canonical Huffman coding with a bit-exact, decodable coding scheme.

"Compressed message" here always means scheme bits + payload bits, both of
which are concrete serialized bit strings.  Two scheme formats bracket the
cost of describing the code to a decoder that does not know the source:

* LENGTH_LIST: a 5-bit max-length header, then one ceil(log2(Lmax+1))-bit
  field per alphabet symbol holding its codeword length (0 = absent).  The
  canonical code is reconstructible from lengths alone.
* COUNT_TABLE: one ceil(log2(N+1))-bit field per alphabet symbol holding
  its occurrence count; the decoder rebuilds the same deterministic code.
  N itself travels in the container framing, not in the scheme.

Framing (the container header) is accounted separately from scheme and
payload bits, mirroring the split between a shared communication language
and the transmitted message.
"""
from __future__ import annotations

import enum
import heapq
import struct
from dataclasses import dataclass

import numpy as np

from .bitio import (
    BitReader,
    Bits,
    BitWriter,
    _bits_from_string,
    _string_from_bits,
)
from .core import (
    Alphabet,
    Composition,
    Sequence,
    _join_words,
    _pack_array,
    _symbol_type,
    composition_of,
)
from .errors import (
    EmptyCompositionError,
    EmptySequenceError,
    MalformedPayloadError,
    TooLargeError,
    UncodableSymbolError,
)

__all__ = [
    "SchemeFormat",
    "CodeTable",
    "EncodedMessage",
    "CompressedLength",
    "Container",
    "build_code",
    "encode",
    "decode",
    "serialize_scheme",
    "deserialize_scheme",
    "scheme_bit_count",
    "payload_bit_count",
    "total_compressed_length",
    "encode_message",
    "pack_container",
    "unpack_container",
    "CONTAINER_HEADER_BYTES",
]

_LMAX_BITS = 5  # the width of LENGTH_LIST's max-length field
MAX_CODE_LENGTH = (1 << _LMAX_BITS) - 1


class SchemeFormat(enum.Enum):
    LENGTH_LIST = "lengths"
    COUNT_TABLE = "counts"

    @property
    def wire_value(self) -> int:
        return _WIRE_FORMATS.index(self)

    @classmethod
    def from_wire(cls, value: int) -> "SchemeFormat":
        if 0 <= value < len(_WIRE_FORMATS):
            return _WIRE_FORMATS[value]
        raise MalformedPayloadError(f"unknown scheme format byte {value}")


_WIRE_FORMATS = (SchemeFormat.LENGTH_LIST, SchemeFormat.COUNT_TABLE)  # by wire byte


def _canonical_codewords(lengths: tuple[int, ...]) -> tuple[int, ...]:
    """Assign codewords in (length, symbol) order; lengths fully determine
    the code."""
    used = sorted((l, s) for s, l in enumerate(lengths) if l)
    codes = [0] * len(lengths)
    code = 0
    prev_len = used[0][0] if used else 0
    for l, s in used:
        code <<= l - prev_len
        codes[s] = code
        code += 1
        prev_len = l
    return tuple(codes)


@dataclass(frozen=True)
class CodeTable:
    """A canonical prefix code: per-symbol lengths plus derived codewords."""

    alphabet: Alphabet
    lengths: tuple[int, ...]
    codewords: tuple[int, ...]

    @classmethod
    def from_lengths(cls, alphabet: Alphabet, lengths: tuple[int, ...]) -> "CodeTable":
        if len(lengths) != alphabet.size:
            raise ValueError(
                f"{len(lengths)} lengths for alphabet of size {alphabet.size}"
            )
        if any(l < 0 for l in lengths):
            raise ValueError(f"negative codeword length in {lengths}")
        used = [l for l in lengths if l]
        if used:
            lmax = max(used)
            # Kraft scaled by 2**lmax keeps the check in exact integers
            if sum(1 << (lmax - l) for l in used) > 1 << lmax:
                raise ValueError(f"lengths {lengths} violate the Kraft inequality")
        return cls(alphabet, tuple(lengths), _canonical_codewords(tuple(lengths)))

    @property
    def max_length(self) -> int:
        return max(self.lengths, default=0)

    def kraft_sum_num_denom(self) -> tuple[int, int]:
        """Kraft sum as an exact fraction (numerator, 2**Lmax)."""
        lmax = self.max_length
        num = sum(1 << (lmax - l) for l in self.lengths if l)
        return num, 1 << lmax


def build_code(comp: Composition) -> CodeTable:
    """Huffman-optimal lengths for the count distribution.

    Heap ties break on (count, smallest contained symbol), so the result
    is deterministic.  A lone used symbol gets a 1-bit codeword rather
    than 0 bits: a 0-bit code would be undecodable without outside help.
    """
    alphabet = Alphabet(len(comp.counts))
    leaves = [(c, s) for s, c in enumerate(comp.counts) if c]
    if not leaves:
        raise EmptyCompositionError("cannot build a code for an empty composition")
    lengths = [0] * alphabet.size
    if len(leaves) == 1:
        lengths[leaves[0][1]] = 1
        return CodeTable.from_lengths(alphabet, tuple(lengths))
    heap = [(c, s, ((s, 0),)) for c, s in leaves]
    heapq.heapify(heap)
    while len(heap) > 1:
        c1, m1, l1 = heapq.heappop(heap)
        c2, m2, l2 = heapq.heappop(heap)
        merged = tuple((s, d + 1) for s, d in l1 + l2)
        heapq.heappush(heap, (c1 + c2, min(m1, m2), merged))
    for s, depth in heap[0][2]:
        lengths[s] = depth
    return CodeTable.from_lengths(alphabet, tuple(lengths))


_DEAD = np.iinfo(np.int64).max  # the key of a merged-away node or unused symbol


def _huffman_lengths(counts: np.ndarray) -> np.ndarray:
    """build_code's lengths for every row of an (m, |A|) int64 counts
    array, in one pass of array operations over all rows.

    Each node sits at the slot of its smallest symbol under the key
    count * |A| + smallest symbol, which orders nodes as the heap's
    (count, smallest symbol) tuples do; no two live nodes share a key.
    Merge step t takes the two least keys of every row with more than
    t + 1 nodes left and deepens the leaves under both by one.
    """
    size = counts.shape[1]
    present = counts > 0
    used = present.sum(1)
    if not used.all():
        raise EmptyCompositionError("cannot build a code for an empty composition")
    slots = np.arange(size)
    key = np.where(present, counts * size + slots, _DEAD)
    node = np.where(present, slots, -1)  # the slot of the node above each leaf
    # a lone used symbol gets a 1-bit codeword, as in build_code
    lengths = (present & (used == 1)[:, None]).astype(np.int64)
    for step in range(used.max(initial=1) - 1):
        rows = np.flatnonzero(used > step + 1)
        k, n, i = key[rows], node[rows], np.arange(len(rows))
        a = k.argmin(1)
        key_a = k[i, a]
        k[i, a] = _DEAD
        b = k.argmin(1)
        lo, hi = np.minimum(a, b)[:, None], np.maximum(a, b)[:, None]
        merged = (key_a // size + k[i, b] // size) * size + lo[:, 0]
        k[i, hi[:, 0]] = _DEAD
        k[i, lo[:, 0]] = merged
        key[rows] = k
        lengths[rows] += (n == lo) | (n == hi)
        node[rows] = np.where(n == hi, lo, n)
    return lengths


def encode(seq: Sequence, table: CodeTable) -> Bits:
    """Replace each symbol by its codeword; the payload bit string."""
    uncodable = {s for s, l in enumerate(table.lengths) if not l}
    # symbols past the table's alphabet have no codeword either
    uncodable.update(range(len(table.lengths), seq.alphabet.size))
    # the scan reads every symbol, so it runs only if some symbol has no
    # codeword
    if uncodable and not uncodable.isdisjoint(seq._symbols):
        first = next(s for s in seq._symbols if s in uncodable)
        raise UncodableSymbolError(f"symbol {first + 1} has no codeword")
    return _payload(seq, table)


def _payload(seq: Sequence, table: CodeTable) -> Bits:
    """encode's payload for a sequence whose symbols all have codewords."""
    words = [format(c, f"0{l}b") for c, l in zip(table.codewords, table.lengths)]
    if len(words) < seq.alphabet.size:
        # symbols past the table never occur, but the group table takes a
        # word for each
        words += [""] * (seq.alphabet.size - len(words))
    return _bits_from_string(_join_words(seq, words, ""))


# the integer window types, narrowest first, each with its big-endian form
_WINDOW_TYPES = tuple((np.dtype(f"u{k}"), np.dtype(f">u{k}")) for k in (1, 2, 4, 8))
# bit offset r in a byte as a column: the word shifted left by r takes the
# top r bits of the next byte
_OFFSETS = {t: np.arange(8, dtype=t)[:, None] for t, _ in _WINDOW_TYPES}
_CARRY = 8 - _OFFSETS[np.dtype(np.uint8)]
# every value of an 8-bit window
_BYTE_VALUES = np.arange(256, dtype=np.uint8)


def _int_windows(data: bytes, types: tuple, count: int) -> np.ndarray:
    """The bits of a window type that start at each bit position of data,
    zero past its end, for at least count positions, in position order:
    the big-endian word at each byte, shifted left by the bit offset and
    or-ed with the next byte's top bits."""
    native, big_endian = types
    k = native.itemsize
    rows = -(-count // 8)
    padded = data + bytes(rows + k - len(data))
    words = np.ndarray((rows,), big_endian, padded, 0, (1,))
    following = np.frombuffer(padded, np.uint8, rows, k)
    # row r holds the windows at bit offset r of every byte
    windows = words << _OFFSETS[native]
    windows |= following >> _CARRY
    return windows.T.reshape(-1)


# positions per np.take when a jump table is squared in place: bounds the
# intp copy of the indices that it makes
_SQUARE_BLOCK = 1 << 16
# anchors the chase's Python walk visits between its checks for a stop
_WALK_CHECK = 64


def _jump_depth(count: int) -> int:
    """log2 of the codewords one jump covers in a chase of count codewords:
    0 below 256 codewords, one more at each fourfold, at most 5 (from
    65,536 codewords).  Each squaring of the jump table is one pass over
    every bit position, and it halves the Python walk."""
    return min(max(count.bit_length() - 7, 0) // 2, 5)


# the most whole codewords one hop reads from an 8-bit window: a column
# more per hop costs more to expand than the squaring it saves
_HOP_CODEWORDS = 4
# the payload bits from which hops of several codewords pay: below them
# their tables and expansion cost more than the squarings they save, each
# a pass over every bit position (measured crossovers: 6,000-12,000 bits
# over seven codes, against 1,500-5,700 codewords)
_HOP_BITS = 8192
# a hop table's end where its window holds no further whole codeword
_NO_END = 0xFF
# whether codewords that end e bits into an 8-bit window, for e up to two
# windows' bits, end inside it.  The hop tables use lookups and shifts
# where a comparison or a bit mask would do: those numpy loops run nowhere
# else in a round trip, and the pages of numpy's library that they fault in
# count in max RSS (0.45 MB on a 100k-symbol one)
_INSIDE_WINDOW = np.array([e <= 8 for e in range(17)])


def _hop_tables(keys: np.ndarray, symbol_of: np.ndarray, length_of: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For each 8-bit window value, the whole codewords it starts with, up
    to k of them, read one after another as the chase would: (256, k)
    tables of which columns hold one, where each ends (_NO_END past the
    last) and its symbol, and the bits they take.  keys, symbol_of and
    length_of are decode's codeword starts and its tables by searchsorted
    row."""
    row = keys.searchsorted(_BYTE_VALUES, side="right")
    has_codeword = np.array([l > 0 for l in length_of.tolist()])
    whole = np.zeros((256, k), bool)
    ends = np.full((256, k), _NO_END, np.uint8)
    symbols = np.zeros((256, k), symbol_of.dtype)
    taken = np.zeros(256, np.uint8)
    alive = np.ones(256, bool)
    for j in range(k):
        # the window's bits after the codewords read so far, zero-filled
        # (an 8-bit shift drops the bits read); a codeword found there is
        # whole only if it ends inside the window
        r = row[_BYTE_VALUES << taken]
        end = taken + length_of[r]
        alive &= has_codeword[r]
        alive &= _INSIDE_WINDOW[end]
        whole[:, j] = alive
        ends[alive, j] = end[alive]
        symbols[alive, j] = symbol_of[r[alive]]
        taken[alive] = end[alive]
    return whole, ends, symbols, taken


def decode(payload: Bits, table: CodeTable, n: int) -> Sequence:
    """Read exactly n codewords; anything else is a malformed payload.  A
    negative n is a ValueError.

    Canonical decoding with limits (Moffat & Turpin, "On the implementation
    of minimum redundancy prefix codes", IEEE T-Comm 1997), taken per
    codeword: left-justified, the canonical codewords in (length, symbol)
    order start at increasing values and cover [0, limit), so the codeword
    at a bit position is the last one whose start does not exceed the
    window there.  An incomplete code leaves [limit, 2**max_length)
    unmatched.

    Up to 64 bits, the window at a position is an unsigned integer of the
    narrowest numpy type (8, 16, 32 or 64 bits) that holds max_length bits,
    read from the payload bytes with shifts; the bits after the first
    max_length cannot carry it past a codeword start, whose low bits are
    zero.  Deeper codes take byte-string windows of the payload's '0'/'1'
    text, whose order is numeric order.  Either way the windows are one
    array in bit-position order, which every later step indexes.  One
    searchsorted of the windows over the codeword starts gives the codeword
    at every position.

    The codeword starts are then a pointer chase: the next start is the
    position plus the length there.  It jumps (Hillis & Steele, "Data
    parallel algorithms", CACM 1986): the next-start table, squared m
    times, makes 2**m hops at once, one Python walk visits every 2**m-th
    hop start, and 2**m - 1 gathers fill in the starts between.  m follows
    from the symbol count (_jump_depth); at m = 0, for short messages, the
    walk visits every start.

    From _HOP_BITS payload bits (8,192), where the hop tables cost less to
    build than the squarings they save, a code at most 8 bits deep
    hops several whole codewords at a time: up to K = min(4, 8 // shortest
    length) of them, as many as its 8-bit window holds.  One table of the
    256 window values (_hop_tables) gives the bits, ends and symbols of the
    codewords each value starts with; a take of the bits at every position
    is the next-start table, which needs log2 K fewer squarings, and each
    hop start expands into its symbols from the table, indexed by the
    window kept at that start.  Every other decode hops one codeword
    (K = 1).  Near the end a hop takes only the codewords that end in the
    payload, so a codeword cut short or the pad bits never decode, and the
    chase stops where a hop takes none; where it stops and the symbols read
    before it name the failure, as the per-bit decoder names it.
    """
    if n < 0:
        raise ValueError(f"negative symbol count {n}")
    lmax = table.max_length
    used = sorted((l, s) for s, l in enumerate(table.lengths) if l)
    size = table.alphabet.size
    # every decoded symbol has a codeword, so this is the decoded
    # sequence's range check (only a hand-built table can fail it)
    stray = [s for _, s in used if s >= size]
    if stray:
        raise ValueError(
            f"symbol {min(stray)} has a codeword but is out of range for "
            f"alphabet of size {size}"
        )
    total = payload.bit_length
    # a code without codewords has max_length 0 and still reads one bit
    width = max(lmax, 1)
    # windows of 8, 16, 32 or 64 bits, or byte strings above that
    kind = max((width - 1).bit_length() - 3, 0)
    deep = kind >= len(_WINDOW_TYPES)
    bits = width if deep else 8 << kind
    # keys[j] is where codeword j starts, left-justified to `bits`; an
    # incomplete code's limit, where "no codeword" starts, is one more key
    keys = [table.codewords[s] << (bits - l) for l, s in used]
    limit = sum(1 << (lmax - l) for l, _ in used)
    if limit < 1 << width:
        keys.append(limit << (bits - lmax))
    # searchsorted gives codeword j as row j + 1; rows 0 (never given) and
    # len(used) + 1 ("no codeword") take symbol 0 and length 0.  Symbols
    # and lengths are kept per bit position, so in the narrowest types
    symbol_of = np.array([0, *(s for _, s in used), 0], _symbol_type(size))
    length_of = np.array([0, *(l for l, _ in used), 0], np.min_scalar_type(lmax))
    # every codeword takes at least one bit, so the first total + 1
    # codewords reach past the payload
    count = min(n, total + 1)
    depth = _jump_depth(count)
    # once the payload is long enough for their tables to pay, a code at most
    # 8 bits deep hops up to k whole codewords at a time, all read from one
    # 8-bit window, and log2 k fewer squarings jump about as many codewords
    k = 1
    if kind == 0 and total >= _HOP_BITS and used:
        k = min(_HOP_CODEWORDS, 8 // used[0][0])
        depth = max(depth - k.bit_length() + 1, 0)
    # hops end in the payload, so the windows at positions 0..total are all
    # the chase reads
    end = total + 1
    if deep:
        # zero bits past the end keep every window `width` wide
        text = (_string_from_bits(payload) + "0" * width).encode()
        windows = np.ndarray((end,), f"S{width}", text, 0, (1,))
        keys = np.array([format(key, f"0{width}b") for key in keys], f"S{width}")
        del text  # the windows keep it until they are freed
    else:
        windows = _int_windows(payload.data, _WINDOW_TYPES[kind], end)
        keys = np.array(keys, _WINDOW_TYPES[kind][0])
    # steps[p] is how far the hop at position p moves: 0 where no codeword
    # matches, so the chase stops moving at the first symbol it cannot
    # read.  Near the end a hop takes only the codewords that end in the
    # payload, so a codeword that runs past it, or pad bits, never decode
    if k > 1:
        whole_of, ends_of, symbols_of, taken = _hop_tables(
            keys, symbol_of, length_of, k
        )
        steps = taken.take(windows)
        tail = range(max(end - 8, 0), end)
        for p in tail:
            ends = ends_of[windows[p]].tolist()
            steps[p] = max((e for e in ends if e <= total - p), default=0)
    else:
        row = keys.searchsorted(windows, side="right")
        del windows
        found = symbol_of.take(row)
        steps = length_of.take(row)
        del row
        for p in range(max(end - width, 0), end):
            if steps[p] > total - p:
                steps[p] = 0
    # chase[j, b] is the start of hop b * 2**depth + j
    chase = np.empty((1 << depth, -(-count >> depth)), np.min_scalar_type(end))
    hop = np.arange(end, dtype=chase.dtype)
    hop += steps[:end]
    for _ in range(depth):
        # squared in place a block at a time: hop[p] >= p, so a block reads
        # only itself and later blocks, none of them changed yet
        for lo in range(0, end, _SQUARE_BLOCK):
            block = hop[lo : lo + _SQUARE_BLOCK]
            np.take(hop, block, out=block, mode="clip")
            del block  # a view that would keep the table alive
    # count hops read count codewords or more, unless the chase stops: at
    # the end of the payload, or where no codeword matches.  The walk looks
    # for a stop once every _WALK_CHECK anchors
    anchors, jump = memoryview(chase[0]), memoryview(hop)
    pos = b = 0
    for walk_lo in range(0, len(anchors), _WALK_CHECK):
        for b in range(walk_lo, min(walk_lo + _WALK_CHECK, len(anchors))):
            anchors[b] = pos
            pos = jump[pos]
        if pos == anchors[b]:
            break
    del anchors, jump, hop
    chase = chase[:, : b + 1]
    for j in range(1, 1 << depth):
        np.add(chase[j - 1], steps.take(chase[j - 1]), out=chase[j])
    starts = chase.T.reshape(-1)[:count]
    del chase
    pos = int(starts[-1]) + int(steps[starts[-1]]) if count else 0
    if count and pos == starts[-1]:
        # the chase stopped: the hop starts rise to pos, then repeat there
        starts = starts[: starts.searchsorted(pos)]
    if k > 1:
        # each hop start expands into the whole codewords its window holds;
        # near the end, into those its step covers
        at = windows.take(starts)
        del windows
        whole = whole_of.take(at, 0)
        for i in range(starts.searchsorted(tail[0]), len(starts)):
            room = int(steps[starts[i]])
            whole[i] = [e <= room for e in ends_of[at[i]].tolist()]
        symbols = symbols_of.take(at, 0)[whole]
        del at, whole
    else:
        symbols = found.take(starts)
        del found
    # the per-bit arrays are dead once the symbols are gathered; freeing
    # them before the symbols are packed keeps them out of the peak
    del starts, steps
    if len(symbols) < n:
        # the chase stopped at pos, after every symbol it read
        if pos + width <= total:
            pattern = _string_from_bits(payload)[pos : pos + width]
            raise MalformedPayloadError(f"bit pattern {pattern} matches no codeword")
        raise MalformedPayloadError(
            f"bit stream exhausted after {len(symbols)} of {n} symbols "
            f"({total} payload bits)"
        )
    if len(symbols) > n:
        # the chase read on past the n-th codeword
        pos = int(np.array(table.lengths)[symbols[:n]].sum())
    if pos < total:
        raise MalformedPayloadError(
            f"{total - pos} unread bits after decoding {n} symbols"
        )
    return Sequence._from_buffer(table.alphabet, _pack_array(symbols))


def serialize_scheme(source: CodeTable | Composition, fmt: SchemeFormat) -> Bits:
    """Serialize the coding scheme to its exact bit string."""
    if fmt is SchemeFormat.LENGTH_LIST:
        table = source if isinstance(source, CodeTable) else build_code(source)
        lmax = table.max_length
        if lmax > MAX_CODE_LENGTH:
            raise TooLargeError(
                f"codeword length {lmax} exceeds the {MAX_CODE_LENGTH}-bit format limit"
            )
        writer = BitWriter()
        writer.write(lmax, _LMAX_BITS)
        width = lmax.bit_length()
        for l in table.lengths:
            writer.write(l, width)
        return writer.getvalue()
    if not isinstance(source, Composition):
        raise TypeError("COUNT_TABLE serialization needs the symbol counts")
    width = source.total.bit_length()
    writer = BitWriter()
    for c in source.counts:
        writer.write(c, width)
    return writer.getvalue()


def deserialize_scheme(
    bits: Bits, fmt: SchemeFormat, alphabet: Alphabet, n: int
) -> CodeTable:
    """Rebuild the code table a decoder would use; inverse of serialize."""
    reader = BitReader(bits)
    if fmt is SchemeFormat.LENGTH_LIST:
        lmax = reader.read(_LMAX_BITS)
        width = lmax.bit_length()
        lengths = tuple(reader.read(width) for _ in range(alphabet.size))
        if any(l > lmax for l in lengths):
            raise MalformedPayloadError(f"length above header maximum {lmax}")
        try:
            table = CodeTable.from_lengths(alphabet, lengths)
        except ValueError as exc:
            raise MalformedPayloadError(str(exc)) from None
    else:
        width = n.bit_length()
        counts = tuple(reader.read(width) for _ in range(alphabet.size))
        if sum(counts) != n:
            raise MalformedPayloadError(
                f"scheme counts sum to {sum(counts)}, expected {n}"
            )
        try:
            table = build_code(Composition(counts))
        except (ValueError, EmptyCompositionError) as exc:
            raise MalformedPayloadError(str(exc)) from None
    if reader.remaining:
        raise MalformedPayloadError(f"{reader.remaining} unread scheme bits")
    return table


def scheme_bit_count(
    comp: Composition, fmt: SchemeFormat, table: CodeTable | None = None
) -> int:
    """Bit cost of the serialized scheme, without materializing it."""
    if table is None and fmt is SchemeFormat.LENGTH_LIST:
        table = build_code(comp)
    lmax = 0 if table is None else table.max_length
    return _scheme_bits(fmt, len(comp.counts), lmax, comp.total)


def _scheme_bits(fmt: SchemeFormat, size: int, lmax, total):
    """Bit cost of a scheme over `size` symbols, for a code whose longest
    codeword has lmax bits and a message of total symbols: what
    serialize_scheme writes.  Elementwise on int64 arrays of lmax and total
    too, whose bit lengths are frexp's exponents (exact below 2**53)."""
    if fmt is SchemeFormat.LENGTH_LIST:
        return _LMAX_BITS + size * _bit_length(lmax)
    return size * _bit_length(total)


def _bit_length(x):
    return x.bit_length() if isinstance(x, int) else np.frexp(x)[1]


def payload_bit_count(comp: Composition, table: CodeTable) -> int:
    """Payload bit cost: sum of codeword lengths over the whole sequence."""
    return sum(l * c for l, c in zip(table.lengths, comp.counts))


@dataclass(frozen=True)
class EncodedMessage:
    """Serialized scheme + payload for one sequence."""

    scheme: Bits
    payload: Bits

    @property
    def scheme_bits(self) -> int:
        return self.scheme.bit_length

    @property
    def payload_bits(self) -> int:
        return self.payload.bit_length

    @property
    def total_bits(self) -> int:
        return self.scheme_bits + self.payload_bits


@dataclass(frozen=True)
class CompressedLength:
    scheme_bits: int
    payload_bits: int

    @property
    def total_bits(self) -> int:
        return self.scheme_bits + self.payload_bits


def encode_message(seq: Sequence, fmt: SchemeFormat) -> EncodedMessage:
    """Build the code from the sequence's own composition and encode."""
    if seq.length == 0:
        raise EmptySequenceError("nothing to encode")
    # the code covers every symbol the counts saw
    comp = composition_of(seq)
    table = build_code(comp)
    source = comp if fmt is SchemeFormat.COUNT_TABLE else table
    return EncodedMessage(serialize_scheme(source, fmt), _payload(seq, table))


def total_compressed_length(seq: Sequence, fmt: SchemeFormat) -> CompressedLength:
    """Exact bit accounting of scheme + payload for one sequence."""
    if seq.length == 0:
        raise EmptySequenceError("nothing to measure")
    comp = composition_of(seq)
    table = build_code(comp)
    return CompressedLength(
        scheme_bits=scheme_bit_count(comp, fmt, table),
        payload_bits=payload_bit_count(comp, table),
    )


# Container framing: the header, then the scheme bytes, the payload bit
# count and the payload bytes.  The header holds, big-endian: magic,
# version, scheme variant, flags (bit 0 = shaped), extra length K, alphabet
# size, sequence length and scheme bit count.  Framing bytes are never
# charged to scheme_bits/payload_bits.
MAGIC = b"SSTC"
CONTAINER_VERSION = 1
_HEADER = struct.Struct(">4sBBBBHQI")
_PAYLOAD_BITS = struct.Struct(">Q")
CONTAINER_HEADER_BYTES = _HEADER.size + _PAYLOAD_BITS.size
_FLAG_SHAPED = 0x01
# the largest K and alphabet size their header fields hold
_MAX_EXTRA_LENGTH, _MAX_ALPHABET_SIZE = _HEADER.unpack(b"\xff" * _HEADER.size)[4:6]


@dataclass(frozen=True)
class Container:
    scheme_format: SchemeFormat
    alphabet_size: int
    sequence_length: int
    scheme: Bits
    payload: Bits
    shaped: bool = False
    extra_length: int = 0

    def __post_init__(self):
        if not 1 <= self.alphabet_size <= _MAX_ALPHABET_SIZE:
            raise TooLargeError(
                f"alphabet size {self.alphabet_size} does not fit the container's "
                f"field (1..{_MAX_ALPHABET_SIZE})"
            )
        if not 0 <= self.extra_length <= _MAX_EXTRA_LENGTH:
            raise TooLargeError(
                f"extra length {self.extra_length} does not fit the container's "
                f"K field (0..{_MAX_EXTRA_LENGTH})"
            )

    @property
    def framing_bits(self) -> int:
        return _framing_bits(self.scheme.bit_length, self.payload.bit_length)


def _framing_bits(scheme_bits: int, payload_bits: int) -> int:
    """Container bits beyond scheme and payload: the header, plus the
    padding that rounds each block up to whole bytes."""
    return 8 * CONTAINER_HEADER_BYTES + (-scheme_bits) % 8 + (-payload_bits) % 8


def pack_container(container: Container) -> bytes:
    header = _HEADER.pack(
        MAGIC,
        CONTAINER_VERSION,
        container.scheme_format.wire_value,
        _FLAG_SHAPED if container.shaped else 0,
        container.extra_length,
        container.alphabet_size,
        container.sequence_length,
        container.scheme.bit_length,
    )
    payload_bits = _PAYLOAD_BITS.pack(container.payload.bit_length)
    return b"".join(
        (header, container.scheme.data, payload_bits, container.payload.data)
    )


def _need(data: bytes, end: int, part: str) -> None:
    if end > len(data):
        raise MalformedPayloadError(
            f"container truncated in its {part}: {len(data)} of {end} bytes"
        )


def _padded_block(data: bytes, start: int, bits: int, name: str) -> tuple[Bits, int]:
    """The container block of `bits` bits from byte start, and the byte
    after it.  Its pad bits must be zero, so that each message has exactly
    one container."""
    end = start + (bits + 7) // 8
    _need(data, end, f"{name} block")
    block = data[start:end]
    pad = -bits % 8
    if pad and block[-1] & ((1 << pad) - 1):
        raise MalformedPayloadError(f"nonzero pad bits in the {name} block")
    return Bits(block, bits), end


def unpack_container(data: bytes) -> Container:
    """The container in data; every check of its framing is made here."""
    if data[: len(MAGIC)] != MAGIC:
        raise MalformedPayloadError(f"bad magic {data[: len(MAGIC)]!r}")
    _need(data, _HEADER.size, "header")
    _, version, wire, flags, extra_length, alphabet_size, length, scheme_bits = (
        _HEADER.unpack_from(data)
    )
    if version != CONTAINER_VERSION:
        raise MalformedPayloadError(
            f"unsupported container version {version}, expected {CONTAINER_VERSION}"
        )
    fmt = SchemeFormat.from_wire(wire)
    if flags & ~_FLAG_SHAPED:
        raise MalformedPayloadError(f"unknown flag bits 0x{flags:02x}")
    shaped = bool(flags & _FLAG_SHAPED)
    if shaped and extra_length < 1:
        raise MalformedPayloadError("shaped container without an extra length")
    # a plain message has no K, so it has one container only if K is 0
    if not shaped and extra_length:
        raise MalformedPayloadError(f"plain container with extra length {extra_length}")
    if shaped and length <= extra_length:
        raise MalformedPayloadError(
            f"shaped length {length} not longer than extra length {extra_length}"
        )
    if alphabet_size < 1:
        raise MalformedPayloadError("alphabet size 0")
    scheme, pos = _padded_block(data, _HEADER.size, scheme_bits, "scheme")
    _need(data, pos + _PAYLOAD_BITS.size, "payload bit count")
    (payload_bits,) = _PAYLOAD_BITS.unpack_from(data, pos)
    pos += _PAYLOAD_BITS.size
    payload, pos = _padded_block(data, pos, payload_bits, "payload")
    if pos != len(data):
        raise MalformedPayloadError(f"{len(data) - pos} trailing bytes")
    return Container(fmt, alphabet_size, length, scheme, payload, shaped, extra_length)
