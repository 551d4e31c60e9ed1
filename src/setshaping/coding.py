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
from dataclasses import dataclass

from .bitio import BitReader, Bits, BitWriter
from .core import Alphabet, Composition, Sequence, composition_of
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

MAX_CODE_LENGTH = 31  # LENGTH_LIST stores Lmax in 5 bits


class SchemeFormat(enum.Enum):
    LENGTH_LIST = "lengths"
    COUNT_TABLE = "counts"

    @property
    def wire_value(self) -> int:
        return 0 if self is SchemeFormat.LENGTH_LIST else 1

    @classmethod
    def from_wire(cls, value: int) -> "SchemeFormat":
        for fmt in cls:
            if fmt.wire_value == value:
                return fmt
        raise MalformedPayloadError(f"unknown scheme format byte {value}")


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


def encode(seq: Sequence, table: CodeTable) -> Bits:
    """Replace each symbol by its codeword; the payload bit string."""
    writer = BitWriter()
    for s in seq.symbols:
        l = table.lengths[s]
        if not l:
            raise UncodableSymbolError(f"symbol {s + 1} has no codeword")
        writer.write(table.codewords[s], l)
    return writer.getvalue()


def decode(payload: Bits, table: CodeTable, n: int) -> Sequence:
    """Read exactly n codewords; anything else is a malformed payload."""
    # key = a leading 1 bit, then the bits read so far: unique per codeword
    symbol_of = {
        (1 << l) | code: s
        for s, (l, code) in enumerate(zip(table.lengths, table.codewords))
        if l
    }
    limit = 1 << table.max_length
    reader = BitReader(payload)
    read_bit = reader.read_bit
    lookup = symbol_of.get
    out = []
    for _ in range(n):
        key = 1
        while True:
            key = (key << 1) | read_bit()
            s = lookup(key)
            if s is not None:
                out.append(s)
                break
            if key >= limit:
                raise MalformedPayloadError(
                    f"bit pattern {format(key, 'b')[1:]} matches no codeword"
                )
    if reader.remaining:
        raise MalformedPayloadError(
            f"{reader.remaining} unread bits after decoding {n} symbols"
        )
    return Sequence(table.alphabet, tuple(out))


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
        writer.write(lmax, 5)
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
        lmax = reader.read(5)
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
    size = len(comp.counts)
    if fmt is SchemeFormat.LENGTH_LIST:
        if table is None:
            table = build_code(comp)
        return 5 + size * table.max_length.bit_length()
    return size * comp.total.bit_length()


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
    comp = composition_of(seq)
    table = build_code(comp)
    source = comp if fmt is SchemeFormat.COUNT_TABLE else table
    return EncodedMessage(serialize_scheme(source, fmt), encode(seq, table))


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


# Container framing: magic, version, scheme variant, flags (bit 0 = shaped),
# extra length K, alphabet size (2 bytes BE), sequence length (8 bytes BE),
# then scheme bit count (4 bytes BE) + scheme bytes and payload bit count
# (8 bytes BE) + payload bytes.  Framing bytes are never charged to
# scheme_bits/payload_bits.
MAGIC = b"SSTC"
CONTAINER_VERSION = 1
CONTAINER_HEADER_BYTES = 4 + 1 + 1 + 1 + 1 + 2 + 8 + 4 + 8
_FLAG_SHAPED = 0x01
_MAX_ALPHABET_SIZE = 0xFFFF  # 2-byte field
_MAX_EXTRA_LENGTH = 0xFF  # 1-byte field


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
                f"2-byte field (1..{_MAX_ALPHABET_SIZE})"
            )
        if not 0 <= self.extra_length <= _MAX_EXTRA_LENGTH:
            raise TooLargeError(
                f"extra length {self.extra_length} does not fit the container's "
                f"1-byte K field (0..{_MAX_EXTRA_LENGTH})"
            )

    @property
    def framing_bits(self) -> int:
        return _framing_bits(self.scheme.bit_length, self.payload.bit_length)


def _framing_bits(scheme_bits: int, payload_bits: int) -> int:
    """Container bits beyond scheme and payload: the header, plus the
    padding that rounds each block up to whole bytes."""
    return 8 * CONTAINER_HEADER_BYTES + (-scheme_bits) % 8 + (-payload_bits) % 8


def pack_container(container: Container) -> bytes:
    out = bytearray()
    out += MAGIC
    out.append(CONTAINER_VERSION)
    out.append(container.scheme_format.wire_value)
    out.append(_FLAG_SHAPED if container.shaped else 0)
    out.append(container.extra_length)
    out += container.alphabet_size.to_bytes(2, "big")
    out += container.sequence_length.to_bytes(8, "big")
    out += container.scheme.bit_length.to_bytes(4, "big")
    out += container.scheme.data
    out += container.payload.bit_length.to_bytes(8, "big")
    out += container.payload.data
    return bytes(out)


def unpack_container(data: bytes) -> Container:
    def take(pos: int, count: int) -> tuple[bytes, int]:
        if pos + count > len(data):
            raise MalformedPayloadError(
                f"container truncated at byte {pos}: wanted {count} more"
            )
        return data[pos : pos + count], pos + count

    chunk, pos = take(0, 4)
    if chunk != MAGIC:
        raise MalformedPayloadError(f"bad magic {chunk!r}")
    chunk, pos = take(pos, 1)
    if chunk[0] != CONTAINER_VERSION:
        raise MalformedPayloadError(
            f"unsupported container version {chunk[0]}, expected {CONTAINER_VERSION}"
        )
    chunk, pos = take(pos, 1)
    fmt = SchemeFormat.from_wire(chunk[0])
    chunk, pos = take(pos, 1)
    if chunk[0] & ~_FLAG_SHAPED:
        raise MalformedPayloadError(f"unknown flag bits 0x{chunk[0]:02x}")
    shaped = bool(chunk[0] & _FLAG_SHAPED)
    chunk, pos = take(pos, 1)
    extra_length = chunk[0]
    if shaped and extra_length < 1:
        raise MalformedPayloadError("shaped container without an extra length")
    chunk, pos = take(pos, 2)
    alphabet_size = int.from_bytes(chunk, "big")
    if alphabet_size < 1:
        raise MalformedPayloadError("alphabet size 0")
    chunk, pos = take(pos, 8)
    sequence_length = int.from_bytes(chunk, "big")
    chunk, pos = take(pos, 4)
    scheme_bits = int.from_bytes(chunk, "big")
    chunk, pos = take(pos, (scheme_bits + 7) // 8)
    scheme = Bits(chunk, scheme_bits)
    chunk, pos = take(pos, 8)
    payload_bits = int.from_bytes(chunk, "big")
    chunk, pos = take(pos, (payload_bits + 7) // 8)
    payload = Bits(chunk, payload_bits)
    if pos != len(data):
        raise MalformedPayloadError(f"{len(data) - pos} trailing bytes")
    return Container(
        scheme_format=fmt,
        alphabet_size=alphabet_size,
        sequence_length=sequence_length,
        scheme=scheme,
        payload=payload,
        shaped=shaped,
        extra_length=extra_length,
    )
