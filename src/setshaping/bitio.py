"""Minimal MSB-first bit stream writer/reader used by the entropy coder."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedPayloadError

__all__ = ["Bits", "BitWriter", "BitReader"]


@dataclass(frozen=True)
class Bits:
    """An exact bit string: byte buffer plus the number of meaningful bits.

    Trailing pad bits in the final byte are zero and carry no information.
    """

    data: bytes
    bit_length: int

    def __post_init__(self):
        if len(self.data) != (self.bit_length + 7) // 8:
            raise ValueError(
                f"{len(self.data)} bytes cannot hold exactly {self.bit_length} bits"
            )

    @classmethod
    def empty(cls) -> "Bits":
        return cls(b"", 0)


class BitWriter:
    """Accumulates values MSB-first."""

    def __init__(self):
        self._chunks: list[tuple[int, int]] = []
        self._bit_length = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits < 0 or (nbits == 0 and value != 0) or value < 0 or value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        if nbits:
            self._chunks.append((value, nbits))
            self._bit_length += nbits

    @property
    def bit_length(self) -> int:
        return self._bit_length

    def getvalue(self) -> Bits:
        acc = 0
        for value, nbits in self._chunks:
            acc = (acc << nbits) | value
        pad = (-self._bit_length) % 8
        acc <<= pad
        nbytes = (self._bit_length + pad) // 8
        return Bits(acc.to_bytes(nbytes, "big"), self._bit_length)


class BitReader:
    """Reads values MSB-first; exhausting the stream is a payload error."""

    def __init__(self, bits: Bits):
        self._data = bits.data
        self._bit_length = bits.bit_length
        self._pos = 0

    @property
    def remaining(self) -> int:
        return self._bit_length - self._pos

    def read(self, nbits: int) -> int:
        if nbits < 0:
            raise ValueError(f"cannot read {nbits} bits")
        if self._pos + nbits > self._bit_length:
            raise MalformedPayloadError(
                f"bit stream exhausted: wanted {nbits} bits at offset {self._pos} "
                f"of {self._bit_length}"
            )
        value = 0
        pos = self._pos
        for i in range(pos, pos + nbits):
            value = (value << 1) | ((self._data[i >> 3] >> (7 - (i & 7))) & 1)
        self._pos += nbits
        return value

    def read_bit(self) -> int:
        return self.read(1)
