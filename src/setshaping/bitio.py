"""Minimal MSB-first bit stream writer/reader used by the entropy coder.

Both sides go through a '0'/'1' string of the meaningful bits, so building
or reading a stream costs time linear in its length.  The writer packs its
text with np.packbits, one byte of text a bit; the reader converts the
bytes to an int and formats its base-2 text, which CPython does in linear
time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        if self.bit_length < 0:
            raise ValueError(f"bit_length must be >= 0, got {self.bit_length}")
        if len(self.data) != (self.bit_length + 7) // 8:
            raise ValueError(
                f"{len(self.data)} bytes cannot hold exactly {self.bit_length} bits"
            )

    @classmethod
    def empty(cls) -> "Bits":
        return cls(b"", 0)


def _bits_from_string(text: str) -> Bits:
    """Pack a '0'/'1' string MSB-first, zero-padding the final byte: the
    low bit of each ASCII byte ('0' is 0x30, '1' is 0x31) is its bit, and
    np.packbits packs eight a byte in one pass in C."""
    bits = np.frombuffer(text.encode("ascii"), np.uint8) & 1
    return Bits(np.packbits(bits).tobytes(), len(text))


def _string_from_bits(bits: Bits) -> str:
    """The meaningful bits as a '0'/'1' string; pad bits are dropped."""
    value = int.from_bytes(bits.data, "big")
    return format(value, f"0{8 * len(bits.data)}b")[: bits.bit_length]


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
        return _bits_from_string(
            "".join(format(value, f"0{nbits}b") for value, nbits in self._chunks)
        )


class BitReader:
    """Reads values MSB-first; exhausting the stream is a payload error."""

    def __init__(self, bits: Bits):
        self._bits = _string_from_bits(bits)
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._bits) - self._pos

    def read(self, nbits: int) -> int:
        if nbits < 0:
            raise ValueError(f"cannot read {nbits} bits")
        pos = self._pos
        end = pos + nbits
        if end > len(self._bits):
            raise MalformedPayloadError(
                f"bit stream exhausted: wanted {nbits} bits at offset {pos} "
                f"of {len(self._bits)}"
            )
        self._pos = end
        return int(self._bits[pos:end], 2) if nbits else 0

    def read_bit(self) -> int:
        return self.read(1)
