"""Dissect the container format byte by byte for one small message.

Shows the exact framing / scheme / payload split that the bit accounting
reports, for both scheme serializations and both shape settings.
"""
from setshaping import Alphabet, SchemeFormat, parse_sequence, unpack_container
from setshaping.cli import compress_sequence, restore_sequence

seq = parse_sequence("2 1 1 3 1", Alphabet(3))
print(f"message: '2 1 1 3 1'  (length {seq.length}, alphabet 3)")
print()

for fmt in (SchemeFormat.LENGTH_LIST, SchemeFormat.COUNT_TABLE):
    for shaped in (False, True):
        data = compress_sequence(seq, fmt, shaped=shaped, extra_length=1)
        box = unpack_container(data)
        label = f"{fmt.value:7s} shaped={str(shaped):5s}"
        print(f"[{label}] {len(data)} bytes: {data.hex()}")
        print(
            f"  header:       {box.scheme_format.value} (byte "
            f"{box.scheme_format.wire_value}), shaped={box.shaped}, "
            f"K={box.extra_length}, |A|={box.alphabet_size}, "
            f"stored length={box.sequence_length}"
        )
        print(
            f"  scheme bits:  {box.scheme.bit_length:3d}   "
            f"payload bits: {box.payload.bit_length:3d}   "
            f"framing bits: {box.framing_bits}"
        )
        assert restore_sequence(data) == seq
        print("  round trip:   ok")
        print()

print("framing (magic, version, sizes) models the shared communication")
print("language; only scheme + payload count as the compressed message.")
