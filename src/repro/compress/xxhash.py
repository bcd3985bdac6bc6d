"""xxHash32 — the checksum used by the LZ4 frame format.

Implemented from the published algorithm specification (XXH32) and
verified against the reference test vectors and a scalar transcription
of the spec in ``tests/compress/test_xxhash.py``.

Written: the LZ4 frame writer hashes the frame descriptor (its HC
byte) and whatever checksums the caller asks for; the ``lz4`` codecs
ask for none, since the transport frame's CRC-32 already covers every
hop.  Read: the frame reader verifies every checksum a frame carries,
so a frame with a content checksum (the ``lz4`` command-line tool
writes one by default, and so did this codec once) runs the 16-byte
stripe loop over the whole chunk, and that loop is the cost that
matters.  The four accumulators of XXH32 never mix until the final
merge, so they are kept side by side in *one* Python integer, each
lane in its own 64-bit slot: numpy multiplies every input word by PRIME2
(mod 2³²) ahead of time and widens it to 64 bits, and the interpreter
then runs one add / rotate / multiply per stripe instead of four.  A
32×32-bit product fits its 64-bit slot, so lanes never carry into each
other.  The input is never copied — ``bytes``, ``bytearray``
and contiguous ``memoryview`` are read in place.
"""

from __future__ import annotations

import numpy as np

_PRIME1 = 0x9E3779B1
_PRIME2 = 0x85EBCA77
_PRIME3 = 0xC2B2AE3D
_PRIME4 = 0x27D4EB2F
_PRIME5 = 0x165667B1

_MASK = 0xFFFFFFFF
#: ``_MASK`` in each of the four 64-bit lane slots.
_MASK4 = _MASK | _MASK << 64 | _MASK << 128 | _MASK << 192
#: Bytes of one widened stripe: four lanes, eight bytes each.
_WIDE_STRIPE = 32


def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (32 - r))) & _MASK


def as_byte_view(data: bytes | bytearray | memoryview) -> memoryview:
    """A flat uint8 view of ``data``, zero-copy whenever possible."""
    buf = data if isinstance(data, memoryview) else memoryview(data)
    if not buf.contiguous or buf.ndim != 1:
        return memoryview(bytes(buf))
    if buf.itemsize != 1 or buf.format != "B":
        return buf.cast("B")
    return buf


def _stripes(buf: memoryview, seed: int, stripes: int) -> int:
    """Run the four accumulators over ``stripes`` whole 16-byte stripes
    of ``buf`` and merge them."""
    words = np.frombuffer(buf, dtype="<u4", count=stripes * 4)
    wide = (words * np.array(_PRIME2, dtype="<u4")).astype("<u8").tobytes()
    mask4, p1, from_bytes = _MASK4, _PRIME1, int.from_bytes
    v = (
        ((seed + _PRIME1 + _PRIME2) & _MASK)
        | ((seed + _PRIME2) & _MASK) << 64
        | seed << 128
        | ((seed - _PRIME1) & _MASK) << 192
    )
    # ``v`` holds the unreduced products: (2³²−1)² plus a 32-bit word is
    # still below 2⁶⁴, so the sum stays inside its slot and one mask
    # reduces both.
    for i in range(0, len(wide), _WIDE_STRIPE):
        acc = (v + from_bytes(wide[i : i + _WIDE_STRIPE], "little")) & mask4
        v = (((acc << 13) | (acc >> 19)) & mask4) * p1
    v &= mask4
    return (
        _rotl(v & _MASK, 1)
        + _rotl((v >> 64) & _MASK, 7)
        + _rotl((v >> 128) & _MASK, 12)
        + _rotl(v >> 192, 18)
    ) & _MASK


def xxhash32(data: bytes | bytearray | memoryview, seed: int = 0) -> int:
    """Compute XXH32 of ``data`` with ``seed``."""
    buf = as_byte_view(data)
    n = len(buf)
    seed &= _MASK
    idx = n & ~15  # end of the last whole 16-byte stripe

    if idx:
        h = _stripes(buf, seed, idx >> 4)
    else:
        h = (seed + _PRIME5) & _MASK

    h = (h + n) & _MASK

    while idx + 4 <= n:
        h = (h + int.from_bytes(buf[idx : idx + 4], "little") * _PRIME3) & _MASK
        h = (_rotl(h, 17) * _PRIME4) & _MASK
        idx += 4

    while idx < n:
        h = (h + buf[idx] * _PRIME5) & _MASK
        h = (_rotl(h, 11) * _PRIME1) & _MASK
        idx += 1

    h ^= h >> 15
    h = (h * _PRIME2) & _MASK
    h ^= h >> 13
    h = (h * _PRIME3) & _MASK
    h ^= h >> 16
    return h
