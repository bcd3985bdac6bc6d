"""LZ4 *frame* container over the block codec.

Implements the interoperable subset of the LZ4 frame specification
(v1.6.x): magic number, frame descriptor (FLG/BD/HC), independent
blocks with 4-byte size headers (high bit ⇒ stored uncompressed),
optional per-block checksums, EndMark, and optional content checksum —
all checksums via :func:`repro.compress.xxhash.xxhash32`.

Written: :func:`compress_frame` sets the content-checksum flag unless
told not to; :class:`repro.compress.codec.LZ4Codec` tells it not to, as
LZ4F does by default, so the codec's frames carry only the HC byte.
Read: :func:`decompress_frame` verifies every checksum a frame's flags
announce, whoever wrote it.

Unsupported (rejected on read, never written): linked blocks,
dictionaries, skippable frames.
"""

from __future__ import annotations

from repro.compress.lz4_block import compress_block, decompress_block
from repro.compress.xxhash import as_byte_view, xxhash32
from repro.util.errors import CodecError

MAGIC = 0x184D2204
_VERSION = 0b01

#: BD byte "block maximum size" codes -> bytes.
BLOCK_MAX_SIZES = {4: 64 * 1024, 5: 256 * 1024, 6: 1024 * 1024, 7: 4 * 1024 * 1024}
_DEFAULT_BD_CODE = 7


def compress_frame(
    data: bytes | bytearray | memoryview,
    *,
    block_max_size: int = BLOCK_MAX_SIZES[_DEFAULT_BD_CODE],
    block_checksums: bool = False,
    content_checksum: bool = True,
    store_content_size: bool = True,
    acceleration: int = 1,
) -> bytes:
    """Wrap ``data`` in an LZ4 frame, compressing block by block."""
    bd_code = None
    for code, size in BLOCK_MAX_SIZES.items():
        if size == block_max_size:
            bd_code = code
    if bd_code is None:
        raise CodecError(
            f"block_max_size must be one of {sorted(BLOCK_MAX_SIZES.values())}"
        )
    src = as_byte_view(data)
    out = bytearray()
    out += MAGIC.to_bytes(4, "little")
    flg = (
        (_VERSION << 6)
        | (1 << 5)  # block independence
        | (int(block_checksums) << 4)
        | (int(store_content_size) << 3)
        | (int(content_checksum) << 2)
    )
    bd = bd_code << 4
    descriptor = bytearray([flg, bd])
    if store_content_size:
        descriptor += len(src).to_bytes(8, "little")
    out += descriptor
    out.append((xxhash32(descriptor) >> 8) & 0xFF)  # HC byte

    for start in range(0, len(src), block_max_size):
        raw = src[start : start + block_max_size]
        comp = compress_block(raw, acceleration=acceleration)
        if len(comp) < len(raw):
            out += len(comp).to_bytes(4, "little")
            payload = comp
        else:
            out += (len(raw) | 0x80000000).to_bytes(4, "little")
            payload = raw
        out += payload
        if block_checksums:
            out += xxhash32(payload).to_bytes(4, "little")

    out += (0).to_bytes(4, "little")  # EndMark
    if content_checksum:
        out += xxhash32(src).to_bytes(4, "little")
    return bytes(out)


def decompress_frame(data: bytes | bytearray | memoryview) -> bytes:
    """Unwrap and decompress an LZ4 frame; verifies all checksums."""
    src = bytes(data)
    pos = 0

    def take(k: int, what: str) -> bytes:
        nonlocal pos
        if pos + k > len(src):
            raise CodecError(f"truncated frame ({what})")
        chunk = src[pos : pos + k]
        pos += k
        return chunk

    magic = int.from_bytes(take(4, "magic"), "little")
    if magic != MAGIC:
        raise CodecError(f"bad magic 0x{magic:08X}")
    desc_start = pos
    flg, bd = take(2, "descriptor")
    if (flg >> 6) != _VERSION:
        raise CodecError(f"unsupported frame version {flg >> 6}")
    if not (flg >> 5) & 1:
        raise CodecError("linked blocks are not supported")
    if flg & 0b11:
        raise CodecError("reserved FLG bits set / dictionaries unsupported")
    block_checksums = bool((flg >> 4) & 1)
    has_content_size = bool((flg >> 3) & 1)
    content_checksum = bool((flg >> 2) & 1)
    bd_code = (bd >> 4) & 0x7
    if bd & 0b10001111:
        raise CodecError("reserved BD bits set")
    try:
        block_max = BLOCK_MAX_SIZES[bd_code]
    except KeyError as exc:
        raise CodecError(f"invalid block-max-size code {bd_code}") from exc
    content_size = None
    if has_content_size:
        content_size = int.from_bytes(take(8, "content size"), "little")
    descriptor = src[desc_start:pos]
    hc = take(1, "header checksum")[0]
    if hc != (xxhash32(descriptor) >> 8) & 0xFF:
        raise CodecError("frame descriptor checksum mismatch")

    out = bytearray()
    while True:
        block_size = int.from_bytes(take(4, "block size"), "little")
        if block_size == 0:
            break  # EndMark
        uncompressed = bool(block_size & 0x80000000)
        block_size &= 0x7FFFFFFF
        if block_size > block_max:
            raise CodecError(f"block size {block_size} exceeds frame maximum")
        payload = take(block_size, "block payload")
        if block_checksums:
            want = int.from_bytes(take(4, "block checksum"), "little")
            if xxhash32(payload) != want:
                raise CodecError("block checksum mismatch")
        if uncompressed:
            out += payload
        else:
            out += decompress_block(payload, max_output_size=block_max)

    if content_checksum:
        want = int.from_bytes(take(4, "content checksum"), "little")
        if xxhash32(out) != want:
            raise CodecError("content checksum mismatch")
    if content_size is not None and content_size != len(out):
        raise CodecError(
            f"content size mismatch: descriptor says {content_size}, got {len(out)}"
        )
    return bytes(out)
