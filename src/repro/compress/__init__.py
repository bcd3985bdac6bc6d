"""Compression substrate.

The paper compresses every chunk with LZ4 (2:1 average on tomographic
projections).  This package provides:

- :mod:`repro.compress.lz4_block` — a from-scratch, format-correct LZ4
  *block* compressor/decompressor (match finding in numpy, a Python
  walk over the sequences; verified by round-trip property tests, an
  independent format walker and hand-checked vectors);
- :mod:`repro.compress.xxhash` — xxHash32, needed by the LZ4 frame
  format's checksums;
- :mod:`repro.compress.lz4_frame` — the LZ4 *frame* container (magic,
  descriptor, block sizes, checksums) over the block codec;
- :mod:`repro.compress.codec` — the codec registry the runtime uses:
  a :func:`register_codec` decorator, the serializable
  :class:`CodecSpec`, and :func:`resolve_codec` — with LZ4, the
  shuffle/delta filter stacks, zlib, and a null codec built in.

Simulation never runs a codec on the hot path — it uses calibrated
throughput constants (:mod:`repro.core.params`) and measured ratios.
"""

from repro.compress.codec import (
    Codec,
    CodecSpec,
    LZ4Codec,
    NullCodec,
    ZlibCodec,
    available_codecs,
    codec_spec,
    decompressor_for,
    get_codec,
    register_codec,
    resolve_codec,
)
from repro.compress.lz4_block import compress_block, decompress_block
from repro.compress.lz4_frame import compress_frame, decompress_frame
from repro.compress.xxhash import xxhash32

__all__ = [
    "Codec",
    "CodecSpec",
    "LZ4Codec",
    "NullCodec",
    "ZlibCodec",
    "available_codecs",
    "codec_spec",
    "compress_block",
    "compress_frame",
    "decompress_block",
    "decompress_frame",
    "decompressor_for",
    "get_codec",
    "register_codec",
    "resolve_codec",
    "xxhash32",
]
