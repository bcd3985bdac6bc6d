"""LZ4 *block* format codec, implemented from the format specification.

Format recap (https://github.com/lz4/lz4/blob/dev/doc/lz4_Block_format.md):

A block is a sequence of *sequences*.  Each sequence is::

    token | [literal-length extension] | literals
          | offset (2B little-endian) | [match-length extension]

- token high nibble = literal count (15 ⇒ extension bytes follow, each
  adding 255 until a byte < 255 terminates);
- token low nibble  = match length − 4 (same extension scheme);
- offset ∈ [1, 65535] points back into already-decoded output;
- the final sequence carries literals only (no offset);
- end-of-block rules: the last 5 bytes are always literals, and the last
  match must start at least 12 bytes before the end of the block.

The compressor finds matches the way "LZ4 fast" does — each position's
candidate is the most recent earlier position whose 4-byte prefix has
the same 16-bit Fibonacci hash — but it finds them for every position
of the block in numpy, 256 Ki positions at a time: one stable sort of
the hashes puts each position next to its candidate.  The interpreter
then walks only the *sequences* the block is made of (greedy forward
extension by slice comparison, backward extension over pending
literals), not its bytes.
The decompressor copies literal runs and matches slice by slice.
Simulated throughput uses calibrated constants; see DESIGN.md §2.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.util.errors import CodecError

MIN_MATCH = 4
#: Last match must start at least this many bytes before block end.
MF_LIMIT = 12
#: The final LAST_LITERALS bytes are always emitted as literals.
LAST_LITERALS = 5
MAX_OFFSET = 0xFFFF

_HASH_LOG = 16
#: Fibonacci hashing multiplier used by reference LZ4 (2654435761).
_HASH_MULT = 2654435761
#: Positions searched per numpy pass.  The result does not depend on it;
#: at this size the arrays of a pass stay in cache and their total stays
#: near 8 MB however large the block is.
_SEGMENT = 1 << 18
#: First slice length tried when extending a match forward; it doubles.
_EXTEND_START = 32


def compress_bound(n: int) -> int:
    """Worst-case compressed size for ``n`` input bytes (spec formula)."""
    if n < 0:
        raise CodecError(f"negative input size {n}")
    return n + n // 255 + 16


def _write_length(out: bytearray, length: int) -> None:
    full, last = divmod(length, 255)
    out += b"\xff" * full
    out.append(last)


def _find_matches(src: bytes, acceleration: int) -> tuple[memoryview, list[int]]:
    """Match candidates for every position of ``src``.

    Returns ``prev`` — ``prev[p]`` is the most recent earlier position
    with the same hash as ``p`` when that position is within
    ``MAX_OFFSET``, really starts with the same four bytes and ``p`` is
    a multiple of ``acceleration``; −1 otherwise — and the sorted
    positions where a run of usable positions begins (a usable position
    whose predecessor is not), so the next usable position at or after
    any point is one index or one bisection away.  Only positions before
    ``len(src) - MF_LIMIT`` are considered: a match may not start later.
    """
    count = len(src) - MF_LIMIT
    prev = np.full(count, -1, dtype=np.int32)
    for start in range(0, count, _SEGMENT):
        # Every candidate a position of this segment can use lies in the
        # MAX_OFFSET positions before it, so a window that carries them
        # finds what a search of the whole block would (and finds again,
        # harmlessly, some of what the previous window found).
        base = max(0, start - MAX_OFFSET)
        size = min(count, start + _SEGMENT) - base
        # The little-endian word at every byte offset: one overlapping view.
        words = np.ndarray((size,), dtype="<u4", buffer=src, offset=base, strides=(1,))
        # Multiplying by an odd constant permutes the 32-bit words, so two
        # products are equal exactly when the four bytes are.
        products = words * np.array(_HASH_MULT, dtype="<u4")
        hashes = (products >> (32 - _HASH_LOG)).astype(np.uint16)
        # A stable sort keeps equal hashes in position order, so each
        # position's predecessor in the sorted order is its candidate.
        order = np.argsort(hashes, kind="stable")
        cand, cur = order[:-1], order[1:]
        sorted_products = products[order]
        usable = (sorted_products[1:] == sorted_products[:-1]) & (
            cur - cand <= MAX_OFFSET
        )
        if acceleration > 1:
            usable &= (cur + base) % acceleration == 0
        prev[cur[usable] + base] = cand[usable] + base
    found = prev >= 0
    found[1:] &= ~found[:-1]
    return memoryview(prev), np.flatnonzero(found).tolist()


def _common_prefix(src: bytes, a: int, b: int, limit: int) -> int:
    """Length of the longest common prefix of ``src[a:]`` and
    ``src[b:limit]`` (``a < b``; the two may overlap)."""
    from_bytes = int.from_bytes
    length = 0
    step = _EXTEND_START
    while b + length < limit:
        differ = from_bytes(src[a + length : a + length + step], "little") ^ from_bytes(
            src[b + length : b + length + step], "little"
        )
        if differ:
            # The lowest set bit sits in the first byte that differs.
            first = ((differ & -differ).bit_length() - 1) >> 3
            return min(length + first, limit - b)
        length += step
        step *= 2
    return limit - b


def compress_block(data: bytes | bytearray | memoryview, acceleration: int = 1) -> bytes:
    """Compress ``data`` into an LZ4 block.

    ``acceleration`` ≥ 1 lets a match start only at a position that is a
    multiple of it: fewer sequences to walk, the same or a worse ratio.
    """
    if acceleration < 1:
        raise CodecError("acceleration must be >= 1")
    src = bytes(data)
    n = len(src)
    out = bytearray()
    if n == 0:
        # A zero-byte input compresses to a single empty-literal token.
        out.append(0)
        return bytes(out)
    if n < MF_LIMIT + 1:
        # Too short for any match; emit one literal run.
        _emit_last_literals(out, src, 0)
        return bytes(out)

    prev, starts = _find_matches(src, acceleration)
    match_limit = n - MF_LIMIT  # a match may not start here or later
    match_end = n - LAST_LITERALS  # nor reach past here
    anchor = 0
    next_start = 0

    while anchor < match_limit:
        ip = anchor
        candidate = prev[ip]
        if candidate < 0:
            next_start = bisect_right(starts, ip, next_start)
            if next_start == len(starts):
                break
            ip = starts[next_start]
            candidate = prev[ip]
        mlen = MIN_MATCH + _common_prefix(
            src, candidate + MIN_MATCH, ip + MIN_MATCH, match_end
        )
        # Extend backward over pending literals (improves ratio).
        while ip > anchor and candidate > 0 and src[ip - 1] == src[candidate - 1]:
            ip -= 1
            candidate -= 1
            mlen += 1
        _emit_sequence(out, src, anchor, ip, ip - candidate, mlen)
        anchor = ip + mlen

    _emit_last_literals(out, src, anchor)
    return bytes(out)


def _emit_sequence(
    out: bytearray,
    src: bytes,
    anchor: int,
    ip: int,
    offset: int,
    mlen: int,
) -> None:
    lit_len = ip - anchor
    ml_code = mlen - MIN_MATCH
    token = (min(lit_len, 15) << 4) | min(ml_code, 15)
    out.append(token)
    if lit_len >= 15:
        _write_length(out, lit_len - 15)
    out += src[anchor:ip]
    out += offset.to_bytes(2, "little")
    if ml_code >= 15:
        _write_length(out, ml_code - 15)


def _emit_last_literals(out: bytearray, src: bytes, anchor: int) -> None:
    lit_len = len(src) - anchor
    token = min(lit_len, 15) << 4
    out.append(token)
    if lit_len >= 15:
        _write_length(out, lit_len - 15)
    out += src[anchor:]


def decompress_block(
    data: bytes | bytearray | memoryview, max_output_size: int | None = None
) -> bytes:
    """Decompress an LZ4 block; raises :class:`CodecError` on malformed
    input or when the output would exceed ``max_output_size``."""
    src = bytes(data)
    n = len(src)
    if n == 0:
        raise CodecError("empty LZ4 block")
    out = bytearray()
    pos = 0
    while True:
        if pos >= n:
            raise CodecError("truncated LZ4 block (missing token)")
        token = src[pos]
        pos += 1
        # -- literals ----------------------------------------------------
        lit_len = token >> 4
        if lit_len == 15:
            lit_len, pos = _read_length(src, pos, lit_len)
        if pos + lit_len > n:
            raise CodecError("literal run overflows block")
        if lit_len:
            out += src[pos : pos + lit_len]
            pos += lit_len
        if max_output_size is not None and len(out) > max_output_size:
            raise CodecError(
                f"output exceeds max_output_size={max_output_size}"
            )
        if pos == n:
            break  # final sequence: literals only
        # -- match ---------------------------------------------------------
        if pos + 2 > n:
            raise CodecError("truncated LZ4 block (missing offset)")
        offset = int.from_bytes(src[pos : pos + 2], "little")
        pos += 2
        if offset == 0:
            raise CodecError("invalid zero offset")
        if offset > len(out):
            raise CodecError(
                f"offset {offset} reaches before block start (have {len(out)})"
            )
        mlen = token & 0x0F
        if mlen == 15:
            mlen, pos = _read_length(src, pos, mlen)
        mlen += MIN_MATCH
        if max_output_size is not None and len(out) + mlen > max_output_size:
            raise CodecError(
                f"output exceeds max_output_size={max_output_size}"
            )
        _copy_match(out, offset, mlen)
    return bytes(out)


def _read_length(src: bytes, pos: int, base: int) -> tuple[int, int]:
    length = base
    while True:
        if pos >= len(src):
            raise CodecError("truncated length extension")
        b = src[pos]
        pos += 1
        length += b
        if b != 255:
            return length, pos


def _copy_match(out: bytearray, offset: int, mlen: int) -> None:
    start = len(out) - offset
    if offset >= mlen:
        # Disjoint copy.
        out += out[start : start + mlen]
        return
    # Overlapping copy replicates the last `offset` bytes; doubling the
    # pattern is equivalent to the spec's byte-at-a-time semantics.
    pattern = out[start:]
    reps, rem = divmod(mlen, offset)
    out += pattern * reps + pattern[:rem]
