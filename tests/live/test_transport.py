"""Framed socket transport."""

import socket
import struct
import threading
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultInjector
from repro.live.transport import (
    _BODY,
    _HEADER,
    FLAG_BLOCKS,
    FLAG_COMPRESSED,
    MAGIC,
    MAX_FRAME_PAYLOAD,
    MAX_STREAM_ID,
    Frame,
    FramedReceiver,
    FramedSender,
    decode_frame,
    encode_frame,
    pack_blocks,
    socket_pipe,
)
from repro.util.errors import FrameIntegrityError, TransportError


class TestRoundTrip:
    def test_single_frame(self):
        tx, rx = socket_pipe()
        tx.send(Frame("s1", 7, b"payload", compressed=True, orig_len=100))
        f = rx.recv()
        assert f.stream_id == "s1"
        assert f.index == 7
        assert f.payload == b"payload"
        assert f.compressed
        assert f.orig_len == 100

    def test_empty_payload(self):
        tx, rx = socket_pipe()
        tx.send(Frame("s", 0, b""))
        assert rx.recv().payload == b""

    def test_eos_frame(self):
        tx, rx = socket_pipe()
        tx.send(Frame.end_of_stream("s1"))
        f = rx.recv()
        assert f.eos and f.payload == b""

    def test_many_frames_in_order(self):
        tx, rx = socket_pipe()
        payloads = [bytes([i]) * (i * 100 + 1) for i in range(20)]

        def send_all():
            for i, p in enumerate(payloads):
                tx.send(Frame("s", i, p))
            tx.close()

        t = threading.Thread(target=send_all)
        t.start()
        for i, p in enumerate(payloads):
            f = rx.recv()
            assert f.index == i and f.payload == p
        assert rx.recv() is None  # clean shutdown
        t.join()

    def test_large_frame(self):
        tx, rx = socket_pipe()
        payload = bytes(range(256)) * 8192  # 2 MiB

        def send():
            tx.send(Frame("big", 0, payload))

        t = threading.Thread(target=send)
        t.start()
        assert rx.recv().payload == payload
        t.join()

    def test_unicode_stream_id(self):
        tx, rx = socket_pipe()
        tx.send(Frame("détecteur-1", 0, b"x"))
        assert rx.recv().stream_id == "détecteur-1"

    def test_ack_round_trip(self):
        tx, rx = socket_pipe()
        data = Frame("s1", 9, b"chunk", compressed=True)
        ack = Frame.ack_for(data)
        assert ack.ack and ack.payload == b"" and ack.key == data.key
        tx.send(ack)
        echoed = rx.recv()
        assert echoed.ack
        assert echoed.key == ("s1", 9, False)

    def test_eos_ack_keeps_eos_flag(self):
        """EOS and chunk 0 of the same stream must ACK-match distinctly
        — the eos bit is part of the identity."""
        eos = Frame.end_of_stream("s")
        data = Frame("s", 0, b"x")
        assert eos.key != data.key
        assert Frame.ack_for(eos).key == eos.key


class TestIntegrity:
    def _corrupt_wire(self, mutate):
        a, b = socket.socketpair()
        tx = FramedSender(a)
        tx.send(Frame("s", 0, b"hello world"))
        a.shutdown(socket.SHUT_WR)
        raw = bytearray()
        while True:
            part = b.recv(65536)
            if not part:
                break
            raw += part
        mutate(raw)
        c, d = socket.socketpair()
        c.sendall(bytes(raw))
        c.shutdown(socket.SHUT_WR)
        return FramedReceiver(d)

    def test_checksum_detects_payload_corruption(self):
        rx = self._corrupt_wire(lambda raw: raw.__setitem__(len(raw) - 1, raw[-1] ^ 1))
        with pytest.raises(TransportError, match="checksum"):
            rx.recv()

    def test_bad_magic(self):
        rx = self._corrupt_wire(lambda raw: raw.__setitem__(0, 0))
        with pytest.raises(TransportError, match="magic"):
            rx.recv()

    def test_truncated_frame(self):
        a, b = socket.socketpair()
        FramedSender(a).send(Frame("s", 0, b"hello world"))
        # Reader sees only a prefix, then EOF.
        raw = b.recv(10)
        c, d = socket.socketpair()
        c.sendall(raw)
        c.shutdown(socket.SHUT_WR)
        with pytest.raises(TransportError):
            FramedReceiver(d).recv()

    def test_oversized_stream_id_rejected_on_send(self):
        tx, _ = socket_pipe()
        with pytest.raises(TransportError):
            tx.send(Frame("x" * 5000, 0, b""))

    def test_clean_eof_returns_none(self):
        tx, rx = socket_pipe()
        tx.close()
        assert rx.recv() is None


def _receiver_fed(raw: bytes) -> FramedReceiver:
    """A receiver whose socket holds exactly ``raw`` then EOF."""
    a, b = socket.socketpair()
    a.sendall(raw)
    a.shutdown(socket.SHUT_WR)
    return FramedReceiver(b)


class TestWireEdgeCases:
    """Malformed wire bytes must raise FrameIntegrityError, not parse."""

    def test_bad_magic_is_integrity_error(self):
        rx = _receiver_fed(_HEADER.pack(0xDEADBEEF, 1) + b"s" + bytes(18))
        with pytest.raises(FrameIntegrityError, match="magic"):
            rx.recv()

    def test_oversized_payload_length_on_wire(self):
        """A length field beyond MAX_FRAME_PAYLOAD is rejected before
        any allocation happens."""
        wire = (
            _HEADER.pack(MAGIC, 1)
            + b"s"
            + _BODY.pack(0, 0, 0, 0, MAX_FRAME_PAYLOAD + 1)
        )
        rx = _receiver_fed(wire)
        with pytest.raises(FrameIntegrityError, match="exceeds limit"):
            rx.recv()

    def test_oversized_payload_rejected_on_send(self):
        class Huge(bytes):
            def __len__(self):
                return MAX_FRAME_PAYLOAD + 1

        tx, _ = socket_pipe()
        with pytest.raises(TransportError, match="exceeds limit"):
            tx.send(Frame("s", 0, Huge()))

    def test_overlong_stream_id_on_wire(self):
        rx = _receiver_fed(_HEADER.pack(MAGIC, MAX_STREAM_ID + 1))
        with pytest.raises(FrameIntegrityError, match="stream id"):
            rx.recv()

    def test_truncated_header_mid_read(self):
        """EOF inside the fixed-size header is a connection error, not
        a parse of garbage."""
        rx = _receiver_fed(struct.pack("<I", MAGIC))  # magic, no sid_len
        with pytest.raises(TransportError):
            rx.recv()

    def test_truncated_body_mid_read(self):
        wire = _HEADER.pack(MAGIC, 1) + b"s" + bytes(4)  # body cut short
        rx = _receiver_fed(wire)
        with pytest.raises(TransportError, match="mid-frame"):
            rx.recv()

    def test_checksum_mismatch_is_integrity_error(self):
        wire = (
            _HEADER.pack(MAGIC, 1)
            + b"s"
            + _BODY.pack(0, 0, 4, 0xBAD, 4)  # wrong checksum for b"data"
            + b"data"
        )
        rx = _receiver_fed(wire)
        with pytest.raises(FrameIntegrityError, match="checksum"):
            rx.recv()

    def test_integrity_error_is_transport_error(self):
        assert issubclass(FrameIntegrityError, TransportError)


class TestNonBlockingFeed:
    """feed() + next_frame(): the event-loop receive path, no socket."""

    @staticmethod
    def _rx():
        _a, b = socket.socketpair()
        return FramedReceiver(b)

    @staticmethod
    def _wire(frame):
        from repro.live.transport import encode_frame_header

        return encode_frame_header(frame) + frame.payload

    def test_whole_frame_in_one_feed(self):
        rx = self._rx()
        rx.feed(self._wire(Frame("s", 3, b"data", orig_len=4)))
        f = rx.next_frame()
        assert (f.stream_id, f.index, f.payload) == ("s", 3, b"data")
        assert rx.next_frame() is None
        assert not rx.pending

    def test_partial_frame_resumes_across_feeds(self):
        """A frame split at every possible byte boundary parses once
        the last byte lands — the partial-frame resume the reactor
        shards rely on."""
        wire = self._wire(Frame("split", 1, b"abcdef", orig_len=6))
        for cut in range(1, len(wire)):
            rx = self._rx()
            rx.feed(wire[:cut])
            assert rx.next_frame() is None, f"cut={cut} parsed early"
            rx.feed(wire[cut:])
            f = rx.next_frame()
            assert f is not None and f.payload == b"abcdef", f"cut={cut}"

    def test_many_frames_in_one_feed(self):
        rx = self._rx()
        frames = [Frame("s", i, bytes([i]) * 8, orig_len=8) for i in range(5)]
        rx.feed(b"".join(self._wire(f) for f in frames))
        got = []
        while (f := rx.next_frame()) is not None:
            got.append((f.index, f.payload))
        assert got == [(i, bytes([i]) * 8) for i in range(5)]

    def test_feed_then_recv_interoperate(self):
        """recv() must drain fed bytes before touching the socket."""
        a, b = socket.socketpair()
        rx = FramedReceiver(b)
        rx.feed(self._wire(Frame("s", 0, b"fed", orig_len=3)))
        a.sendall(self._wire(Frame("s", 1, b"sock", orig_len=4)))
        a.shutdown(socket.SHUT_WR)
        assert rx.recv().payload == b"fed"
        assert rx.recv().payload == b"sock"
        assert rx.recv() is None

    def test_bad_magic_raises_from_buffer(self):
        rx = self._rx()
        rx.feed(_HEADER.pack(0xDEADBEEF, 1) + b"s" + bytes(18))
        with pytest.raises(FrameIntegrityError, match="bad frame magic"):
            rx.next_frame()

    def test_checksum_mismatch_raises_from_buffer(self):
        rx = self._rx()
        rx.feed(
            _HEADER.pack(MAGIC, 1)
            + b"s"
            + _BODY.pack(0, 0, 4, 0xBAD, 4)
            + b"data"
        )
        with pytest.raises(FrameIntegrityError, match="checksum"):
            rx.next_frame()

    def test_oversized_payload_raises_from_buffer(self):
        rx = self._rx()
        rx.feed(
            _HEADER.pack(MAGIC, 1)
            + b"s"
            + _BODY.pack(0, 0, 0, 0, MAX_FRAME_PAYLOAD + 1)
        )
        with pytest.raises(FrameIntegrityError, match="exceeds limit"):
            rx.next_frame()


class TestTracedFrames:
    """FLAG_TRACED + timestamp trailer (wire format v2.2)."""

    @staticmethod
    def _wire(frame):
        from repro.live.transport import (
            encode_frame_header,
            encode_frame_trailer,
        )

        return (
            encode_frame_header(frame)
            + frame.payload
            + encode_frame_trailer(frame)
        )

    def test_traced_round_trip_over_socket(self):
        tx, rx = socket_pipe()
        tx.send(Frame("s", 4, b"chunk", orig_len=5, traced=True,
                      sent_at=123.456))
        f = rx.recv()
        assert f.traced
        assert f.sent_at == 123.456
        assert f.payload == b"chunk"

    def test_traced_round_trip_through_feed_path(self):
        _a, b = socket.socketpair()
        rx = FramedReceiver(b)
        rx.feed(self._wire(Frame("s", 0, b"x", orig_len=1, traced=True,
                                 sent_at=7.25)))
        f = rx.next_frame()
        assert f.traced and f.sent_at == 7.25

    def test_trailer_split_mid_read_resumes(self):
        wire = self._wire(Frame("s", 0, b"ab", orig_len=2, traced=True,
                                sent_at=1.5))
        for cut in range(1, len(wire)):
            _a, b = socket.socketpair()
            rx = FramedReceiver(b)
            rx.feed(wire[:cut])
            assert rx.next_frame() is None, f"cut={cut} parsed early"
            rx.feed(wire[cut:])
            f = rx.next_frame()
            assert f is not None and f.sent_at == 1.5, f"cut={cut}"

    def test_untraced_frame_is_byte_identical_to_v21(self):
        """Tracing must cost zero wire bytes when off: an untraced
        frame's bytes are exactly the pre-trace layout."""
        import zlib

        frame = Frame("s1", 9, b"data", compressed=True, orig_len=64)
        expected = (
            _HEADER.pack(MAGIC, 2)
            + b"s1"
            + _BODY.pack(9, 0x1, 64, zlib.crc32(b"data"), 4)
            + b"data"
        )
        assert self._wire(frame) == expected

    def test_traced_frame_adds_exactly_the_trailer(self):
        from repro.live.transport import TRACE_TRAILER

        plain = self._wire(Frame("s", 0, b"abc", orig_len=3))
        traced = self._wire(
            Frame("s", 0, b"abc", orig_len=3, traced=True, sent_at=2.0)
        )
        assert len(traced) == len(plain) + TRACE_TRAILER.size

    def test_checksum_covers_payload_not_trailer(self):
        """Two traced frames differing only in sent_at carry the same
        checksum — the trailer is observability metadata, not data."""
        import zlib

        wire_a = self._wire(Frame("s", 0, b"abc", orig_len=3, traced=True,
                                  sent_at=1.0))
        wire_b = self._wire(Frame("s", 0, b"abc", orig_len=3, traced=True,
                                  sent_at=2.0))
        assert wire_a[:-8] == wire_b[:-8]
        assert wire_a[-8:] != wire_b[-8:]
        _a, b = socket.socketpair()
        rx = FramedReceiver(b)
        rx.feed(wire_a)
        assert rx.next_frame().payload == b"abc"
        assert zlib.crc32(b"abc") == zlib.crc32(b"abc")  # sanity


def _blocked_wire(payload: bytes) -> bytes:
    """A compressed frame with the blocks bit over ``payload`` (table
    included) and a correct checksum, so only the table can be wrong."""
    return (
        _HEADER.pack(MAGIC, 1)
        + b"s"
        + _BODY.pack(0, FLAG_COMPRESSED | FLAG_BLOCKS, 0, zlib.crc32(payload),
                     len(payload))
        + payload
    )


def _table(count: int, sizes) -> bytes:
    """A block table declaring ``count`` blocks, listing ``sizes``."""
    return struct.pack(f"<{len(sizes) + 1}I", count, *sizes)


@st.composite
def _mangled_tables(draw):
    """A blocked payload whose table must be refused."""
    case = draw(st.sampled_from(
        ["count<2", "count beyond payload", "overrun", "underrun", "truncated"]
    ))
    if case == "truncated":
        return draw(st.binary(max_size=3))
    if case == "count<2":
        count = draw(st.integers(0, 1))
        body = draw(st.binary(max_size=64))
        return _table(count, [len(body)] * count) + body
    if case == "count beyond payload":
        count = draw(st.integers(2, 2**32 - 1))
        words = draw(st.integers(0, min(count - 1, 16)))
        return _table(count, [0] * words)
    sizes = draw(st.lists(st.integers(0, 64), min_size=2, max_size=6))
    delta = draw(st.integers(1, 64))
    if case == "overrun":  # the sizes run past the payload's end
        sizes[-1] += delta
        return _table(len(sizes), sizes) + bytes(sum(sizes) - delta)
    # "underrun": bytes are left over after the last block
    return _table(len(sizes), sizes) + bytes(sum(sizes) + delta)


class TestBlockTable:
    """FLAG_BLOCKS (v2.3): the table is checked where the CRC is."""

    def test_blocked_frame_round_trip(self):
        parts = [b"first block", b"", b"third"]
        payload, sizes = pack_blocks(parts)
        assert sizes == (11, 0, 5)
        tx, rx = socket_pipe()
        tx.send(Frame("s", 4, payload, compressed=True, orig_len=99,
                      blocks=sizes))
        f = rx.recv()
        assert f.blocks == sizes
        assert [bytes(v) for v in f.block_views()] == parts

    @given(payload=_mangled_tables())
    @settings(max_examples=200, deadline=None)
    def test_mangled_table_is_refused(self, payload):
        _a, b = socket.socketpair()
        try:
            rx = FramedReceiver(b)
            rx.feed(_blocked_wire(payload))
            with pytest.raises(FrameIntegrityError, match="block"):
                rx.next_frame()
        finally:
            _a.close()
            b.close()


@st.composite
def _frames(draw):
    """A frame over the whole flags space: compressed, eos, ack, traced,
    blocked (with a valid table) and every codec id."""
    if draw(st.booleans()):
        payload, blocks = pack_blocks(
            draw(st.lists(st.binary(max_size=48), min_size=2, max_size=5))
        )
    else:
        payload, blocks = draw(st.binary(max_size=160)), ()
    traced = draw(st.booleans())
    return Frame(
        stream_id=draw(st.text(max_size=12)),
        index=draw(st.integers(0, 2**32 - 1)),
        payload=payload,
        compressed=draw(st.booleans()),
        orig_len=draw(st.integers(0, 2**32 - 1)),
        eos=draw(st.booleans()),
        ack=draw(st.booleans()),
        codec_id=draw(st.integers(0, 255)),
        traced=traced,
        sent_at=draw(st.floats(allow_nan=False)) if traced else 0.0,
        blocks=blocks,
    )


def _parsed(parse):
    """What a decoder made of some bytes: a frame, or None if it refused."""
    try:
        return parse()
    except FrameIntegrityError:
        return None


class TestOneParser:
    """The buffer decoder (ring slots) and the receiver (sockets) are one
    parser: same checks, same frames."""

    @given(frame=_frames())
    @settings(max_examples=300, deadline=None)
    def test_every_flag_combination_round_trips(self, frame):
        wire = encode_frame(frame)
        assert decode_frame(wire) == (frame, len(wire))

    @given(frame=_frames(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mangled_bytes_get_one_verdict(self, frame, data):
        wire = bytearray(encode_frame(frame))
        for _ in range(data.draw(st.integers(0, 3))):
            wire[data.draw(st.integers(0, len(wire) - 1))] ^= data.draw(
                st.integers(1, 255)
            )
        wire = bytes(wire[: data.draw(st.integers(0, len(wire)))])
        a, b = socket.socketpair()
        try:
            rx = FramedReceiver(b)
            rx.feed(wire)
            fed = _parsed(rx.next_frame)
        finally:
            a.close()
            b.close()
        assert _parsed(lambda: decode_frame(wire)[0]) == fed


class TestSendPathParity:
    """``_send_copy`` stays because a fault injector must see (and be
    able to mangle) contiguous wire bytes; everything else goes out
    through ``sendmsg``.  Both are the same wire format."""

    FRAMES = (
        Frame("s", 0, b"", orig_len=0),
        Frame("s", 1, bytes(range(256)) * 8, compressed=True, orig_len=4096),
        Frame("s", 2, b"traced", orig_len=6, traced=True, sent_at=123.456),
        Frame.end_of_stream("s"),
    )

    @staticmethod
    def _bytes_sent(send, injector=None):
        a, b = socket.socketpair()
        try:
            send(FramedSender(a, injector=injector))
            a.close()
            b.settimeout(10.0)
            received = bytearray()
            while chunk := b.recv(1 << 16):
                received += chunk
            return bytes(received)
        finally:
            a.close()
            b.close()

    def test_copy_and_vectored_paths_put_identical_bytes_on_the_wire(self):
        def one_by_one(tx):
            for frame in self.FRAMES:
                tx.send(frame)

        injector = FaultInjector()  # no specs: observes, never sabotages
        copied = self._bytes_sent(one_by_one, injector)
        assert injector.frames_seen == len(self.FRAMES)  # took _send_copy
        vectored = self._bytes_sent(one_by_one)
        batched = self._bytes_sent(lambda tx: tx.send_many(self.FRAMES))
        expected = b"".join(TestTracedFrames._wire(f) for f in self.FRAMES)
        assert copied == vectored == batched == expected
