"""The ``lz4`` codec's frames carry no content checksum, so the
transport frame's CRC-32 is what guards a compressed chunk on every hop:
a flipped byte is refused on the socket and in a ring record."""

import pytest

from repro.compress.codec import get_codec
from repro.data.chunking import Chunk
from repro.data.spheres import SpheresDataset
from repro.faults import FaultInjector, LiveFaultSpec, TimeoutPolicy
from repro.live.remote import ReceiverServer
from repro.live.transport import Frame
from repro.mp.records import pack_record, unpack_record
from repro.telemetry import Telemetry
from repro.util.errors import FrameIntegrityError
from tests.live.test_remote import FAST_RETRY, run_pair

DATASET = SpheresDataset(detector_shape=(64, 128), seed=7)


def _payload(index: int) -> bytes:
    return DATASET.chunk_payload(index)


class TestOverTcp:
    def test_corrupt_lz4_frame_rejected_and_redelivered(self):
        tel = Telemetry()
        received = []
        server = ReceiverServer(
            connections=1, codec="lz4", telemetry=tel,
            timeouts=TimeoutPolicy(accept=15),
        )
        injector = FaultInjector(
            [LiveFaultSpec(kind="corrupt", at_frame=2)], telemetry=tel
        )
        source = [
            Chunk("tcp-lz4", i, len(_payload(i)), payload=_payload(i))
            for i in range(6)
        ]
        tx, rx = run_pair(
            server,
            dict(
                connections=1, codec="lz4", telemetry=tel,
                injector=injector, retry=FAST_RETRY,
            ),
            iter(source),
            sink=lambda s, i, d: received.append((i, bytes(d))),
        )
        assert tx.ok and rx.ok
        assert sorted(i for i, _ in received) == list(range(6))  # once each
        for i, data in received:
            assert data == _payload(i)
        assert tel.counter_value("transport_frames_rejected_total") >= 1
        assert tel.counter_value("transport_redeliveries_total") >= 1


class TestOnTheRing:
    def test_flipped_lz4_block_byte_is_refused(self):
        data = _payload(0)
        codec = get_codec("lz4")
        wire = codec.compress(data)
        # The last literal of the frame's one block: a block ends on
        # literals and the frame on its 4-byte EndMark.
        at = len(wire) - 5
        mangled = bytearray(wire)
        mangled[at] ^= 0x01
        # The codec layer alone would hand back other bytes ...
        assert codec.decompress(bytes(mangled)) != data
        raw = bytearray(pack_record(Frame("s0", 0, wire, True, len(data))))
        raw[raw.index(wire) + at] ^= 0x01
        # ... the record's CRC-32 refuses them.
        with pytest.raises(FrameIntegrityError):
            unpack_record(bytes(raw))
