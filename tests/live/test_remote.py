"""Two-endpoint live pipeline over localhost TCP."""

import threading

import numpy as np
import pytest

from repro.data.chunking import Chunk
from repro.faults import FaultInjector, LiveFaultSpec, RetryPolicy, TimeoutPolicy
from repro.live.remote import ReceiverServer, SenderClient
from repro.telemetry import Telemetry
from repro.util.errors import TransportError, ValidationError
from repro.util.rng import make_rng

FAST_RETRY = RetryPolicy(base_delay=0.01, max_delay=0.1)


def chunks(n=8, size=2048, stream="tcp-s", seed=1):
    rng = make_rng(seed, "remote-test")
    for i in range(n):
        yield Chunk(
            stream_id=stream,
            index=i,
            nbytes=size,
            payload=rng.integers(0, 256, size, dtype=np.uint8).tobytes(),
        )


def run_pair(server, client_kwargs, source, sink=None):
    """Drive server + client concurrently; return both reports."""
    host, port = server.address
    reports = {}

    def serve():
        reports["rx"] = server.serve(sink=sink)

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    client = SenderClient(host, port, **client_kwargs)
    reports["tx"] = client.run(source)
    t.join(timeout=30)
    assert not t.is_alive(), "receiver did not finish"
    return reports["tx"], reports["rx"]


class TestEndToEnd:
    def test_single_connection(self):
        server = ReceiverServer(codec="zlib", connections=1)
        tx, rx = run_pair(server, dict(codec="zlib", connections=1), chunks(6))
        assert tx.ok, tx.errors
        assert rx.ok, rx.errors
        assert rx.chunks == 6
        assert rx.payload_bytes == 6 * 2048
        assert tx.wire_bytes == rx.wire_bytes

    def test_multiple_connections(self):
        server = ReceiverServer(codec="zlib", connections=3, decompress_threads=2)
        tx, rx = run_pair(
            server,
            dict(codec="zlib", connections=3, compress_threads=2),
            chunks(12),
        )
        assert tx.ok and rx.ok
        assert rx.chunks == 12

    def test_payload_integrity(self):
        originals = {}

        def source():
            for c in chunks(5):
                originals[c.index] = c.payload
                yield c

        received = {}
        server = ReceiverServer(codec="zlib", connections=1)
        tx, rx = run_pair(
            server,
            dict(codec="zlib", connections=1),
            source(),
            sink=lambda s, i, d: received.__setitem__(i, d),
        )
        assert rx.ok
        assert received == originals

    def test_codec_mismatch_detected(self):
        """Sender compresses with zlib, receiver expects LZ4 frames —
        the decompressor must error, not deliver garbage."""
        server = ReceiverServer(
            codec="lz4", connections=1, timeouts=TimeoutPolicy(join=30)
        )
        tx, rx = run_pair(server, dict(codec="zlib", connections=1), chunks(2))
        assert not rx.ok
        assert any("decompressor" in e for e in rx.errors)

    def test_summary_renders(self):
        server = ReceiverServer(codec="zlib", connections=1)
        tx, rx = run_pair(server, dict(codec="zlib", connections=1), chunks(2))
        assert "sender" in tx.summary()
        assert "receiver" in rx.summary()

    def test_report_protocol(self):
        from repro.core.results import RunResult, result_envelope

        server = ReceiverServer(codec="zlib", connections=1)
        tx, rx = run_pair(server, dict(codec="zlib", connections=1), chunks(2))
        for report in (tx, rx):
            assert isinstance(report, RunResult)
            doc = result_envelope(report)
            assert doc["kind"] == "EndpointReport"
            assert doc["ok"] is True
            assert doc["result"]["chunks"] == report.chunks


class TestResilience:
    def test_survives_dropped_connection(self):
        """A connection killed mid-stream reconnects, replays, and the
        sink still sees every chunk exactly once."""
        tel = Telemetry()
        received = []
        server = ReceiverServer(
            connections=1, telemetry=tel, timeouts=TimeoutPolicy(accept=15)
        )
        injector = FaultInjector(
            [LiveFaultSpec(kind="drop", at_frame=3)], telemetry=tel
        )
        tx, rx = run_pair(
            server,
            dict(
                connections=1, telemetry=tel, injector=injector,
                retry=FAST_RETRY,
            ),
            chunks(10),
            sink=lambda s, i, d: received.append((s, i)),
        )
        assert tx.ok, tx.errors
        assert rx.ok, rx.errors
        assert sorted(received) == [("tcp-s", i) for i in range(10)]
        assert tel.counter_value("transport_retries_total") >= 1

    def test_corrupt_frame_rejected_and_redelivered(self):
        tel = Telemetry()
        received = []
        server = ReceiverServer(
            connections=1, telemetry=tel, timeouts=TimeoutPolicy(accept=15)
        )
        injector = FaultInjector(
            [LiveFaultSpec(kind="corrupt", at_frame=2)], telemetry=tel
        )
        tx, rx = run_pair(
            server,
            dict(
                connections=1, telemetry=tel, injector=injector,
                retry=FAST_RETRY,
            ),
            chunks(8),
            sink=lambda s, i, d: received.append(i),
        )
        assert tx.ok and rx.ok
        assert sorted(received) == list(range(8))
        assert tel.counter_value("transport_frames_rejected_total") >= 1
        assert tel.counter_value("transport_redeliveries_total") >= 1

    def test_delay_fault_does_not_lose_chunks(self):
        injector = FaultInjector(
            [LiveFaultSpec(kind="delay", at_frame=1, delay=0.05, count=3)]
        )
        server = ReceiverServer(connections=2)
        tx, rx = run_pair(
            server,
            dict(connections=2, injector=injector, retry=FAST_RETRY),
            chunks(10),
        )
        assert tx.ok and rx.ok
        assert rx.chunks == 10

    def test_reconnect_gives_up_after_max_attempts(self):
        """With the receiver gone for good, the sender's backoff runs
        out and the failure is reported, not hung."""
        server = ReceiverServer(
            connections=1, timeouts=TimeoutPolicy(accept=1.0, join=10)
        )
        host, port = server.address
        server._listener.close()  # nothing will ever accept

        client = SenderClient(
            host, port,
            connections=1,
            retry=RetryPolicy(max_attempts=2, base_delay=0.01),
            timeouts=TimeoutPolicy(connect=0.5, join=10, drain=2),
        )
        with pytest.raises(TransportError, match="cannot connect"):
            client.run(chunks(2))


class TestTimeoutPolicy:
    def test_policy_applies(self):
        server = ReceiverServer(
            connections=1, timeouts=TimeoutPolicy(accept=0.7)
        )
        assert server.timeouts.accept == 0.7
        server._listener.close()

        client = SenderClient(
            "h", 1, timeouts=TimeoutPolicy(connect=0.9, join=11)
        )
        assert client.timeouts.connect == 0.9
        assert client.timeouts.join == 11

    def test_deprecated_kwargs_removed(self):
        """The PR 2/3 ``*_timeout=`` aliases are gone for good."""
        with pytest.raises(TypeError, match="accept_timeout"):
            ReceiverServer(connections=1, accept_timeout=0.7)
        with pytest.raises(TypeError, match="connect_timeout"):
            SenderClient("h", 1, connect_timeout=0.9)
        with pytest.raises(TypeError, match="join_timeout"):
            SenderClient("h", 1, join_timeout=11)

    def test_policy_keeps_other_fields(self):
        server = ReceiverServer(
            connections=1,
            timeouts=TimeoutPolicy(join=50, accept=0.3),
        )
        assert server.timeouts.join == 50
        assert server.timeouts.accept == 0.3
        server._listener.close()

    def test_validation(self):
        with pytest.raises(ValidationError):
            TimeoutPolicy(accept=0)
        with pytest.raises(ValidationError):
            TimeoutPolicy(join=-1)


class TestFailureModes:
    def test_connect_refused(self):
        client = SenderClient(
            "127.0.0.1", 1, timeouts=TimeoutPolicy(connect=1)
        )
        with pytest.raises(TransportError, match="cannot connect"):
            client.run(chunks(1))

    def test_accept_timeout(self):
        server = ReceiverServer(
            connections=1, timeouts=TimeoutPolicy(accept=0.2)
        )
        report = server.serve()
        assert not report.ok
        assert "timed out" in report.errors[0]

    def test_validation(self):
        with pytest.raises(ValidationError):
            ReceiverServer(connections=0)
        with pytest.raises(ValidationError):
            SenderClient("h", 1, connections=0)


import socket  # noqa: E402

from repro.live.remote import EndpointReport  # noqa: E402
from repro.live.transport import (  # noqa: E402
    Frame,
    FramedReceiver,
    FramedSender,
)


class TestSenderDialCleanup:
    def test_dial_failure_closes_earlier_connections(self):
        """Regression: dialing N connections where connection k fails
        used to leak the k already-connected sockets."""
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]
        client = SenderClient(
            host,
            port,
            codec="zlib",
            connections=2,
            timeouts=TimeoutPolicy(connect=5),
        )
        dialed = []
        orig = client._dial

        def dial(index):
            if index == 1:
                # Listener goes away between the first and second dial:
                # the second create_connection is refused for real.
                listener.close()
            tx = orig(index)
            dialed.append(tx)
            return tx

        client._dial = dial
        with pytest.raises(TransportError, match="cannot connect"):
            client.run(chunks(2))
        assert len(dialed) == 1
        assert dialed[0].sock.fileno() == -1, "leaked the first connection"


class TestReceiverConnTracking:
    def test_reconnect_storm_keeps_live_conns_bounded(self, monkeypatch):
        """Under reconnect churn the receive plane must not retain one
        connection object per historical socket: the reactor shards
        drop a ``_Conn`` when its socket dies, so the open set stays
        bounded however many sessions came and went."""
        from repro.live import eventloop

        planes = []
        real_start = eventloop.EventLoopPlane.start

        def spy_start(plane):
            planes.append(plane)
            real_start(plane)

        monkeypatch.setattr(eventloop.EventLoopPlane, "start", spy_start)
        server = ReceiverServer(
            codec="null",
            connections=1,
            shards=2,
            timeouts=TimeoutPolicy(accept=30, join=30),
        )
        host, port = server.address
        box = {}
        peak = [0]

        def sink(stream_id, index, data):
            # Runs after the storm (the clean session's only chunk):
            # whatever the shards still hold open is what was retained.
            (plane,) = planes
            peak[0] = sum(len(shard._conns) for shard in plane.shards)

        def serve():
            box["rx"] = server.serve(sink)

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        # The storm: connections that drop before end-of-stream.
        for _ in range(15):
            s = socket.create_connection((host, port), timeout=5)
            s.close()
        # One clean session lets the run finish.
        sock = socket.create_connection((host, port), timeout=5)
        sock.settimeout(10.0)
        tx, rx = FramedSender(sock), FramedReceiver(sock)
        tx.send(Frame("storm-s", 0, b"x" * 64, orig_len=64))
        tx.send(Frame.end_of_stream("storm-s"))
        for _ in range(2):
            ack = rx.recv()
            assert ack is not None and ack.ack
        tx.close()
        t.join(timeout=30)
        assert not t.is_alive(), "receiver did not finish"
        sock.close()
        assert box["rx"].ok, box["rx"].errors
        # Dead storm sockets were dropped as the shards saw them close;
        # nothing accumulates one entry per historical connection.
        assert 1 <= peak[0] <= 5
        (plane,) = planes
        assert sum(len(shard._conns) for shard in plane.shards) == 0


class TestReportProtocol:
    def test_error_report_round_trip(self):
        from repro.core.results import RunResult, result_envelope

        report = EndpointReport(
            role="receiver",
            chunks=3,
            payload_bytes=10,
            wire_bytes=12,
            elapsed=0.5,
            errors=["decompressor: boom"],
        )
        assert isinstance(report, RunResult)
        assert report.ok is False
        assert "ERRORS: decompressor: boom" in report.summary()
        doc = report.to_dict()
        assert doc["ok"] is False
        assert doc["errors"] == ["decompressor: boom"]
        env = result_envelope(report)
        assert env["kind"] == "EndpointReport"
        assert env["ok"] is False
        assert env["result"]["chunks"] == 3

    def test_ok_report_has_no_errors_key_surprises(self):
        report = EndpointReport(
            role="sender", chunks=1, payload_bytes=1, wire_bytes=1,
            elapsed=0.1,
        )
        assert report.ok is True
        assert report.to_dict()["errors"] == []


class TestRedial:
    def test_redial_reconnects_with_connection_index(self):
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]
        client = SenderClient(
            host,
            port,
            codec="zlib",
            connections=4,
            timeouts=TimeoutPolicy(connect=5),
        )
        accepted = []

        def accept():
            conn, _ = listener.accept()
            accepted.append(conn)

        t = threading.Thread(target=accept, daemon=True)
        t.start()
        tx = client._dial(3)
        t.join(timeout=5)
        assert isinstance(tx, FramedSender)
        assert tx.connection == 3, "redial lost its connection index"
        tx.sock.close()
        for conn in accepted:
            conn.close()
        listener.close()
