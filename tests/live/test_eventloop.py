"""Event-loop receiver plane: sharding, backpressure, mode parity."""

import resource
import socket
import threading
import time

import numpy as np
import pytest

from repro.data.chunking import Chunk
from repro.faults import TimeoutPolicy
from repro.live.eventloop import DEFAULT_STREAM_BUDGET, default_shards
from repro.live.remote import ReceiverServer, SenderClient
from repro.live.transport import Frame, FramedReceiver, FramedSender
from repro.obs.events import EventBus
from repro.telemetry import Telemetry
from repro.util.errors import ValidationError
from repro.util.rng import make_rng


def stream_chunks(streams, per_stream, size=1024, seed=3):
    rng = make_rng(seed, "eventloop-test")
    for i in range(per_stream):
        for s in range(streams):
            yield Chunk(
                stream_id=f"el-{s:03d}",
                index=i,
                nbytes=size,
                payload=rng.integers(0, 256, size, dtype=np.uint8).tobytes(),
            )


def run_pair(server, client_kwargs, source, sink=None):
    host, port = server.address
    reports = {}

    def serve():
        reports["rx"] = server.serve(sink=sink)

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    client = SenderClient(host, port, **client_kwargs)
    reports["tx"] = client.run(source)
    t.join(timeout=60)
    assert not t.is_alive(), "receiver did not finish"
    return reports["tx"], reports["rx"]


class TestDefaultShards:
    def test_bounded_by_cpus_and_cap(self):
        assert default_shards(1) == 1
        assert default_shards(4) == 4
        assert default_shards(64) == 8

    def test_never_zero(self):
        assert default_shards(0) == 1


class TestMultiShard:
    def test_many_streams_across_shards_exactly_once(self):
        """Connections park round-robin, then migrate to their hashed
        shard on the first data frame — every chunk must still arrive
        exactly once."""
        streams, per_stream = 6, 5
        received = {}
        lock = threading.Lock()

        def sink(stream_id, index, data):
            with lock:
                key = (stream_id, index)
                assert key not in received, f"duplicate {key}"
                received[key] = data

        server = ReceiverServer(
            codec="zlib",
            connections=streams,
            decompress_threads=2,
            mode="eventloop",
            shards=4,
        )
        tx, rx = run_pair(
            server,
            dict(codec="zlib", connections=streams, compress_threads=2),
            stream_chunks(streams, per_stream),
            sink=sink,
        )
        assert tx.ok, tx.errors
        assert rx.ok, rx.errors
        assert len(received) == streams * per_stream
        assert rx.chunks == streams * per_stream

    def test_single_shard_still_serves_many_connections(self):
        server = ReceiverServer(
            codec="zlib", connections=4, mode="eventloop", shards=1
        )
        tx, rx = run_pair(
            server,
            dict(codec="zlib", connections=4),
            stream_chunks(4, 4),
        )
        assert tx.ok and rx.ok
        assert rx.chunks == 16


class TestBackpressure:
    def test_slow_stream_defers_without_losing_chunks(self):
        """A consumer slower than the sender trips the per-stream
        in-flight budget: reads defer (counted + event) and the run
        still delivers everything exactly once."""
        tel = Telemetry()
        bus = EventBus()
        tel.attach_events(bus)
        received = set()
        lock = threading.Lock()

        def slow_sink(stream_id, index, data):
            time.sleep(0.01)
            with lock:
                assert (stream_id, index) not in received
                received.add((stream_id, index))

        server = ReceiverServer(
            codec="zlib",
            connections=1,
            decompress_threads=1,
            mode="eventloop",
            shards=1,
            # Two 2KB chunks in flight trip the budget immediately.
            stream_budget_bytes=4096,
            telemetry=tel,
            timeouts=TimeoutPolicy(accept=30, join=60),
        )
        tx, rx = run_pair(
            server,
            dict(codec="zlib", connections=1),
            stream_chunks(1, 24, size=2048),
            sink=slow_sink,
        )
        assert tx.ok, tx.errors
        assert rx.ok, rx.errors
        assert len(received) == 24
        deferred = tel.counter_value(
            "repro_receiver_deferred_total", stream="el-000"
        )
        assert deferred > 0, "budget never deferred the slow stream"
        bp = bus.recent(kind="backpressure")
        assert bp, "no watchdog-visible backpressure event"
        assert any(e.fields.get("queue") == "recv:el-000" for e in bp)

    def test_fast_stream_unaffected_by_default_budget(self):
        tel = Telemetry()
        server = ReceiverServer(
            codec="zlib", connections=1, mode="eventloop", telemetry=tel
        )
        assert server.stream_budget_bytes == DEFAULT_STREAM_BUDGET
        tx, rx = run_pair(
            server, dict(codec="zlib", connections=1), stream_chunks(1, 6)
        )
        assert tx.ok and rx.ok
        assert (
            tel.counter_value(
                "repro_receiver_deferred_total", stream="el-000"
            )
            == 0
        )


class TestModeParity:
    """The event plane's output is anchored to the input corpus (it
    used to be compared against the since-removed thread plane)."""

    def test_sink_output_byte_identical_across_modes(self):
        """The acceptance bar: what reaches the sink is, key for key
        and byte for byte, what the source produced."""
        corpus = {
            (c.stream_id, c.index): c.payload
            for c in stream_chunks(3, 6, seed=11)
        }
        received = {}
        lock = threading.Lock()

        def sink(stream_id, index, data):
            with lock:
                assert (stream_id, index) not in received
                received[(stream_id, index)] = data

        server = ReceiverServer(
            codec="zlib", connections=3, decompress_threads=2
        )
        tx, rx = run_pair(
            server,
            dict(codec="zlib", connections=3, compress_threads=2),
            stream_chunks(3, 6, seed=11),
            sink=sink,
        )
        assert tx.ok, tx.errors
        assert rx.ok, rx.errors
        assert received == corpus

    def test_reports_agree_on_chunk_counts(self):
        corpus = list(stream_chunks(2, 5, seed=12))
        server = ReceiverServer(codec="zlib", connections=2)
        tx, rx = run_pair(
            server, dict(codec="zlib", connections=2), iter(corpus)
        )
        assert tx.ok and rx.ok
        total = sum(len(c.payload) for c in corpus)
        assert (rx.chunks, rx.payload_bytes) == (len(corpus), total)
        assert (tx.chunks, tx.payload_bytes) == (len(corpus), total)


class TestValidationAndLifecycle:
    def test_bad_mode_rejected(self):
        """Only the event plane exists; the removed thread-per-
        connection plane is named in the rejection."""
        for mode in ("poll", "threads"):
            with pytest.raises(ValidationError, match="mode.*removed"):
                ReceiverServer(mode=mode)

    def test_negative_shards_rejected(self):
        with pytest.raises(ValidationError, match="shards"):
            ReceiverServer(shards=-1)

    def test_bad_budget_rejected(self):
        with pytest.raises(ValidationError, match="stream_budget_bytes"):
            ReceiverServer(stream_budget_bytes=0)

    def test_close_without_serve_releases_listener(self):
        server = ReceiverServer(codec="zlib", connections=1)
        host, port = server.address
        server.close()
        server.close()  # idempotent
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5)

    def test_context_manager_closes(self):
        with ReceiverServer(codec="zlib", connections=1) as server:
            host, port = server.address
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5)

    def test_port_rebindable_after_close(self):
        server = ReceiverServer(codec="zlib", connections=1)
        host, port = server.address
        server.close()
        rebound = ReceiverServer(host=host, port=port, codec="zlib")
        assert rebound.address[1] == port
        rebound.close()


class TestRawFrameClients:
    """Drive the plane with hand-rolled framed sockets (no SenderClient)
    to pin down ACK and dedup behavior at the wire level."""

    @staticmethod
    def _serve(server, sink=None):
        box = {}

        def serve():
            box["rx"] = server.serve(sink=sink)

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        return box, t

    def test_every_frame_acked_and_duplicates_deduped(self):
        received = []
        lock = threading.Lock()

        def sink(stream_id, index, data):
            with lock:
                received.append((stream_id, index))

        server = ReceiverServer(
            codec="null",
            connections=1,
            mode="eventloop",
            shards=2,
            timeouts=TimeoutPolicy(accept=20, join=30),
        )
        host, port = server.address
        box, t = self._serve(server, sink)
        sock = socket.create_connection((host, port), timeout=10)
        sock.settimeout(10.0)
        tx, rx = FramedSender(sock), FramedReceiver(sock)
        payload = b"x" * 512
        # Send 0, 1, then replay 1 (sender-side retransmit), then EOS.
        for index in (0, 1, 1):
            tx.send(
                Frame(
                    stream_id="raw-s",
                    index=index,
                    payload=payload,
                    orig_len=len(payload),
                )
            )
        tx.send(Frame.end_of_stream("raw-s"))
        acks = [rx.recv() for _ in range(4)]
        assert all(a is not None and a.ack for a in acks)
        assert sorted(a.index for a in acks[:3]) == [0, 1, 1]
        assert acks[3].eos
        tx.close()
        t.join(timeout=30)
        assert not t.is_alive()
        sock.close()
        assert box["rx"].ok, box["rx"].errors
        # The replayed frame was ACKed but never reached the sink twice.
        assert sorted(received) == [("raw-s", 0), ("raw-s", 1)]


def many_streams_wave(streams, chunks_per_stream, payload):
    """``streams`` concurrent loopback connections, one stream each,
    into an event-loop receiver: every client dials, all meet at a
    barrier so the connections are open at once, then each sends its
    frames and drains one ACK per frame.  Returns chunks delivered per
    stream; any client or receiver error fails the test."""
    # One client socket + one accepted socket per stream, plus slack.
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = min(hard, 2 * streams + 256)
    if want > soft:
        resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))
    counts = {}
    lock = threading.Lock()

    def sink(stream_id, index, data):
        with lock:
            counts[stream_id] = counts.get(stream_id, 0) + 1

    server = ReceiverServer(
        codec="null",
        connections=streams,
        decompress_threads=2,
        queue_capacity=256,
        timeouts=TimeoutPolicy(accept=120.0, join=120.0),
    )
    host, port = server.address
    box, server_thread = TestRawFrameClients._serve(server, sink)
    n_workers = min(16, streams)
    dialed = threading.Barrier(n_workers)
    errors = []

    def client(lo, hi):
        conns = []
        try:
            for s in range(lo, hi):
                sock = socket.create_connection((host, port), timeout=60)
                sock.settimeout(60.0)
                conns.append(
                    (f"ms-{s:04d}", FramedSender(sock), FramedReceiver(sock))
                )
            dialed.wait(120.0)
            for index in range(chunks_per_stream):
                for sid, tx, _ in conns:
                    tx.send(
                        Frame(sid, index, payload, orig_len=len(payload))
                    )
            for sid, tx, _ in conns:
                tx.send(Frame.end_of_stream(sid))
            # Every frame (data + EOS) is ACKed; drain them all, then
            # half-close so the receiver counts the stream finished.
            for sid, tx, rx in conns:
                for _ in range(chunks_per_stream + 1):
                    ack = rx.recv()
                    assert ack is not None and ack.ack, (sid, ack)
                tx.close()
        except Exception as exc:  # noqa: BLE001 - reported by the caller
            dialed.abort()
            with lock:
                errors.append(f"client[{lo}:{hi}]: {exc!r}")
        finally:
            for _, tx, _ in conns:
                tx.sock.close()

    workers = [
        threading.Thread(
            target=client,
            args=(streams * w // n_workers, streams * (w + 1) // n_workers),
            daemon=True,
        )
        for w in range(n_workers)
    ]
    for t in workers:
        t.start()
    for t in workers:
        t.join(180.0)
    server_thread.join(180.0)
    assert not server_thread.is_alive(), "receiver did not finish"
    assert not any(t.is_alive() for t in workers), "client did not finish"
    assert not errors, errors[:5]
    assert box["rx"].ok, box["rx"].errors
    return counts


@pytest.mark.slow
def test_many_streams_zero_errors_and_flat_rss():
    """Two identical 500-stream waves.  The first sets the process's
    RSS high-water for one full run — dial storm, shard fan-out, dedup
    state, ACK drain, teardown; a receiver that leaks per-connection
    state (parked sockets, an unbounded dedup set, orphaned frames)
    grows with every wave and breaks the bound on the second."""
    streams, chunks_per_stream = 500, 4
    high_water_kb = []
    for _ in range(2):
        counts = many_streams_wave(streams, chunks_per_stream, bytes(2048))
        assert len(counts) == streams
        assert set(counts.values()) == {chunks_per_stream}
        high_water_kb.append(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        )
    # 64 MiB absorbs allocator arena growth between waves; a real leak
    # at 500 streams x (socket + frame buffers + dedup entries) does not
    # fit in it.  (ru_maxrss is kilobytes on Linux.)
    assert high_water_kb[1] - high_water_kb[0] <= 64 * 1024


class TestFlowTracing:
    def test_traced_frames_assemble_across_the_event_loop(self):
        """Loopback sender + event-loop receiver sharing one telemetry:
        sampled chunks must assemble into full wire-crossing traces."""
        from repro.telemetry import assemble

        tel = Telemetry()
        server = ReceiverServer(
            codec="zlib",
            connections=1,
            mode="eventloop",
            shards=1,
            telemetry=tel,
        )
        tx, rx = run_pair(
            server,
            dict(codec="zlib", connections=1, telemetry=tel,
                 trace_sample=2),
            stream_chunks(1, 8),
        )
        assert tx.ok, tx.errors
        assert rx.ok, rx.errors
        traces = [
            t for t in assemble(tel.spans.snapshot())
            if "wire" in t.stage_order()
        ]
        assert len(traces) == 4  # 1-in-2 of 8 chunks
        for trace in traces:
            assert trace.stage_order() == (
                "feed", "compress", "send", "wire", "recv", "decompress",
            )
            recv = next(s for s in trace.spans if s.stage == "recv")
            assert recv.track == "recv-shard-0"
        assert tel.trace_align.samples == 4

    def test_defer_span_closes_a_stall_episode(self):
        """A traced frame parked on a full decompress queue gets its
        deferral episode recorded as a 'defer' span when it unparks."""
        import types

        from repro.live.eventloop import ReactorShard, _Conn

        tel = Telemetry()
        shard = ReactorShard(types.SimpleNamespace(telemetry=tel), 0)
        a, b = socket.socketpair()
        try:
            conn = _Conn(b, FramedReceiver(b))
            conn.stalled_since = time.perf_counter() - 0.05
            frame = Frame("s", 3, b"x", orig_len=1, traced=True,
                          sent_at=time.perf_counter())
            shard._note_defer(conn, frame)
            (span,) = tel.spans.snapshot()
            assert span.stage == "defer"
            assert (span.stream_id, span.chunk_id) == ("s", 3)
            assert span.duration >= 0.05
            assert span.track == "recv-shard-0"
            assert conn.stalled_since == 0.0
        finally:
            shard._sel.close()
            a.close()
            b.close()

    def test_untraced_stall_records_nothing(self):
        import types

        from repro.live.eventloop import ReactorShard, _Conn

        tel = Telemetry()
        shard = ReactorShard(types.SimpleNamespace(telemetry=tel), 0)
        a, b = socket.socketpair()
        try:
            conn = _Conn(b, FramedReceiver(b))
            conn.stalled_since = time.perf_counter() - 0.01
            shard._note_defer(conn, Frame("s", 0, b"x", orig_len=1))
            assert len(tel.spans) == 0
            assert conn.stalled_since == 0.0
        finally:
            shard._sel.close()
            a.close()
            b.close()
