"""ClosableQueue: close wake-up, timeout semantics, and batched ops.

Regression tests for the hot-path queue fixes:

- ``close()`` must wake blocked consumers *immediately* (the old
  implementation polled on a 0.1s tick and its wake sentinel was dead
  code, so a final close left consumers parked for a full tick);
- ``timeout=0`` means "try once, never block" (the old ``timeout or
  0.1`` treated 0 as "no timeout given");
- timeouts surface as the repo's :class:`QueueTimeout`, not the stdlib
  ``queue.Empty``/``queue.Full``;
- ``put()`` must not hold the queue lock while parked on backpressure
  (other producers and the consumer keep making progress);
- ``put_many``/``get_many`` preserve order and cope with close.
"""

import threading
import time

import pytest

from repro.live.queues import ClosableQueue, Closed
from repro.util.errors import QueueTimeout, ValidationError


class TestCloseWakeup:
    def test_close_wakes_blocked_consumer_immediately(self):
        """A consumer parked in an *untimed* get() wakes on close().

        The pre-fix implementation could only notice a close on its
        0.1s poll tick — and an untimed get() never re-checked at all.
        """
        q = ClosableQueue(capacity=4, producers=1)
        woke = threading.Event()
        outcome = {}

        def consume():
            try:
                q.get()  # no timeout: pre-fix this slept forever
            except Closed:
                outcome["closed_at"] = time.perf_counter()
            woke.set()

        t = threading.Thread(target=consume, daemon=True)
        t.start()
        time.sleep(0.05)  # let the consumer park
        closed_at = time.perf_counter()
        q.close()
        assert woke.wait(timeout=2.0), "consumer never woke after close()"
        t.join(timeout=2.0)
        latency = outcome["closed_at"] - closed_at
        assert latency < 0.05, f"close() wake-up took {latency * 1e3:.1f}ms"

    def test_close_wakes_blocked_producer(self):
        q = ClosableQueue(capacity=1, producers=2)
        q.put("fill")
        errors = []
        woke = threading.Event()

        def produce():
            try:
                q.put("blocked", timeout=5.0)
            except ValidationError as exc:
                errors.append(exc)
            woke.set()

        t = threading.Thread(target=produce, daemon=True)
        t.start()
        time.sleep(0.05)
        q.close()  # producer 1 of 2: not sealed yet, put may proceed...
        q.close()  # ...but the final close must boot parked producers
        assert woke.wait(timeout=2.0), "producer never woke after close()"
        t.join(timeout=2.0)
        assert errors and "closed" in str(errors[0])

    def test_consumers_drain_then_see_closed(self):
        q = ClosableQueue(capacity=8, producers=1)
        q.put(1)
        q.put(2)
        q.close()
        assert q.get() == 1
        assert q.get() == 2
        with pytest.raises(Closed):
            q.get()


class TestTimeoutSemantics:
    def test_get_timeout_zero_is_nonblocking(self):
        q = ClosableQueue(capacity=4, producers=1)
        start = time.perf_counter()
        with pytest.raises(QueueTimeout):
            q.get(timeout=0)
        # The old ``timeout or 0.1`` bug turned 0 into a 100ms poll.
        assert time.perf_counter() - start < 0.05

    def test_get_timeout_zero_returns_available_item(self):
        q = ClosableQueue(capacity=4, producers=1)
        q.put("x")
        assert q.get(timeout=0) == "x"

    def test_put_timeout_zero_is_nonblocking(self):
        q = ClosableQueue(capacity=1, producers=1)
        q.put("fill")
        start = time.perf_counter()
        with pytest.raises(QueueTimeout):
            q.put("over", timeout=0)
        assert time.perf_counter() - start < 0.05

    def test_timeouts_are_repro_errors(self):
        q = ClosableQueue(capacity=1, producers=1)
        with pytest.raises(TimeoutError):  # QueueTimeout subclasses it
            q.get(timeout=0)
        q.put("fill")
        with pytest.raises(TimeoutError):
            q.put("over", timeout=0.01)


class TestBackpressureConcurrency:
    def test_put_does_not_hold_lock_while_blocked(self):
        """A producer parked on a full queue must not lock out get().

        Pre-fix, put() slept inside ``self._lock``, so a consumer could
        not drain and the 'backpressure' was a deadlock broken only by
        the producer's timeout.
        """
        q = ClosableQueue(capacity=1, producers=1)
        q.put("fill")
        delivered = []

        def produce():
            q.put("second", timeout=5.0)

        t = threading.Thread(target=produce, daemon=True)
        t.start()
        time.sleep(0.05)  # producer is parked on backpressure
        start = time.perf_counter()
        delivered.append(q.get(timeout=1.0))  # must not block on the lock
        drain_latency = time.perf_counter() - start
        delivered.append(q.get(timeout=1.0))
        t.join(timeout=2.0)
        assert delivered == ["fill", "second"]
        assert drain_latency < 0.05

    def test_multi_producer_backpressure_delivers_everything(self):
        producers, items, capacity = 3, 40, 2
        q = ClosableQueue(capacity=capacity, producers=producers)
        failures = []

        def produce(pid):
            try:
                for i in range(items):
                    q.put((pid, i), timeout=10.0)
            except Exception as exc:  # noqa: BLE001 - thread boundary
                failures.append(exc)
            finally:
                q.close()

        threads = [
            threading.Thread(target=produce, args=(p,), daemon=True)
            for p in range(producers)
        ]
        for t in threads:
            t.start()
        got = []
        with pytest.raises(Closed):
            while True:
                got.append(q.get(timeout=10.0))
        for t in threads:
            t.join(timeout=10.0)
        assert not failures
        assert len(got) == producers * items
        assert q.max_depth <= capacity
        # Per-producer FIFO order survives the interleaving.
        for p in range(producers):
            mine = [i for (pid, i) in got if pid == p]
            assert mine == list(range(items))


class TestBatchedOps:
    def test_put_many_get_many_preserve_order(self):
        q = ClosableQueue(capacity=16, producers=1)
        assert q.put_many(list(range(10))) == 10
        assert q.get_many(4) == [0, 1, 2, 3]
        assert q.get_many(100) == [4, 5, 6, 7, 8, 9]

    def test_put_many_partial_on_capacity(self):
        q = ClosableQueue(capacity=4, producers=1)
        n = q.put_many(list(range(10)), timeout=0)
        assert n == 4
        assert q.get_many(10) == [0, 1, 2, 3]

    def test_get_many_blocks_for_first_item_only(self):
        q = ClosableQueue(capacity=8, producers=1)

        def late_put():
            time.sleep(0.05)
            q.put_many([1, 2])

        threading.Thread(target=late_put, daemon=True).start()
        assert q.get_many(8, timeout=2.0) == [1, 2]

    def test_get_many_without_linger_returns_what_is_there(self):
        q = ClosableQueue(capacity=8, producers=1)
        q.put(1)
        assert q.get_many(4, timeout=1.0) == [1]

    def test_get_many_raises_closed_after_drain(self):
        q = ClosableQueue(capacity=8, producers=1)
        q.put_many([1, 2, 3])
        q.close()
        assert q.get_many(2) == [1, 2]
        assert q.get_many(2) == [3]
        with pytest.raises(Closed):
            q.get_many(2)

    def test_get_many_rejects_bad_max(self):
        q = ClosableQueue(capacity=8, producers=1)
        with pytest.raises(ValidationError):
            q.get_many(0)

    def test_put_many_on_closed_queue_raises(self):
        q = ClosableQueue(capacity=8, producers=1)
        q.close()
        with pytest.raises(ValidationError):
            q.put_many([1])


class TestByteBoundedDrain:
    """``get_many(max_bytes=...)``: the drain the transport stages use."""

    def test_drain_stops_before_the_item_that_crosses_the_bound(self):
        q = ClosableQueue(capacity=16, producers=1)
        q.put_many([b"a" * 4, b"b" * 4, b"c" * 4, b"d" * 4])
        assert q.get_many(16, max_bytes=10) == [b"a" * 4, b"b" * 4]
        assert q.get_many(16, max_bytes=8) == [b"c" * 4, b"d" * 4]

    def test_first_item_comes_even_past_the_bound(self):
        q = ClosableQueue(capacity=16, producers=1)
        q.put_many([b"x" * 100, b"y", b"z"])
        assert q.get_many(16, max_bytes=10) == [b"x" * 100]
        assert q.get_many(16, max_bytes=10) == [b"y", b"z"]

    def test_order_preserved_with_a_size_function(self):
        q = ClosableQueue(capacity=32, producers=1)
        q.put_many(list(range(20)))
        got = []
        while len(got) < 20:
            got += q.get_many(8, max_bytes=30, size=lambda i: 10)
        assert got == list(range(20))

    def test_item_cap_still_applies(self):
        q = ClosableQueue(capacity=16, producers=1)
        q.put_many([b"."] * 10)
        assert len(q.get_many(4, max_bytes=1 << 20)) == 4

    def test_closed_after_drain(self):
        q = ClosableQueue(capacity=8, producers=1)
        q.put_many([b"ab", b"cd"])
        q.close()
        assert q.get_many(8, max_bytes=2) == [b"ab"]
        assert q.get_many(8, max_bytes=2) == [b"cd"]
        with pytest.raises(Closed):
            q.get_many(8, max_bytes=2)

    def test_timeouts_unchanged(self):
        q = ClosableQueue(capacity=8, producers=1)
        with pytest.raises(QueueTimeout):
            q.get_many(8, timeout=0, max_bytes=16)
        t0 = time.perf_counter()
        with pytest.raises(QueueTimeout):
            q.get_many(8, timeout=0.05, max_bytes=16)
        assert time.perf_counter() - t0 >= 0.04
