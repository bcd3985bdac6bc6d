"""StageSet: the live reconfiguration protocol, in isolation.

A passthrough worker (pull from inq, tag, push to outq, close on exit)
stands in for the real stage bodies — what's under test is the
lifecycle algebra: producer-count bookkeeping across scale-up,
scale-down and drain-and-respawn, exactly-once delivery through the
churn, and monotonic worker indices.
"""

import threading
import time

import pytest

from repro.live.queues import ClosableQueue, Closed
from repro.live.stageset import StageSet
from repro.util.errors import QueueTimeout, ValidationError


def passthrough(inq, outq, stop, seen=None):
    """A stoppable stage body with the same contract as the real ones."""
    try:
        while not stop.is_set():
            try:
                item = inq.get(timeout=0.02)
            except QueueTimeout:
                continue
            except Closed:
                break
            name = threading.current_thread().name
            if seen is not None:
                seen.append(name)
            outq.put((item, name))
    finally:
        outq.close()


def drain(q):
    out = []
    while True:
        try:
            out.append(q.get(timeout=5.0))
        except Closed:
            return out


def make_set(count=1, *, scalable=True, seen=None, capacity=64):
    inq = ClosableQueue(capacity, producers=1, name="inq")
    outq = ClosableQueue(capacity, producers=count, name="outq")

    def factory(index, stop):
        return threading.Thread(
            target=passthrough,
            args=(inq, outq, stop, seen),
            name=f"pt-{index}",
            daemon=True,
        )

    stage = StageSet(
        "pt", factory, count=count, downstream=outq, scalable=scalable
    )
    return inq, outq, stage


class TestLifecycle:
    def test_count_validated(self):
        with pytest.raises(ValidationError):
            make_set(count=0)

    def test_plain_run_drains_everything(self):
        inq, outq, stage = make_set(count=2)
        stage.start()
        for i in range(20):
            inq.put(i)
        inq.close()
        items = drain(outq)
        assert sorted(i for i, _ in items) == list(range(20))
        assert stage.join(5.0) == []

    def test_indices_are_monotonic_across_respawn(self):
        inq, outq, stage = make_set(count=2)
        stage.start()
        assert stage.respawn()
        names = {t.name for t in stage.threads()}
        # Old generation pt-0/pt-1, replacement pt-2/pt-3: no collision.
        assert names == {"pt-0", "pt-1", "pt-2", "pt-3"}
        inq.close()
        assert stage.join(5.0) == []


class TestScaling:
    def test_scale_up_delivers_exactly_once(self):
        inq, outq, stage = make_set(count=1)
        stage.start()
        for i in range(10):
            inq.put(i)
        assert stage.scale_to(3)
        assert stage.count == 3
        for i in range(10, 30):
            inq.put(i)
        inq.close()
        items = [i for i, _ in drain(outq)]
        assert sorted(items) == list(range(30))  # no loss, no dupes
        assert stage.join(5.0) == []

    def test_scale_down_drains_cleanly(self):
        inq, outq, stage = make_set(count=3)
        stage.start()
        for i in range(10):
            inq.put(i)
        assert stage.scale_to(1)
        assert stage.count == 1
        for i in range(10, 20):
            inq.put(i)
        inq.close()
        items = [i for i, _ in drain(outq)]
        assert sorted(items) == list(range(20))
        assert stage.join(5.0) == []

    def test_survivors_keep_working_after_scale_down(self):
        seen: list[str] = []
        inq, outq, stage = make_set(count=2, seen=seen)
        stage.start()
        stage.scale_to(1)
        # Let the retired worker's in-flight get() time out and exit
        # before feeding, so the tail is unambiguously the survivor's.
        time.sleep(0.1)
        deadline = time.monotonic() + 5.0
        for i in range(10):
            inq.put(i)
        inq.close()
        items = [i for i, _ in drain(outq)]
        assert sorted(items) == list(range(10))
        assert time.monotonic() < deadline
        # Only the surviving worker (lowest index) handled the tail.
        tail = set(seen[-5:])
        assert tail == {"pt-0"}

    def test_refusals(self):
        inq, outq, stage = make_set(count=2, scalable=False)
        stage.start()
        assert not stage.scale_to(3)  # not scalable
        inq2, outq2, stage2 = make_set(count=2)
        assert not stage2.scale_to(3)  # not started yet
        stage2.start()
        assert not stage2.scale_to(2)  # no-op
        assert not stage2.scale_to(0)  # nonsense
        inq.close()
        inq2.close()
        assert stage.join(5.0) == []
        assert stage2.join(5.0) == []

    def test_scale_up_refused_after_stream_end(self):
        inq, outq, stage = make_set(count=1)
        stage.start()
        inq.close()
        assert stage.join(5.0) == []  # worker exited, outq sealed
        assert not stage.scale_to(2)  # add_producers on a sealed queue
        assert drain(outq) == []


class TestRespawn:
    def test_respawn_mid_stream_is_exactly_once(self):
        inq, outq, stage = make_set(count=2)
        stage.start()
        for i in range(15):
            inq.put(i)
        assert stage.respawn()
        assert stage.count == 2  # same logical width, fresh threads
        for i in range(15, 30):
            inq.put(i)
        inq.close()
        items = [i for i, _ in drain(outq)]
        assert sorted(items) == list(range(30))
        assert stage.join(5.0) == []

    def test_repeated_respawn(self):
        inq, outq, stage = make_set(count=1)
        stage.start()
        total = 0
        for round_ in range(3):
            for i in range(total, total + 5):
                inq.put(i)
            total += 5
            assert stage.respawn()
        inq.close()
        items = [i for i, _ in drain(outq)]
        assert sorted(items) == list(range(total))
        assert stage.join(5.0) == []

    def test_respawn_refused_after_stream_end(self):
        inq, outq, stage = make_set(count=1)
        stage.start()
        inq.close()
        assert stage.join(5.0) == []
        assert not stage.respawn()
