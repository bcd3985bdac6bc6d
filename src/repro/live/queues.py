"""Bounded, closable queues for the live pipeline threads.

The paper's stages hand chunks through thread-safe queues; this module
provides the thread safety plus the end-of-stream protocol every stage
needs: a producer-side ``close()`` that wakes all consumers immediately
(no polling), with items drained first.

The queue is built on a ``deque`` guarded by one lock and two condition
variables rather than ``queue.Queue`` so that:

* the closed-check and the enqueue stay atomic, yet a producer waiting
  out backpressure parks on ``_not_full`` with the lock *released* —
  other producers and all consumers keep moving;
* the final ``close()`` can ``notify_all`` both conditions, so blocked
  consumers observe :class:`Closed` at once instead of on a poll tick;
* :meth:`put_many`/:meth:`get_many` move a whole batch under a single
  lock round-trip, which is the queue-side half of the pipeline's frame
  batching (the transport-side half lives in
  :meth:`repro.live.transport.FramedSender.send_many`); ``get_many``
  can also stop at a byte bound, which is how the send stage coalesces
  small frames without ever grouping large ones.

Timeouts raise :class:`repro.util.errors.QueueTimeout` (never stdlib
``queue.Empty``/``queue.Full``), and ``timeout=0`` means "try once,
without blocking".

With a :class:`~repro.telemetry.Telemetry` attached (and a ``name``),
every put/get publishes the instantaneous depth to the
``pipeline_queue_depth{queue=...}`` gauge, whose high-water mark is the
practical signal for sizing the paper's bounded queues.  Batch
operations publish once per batch (and feed the
``pipeline_batch_size{site=...}`` histogram), so the gauge cost is
amortized along with the lock.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable, Iterable
from time import monotonic
from typing import Any

from repro.util.errors import QueueTimeout, ValidationError


class Closed(Exception):
    """Raised by :meth:`ClosableQueue.get` after drain + close."""


class ClosableQueue:
    """Bounded FIFO with multi-producer close semantics.

    ``close()`` may be called several times (one per producer); the
    queue only closes when ``producers`` many closes arrived.  Consumers
    keep draining buffered items and then see :class:`Closed` — the
    final close wakes every blocked consumer immediately.
    """

    def __init__(
        self,
        capacity: int = 8,
        producers: int = 1,
        *,
        name: str = "queue",
        telemetry=None,
    ) -> None:
        if capacity < 1:
            raise ValidationError("capacity must be >= 1")
        if producers < 1:
            raise ValidationError("producers must be >= 1")
        self.name = name
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._open_producers = producers
        self._sealed = False
        #: Deepest the queue has ever been (also on the telemetry gauge
        #: as ``high_water`` when one is attached).
        self.max_depth = 0
        self._telemetry = telemetry
        self._gauge = (
            telemetry.queue_gauge(name) if telemetry is not None else None
        )

    # -- internals (call with self._lock held) --------------------------

    def _observe_depth_locked(self) -> int:
        depth = len(self._items)
        if depth > self.max_depth:
            self.max_depth = depth
        if self._gauge is not None:
            self._gauge.set(depth)
        return depth

    def _record_batch(self, site: str, size: int) -> None:
        if self._telemetry is not None:
            self._telemetry.record_batch(site, size)

    @staticmethod
    def _deadline(timeout: float | None) -> float | None:
        return None if timeout is None else monotonic() + timeout

    def _wait_for_space_locked(
        self, timeout: float | None, deadline: float | None
    ) -> None:
        """Block (lock released) until one slot frees up.

        Raises :class:`QueueTimeout` on expiry and
        :class:`ValidationError` if the queue seals while waiting.
        """
        while len(self._items) >= self.capacity:
            if self._sealed:
                raise ValidationError("put() on a fully closed queue")
            if timeout is None:
                self._not_full.wait()
            else:
                remaining = (
                    deadline - monotonic() if deadline is not None else 0.0
                )
                if remaining <= 0 or not self._not_full.wait(remaining):
                    raise QueueTimeout(
                        f"put() timed out after {timeout}s "
                        f"(queue {self.name!r} full at {self.capacity})"
                    )
        if self._sealed:
            raise ValidationError("put() on a fully closed queue")

    # -- producer side ---------------------------------------------------

    def put(self, item: Any, timeout: float | None = None) -> None:
        """Enqueue; blocks on a full queue (backpressure).

        The closed check and the enqueue are atomic under the queue
        lock, so a ``put()`` can never race a final ``close()``: either
        the put lands before the queue seals, or it observes the seal
        and raises.  While waiting out backpressure the lock is
        *released* (condition wait), so other producers and consumers
        are never serialized behind one blocked put.  ``timeout=0``
        tries once and raises :class:`QueueTimeout` if full.
        """
        with self._not_full:
            if self._sealed:
                raise ValidationError("put() on a fully closed queue")
            self._wait_for_space_locked(timeout, self._deadline(timeout))
            self._items.append(item)
            self._not_empty.notify()
            self._observe_depth_locked()

    def put_many(
        self, items: Iterable[Any], timeout: float | None = None
    ) -> int:
        """Enqueue a batch under one lock round-trip; returns the count.

        Blocks for space as :meth:`put` does (one shared deadline for
        the whole batch).  On timeout with *some* items enqueued the
        partial count comes back — callers advance and retry; on
        timeout with nothing enqueued :class:`QueueTimeout` is raised.
        """
        batch = list(items)
        if not batch:
            return 0
        deadline = self._deadline(timeout)
        with self._not_full:
            if self._sealed:
                raise ValidationError("put() on a fully closed queue")
            done = 0
            while done < len(batch):
                try:
                    self._wait_for_space_locked(timeout, deadline)
                except QueueTimeout:
                    if done:
                        break
                    raise QueueTimeout(
                        f"put_many() timed out with {len(batch)} items "
                        f"unenqueued (queue {self.name!r})"
                    ) from None
                room = self.capacity - len(self._items)
                take = min(room, len(batch) - done)
                self._items.extend(batch[done:done + take])
                done += take
                self._not_empty.notify(take)
            self._observe_depth_locked()
            self._record_batch(f"{self.name}.put", done)
        return done

    def close(self) -> None:
        """One producer is done; the last close seals the queue.

        The final close wakes every consumer blocked in :meth:`get` /
        :meth:`get_many` (they drain buffered items, then see
        :class:`Closed`) and every producer parked on backpressure
        (they raise :class:`ValidationError`).
        """
        with self._lock:
            if self._open_producers <= 0:
                raise ValidationError("close() called more times than producers")
            self._open_producers -= 1
            if self._open_producers == 0:
                self._sealed = True
                self._not_empty.notify_all()
                self._not_full.notify_all()

    # -- consumer side ---------------------------------------------------

    def get(self, timeout: float | None = None) -> Any:
        """Dequeue; raises :class:`Closed` once drained and closed.

        ``timeout=None`` blocks until an item arrives or the queue
        closes; ``timeout=0`` tries once without blocking; any other
        timeout raises :class:`QueueTimeout` on expiry.
        """
        with self._not_empty:
            self._wait_for_item_locked(timeout, self._deadline(timeout))
            item = self._items.popleft()
            self._not_full.notify()
            self._observe_depth_locked()
            return item

    def get_many(
        self,
        max_items: int,
        timeout: float | None = None,
        *,
        max_bytes: int | None = None,
        size: Callable[[Any], int] = len,
    ) -> list[Any]:
        """Dequeue up to ``max_items`` under one lock round-trip.

        Blocks for the *first* item exactly as :meth:`get` does, then
        greedily drains whatever else is buffered.  With ``max_bytes``
        the drain also stops before the item whose ``size`` would take
        the batch past that many bytes; the first item comes whatever
        its size, so an item larger than the bound travels alone.
        Always returns at least one item; raises :class:`Closed` once
        drained and closed.
        """
        if max_items < 1:
            raise ValidationError("max_items must be >= 1")
        with self._not_empty:
            self._wait_for_item_locked(timeout, self._deadline(timeout))
            items = self._items
            batch = [items.popleft()]
            room = None if max_bytes is None else max_bytes - size(batch[0])
            while len(batch) < max_items and items:
                if room is not None:
                    room -= size(items[0])
                    if room < 0:
                        break
                batch.append(items.popleft())
            self._not_full.notify(len(batch))
            self._observe_depth_locked()
            self._record_batch(f"{self.name}.get", len(batch))
            return batch

    def _wait_for_item_locked(
        self, timeout: float | None, deadline: float | None
    ) -> None:
        """Block (lock released) until an item is buffered.

        Raises :class:`Closed` if the queue is drained and sealed, and
        :class:`QueueTimeout` on expiry.
        """
        while not self._items:
            if self._sealed:
                raise Closed
            if timeout is None:
                self._not_empty.wait()
            else:
                remaining = (
                    deadline - monotonic() if deadline is not None else 0.0
                )
                if remaining <= 0 or not self._not_empty.wait(remaining):
                    raise QueueTimeout(
                        f"get() timed out after {timeout}s "
                        f"(queue {self.name!r} empty)"
                    )

    # -- introspection ---------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._sealed

    def qsize(self) -> int:
        return len(self._items)

    def sample_occupancy(self) -> int:
        """Publish and return the current depth (for external samplers)."""
        with self._lock:
            return self._observe_depth_locked()
