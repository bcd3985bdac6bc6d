"""Shared-memory ring buffer: the inter-process frame handoff.

A :class:`SharedRing` is a fixed-slot single-producer/single-consumer
ring over one ``multiprocessing.shared_memory`` segment.  It replaces
pickled ``multiprocessing.Queue`` handoff with an in-place byte copy:
the producer writes the record straight into its slot, the consumer
reads it straight out, and nothing is serialized in between.  One ring
per direction per NUMA domain keeps every buffer domain-local — the
dgen-rs lesson (SNIPPETS.md §2) that buffer *locality*, not thread
pinning, is what unlocks multicore memory bandwidth.

Layout of the segment::

    [0:64)    geometry: magic u32, version u32, capacity u32,
              slot_bytes u32
    [64:128)  head u64   — next sequence the producer will fill
                          (written only by the producer)
    [128:192) tail u64   — next sequence the consumer will take
                          (written only by the consumer)
              closed u32 — set once by close(); consumers drain then
                          see Closed
    [192:...) capacity slots of slot_bytes each; every record is
              u32 length + payload

Head and tail live 64 bytes apart so the two writers never share a
cache line.  Because exactly one process advances each counter and
CPython bytecode gives each 8-byte ``pack_into`` store release
semantics on x86/ARM64 under the writer's own GIL, the ring needs no
cross-process lock: the producer publishes a record by writing the
slot *then* bumping ``head``; the consumer does the mirror-image read.

Blocking semantics mirror :class:`~repro.live.queues.ClosableQueue`:
``timeout=None`` blocks, ``timeout=0`` tries once, expiry raises
:class:`~repro.util.errors.QueueTimeout`, a drained closed ring raises
:class:`~repro.live.queues.Closed`, and a put on a closed ring raises
:class:`~repro.util.errors.ValidationError`.  Waiting is a short spin
followed by micro-sleeps (50µs growing to 1ms) — no OS futex exists
for shared memory in pure Python.

Rings are name-addressable: any process may :meth:`SharedRing.attach`
by name, including after the writer closed (the header carries the
geometry), which is what lets a restarted worker resume draining the
very segment its predecessor crashed over.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from types import TracebackType
from typing import Callable, Iterable

from repro.live.queues import Closed
from repro.util.errors import QueueTimeout, ValidationError

_MAGIC = 0x52_50_4D_50  # "RPMP"
_VERSION = 1

_GEOMETRY = struct.Struct("<IIII")  # magic, version, capacity, slot_bytes
_COUNTER = struct.Struct("<Q")
_CLOSED = struct.Struct("<I")
_LENGTH = struct.Struct("<I")

_HEAD_OFF = 64
_TAIL_OFF = 128
_CLOSED_OFF = 136
_DATA_OFF = 192

#: Spin iterations before the first micro-sleep.
_SPIN = 64
#: First backoff sleep, seconds; doubles up to :data:`_MAX_SLEEP`.
_MIN_SLEEP = 50e-6
_MAX_SLEEP = 1e-3


@dataclass(frozen=True)
class RingGeometry:
    """The fixed shape of one ring, as stored in its header."""

    capacity: int
    slot_bytes: int

    @property
    def segment_bytes(self) -> int:
        return _DATA_OFF + self.capacity * self.slot_bytes

    @property
    def max_record(self) -> int:
        """Largest record one slot can hold (length prefix excluded)."""
        return self.slot_bytes - _LENGTH.size


class SharedRing:
    """Fixed-slot SPSC byte ring over one shared-memory segment."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        geometry: RingGeometry,
        *,
        owner: bool,
        name: str,
    ) -> None:
        self._shm = shm
        self._buf = shm.buf
        self.geometry = geometry
        self.capacity = geometry.capacity
        self.slot_bytes = geometry.slot_bytes
        self._owner = owner
        self.name = name
        #: Deepest the ring has ever been, as seen by this process.
        self.max_depth = 0

    # -- construction ----------------------------------------------------

    @classmethod
    def create(
        cls,
        name: str | None = None,
        *,
        capacity: int = 8,
        slot_bytes: int = 1 << 20,
    ) -> "SharedRing":
        """Allocate a fresh ring; the creator owns :meth:`unlink`."""
        if capacity < 1:
            raise ValidationError("capacity must be >= 1")
        if slot_bytes <= _LENGTH.size:
            raise ValidationError(
                f"slot_bytes must exceed the {_LENGTH.size}-byte length prefix"
            )
        geometry = RingGeometry(capacity=capacity, slot_bytes=slot_bytes)
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=geometry.segment_bytes
        )
        _GEOMETRY.pack_into(shm.buf, 0, _MAGIC, _VERSION, capacity, slot_bytes)
        _COUNTER.pack_into(shm.buf, _HEAD_OFF, 0)
        _COUNTER.pack_into(shm.buf, _TAIL_OFF, 0)
        _CLOSED.pack_into(shm.buf, _CLOSED_OFF, 0)
        return cls(shm, geometry, owner=True, name=shm.name)

    @classmethod
    def attach(cls, name: str) -> "SharedRing":
        """Open an existing ring by name (geometry comes from its header).

        Attaching remains valid after the writer closed the ring — a
        late reader drains the remaining records and then sees
        :class:`Closed`, exactly like a live consumer would.
        """
        # NOTE on the resource tracker: attaching registers the name
        # again, but registrations are a *set* keyed by name and every
        # process in a multiprocessing tree shares one tracker — so the
        # creator's single unlink() balances the books.  Unregistering
        # here would cancel the creator's registration instead.
        shm = shared_memory.SharedMemory(name=name, create=False)
        magic, version, capacity, slot_bytes = _GEOMETRY.unpack_from(shm.buf, 0)
        if magic != _MAGIC or version != _VERSION:
            shm.close()
            raise ValidationError(
                f"segment {name!r} is not a SharedRing "
                f"(magic=0x{magic:08X} version={version})"
            )
        geometry = RingGeometry(capacity=capacity, slot_bytes=slot_bytes)
        return cls(shm, geometry, owner=False, name=name)

    # -- counters --------------------------------------------------------

    def _head(self) -> int:
        return _COUNTER.unpack_from(self._buf, _HEAD_OFF)[0]

    def _tail(self) -> int:
        return _COUNTER.unpack_from(self._buf, _TAIL_OFF)[0]

    @property
    def closed(self) -> bool:
        return _CLOSED.unpack_from(self._buf, _CLOSED_OFF)[0] != 0

    def qsize(self) -> int:
        """Records currently buffered (racy across processes, exact
        from either endpoint's own perspective)."""
        return self._head() - self._tail()

    # -- waiting ---------------------------------------------------------

    @staticmethod
    def _deadline(timeout: float | None) -> float | None:
        return None if timeout is None else time.monotonic() + timeout

    def _wait(
        self,
        ready: Callable[[], bool],
        timeout: float | None,
        deadline: float | None,
        what: str,
    ) -> bool:
        """Spin-then-sleep until ``ready()``; False only when the ring
        closed while waiting (callers re-check), QueueTimeout on expiry."""
        for _ in range(_SPIN):
            if ready():
                return True
            if self.closed:
                return False
        sleep = _MIN_SLEEP
        while not ready():
            if self.closed:
                return False
            if timeout is not None:
                assert deadline is not None
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise QueueTimeout(
                        f"{what} timed out after {timeout}s "
                        f"(ring {self.name!r}, depth {self.qsize()})"
                    )
                time.sleep(min(sleep, remaining))
            else:
                time.sleep(sleep)
            sleep = min(sleep * 2, _MAX_SLEEP)
        return True

    # -- producer side ---------------------------------------------------

    def _slot_off(self, seq: int) -> int:
        return _DATA_OFF + (seq % self.capacity) * self.slot_bytes

    def _write_slot(self, seq: int, data: bytes) -> None:
        off = self._slot_off(seq)
        _LENGTH.pack_into(self._buf, off, len(data))
        self._buf[off + _LENGTH.size : off + _LENGTH.size + len(data)] = data

    def put(self, data: bytes, timeout: float | None = None) -> None:
        """Copy one record into the ring; blocks on a full ring."""
        if self.put_many((data,), timeout=timeout) != 1:  # pragma: no cover
            raise QueueTimeout(f"put() timed out (ring {self.name!r} full)")

    def put_many(
        self, items: Iterable[bytes], timeout: float | None = None
    ) -> int:
        """Write a batch; returns how many records landed.

        Mirrors :meth:`ClosableQueue.put_many`: one shared deadline, a
        timeout with *some* records written returns the partial count,
        a timeout with none raises :class:`QueueTimeout`, and a closed
        ring raises :class:`ValidationError`.
        """
        batch = list(items)
        if not batch:
            return 0
        limit = self.geometry.max_record
        for data in batch:
            if len(data) > limit:
                raise ValidationError(
                    f"record of {len(data)} bytes exceeds ring "
                    f"{self.name!r} slot payload limit {limit} "
                    f"(raise ring_slot_bytes)"
                )
        if self.closed:
            raise ValidationError("put() on a closed ring")
        deadline = self._deadline(timeout)
        done = 0
        head = self._head()

        def _room() -> bool:
            return head - self._tail() < self.capacity

        while done < len(batch):
            try:
                if not self._wait(_room, timeout, deadline, "put()"):
                    raise ValidationError("put() on a closed ring")
            except QueueTimeout:
                if done:
                    break
                raise QueueTimeout(
                    f"put_many() timed out with {len(batch)} records "
                    f"unwritten (ring {self.name!r})"
                ) from None
            room = self.capacity - (head - self._tail())
            take = min(room, len(batch) - done)
            for data in batch[done : done + take]:
                self._write_slot(head, data)
                head += 1
            # One publish per burst: the consumer sees all slots at once.
            _COUNTER.pack_into(self._buf, _HEAD_OFF, head)
            done += take
        depth = head - self._tail()
        if depth > self.max_depth:
            self.max_depth = depth
        return done

    def close(self) -> None:
        """Seal the ring: consumers drain, then see :class:`Closed`.

        Idempotent, and callable from *any* attached process — the
        supervisor force-closes rings when a run must abort.
        """
        _CLOSED.pack_into(self._buf, _CLOSED_OFF, 1)

    # -- consumer side ---------------------------------------------------

    def _read_slot(self, seq: int) -> bytes:
        off = self._slot_off(seq)
        (length,) = _LENGTH.unpack_from(self._buf, off)
        if length > self.geometry.max_record:  # pragma: no cover - corrupt
            raise ValidationError(
                f"ring {self.name!r} slot {seq % self.capacity} carries a "
                f"corrupt length {length}"
            )
        return bytes(self._buf[off + _LENGTH.size : off + _LENGTH.size + length])

    def get(self, timeout: float | None = None) -> bytes:
        """Take one record; raises :class:`Closed` once drained+closed."""
        return self.get_many(1, timeout=timeout)[0]

    def get_many(
        self, max_items: int, timeout: float | None = None
    ) -> list[bytes]:
        """Take up to ``max_items`` buffered records (at least one).

        Blocks for the first record exactly as :meth:`get` does, then
        greedily drains whatever else is already published.
        """
        if max_items < 1:
            raise ValidationError("max_items must be >= 1")
        deadline = self._deadline(timeout)
        tail = self._tail()

        def _avail() -> bool:
            return self._head() > tail

        if not self._wait(_avail, timeout, deadline, "get()"):
            # Closed while waiting — drain anything published meanwhile.
            if self._head() <= tail:
                raise Closed
        head = self._head()
        take = min(max_items, head - tail)
        batch = [self._read_slot(tail + i) for i in range(take)]
        _COUNTER.pack_into(self._buf, _TAIL_OFF, tail + take)
        return batch

    # -- lifecycle -------------------------------------------------------

    def detach(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        self._buf = memoryview(b"")
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (creator only; detaches first)."""
        self.detach()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass

    def __enter__(self) -> "SharedRing":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        if self._owner:
            self.unlink()
        else:
            self.detach()
