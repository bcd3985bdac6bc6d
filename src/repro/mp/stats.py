"""Per-worker counters over shared memory: telemetry across the fork.

Worker processes cannot write into the parent's
:class:`~repro.telemetry.registry.MetricRegistry` — it is ordinary
heap state.  Instead each worker owns one 64-byte slot in a
:class:`StatsBlock` (a single shared-memory page) and bumps plain
struct fields there; the supervisor polls :meth:`StatsBlock.snapshot`
and folds the deltas into the normal registry, so ``/metrics``,
``/report`` and ``repro top`` show process workers exactly like
thread workers.

Slot layout (64 bytes, one cache line, single writer)::

    pid        u32   worker's os.getpid() (0 = never started)
    state      u32   WorkerState value
    restarts   u32   written by the *supervisor* (sole exception to
                     single-writer: workers never touch this field)
    cpus       u32   size of the CPU set actually applied by
                     sched_setaffinity (0 = unpinned)
    chunks     u64   records fully processed
    bytes_in   u64   payload bytes consumed
    bytes_out  u64   payload bytes produced
    busy_us    u64   microseconds spent inside the codec
    heartbeat  f64   time.time() of the worker's last liveness beat

Every field is an aligned 4- or 8-byte store, so a concurrent reader
may see a *stale* value but never a torn one; counters are cumulative
and the poller takes deltas, which makes stale reads self-correcting.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from multiprocessing import shared_memory

from repro.util.errors import ValidationError

_MAGIC = 0x52_50_4D_53  # "RPMS"
_HEADER = struct.Struct("<II")  # magic, worker slot count
_SLOT = struct.Struct("<IIIIQQQQd")
_SLOT_BYTES = 64
_DATA_OFF = 64

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")

_PID_OFF = 0
_STATE_OFF = 4
_RESTARTS_OFF = 8
_CPUS_OFF = 12
_CHUNKS_OFF = 16
_BYTES_IN_OFF = 24
_BYTES_OUT_OFF = 32
_BUSY_US_OFF = 40
_HEARTBEAT_OFF = 48


class WorkerState(enum.IntEnum):
    """Lifecycle of one worker process, as it reports itself."""

    UNBORN = 0
    STARTING = 1
    RUNNING = 2
    DRAINING = 3
    STOPPED = 4
    CRASHED = 5


@dataclass(frozen=True)
class WorkerStats:
    """One slot, decoded at a point in time."""

    pid: int
    state: WorkerState
    restarts: int
    cpus: int
    chunks: int
    bytes_in: int
    bytes_out: int
    busy_us: int
    heartbeat: float


class StatsBlock:
    """A page of per-worker counter slots shared across processes."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        workers: int,
        *,
        owner: bool,
        name: str,
    ) -> None:
        self._shm = shm
        self._buf = shm.buf
        self.workers = workers
        self._owner = owner
        self.name = name

    @classmethod
    def create(cls, name: str | None = None, *, workers: int = 1) -> "StatsBlock":
        if workers < 1:
            raise ValidationError("workers must be >= 1")
        size = _DATA_OFF + workers * _SLOT_BYTES
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        _HEADER.pack_into(shm.buf, 0, _MAGIC, workers)
        shm.buf[_DATA_OFF:size] = bytes(workers * _SLOT_BYTES)
        return cls(shm, workers, owner=True, name=shm.name)

    @classmethod
    def attach(cls, name: str) -> "StatsBlock":
        # Attach registers the shared tracker's name-set again (no-op);
        # the creator's unlink() is the one balancing unregister.  See
        # the matching note in :meth:`SharedRing.attach`.
        shm = shared_memory.SharedMemory(name=name, create=False)
        magic, workers = _HEADER.unpack_from(shm.buf, 0)
        if magic != _MAGIC:
            shm.close()
            raise ValidationError(
                f"segment {name!r} is not a StatsBlock (magic=0x{magic:08X})"
            )
        return cls(shm, workers, owner=False, name=name)

    # -- addressing ------------------------------------------------------

    def _off(self, slot: int, field: int) -> int:
        if not 0 <= slot < self.workers:
            raise ValidationError(
                f"slot {slot} out of range (block has {self.workers})"
            )
        return _DATA_OFF + slot * _SLOT_BYTES + field

    # -- single-field writes (each an aligned store) ---------------------

    def set_pid(self, slot: int, pid: int) -> None:
        _U32.pack_into(self._buf, self._off(slot, _PID_OFF), pid)

    def set_state(self, slot: int, state: WorkerState) -> None:
        _U32.pack_into(self._buf, self._off(slot, _STATE_OFF), int(state))

    def bump_restarts(self, slot: int) -> None:
        """Supervisor-only: the one field the worker never writes."""
        off = self._off(slot, _RESTARTS_OFF)
        (cur,) = _U32.unpack_from(self._buf, off)
        _U32.pack_into(self._buf, off, cur + 1)

    def set_cpus(self, slot: int, ncpus: int) -> None:
        _U32.pack_into(self._buf, self._off(slot, _CPUS_OFF), ncpus)

    def add(
        self,
        slot: int,
        *,
        chunks: int = 0,
        bytes_in: int = 0,
        bytes_out: int = 0,
        busy_us: int = 0,
    ) -> None:
        """Accumulate work counters (single-writer, so read-modify-write
        of this worker's own slot is race-free)."""
        for off, delta in (
            (_CHUNKS_OFF, chunks),
            (_BYTES_IN_OFF, bytes_in),
            (_BYTES_OUT_OFF, bytes_out),
            (_BUSY_US_OFF, busy_us),
        ):
            if delta:
                at = self._off(slot, off)
                (cur,) = _U64.unpack_from(self._buf, at)
                _U64.pack_into(self._buf, at, cur + delta)

    def beat(self, slot: int, now: float) -> None:
        _F64.pack_into(self._buf, self._off(slot, _HEARTBEAT_OFF), now)

    # -- reader side -----------------------------------------------------

    def read(self, slot: int) -> WorkerStats:
        off = self._off(slot, 0)
        (
            pid,
            state,
            restarts,
            cpus,
            chunks,
            bytes_in,
            bytes_out,
            busy_us,
            heartbeat,
        ) = _SLOT.unpack_from(self._buf, off)
        return WorkerStats(
            pid=pid,
            state=WorkerState(state),
            restarts=restarts,
            cpus=cpus,
            chunks=chunks,
            bytes_in=bytes_in,
            bytes_out=bytes_out,
            busy_us=busy_us,
            heartbeat=heartbeat,
        )

    def snapshot(self) -> list[WorkerStats]:
        """Decode every slot (the supervisor's polling entrypoint)."""
        return [self.read(i) for i in range(self.workers)]

    # -- lifecycle -------------------------------------------------------

    def detach(self) -> None:
        self._buf = memoryview(b"")
        self._shm.close()

    def unlink(self) -> None:
        self.detach()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass
