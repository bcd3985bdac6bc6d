"""StatsBlock: shared-memory worker counters."""

import pytest

from repro.mp.stats import StatsBlock, WorkerState
from repro.util.errors import ValidationError


@pytest.fixture
def block():
    b = StatsBlock.create(workers=3)
    yield b
    b.unlink()


class TestLayout:
    def test_create_rejects_zero_workers(self):
        with pytest.raises(ValidationError):
            StatsBlock.create(workers=0)

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=256)
        try:
            with pytest.raises(ValidationError, match="not a StatsBlock"):
                StatsBlock.attach(shm.name)
        finally:
            shm.unlink()

    def test_slot_out_of_range(self, block):
        with pytest.raises(ValidationError):
            block.read(3)
        with pytest.raises(ValidationError):
            block.set_pid(-1, 42)


class TestCounters:
    def test_fresh_slot_reads_zero(self, block):
        s = block.read(1)
        assert s.pid == 0
        assert s.state is WorkerState.UNBORN
        assert s.chunks == s.bytes_in == s.bytes_out == s.busy_us == 0
        assert s.heartbeat == 0.0

    def test_field_round_trip(self, block):
        block.set_pid(0, 4242)
        block.set_state(0, WorkerState.RUNNING)
        block.set_cpus(0, 8)
        block.add(0, chunks=2, bytes_in=100, bytes_out=40, busy_us=1500)
        block.add(0, chunks=1, bytes_in=50, bytes_out=20, busy_us=500)
        block.beat(0, 1234.5)
        s = block.read(0)
        assert (s.pid, s.state, s.cpus) == (4242, WorkerState.RUNNING, 8)
        assert (s.chunks, s.bytes_in, s.bytes_out) == (3, 150, 60)
        assert s.busy_us == 2000
        assert s.heartbeat == 1234.5

    def test_restarts_are_supervisor_written(self, block):
        block.bump_restarts(2)
        block.bump_restarts(2)
        assert block.read(2).restarts == 2
        assert block.read(0).restarts == 0  # neighbours untouched

    def test_worker_cpu_fills_the_slot_tail(self, block):
        from repro.mp.stats import _SLOT, _SLOT_BYTES

        assert _SLOT.size == _SLOT_BYTES  # cpu_us took the last free 8 bytes
        block.add(1, cpu_us=1500)
        block.add(1, cpu_us=500)
        block.beat(1, 99.0)
        s = block.read(1)
        assert (s.cpu_us, s.heartbeat) == (2000, 99.0)
        assert block.read(0).cpu_us == 0

    def test_slots_are_independent(self, block):
        block.add(0, chunks=5)
        block.add(2, chunks=7)
        assert [s.chunks for s in block.snapshot()] == [5, 0, 7]


class TestSharing:
    def test_attacher_sees_creator_writes(self, block):
        other = StatsBlock.attach(block.name)
        try:
            assert other.workers == 3
            block.add(1, chunks=9)
            assert other.read(1).chunks == 9
            other.beat(1, 99.0)  # and the reverse direction
            assert block.read(1).heartbeat == 99.0
        finally:
            other.detach()
