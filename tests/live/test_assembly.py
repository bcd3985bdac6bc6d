"""Assembly.execute: the one place a run's stage threads are joined."""

import threading

from repro.compress.codec import resolve_codec
from repro.faults.policy import TimeoutPolicy
from repro.live.assembly import Assembly, thread
from repro.live.runtime import LiveConfig


def test_thread_outliving_the_join_timeout_is_a_straggler_error():
    """A stage thread still alive after ``timeouts.join`` is reported by
    name, and the threads that did finish are not."""
    release = threading.Event()
    cfg = LiveConfig(timeouts=TimeoutPolicy(join=0.05))
    asm = Assembly(cfg, resolve_codec("null"), None, runner="test")
    asm.stages["stuck"] = [thread("stuck-0", release.wait)]
    asm.stages["done"] = [thread("done-0", lambda: None)]
    try:
        errors = asm.execute()
    finally:
        release.set()
    assert errors == ["thread stuck-0 did not finish (deadlock?)"]
    for t in asm.stages["stuck"] + asm.stages["done"]:
        t.join(5.0)
        assert not t.is_alive()
