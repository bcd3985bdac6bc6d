"""Suite-wide fixtures."""

import sys

import pytest


@pytest.fixture(autouse=True, scope="module")
def _no_pooled_workers_across_modules():
    """Warm compressor processes live as long as the interpreter, and a
    forked one keeps a copy-on-write image of the test process that
    grows as the suite runs on.  Stop them after each module that
    started any; an import check keeps every other module free."""
    yield
    pool = sys.modules.get("repro.mp.pool")
    if pool is not None:
        pool.shutdown_pool()


@pytest.fixture
def crash_worker(monkeypatch):
    """Arm the supervisor's crash hook (``DomainSupervisor.crash_after``)
    in every supervisor the test starts.

    ``crash_worker(3)`` makes domain 0's worker die the hard way
    (``os._exit(1)``, no flushing, no handlers) after three chunks; the
    supervisor strips the hook, so its replacement runs clean.
    ``every_restart=True`` arms each replacement too, and
    ``crash_worker(None)`` disarms.
    """
    from repro.mp.supervisor import DomainSupervisor

    armed = {}
    spawn = DomainSupervisor._spawn

    def crashy_spawn(self, domain):
        first = domain not in self.workers
        if domain == armed.get("domain") and (first or armed["every_restart"]):
            self.crash_after[domain] = armed["after"]
        spawn(self, domain)

    def arm(after, *, domain=0, every_restart=False):
        armed.clear()
        if after is not None:
            armed.update(after=after, domain=domain, every_restart=every_restart)

    monkeypatch.setattr(DomainSupervisor, "_spawn", crashy_spawn)
    return arm
