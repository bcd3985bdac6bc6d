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
