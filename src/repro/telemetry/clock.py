"""Pluggable time sources for telemetry.

The same span/metric machinery must serve two execution substrates:

- the **live** pipeline, where real threads do real work and spans are
  measured with ``time.perf_counter``;
- the **simulator**, where a discrete-event engine owns a virtual clock
  and spans must carry *simulated* seconds.

A :class:`Clock` is anything with a ``now() -> float`` method returning
monotonically non-decreasing seconds.  Exporters treat the values as an
opaque timebase; only differences and orderings matter.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """Monotonic seconds source."""

    def now(self) -> float: ...


class WallClock:
    """Real time via ``time.perf_counter`` (the live pipeline's clock)."""

    __slots__ = ()

    def now(self) -> float:
        return time.perf_counter()


class SimClock:
    """The simulator engine's virtual clock.

    Holds any object exposing a ``now`` attribute/property in simulated
    seconds (:class:`repro.sim.engine.Engine` in practice) — kept duck
    typed so telemetry never imports the simulator.
    """

    __slots__ = ("engine",)

    def __init__(self, engine) -> None:
        self.engine = engine

    def now(self) -> float:
        return self.engine.now
