"""An explicitly-advanced telemetry clock for deterministic tests.

It satisfies :class:`repro.telemetry.clock.Clock` (a ``now()`` method),
so a test can hand it to ``SpanStore``/``Telemetry``/``Watchdog`` and
step time exactly with :meth:`ManualClock.advance`.
"""


class ManualClock:
    """An explicitly-advanced clock for tests and replayed traces."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError(f"clock cannot go backwards (dt={dt})")
        self._now += dt
        return self._now
