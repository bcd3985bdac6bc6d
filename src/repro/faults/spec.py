"""Fault specifications for the live (socket) substrate.

The simulator describes faults with :class:`repro.core.config.FaultSpec`
(stall / degrade / crash / reconnect on a pipeline thread, in simulated
seconds).  The live substrate needs a different vocabulary — its faults
live on the *wire*: a frame arrives corrupted, a connection resets
mid-stream, the network hiccups.  :class:`LiveFaultSpec` is that
vocabulary, and :func:`parse_fault` is the CLI surface for it
(``repro live --fault drop:at=5``).

Both spec families share the same shape on purpose: a *kind*, a trigger
point, and a magnitude — so a chaos scenario reads the same whether it
targets the simulator or real sockets (``docs/resilience.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ValidationError

#: Fault kinds the live injector knows how to fire.
#:
#: - ``corrupt``  — flip a byte of the frame on the wire (checksum trips)
#: - ``truncate`` — send half the frame, then close the connection
#: - ``drop``     — close the connection without sending (TCP reset)
#: - ``delay``    — sleep ``delay`` seconds before sending (network stall)
LIVE_FAULT_KINDS = ("corrupt", "truncate", "drop", "delay")


@dataclass(frozen=True)
class LiveFaultSpec:
    """One injected fault on the live transport's send path."""

    kind: str
    #: Fire once the injector has seen this many frames (across all
    #: connections of the sender).
    at_frame: int = 0
    #: Restrict to one sender connection index; None hits whichever
    #: connection reaches the trigger first.
    connection: int | None = None
    #: Sleep duration for ``kind="delay"``.
    delay: float = 0.05
    #: How many times this spec fires (>1 models a flaky link).
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in LIVE_FAULT_KINDS:
            raise ValidationError(
                f"unknown live fault kind {self.kind!r} "
                f"(choose from {', '.join(LIVE_FAULT_KINDS)})"
            )
        if self.at_frame < 0:
            raise ValidationError("at_frame must be >= 0")
        if self.connection is not None and self.connection < 0:
            raise ValidationError("connection must be >= 0")
        if self.delay < 0:
            raise ValidationError("delay must be >= 0")
        if self.count < 1:
            raise ValidationError("count must be >= 1")


def parse_fault(text: str) -> LiveFaultSpec:
    """Parse one ``--fault`` CLI argument into a :class:`LiveFaultSpec`.

    Grammar: ``KIND[:key=value,...]`` with keys ``at`` (frame index),
    ``conn`` (connection index), ``delay`` (seconds), ``count``::

        drop                    # reset the first connection immediately
        drop:at=5               # reset after 5 frames went out
        corrupt:at=3,conn=1     # corrupt connection 1's 4th frame
        delay:at=0,delay=0.2,count=8
    """
    kind, _, rest = text.partition(":")
    kwargs: dict[str, int | float | None] = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValidationError(
                    f"bad --fault option {item!r} (want key=value)"
                )
            try:
                if key == "at":
                    kwargs["at_frame"] = int(value)
                elif key == "conn":
                    kwargs["connection"] = int(value)
                elif key == "delay":
                    kwargs["delay"] = float(value)
                elif key == "count":
                    kwargs["count"] = int(value)
                else:
                    raise ValidationError(
                        f"unknown --fault option {key!r} "
                        "(known: at, conn, delay, count)"
                    )
            except ValueError as exc:
                raise ValidationError(
                    f"bad --fault value {item!r}: {exc}"
                ) from exc
    return LiveFaultSpec(kind=kind, **kwargs)
