"""The reconfiguration protocol between controller and runtime.

:class:`Reconfigurable` is what a running pipeline must expose for the
controller to act on it — a handful of narrow methods, all safe to
call from another thread (or, in the simulator, from a virtual-clock
process between events).  Every mutator returns a bool: False means
"refused, pipeline unchanged" (stage not scalable, stream already
draining), which the controller reports as a ``replan_rejected``
rather than an error.

:class:`StageSetExecutor` is the shared thread-substrate
implementation: a bag of named :class:`~repro.live.stageset.StageSet`
objects with a queue-name → consumer-stage map so backpressure signals
resolve to the stage that should absorb them.
:class:`~repro.live.assembly.Assembly` builds one for whichever
pipeline it wired; the simulator implements the protocol directly on
its DES state.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

from repro.live.stageset import StageSet


@runtime_checkable
class Reconfigurable(Protocol):
    """What a running pipeline exposes to the controller."""

    def queue_consumer(self, queue: str) -> tuple[str, str] | None:
        """``(stream_id, stage)`` consuming ``queue``, or None.

        Single-stream runtimes use ``""`` for the stream id.
        """
        ...

    def stage_count(self, stream: str, stage: str) -> int | None:
        """Current worker count of a stage (None when unknown)."""
        ...

    def can_scale(self, stream: str, stage: str) -> bool:
        """Whether :meth:`scale_stage` could change this stage."""
        ...

    def scale_stage(self, stream: str, stage: str, count: int) -> bool:
        """Set a stage's worker count; False = refused, unchanged."""
        ...

    def respawn_stage(self, stream: str, stage: str) -> bool:
        """Drain-and-respawn a stage's workers; False = refused."""
        ...


class StageSetExecutor:
    """The thread-substrate :class:`Reconfigurable` over StageSets.

    ``queue_map`` routes a backpressured queue name to the stage that
    drains it (``{"rawq": "compress", "wireq": "decompress", ...}``).
    ``respawn_hooks`` lets a pipeline override respawn for stages whose
    workers aren't plain stoppable threads — the process pipeline
    routes ``compress`` respawns to the domain supervisor this way.
    """

    def __init__(
        self,
        stages: dict[str, StageSet],
        *,
        queue_map: dict[str, str],
        respawn_hooks: dict[str, Callable[[], bool]] | None = None,
    ) -> None:
        self.stages = stages
        self.queue_map = queue_map
        self.respawn_hooks = respawn_hooks or {}

    def queue_consumer(self, queue: str) -> tuple[str, str] | None:
        stage = self.queue_map.get(queue)
        return ("", stage) if stage is not None else None

    def stage_count(self, stream: str, stage: str) -> int | None:
        ss = self.stages.get(stage)
        return ss.count if ss is not None else None

    def can_scale(self, stream: str, stage: str) -> bool:
        ss = self.stages.get(stage)
        return ss is not None and ss.scalable

    def scale_stage(self, stream: str, stage: str, count: int) -> bool:
        ss = self.stages.get(stage)
        return ss is not None and ss.scale_to(count)

    def respawn_stage(self, stream: str, stage: str) -> bool:
        hook = self.respawn_hooks.get(stage)
        if hook is not None:
            return hook()
        ss = self.stages.get(stage)
        return ss is not None and ss.respawn()
