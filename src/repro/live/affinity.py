"""Best-effort CPU affinity for live pipeline threads.

On Linux, ``os.sched_setaffinity(0, ...)`` binds the *calling thread*
(tid 0 means "current task"), which is exactly what the paper's
``numa_bind()`` usage needs at thread granularity.  Hosts without the
syscall (macOS) or with a single CPU degrade to a no-op — the live path
is about pipeline correctness, not placement performance (DESIGN.md §2).

Placement stays advisory, but it is no longer *silent*: when a
telemetry object rides along, :func:`pin_current_thread` records the
CPU set it actually applied in the ``repro_affinity_cpus{role}``
gauge — out-of-range CPUs the plan asked for are dropped, and the
gap between requested and applied is exactly the placement drift an
operator needs to see (in both thread and process modes).
"""

from __future__ import annotations

import os
from collections.abc import Iterable


def supports_affinity() -> bool:
    """Whether this host can pin threads at all."""
    return hasattr(os, "sched_setaffinity") and os.cpu_count() not in (None, 1)


def pin_current_thread(
    cpus: Iterable[int],
    *,
    role: str | None = None,
    telemetry: "object | None" = None,
    task: int = 0,
) -> bool:
    """Pin the calling thread to ``cpus``; returns True when applied.

    CPUs outside the host's range are dropped; an empty usable set (or a
    host without affinity support) leaves placement untouched.  With
    ``role`` and ``telemetry`` given, the size of the set *actually
    applied* lands in the ``repro_affinity_cpus{role}`` gauge (0 when
    nothing was applied), so dropped CPUs are observable rather than
    silent.  A non-zero ``task`` pins that thread id instead — a child
    process's pid names its main thread.
    """
    wanted = set(int(c) for c in cpus)

    def _report(ncpus: int) -> None:
        if telemetry is not None and role is not None:
            telemetry.record_affinity(role, ncpus)  # type: ignore[attr-defined]

    if not supports_affinity():
        _report(0)
        return False
    ncpu = os.cpu_count() or 1
    usable = {c for c in wanted if 0 <= c < ncpu}
    if not usable:
        _report(0)
        return False
    try:
        os.sched_setaffinity(task, usable)
    except OSError:
        _report(0)
        return False
    applied = current_affinity(task)
    _report(len(applied) if applied is not None else len(usable))
    return True


def current_affinity(task: int = 0) -> set[int] | None:
    """The calling thread's CPU set (``task``'s, when given), or None
    when unsupported."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    try:
        return set(os.sched_getaffinity(task))
    except OSError:  # a platform quirk, or a task that is gone
        return None
