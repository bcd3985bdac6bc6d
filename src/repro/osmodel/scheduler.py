"""A Linux-CFS-flavoured placement model for OS-scheduled threads.

This is the paper's *baseline*: "we allow the operating system to
determine the execution locations autonomously" (§4.2).  The model keeps
the behaviours that matter to the study:

- **least-loaded placement**: a waking thread goes to the core with the
  fewest runnable threads in its affinity mask;
- **wake affinity**: new threads prefer the spawning thread's socket
  while it has idle capacity — this is why the paper's Figures 8b/9b
  show OS-placed thread groups packing "the majority within a single
  NUMA domain";
- **stickiness with occasional migration**: a running thread mostly
  stays put, but the load balancer occasionally moves it to the globally
  least-loaded core;
- **no NIC/NUMA-I/O knowledge**: the scheduler balances *CPU load only*.
  It cannot know that receive threads belong near the NIC's socket —
  precisely the blind spot the paper's runtime exploits for its 1.48X.

Randomized tie-breaking is seeded; experiments average over repetitions
with derived seeds, mirroring the paper's 5–30 repetitions per point.
"""

from __future__ import annotations

from collections.abc import Hashable

import numpy as np

from repro.hw.topology import CoreId, MachineSpec
from repro.osmodel.affinity import AffinityMask
from repro.util.errors import ConfigurationError, ValidationError
from repro.util.rng import make_rng


class OsScheduler:
    """Tracks thread→core assignment under OS-style load balancing."""

    def __init__(
        self,
        spec: MachineSpec,
        *,
        seed: int = 0,
        wake_affinity: float = 0.85,
        migrate_prob: float = 0.005,
        spill_threshold: int = 1,
    ) -> None:
        if not 0.0 <= wake_affinity <= 1.0:
            raise ValidationError("wake_affinity must be in [0, 1]")
        if not 0.0 <= migrate_prob <= 1.0:
            raise ValidationError("migrate_prob must be in [0, 1]")
        if spill_threshold < 0:
            raise ValidationError("spill_threshold must be >= 0")
        self.spec = spec
        self.rng: np.random.Generator = make_rng(seed, "os-scheduler", spec.name)
        self.wake_affinity = wake_affinity
        self.migrate_prob = migrate_prob
        self.spill_threshold = spill_threshold
        self.loads: dict[CoreId, int] = {c: 0 for c in spec.all_cores()}
        self._assignment: dict[Hashable, CoreId] = {}
        self._masks: dict[Hashable, AffinityMask] = {}
        self.migrations = 0

    # -- queries -----------------------------------------------------------

    def current(self, tid: Hashable) -> CoreId:
        try:
            return self._assignment[tid]
        except KeyError as exc:
            raise ConfigurationError(f"thread {tid!r} was never placed") from exc

    def socket_load(self, socket: int) -> int:
        return sum(n for c, n in self.loads.items() if c.socket == socket)

    # -- placement -----------------------------------------------------------

    def place(
        self,
        tid: Hashable,
        mask: AffinityMask,
        *,
        hint_socket: int | None = None,
    ) -> CoreId:
        """Place a new thread; returns its core.

        ``hint_socket`` models wake affinity: the socket of the thread
        that spawned/woke this one (``select_idle_sibling`` searches the
        waker's LLC domain first).  With probability ``wake_affinity``
        the thread lands on the hint socket even when its cores are
        already loaded, up to ``spill_threshold`` extra threads per core
        over the global minimum — this is the packing behaviour behind
        the paper's "the majority function within a single NUMA domain"
        observation for OS-placed thread groups (Figures 8b/9b, §4.2).
        """
        if tid in self._assignment:
            raise ConfigurationError(f"thread {tid!r} placed twice")
        candidates = mask.sorted_cores()
        if hint_socket is not None and self.rng.random() < self.wake_affinity:
            local = [c for c in candidates if c.socket == hint_socket]
            if local:
                global_min = min(self.loads[c] for c in candidates)
                if min(self.loads[c] for c in local) <= global_min + self.spill_threshold:
                    candidates = local
        core = self._least_loaded(candidates)
        self._assignment[tid] = core
        self._masks[tid] = mask
        self.loads[core] += 1
        return core

    def reschedule(self, tid: Hashable) -> CoreId:
        """A scheduling opportunity (e.g. a chunk boundary).

        Sticky: the thread keeps its core unless the periodic load
        balancer fires (``migrate_prob``) *and* a strictly less-loaded
        core exists.  Balancing is LLC-domain-biased like Linux's: with
        probability ``wake_affinity`` only same-socket cores are
        considered, so cross-NUMA migrations of cache-hot threads stay
        rare — which is why OS-packed thread groups persist long enough
        to hurt (§4.2).
        """
        core = self.current(tid)
        if self.rng.random() >= self.migrate_prob:
            return core
        candidates = self._masks[tid].sorted_cores()
        if self.rng.random() < self.wake_affinity:
            local = [c for c in candidates if c.socket == core.socket]
            if local:
                candidates = local
        best = self._least_loaded(candidates, exclude_tid_core=core)
        if self.loads[best] < self.loads[core] - 1:
            self.loads[core] -= 1
            self.loads[best] += 1
            self._assignment[tid] = best
            self.migrations += 1
            return best
        return core

    def force_migrate(self, tid: Hashable, core: CoreId) -> None:
        """Runtime-directed migration (used by the dynamic rebalancer).

        Bypasses stickiness but still respects the thread's mask.
        """
        if core not in self._masks[tid]:
            raise ConfigurationError(
                f"cannot migrate {tid!r} to {core}: outside its affinity mask"
            )
        old = self.current(tid)
        if old == core:
            return
        self.loads[old] -= 1
        self.loads[core] += 1
        self._assignment[tid] = core
        self.migrations += 1

    def remove(self, tid: Hashable) -> None:
        """Thread exited; release its load contribution."""
        core = self._assignment.pop(tid)
        self._masks.pop(tid)
        self.loads[core] -= 1

    # -- internals -------------------------------------------------------------

    def _least_loaded(
        self, candidates: list[CoreId], *, exclude_tid_core: CoreId | None = None
    ) -> CoreId:
        best_load = min(self.loads[c] for c in candidates)
        ties = [c for c in candidates if self.loads[c] == best_load]
        if len(ties) == 1:
            return ties[0]
        return ties[int(self.rng.integers(len(ties)))]
