"""Operating-system behaviour models.

The paper's baseline is "let the OS place threads"; its contribution is
overriding the OS with topology knowledge.  To compare the two we need an
explicit model of what the OS would do:

- :mod:`repro.osmodel.affinity` — affinity masks (the `numa_bind()` /
  `sched_setaffinity` vocabulary);
- :mod:`repro.osmodel.scheduler` — a load-balancing scheduler in the
  spirit of Linux CFS wake balancing: least-loaded core selection with
  cache-affinity stickiness and periodic rebalancing, but **no knowledge
  of NIC attachment** — the blind spot the paper exploits (§4.2).

Linux's first-touch page placement (§3.4) is modelled where chunks are
handled, not here: a stage with the ``first_touch`` flag homes each
chunk it produces on its own socket (:mod:`repro.core.tasks`), and the
chunk carries that home (:attr:`repro.data.chunking.Chunk.home_socket`).
"""

from repro.osmodel.affinity import AffinityMask
from repro.osmodel.scheduler import OsScheduler

__all__ = ["AffinityMask", "OsScheduler"]
