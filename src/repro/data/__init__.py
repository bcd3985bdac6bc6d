"""Scientific data substrate.

The paper streams "a synthesized dataset of 16 GB, which mirrors real
tomographic datasets" (tomobank's *spheres* dataset: borosilicate glass
spheres, 38–45 µm Gaussian-distributed diameters, in a polypropylene
matrix) in chunks of 11.0592 MB — exactly one X-ray projection
(2304 × 2400 detector pixels × 2 bytes).

- :mod:`repro.data.spheres` — the phantom and analytic projection
  generator (line integrals through spheres; vectorized numpy);
- :mod:`repro.data.chunking` — the :class:`Chunk` unit of streaming work
  and helpers to cut a dataset into projection-sized chunks.
"""

from repro.data.chunking import Chunk, ChunkSource, SyntheticChunkSource
from repro.data.spheres import (
    PAPER_CHUNK_BYTES,
    PAPER_DETECTOR_SHAPE,
    SpheresDataset,
    SpheresPhantom,
)

__all__ = [
    "Chunk",
    "ChunkSource",
    "PAPER_CHUNK_BYTES",
    "PAPER_DETECTOR_SHAPE",
    "SpheresDataset",
    "SpheresPhantom",
    "SyntheticChunkSource",
]
