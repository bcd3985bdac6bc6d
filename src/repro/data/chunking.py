"""The unit of streaming work: chunks.

A :class:`Chunk` mirrors the paper's unit of operation (one X-ray
projection, 11.0592 MB).  Two usage modes share the type:

- **simulation**: chunks are metadata (sizes, compression ratio) — the
  fluid simulator moves bytes as numbers;
- **live**: chunks carry a real payload into the compress stage.  From
  there to decompress a chunk is one :class:`~repro.live.transport.Frame`
  on every plane, so it has no wire fields; a process-mode ring slot is
  that frame plus an optional stamp (:mod:`repro.mp.records`, where
  ``ChunkRecord`` is ``Frame`` for perfbench, whose ``mp.records.*``
  rows now include a CRC-32: 0.05 → 0.12 ms per 256 KiB record).

A :class:`ChunkSource` produces chunks for a stream; the synthetic
source draws per-chunk compression ratios from a calibrated
distribution so simulated wire sizes vary like real projections do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Protocol

from repro.util.errors import ValidationError
from repro.util.rng import make_rng

if TYPE_CHECKING:
    from repro.data.spheres import SpheresDataset


@dataclass
class Chunk:
    """One unit of streaming work."""

    stream_id: str
    index: int
    nbytes: int
    #: Expected original/compressed ratio.
    ratio: float = 2.0
    #: Real payload in live mode; None in simulation.
    payload: bytes | None = None
    #: Socket the (uncompressed or received) buffer is homed on — set by
    #: the stage that first touches it (first-touch policy).
    home_socket: int | None = None
    #: Flow-trace context assigned by the feeder when this chunk was
    #: head-sampled (:class:`repro.telemetry.TraceContext`); None for
    #: the untraced majority.  Downstream stages only test for presence.
    trace: "object | None" = None

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValidationError("chunk nbytes must be >= 0")
        if self.ratio <= 0:
            raise ValidationError("chunk ratio must be > 0")

    @property
    def wire_bytes(self) -> int:
        """Bytes that cross the network for this chunk (simulation)."""
        return max(1, int(round(self.nbytes / self.ratio)))


class ChunkSource(Protocol):
    """Anything that yields the chunks of one stream, in order."""

    def chunks(self) -> Iterator[Chunk]: ...


@dataclass
class SyntheticChunkSource:
    """Metadata-only chunk stream for simulation.

    Per-chunk ratios are ``ratio_mean`` with mild lognormal jitter
    (``ratio_sigma``), clipped to stay positive — matching the paper's
    "on average ... 2:1" phrasing.
    """

    stream_id: str
    num_chunks: int
    chunk_bytes: int
    ratio_mean: float = 2.0
    ratio_sigma: float = 0.05
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_chunks < 0:
            raise ValidationError("num_chunks must be >= 0")
        if self.chunk_bytes <= 0:
            raise ValidationError("chunk_bytes must be > 0")
        if self.ratio_mean <= 0:
            raise ValidationError("ratio_mean must be > 0")

    def chunks(self) -> Iterator[Chunk]:
        rng = make_rng(self.seed, "chunk-source", self.stream_id)
        for i in range(self.num_chunks):
            if self.ratio_sigma > 0:
                ratio = float(
                    self.ratio_mean * rng.lognormal(0.0, self.ratio_sigma)
                )
            else:
                ratio = self.ratio_mean
            yield Chunk(
                stream_id=self.stream_id,
                index=i,
                nbytes=self.chunk_bytes,
                ratio=max(ratio, 1.0),
            )


@dataclass
class DatasetChunkSource:
    """Live chunk stream rendered from a :class:`SpheresDataset`-like
    object exposing ``num_projections`` and ``chunk_payload(i)``."""

    stream_id: str
    dataset: SpheresDataset
    limit: int | None = None

    def chunks(self) -> Iterator[Chunk]:
        n = self.dataset.num_projections
        if self.limit is not None:
            n = min(n, self.limit)
        for i in range(n):
            payload = self.dataset.chunk_payload(i)
            yield Chunk(
                stream_id=self.stream_id,
                index=i,
                nbytes=len(payload),
                payload=payload,
            )
