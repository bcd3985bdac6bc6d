"""The unit of streaming work: chunks.

A :class:`Chunk` mirrors the paper's unit of operation (one X-ray
projection, 11.0592 MB).  Two usage modes share the type:

- **simulation**: chunks are metadata (sizes, compression ratio) — the
  fluid simulator moves bytes as numbers;
- **live**: chunks carry a real payload through real threads/sockets.

A :class:`ChunkSource` produces chunks for a stream; the synthetic
source draws per-chunk compression ratios from a calibrated
distribution so simulated wire sizes vary like real projections do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Protocol

from repro.util.errors import ValidationError
from repro.util.rng import make_rng


@dataclass
class Chunk:
    """One unit of streaming work."""

    stream_id: str
    index: int
    nbytes: int
    #: Expected original/compressed ratio (simulation) or actual (live).
    ratio: float = 2.0
    #: Real payload in live mode; None in simulation.
    payload: bytes | None = None
    #: Compressed payload (live) once the compression stage ran.
    wire_payload: bytes | None = None
    #: Wire id of the codec that produced ``wire_payload`` (0 = the
    #: pipeline's configured codec; adaptive compressors set this).
    codec_id: int = 0
    #: Compressed size of each block when the compress stage cut the
    #: chunk into blocks (``wire_payload`` then starts with the block
    #: table, :mod:`repro.live.blocks`); empty when it did not.
    wire_blocks: tuple[int, ...] = ()
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
        """Bytes that cross the network for this chunk."""
        if self.wire_payload is not None:
            return len(self.wire_payload)
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
    dataset: object
    limit: int | None = None

    def chunks(self) -> Iterator[Chunk]:
        n = int(getattr(self.dataset, "num_projections"))
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
