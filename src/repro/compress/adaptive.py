"""Per-chunk adaptive codec selection.

The compressor is the dominant stage cost in both substrates, and the
best codec depends on the payload: RNG noise is incompressible (any
cycle spent on it is wasted), smooth uint16 projections reward the
filter stacks, and the answer drifts as the instrument scans.  The
:class:`CodecSelector` treats the choice as a tiny contextual bandit:

- **context** — a byte-entropy estimate of the chunk quantized into
  bands: a Hartley (log2-of-distinct-bytes) estimate over a tiny
  middle sample (:func:`hartley_band`, a couple of microseconds), with
  the exact Shannon estimator (:func:`byte_entropy`) kept for
  analysis;
- **arms** — the allowed codec set;
- **feedback** — an exponentially-weighted moving average of measured
  compress throughput (and ratio) per ``(band, codec)``, updated from
  small-sample probes of *every* arm plus timed real compress calls on
  probe visits, so a codec that fell behind gets re-tried after the
  payload distribution shifts.

Between probe visits the selector serves a cached per-band choice with
no lock and no timing — the steady-state tax must be near zero or the
selector penalizes exactly the fast codecs it exists to pick.  When
every band agrees on one winner (the common converged state, and the
whole story for a single-arm pool) the selector collapses further to a
*uniform* fast path that skips even the per-chunk entropy band: one
attribute read and a counter decrement per chunk, with a full banded
probe visit every ``probe_interval`` chunks to notice drift.

:class:`AdaptiveCodec` wraps a selector behind the ordinary
:class:`~repro.compress.codec.Codec` interface.  Its
:meth:`~AdaptiveCodec.compress_with_id` returns the *chosen* codec's
wire id, which the frame header carries to the receiver — so the
decompressor auto-selects and nothing adaptive ever crosses the wire.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.compress.codec import (
    Codec,
    CodecSpec,
    register_codec,
    resolve_codec,
)
from repro.util.errors import CodecError, ValidationError

#: Default codec set: covers both ends of the frontier without the
#: pure-Python LZ4 stack (opt in via ``allowed=``).
DEFAULT_ALLOWED: tuple[str, ...] = ("zlib", "null")

#: Entropy bands: bits/byte in [0, 8] quantized to integers.
_BANDS = 8


def byte_entropy(data: bytes, sample_bytes: int = 65536) -> float:
    """Shannon entropy estimate in bits/byte over a bounded prefix.

    A numpy ``bincount`` over at most ``sample_bytes`` bytes — cheap
    enough to run on every chunk (microseconds at the default sample).
    """
    if not data:
        return 0.0
    sample = np.frombuffer(data, dtype=np.uint8, count=min(len(data), sample_bytes))
    counts = np.bincount(sample, minlength=256)
    probs = counts[counts > 0] / sample.size
    return float(-(probs * np.log2(probs)).sum())


def entropy_band(entropy: float) -> int:
    """Quantize an entropy estimate into one of the selector's bands."""
    return min(_BANDS - 1, max(0, int(entropy)))


#: Bytes sampled from the middle of a payload for the per-chunk band.
_BAND_SAMPLE = 64


def hartley_band(data: bytes, sample_bytes: int = _BAND_SAMPLE) -> int:
    """Entropy band from a Hartley (log2-of-distinct-bytes) estimate.

    ``len(set(...))`` over a small middle slice is one pure-C pass
    (~2us) where the exact Shannon estimate costs ~20us of numpy fixed
    overhead — and the selector computes a band on *every* chunk, so
    its context has to be nearly free.  Distinct-byte count maps
    monotonically onto the same 0..7 band scale ``entropy_band`` uses:
    constant payloads land in band 0, RNG noise in the top bands.
    """
    if not data:
        return 0
    off = (len(data) - sample_bytes) // 2 if len(data) > sample_bytes else 0
    distinct = len(set(data[off:off + sample_bytes]))
    return min(_BANDS - 1, (distinct - 1).bit_length())


#: Construction-time round-trip probe: varied bytes, length divisible
#: by every filter itemsize (1/2/4/8), so an allowed codec whose
#: *decompression* depends on non-default constructor parameters (e.g.
#: a shuffle itemsize) fails the check instead of corrupting data.
_ROUND_TRIP_PROBE = bytes(range(256)) * 4


class _Uniform:
    """The all-bands-agree fast path: one codec, a probe countdown.

    ``left`` is decremented without the lock; a lost decrement under
    races only means one slightly-late probe visit.
    """

    __slots__ = ("codec", "left")

    def __init__(self, codec: Codec, left: int) -> None:
        self.codec = codec
        self.left = left


@dataclass
class _ArmStats:
    """EWMA throughput/ratio for one (band, codec) arm."""

    throughput: float = 0.0
    ratio: float = 1.0
    samples: int = 0

    def update(self, throughput: float, ratio: float, alpha: float) -> None:
        if self.samples == 0:
            self.throughput = throughput
            self.ratio = ratio
        else:
            self.throughput += alpha * (throughput - self.throughput)
            self.ratio += alpha * (ratio - self.ratio)
        self.samples += 1


class CodecSelector:
    """Chooses a codec per chunk from entropy bands + live feedback.

    ``target_wire_bps`` switches the score from raw compress throughput
    to *effective delivered* throughput ``min(comp, wire * ratio)`` —
    when the network is the bottleneck a slower, tighter codec wins.
    """

    def __init__(
        self,
        allowed: tuple[str, ...] = DEFAULT_ALLOWED,
        *,
        probe_interval: int = 32,
        sample_bytes: int = 4096,
        alpha: float = 0.3,
        target_wire_bps: float | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if len(allowed) < 1:
            raise ValidationError("adaptive codec needs >= 1 allowed codec")
        if probe_interval < 1:
            raise ValidationError("probe_interval must be >= 1")
        if sample_bytes < 64:
            raise ValidationError("sample_bytes must be >= 64")
        if not 0.0 < alpha <= 1.0:
            raise ValidationError("alpha must be in (0, 1]")
        self.allowed = tuple(allowed)
        self.probe_interval = probe_interval
        self.sample_bytes = sample_bytes
        self.alpha = alpha
        self.target_wire_bps = target_wire_bps
        self._clock = clock
        self._codecs: dict[str, Codec] = {
            name: resolve_codec(name) for name in self.allowed
        }
        for name, codec in self._codecs.items():
            if codec.wire_id == 0:
                raise ValidationError(
                    f"adaptive set cannot contain {name!r}: "
                    "it has no wire id for the frame header"
                )
            self._check_default_decompressible(name, codec)
        # Arm stats are keyed by the *allowed entry* (spec strings like
        # "zlib:level=6" are distinct arms); feedback gets a codec
        # instance back, so map identity -> entry.
        self._entry_of: dict[int, str] = {
            id(codec): name for name, codec in self._codecs.items()
        }
        self._stats: dict[tuple[int, str], _ArmStats] = {}
        self._seen: dict[int, int] = {}
        # band -> (winning codec, fast-path uses left before a probe).
        # Read without the lock: dict get/set are single bytecode ops
        # under the GIL, and a lost countdown decrement only means one
        # slightly-early probe.
        self._fast: dict[int, tuple[Codec, int]] = {}
        # Set whenever every band's cached winner is the same codec:
        # then chunks skip banding entirely until the countdown expires
        # and one full probe visit re-checks the distribution.
        self._uniform: _Uniform | None = None
        self._lock = threading.Lock()

    @staticmethod
    def _check_default_decompressible(name: str, codec: Codec) -> None:
        """Reject arms a default-constructed receiver cannot invert.

        Frames carry only the wire id, so the receive side resolves
        decompressors with default construction
        (:func:`~repro.compress.codec.decompressor_for`).  An allowed
        entry like ``shuffle-lz4:itemsize=4`` would compress with one
        itemsize and unshuffle with another — silently corrupting data,
        since checksums cover the *compressed* payload.  Catch it here,
        at spec-validation time, with a real round trip.
        """
        try:
            default = type(codec)()
            restored = default.decompress(codec.compress(_ROUND_TRIP_PROBE))
        except (TypeError, ValidationError, CodecError) as exc:
            raise ValidationError(
                f"adaptive set cannot contain {name!r}: receivers "
                f"resolve decompressors by wire id with default "
                f"construction, and a default "
                f"{type(codec).__name__} cannot invert it ({exc})"
            ) from exc
        if restored != _ROUND_TRIP_PROBE:
            raise ValidationError(
                f"adaptive set cannot contain {name!r}: its parameters "
                f"change the wire format, and the receive side "
                f"decompresses with a default-constructed "
                f"{type(codec).__name__} (frames carry only the wire "
                "id) — use registry defaults in adaptive pools"
            )

    # -- scoring ---------------------------------------------------------

    def _score(self, stats: _ArmStats) -> float:
        if self.target_wire_bps is None:
            return stats.throughput
        return min(stats.throughput, self.target_wire_bps * stats.ratio)

    def _probe(self, band: int, data: bytes) -> None:
        """Time every allowed codec on a small sample of ``data``."""
        sample = data[: self.sample_bytes]
        if not sample:
            return
        for name, codec in self._codecs.items():
            start = self._clock()
            out = codec.compress(sample)
            elapsed = self._clock() - start
            throughput = len(sample) / max(elapsed, 1e-9)
            ratio = len(sample) / max(len(out), 1)
            self._stats.setdefault((band, name), _ArmStats()).update(
                throughput, ratio, self.alpha
            )

    def _argmax(self, band: int) -> Codec:
        """Best-scoring allowed codec for ``band`` (call under lock)."""
        best_name = self.allowed[0]
        best_score = -1.0
        for name in self.allowed:
            stats = self._stats.get((band, name))
            score = 0.0 if stats is None else self._score(stats)
            if score > best_score:
                best_name, best_score = name, score
        return self._codecs[best_name]

    # -- the public protocol ---------------------------------------------

    def band_of(self, data: bytes) -> int:
        """The context band this payload falls into (Hartley estimate)."""
        return hartley_band(data)

    def select(self, data: bytes) -> tuple[Codec, int, bool]:
        """Pick ``(codec, band, measure)`` for one chunk payload.

        ``measure`` is True on probe visits — the caller should time its
        real compress call and :meth:`feedback` the result.  Between
        probes the cached per-band winner is served with no lock, and
        when every band agrees on one winner the banding itself is
        skipped (``band`` is then ``-1``: only meaningful alongside
        ``measure=True``, which the uniform path never returns).
        """
        uni = self._uniform
        if uni is not None and uni.left > 0:
            uni.left -= 1
            return uni.codec, -1, False
        band = self.band_of(data)
        if uni is None:
            fast = self._fast.get(band)
            if fast is not None and fast[1] > 0:
                codec, left = fast
                self._fast[band] = (codec, left - 1)
                return codec, band, False
        return self._slow_select(band, data), band, True

    def _slow_select(self, band: int, data: bytes) -> Codec:
        """The probe visit: time every arm, re-pick, reset fast paths."""
        with self._lock:
            self._seen[band] = self._seen.get(band, 0) + 1
            self._probe(band, data)
            best = self._argmax(band)
            self._fast[band] = (best, self.probe_interval - 1)
            self._refresh_uniform()
            return best

    def _refresh_uniform(self) -> None:
        """Enable the no-banding fast path iff all bands agree (call
        under the lock)."""
        winners = {id(fast[0]) for fast in self._fast.values()}
        if len(winners) == 1:
            codec = next(iter(self._fast.values()))[0]
            self._uniform = _Uniform(codec, self.probe_interval - 1)
        else:
            self._uniform = None

    def choose(self, data: bytes, band: int | None = None) -> Codec:
        """Pick the codec for one chunk payload.

        The explicit-band analysis API: always banded, never the
        uniform fast path, so callers probing a specific band (tests,
        notebooks) see exactly that band's state.
        """
        if band is None:
            band = self.band_of(data)
        fast = self._fast.get(band)
        if fast is not None and fast[1] > 0:
            codec, left = fast
            self._fast[band] = (codec, left - 1)
            return codec
        return self._slow_select(band, data)

    def feedback(
        self,
        codec: Codec,
        band: int,
        data_len: int,
        wire_len: int,
        seconds: float,
    ) -> None:
        """Fold a real compress call back into the arm statistics."""
        if data_len <= 0:
            return
        throughput = data_len / max(seconds, 1e-9)
        ratio = data_len / max(wire_len, 1)
        entry = self._entry_of.get(id(codec), codec.name)
        with self._lock:
            self._stats.setdefault((band, entry), _ArmStats()).update(
                throughput, ratio, self.alpha
            )
            fast = self._fast.get(band)
            if fast is not None:
                self._fast[band] = (self._argmax(band), fast[1])
                self._refresh_uniform()

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Arm statistics for reports: ``{"band/codec": {...}}``."""
        with self._lock:
            return {
                f"{band}/{name}": {
                    "throughput": s.throughput,
                    "ratio": s.ratio,
                    "samples": s.samples,
                }
                for (band, name), s in sorted(self._stats.items())
            }


@register_codec(wire_id=0)
class AdaptiveCodec(Codec):
    """A :class:`Codec` that picks per chunk from an allowed set.

    Wire id 0: frames never carry "adaptive" — they carry the chosen
    concrete codec's id, so any receiver decodes them.
    """

    name = "adaptive"
    #: The wire id is chosen per call, and a frame carries one.
    splits = False

    def __init__(
        self,
        allowed: tuple[str, ...] = DEFAULT_ALLOWED,
        probe_interval: int = 32,
        sample_bytes: int = 4096,
        target_wire_bps: float | None = None,
    ) -> None:
        if isinstance(allowed, str):  # spec strings give one name
            allowed = (allowed,)
        self.selector = CodecSelector(
            tuple(allowed),
            probe_interval=probe_interval,
            sample_bytes=sample_bytes,
            target_wire_bps=target_wire_bps,
        )

    @property
    def spec(self) -> CodecSpec:
        """The serializable construction spec (crosses to mp workers)."""
        sel = self.selector
        params: dict[str, object] = {"allowed": sel.allowed}
        if sel.probe_interval != 32:
            params["probe_interval"] = sel.probe_interval
        if sel.sample_bytes != 4096:
            params["sample_bytes"] = sel.sample_bytes
        if sel.target_wire_bps is not None:
            params["target_wire_bps"] = sel.target_wire_bps
        return CodecSpec(self.name, params)

    def compress_with_id(self, data: bytes) -> tuple[bytes, int]:
        sel = self.selector
        codec, band, measure = sel.select(data)
        if measure:
            start = sel._clock()
            out = codec.compress(data)
            sel.feedback(codec, band, len(data), len(out), sel._clock() - start)
        else:
            out = codec.compress(data)
        return out, codec.wire_id

    def compress(self, data: bytes) -> bytes:
        return self.compress_with_id(data)[0]

    def decompress(self, data: bytes) -> bytes:
        raise CodecError(
            "adaptive codec cannot decompress: frames carry the concrete "
            "codec's wire id, resolve the decompressor from that"
        )
