"""Codec registry and interface used by the streaming runtime.

A :class:`Codec` turns a chunk payload into a smaller wire payload and
back.  The runtime is codec-agnostic; the paper uses LZ4, which is the
default.  ``ZlibCodec`` (stdlib, C speed) exists because the pure-Python
LZ4 would dominate wall-clock time in *live* (real-thread) runs; the
simulator never executes a codec on its hot path.

Codecs register through the :func:`register_codec` decorator, which
assigns each class a stable one-byte **wire id** carried in the frame
header so the receive side can pick the matching decompressor without
out-of-band configuration (wire id 0 means "whatever the pipeline was
configured with", keeping static-codec runs byte-identical to older
senders).  Third-party codecs plug in without editing this module:

    @register_codec(wire_id=42)
    class MyCodec(Codec):
        name = "my-codec"
        ...

:class:`CodecSpec` is the serializable form — a name plus constructor
kwargs — used by plan files, CLI flags, and the process-mode boundary
(a spec string crosses to spawn'd workers; instances never pickle).
"""

from __future__ import annotations

import threading
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, TypeVar

from repro.compress.lz4_frame import (
    BLOCK_MAX_SIZES,
    compress_frame,
    decompress_frame,
)
from repro.compress.shuffle import (
    delta_decode,
    delta_encode,
    shuffle_bytes,
    unshuffle_bytes,
)
from repro.util.errors import CodecError, ValidationError

#: Wire id meaning "the codec the pipeline was configured with" — the
#: value legacy frames carry, so static-codec runs stay byte-identical.
WIRE_ID_DEFAULT = 0

#: Wire ids of codecs that were removed.  Frames that carry one may
#: still exist, so no other codec may ever take the id.
_RETIRED_WIRE_IDS: dict[int, str] = {6: "bz2", 7: "zstd"}


class Codec(ABC):
    """Lossless chunk codec."""

    #: Registry key; subclasses set this.
    name: str = ""
    #: One-byte id carried in frame headers (set by :func:`register_codec`;
    #: 0 = not wire-addressable, frames fall back to the configured codec).
    wire_id: int = WIRE_ID_DEFAULT
    #: Whether the live pipeline may cut a large chunk into blocks and
    #: give each block its own :meth:`compress_with_id` call
    #: (:mod:`repro.live.blocks`).  That needs every block to decode on
    #: its own and every call to stamp the same wire id; a codec for
    #: which either fails, or which has no work to share, says False.
    splits: bool = True
    #: The spec this instance was built from (set by
    #: :meth:`CodecSpec.create`); None for an instance constructed
    #: directly, whose params nothing records.
    spec: "CodecSpec | None" = None

    @abstractmethod
    def compress(self, data: bytes) -> bytes:
        """Compress one chunk payload."""

    @abstractmethod
    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress`; raises CodecError on malformed data."""

    def compress_with_id(self, data: bytes) -> tuple[bytes, int]:
        """Compress and report the codec wire id to stamp on the frame.

        Static codecs return :data:`WIRE_ID_DEFAULT` (0): the receiver
        decompresses with the codec *it* was configured with — which
        preserves constructor kwargs (e.g. a shuffle itemsize) and
        keeps the wire bytes identical to pre-codec-id senders.  A
        codec that returns its own id instead has the receiver pick
        the decompressor from the frame header.
        """
        return self.compress(data), WIRE_ID_DEFAULT

    def ratio(self, data: bytes, compressed: bytes | None = None) -> float:
        """Compression ratio (original/compressed) achieved on ``data``.

        Pass the wire payload you already have as ``compressed`` to
        compute the ratio from lengths alone — without it this method
        has to run the compressor once, which on a hot path would mean
        compressing the same chunk twice.
        """
        if not data:
            return 1.0
        if compressed is None:
            compressed = self.compress(data)
        return len(data) / len(compressed)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, type[Codec]] = {}
_WIRE_IDS: dict[int, str] = {}
_DECOMPRESSORS: dict[int, Codec] = {}
_DECOMP_LOCK = threading.Lock()

C = TypeVar("C", bound=type[Codec])


def register_codec(*, wire_id: int) -> Callable[[C], C]:
    """Class decorator adding a :class:`Codec` subclass to the registry.

    ``wire_id`` must be unique in ``[1, 255]`` (0 is reserved for "the
    configured codec") and is stamped onto the class.  The class must
    set a non-empty ``name``.  Registering a duplicate name, a taken
    wire id or a retired one (6 and 7, once bz2 and zstd) raises
    :class:`ValidationError` — ids are part of the wire format and must
    never be recycled.
    """

    def _register(cls: C) -> C:
        name = cls.name
        if not name:
            raise ValidationError(
                f"codec class {cls.__name__} must set a non-empty name"
            )
        if not 0 <= wire_id <= 255:
            raise ValidationError(
                f"codec {name!r}: wire_id {wire_id} outside [0, 255]"
            )
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise ValidationError(f"codec name {name!r} already registered")
        if wire_id in _RETIRED_WIRE_IDS:
            raise ValidationError(
                f"codec wire id {wire_id} is retired "
                f"(was {_RETIRED_WIRE_IDS[wire_id]!r}) and never reused"
            )
        if wire_id != WIRE_ID_DEFAULT:
            holder = _WIRE_IDS.get(wire_id)
            if holder is not None and holder != name:
                raise ValidationError(
                    f"codec wire id {wire_id} already taken by {holder!r}"
                )
            _WIRE_IDS[wire_id] = name
        cls.wire_id = wire_id
        _REGISTRY[name] = cls
        return cls

    return _register


def available_codecs() -> list[str]:
    """Registered codec names."""
    return sorted(_REGISTRY)


def refuse_removed_codec(name: object) -> None:
    """Refuse a codec name that was removed, saying what to name instead
    (spec strings, CLI flags and plan files all come through here)."""
    if name == "adaptive":
        raise ValidationError(
            "codec 'adaptive' was removed: on a ~1 GB/s link it never "
            "beat the best static codec; name one, e.g. 'null' or 'zlib'"
        )


def codec_class(name: str) -> type[Codec]:
    """Look up a registered codec class by name."""
    refuse_removed_codec(name)
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValidationError(
            f"unknown codec {name!r}; available: {available_codecs()}"
        )
    return cls


def get_codec(name: str, **kwargs: Any) -> Codec:
    """Instantiate a codec by registry name."""
    return CodecSpec.parse(name).with_params(**kwargs).create()


def decompressor_for(wire_id: int) -> Codec:
    """The cached decompressor instance for a frame's wire id.

    Instances are constructed with default kwargs, so a frame that names
    a codec whose *decompression* depends on constructor parameters
    (e.g. the shuffle itemsize) decodes with those defaults.
    """
    codec = _DECOMPRESSORS.get(wire_id)  # lock-free: runs per frame
    if codec is not None:
        return codec
    with _DECOMP_LOCK:
        codec = _DECOMPRESSORS.get(wire_id)
        if codec is None:
            try:
                name = _WIRE_IDS[wire_id]
            except KeyError as exc:
                raise CodecError(
                    f"frame carries unknown codec wire id {wire_id}"
                ) from exc
            codec = _REGISTRY[name]()
            _DECOMPRESSORS[wire_id] = codec
        return codec


# ---------------------------------------------------------------------------
# the serializable spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodecSpec:
    """A codec by name plus constructor kwargs — the serializable form.

    Specs cross every boundary instances cannot: plan files, CLI flags,
    the spawn'd process-mode workers.  The string form is
    ``name`` or ``name:key=value,key=value`` (``zlib:level=6``), each
    value a bool, an int, a float or a string.
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("codec spec needs a non-empty name")

    def with_params(self, **extra: Any) -> "CodecSpec":
        if not extra:
            return self
        merged = dict(self.params)
        merged.update(extra)
        return CodecSpec(self.name, merged)

    def create(self) -> Codec:
        """Instantiate, raising :class:`ValidationError` on bad specs."""
        cls = codec_class(self.name)
        try:
            codec = cls(**dict(self.params))
        except TypeError as exc:
            raise ValidationError(
                f"codec {self.name!r} rejected params "
                f"{sorted(self.params)}: {exc}"
            ) from exc
        codec.spec = self
        return codec

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"name": self.name}
        if self.params:
            doc["params"] = dict(sorted(self.params.items()))
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "CodecSpec":
        unknown = set(doc) - {"name", "params"}
        if unknown:
            raise ValidationError(
                f"codec spec has unknown keys {sorted(unknown)}"
            )
        name = doc.get("name")
        if not isinstance(name, str) or not name:
            raise ValidationError("codec spec needs a string 'name'")
        params = doc.get("params", {})
        if not isinstance(params, Mapping):
            raise ValidationError("codec spec 'params' must be a mapping")
        return cls(name, dict(params))

    def __str__(self) -> str:
        if not self.params:
            return self.name
        parts = (f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}:{','.join(parts)}"

    @classmethod
    def parse(cls, text: str) -> "CodecSpec":
        """Parse the string form."""
        text = text.strip()
        if not text:
            raise ValidationError("empty codec spec")
        name, _, tail = text.partition(":")
        if not tail:
            return cls(name)
        params: dict[str, Any] = {}
        for item in tail.split(","):
            key, sep, raw = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValidationError(
                    f"bad codec spec segment {item!r} in {text!r} "
                    "(expected key=value)"
                )
            params[key] = _coerce(raw.strip())
        return cls(name, params)


def _coerce(raw: str) -> Any:
    """Best-effort typing for spec-string values."""
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def resolve_codec(spec: "str | CodecSpec | Codec") -> Codec:
    """The one way to turn any codec reference into an instance.

    Accepts a name / spec string (``"zlib"``, ``"zlib:level=6"``), a
    :class:`CodecSpec`, or an already-built :class:`Codec` (returned
    as-is).
    """
    if isinstance(spec, Codec):
        return spec
    if isinstance(spec, CodecSpec):
        return spec.create()
    if isinstance(spec, str):
        return CodecSpec.parse(spec).create()
    raise ValidationError(
        f"cannot resolve a codec from {type(spec).__name__}"
    )


def codec_spec(codec: "str | CodecSpec | Codec") -> CodecSpec:
    """The serializable spec for a codec reference.

    An instance reports the spec :meth:`CodecSpec.create` built it from.
    One constructed directly has no record of its params, so it is
    refused rather than described by its bare name: a process that
    rebuilt it from that name could compress with other params than
    the parent decompresses with.
    """
    if isinstance(codec, CodecSpec):
        return codec
    if isinstance(codec, str):
        return CodecSpec.parse(codec)
    if codec.spec is None:
        raise ValidationError(
            f"codec instance {codec.name!r} was not built from a spec, so "
            "its params are unknown; pass a spec string or CodecSpec"
        )
    return codec.spec


# ---------------------------------------------------------------------------
# built-in codecs
# ---------------------------------------------------------------------------


@register_codec(wire_id=1)
class LZ4Codec(Codec):
    """The paper's codec: LZ4 frames over from-scratch LZ4 blocks.

    Frames carry no content checksum (LZ4F's own default): every hop a
    compressed chunk takes, ring slot or socket, already checks the
    transport frame's CRC-32 over these bytes, and an xxHash32 of the
    whole chunk cost as much as compressing it and ten times as much as
    decompressing it.
    Frames that set the flag still decode and are verified.
    """

    name = "lz4"

    def __init__(
        self, acceleration: int = 1, block_max_size: int = 4 * 1024 * 1024
    ) -> None:
        if acceleration < 1:
            raise ValidationError("acceleration must be >= 1")
        sizes = sorted(BLOCK_MAX_SIZES.values())
        if not isinstance(block_max_size, int) or block_max_size not in sizes:
            raise ValidationError(
                f"block_max_size must be one of {sizes}, got {block_max_size!r}"
            )
        self.acceleration = acceleration
        self.block_max_size = block_max_size

    def compress(self, data: bytes) -> bytes:
        return compress_frame(
            data,
            acceleration=self.acceleration,
            block_max_size=self.block_max_size,
            content_checksum=False,
        )

    def decompress(self, data: bytes) -> bytes:
        return decompress_frame(data)


@register_codec(wire_id=2)
class ShuffleLZ4Codec(Codec):
    """Byte-shuffle filter + LZ4 — how beamline pipelines actually reach
    ~2:1 on uint16 projections (HDF5 shuffle / blosc style).

    ``itemsize`` must divide every payload (2 for uint16 detectors).
    """

    name = "shuffle-lz4"

    def __init__(
        self,
        itemsize: int = 2,
        acceleration: int = 1,
        block_max_size: int = 4 * 1024 * 1024,
    ) -> None:
        if itemsize < 1:
            raise ValidationError("itemsize must be >= 1")
        self.itemsize = itemsize
        self._lz4 = LZ4Codec(acceleration, block_max_size)

    def compress(self, data: bytes) -> bytes:
        return self._lz4.compress(shuffle_bytes(data, self.itemsize))

    def decompress(self, data: bytes) -> bytes:
        return unshuffle_bytes(self._lz4.decompress(data), self.itemsize)


@register_codec(wire_id=3)
class DeltaShuffleLZ4Codec(Codec):
    """Delta + byte-shuffle + LZ4 — the full scientific-filter stack.

    On smooth uint16 projections the delta high-byte plane is almost all
    zeros, so the achieved ratio is dominated by the (noisy) low-byte
    plane — landing at the ~2:1 the paper reports for its tomographic
    chunks.  Opt-in: the live pipeline's default codec is ``zlib``.
    """

    name = "delta-shuffle-lz4"

    def __init__(
        self,
        itemsize: int = 2,
        acceleration: int = 1,
        block_max_size: int = 4 * 1024 * 1024,
    ) -> None:
        if itemsize not in (1, 2, 4, 8):
            raise ValidationError("itemsize must be 1, 2, 4 or 8")
        self.itemsize = itemsize
        self._lz4 = LZ4Codec(acceleration, block_max_size)

    def compress(self, data: bytes) -> bytes:
        filtered = shuffle_bytes(
            delta_encode(data, self.itemsize), self.itemsize
        )
        return self._lz4.compress(filtered)

    def decompress(self, data: bytes) -> bytes:
        filtered = self._lz4.decompress(data)
        return delta_decode(
            unshuffle_bytes(filtered, self.itemsize), self.itemsize
        )


@register_codec(wire_id=4)
class ZlibCodec(Codec):
    """stdlib zlib — a fast stand-in for live (real-thread) pipelines."""

    name = "zlib"

    def __init__(self, level: int = 1) -> None:
        if not 0 <= level <= 9:
            raise ValidationError("zlib level must be in [0, 9]")
        self.level = level

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decompress(self, data: bytes) -> bytes:
        try:
            return zlib.decompress(data)
        except zlib.error as exc:
            raise CodecError(f"zlib decompression failed: {exc}") from exc


@register_codec(wire_id=5)
class NullCodec(Codec):
    """Identity codec — the "no compression" ablation."""

    name = "null"
    #: Nothing to compress, so nothing to share between threads.
    splits = False

    def compress(self, data: bytes) -> bytes:
        return data

    def decompress(self, data: bytes) -> bytes:
        return data
