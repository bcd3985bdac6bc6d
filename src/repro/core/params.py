"""Calibrated cost model for the simulated runtime.

Every constant below is tied to numbers the paper itself reports;
EXPERIMENTS.md carries the full audit.  Two rate regimes exist:

- **micro rates** (``compress_rate``, ``decompress_rate``) describe the
  pure compress/decompress loops of the §3.2/§3.3 microbenchmarks
  (Figures 8a, 9a);
- **pipeline rates** are micro rates × ``pipeline_efficiency`` and
  describe the same work inside the streaming pipeline (queue handoffs,
  zeroMQ messaging, allocation) — Figures 12 and 14.

Derivations:

- ``compress_rate`` (micro, 0.826 GB/s input per 3.1 GHz reference
  core): fixed by two paper facts simultaneously — Figure 12 configs
  A/B bottleneck on 8 pipeline compression threads at ≈37 Gbps
  (⇒ pipeline rate 0.578 GB/s/core = micro × 0.70), and §3.3's "3X"
  micro relation below.
- ``decompress_rate`` (micro, 2.478 GB/s output per core): §3.3 —
  decompression is "approximately 3X" compression at equal threads.
- ``pipeline_efficiency`` (0.70): closes Figure 12 configs F/G at the
  paper's ≈97 Gbps on a 32-core sender running 32 C + 8 S + 8 ingest
  threads (the fluid pipeline self-balances; see DESIGN.md §4).
- ``ingest_rate``: sender-side source read + staging copy (hdf5 chunk
  fetch from page cache ≈ 1.55 GB/s/core); with 8 ingest threads this
  stage sustains ≈99 Gbps uncompressed, just above F/G's target — it
  never binds in the paper's configs but consumes the CPU share that
  keeps 32 compression threads from scaling past ≈97 Gbps.
- ``send_cpu_rate`` / ``recv_cpu_rate``: Figure 11 — one send/recv
  thread pair sustains ≈33 Gbps ⇒ 4.125 GB/s of wire bytes per core.
- ``softirq_rate``: kernel RX stack (IRQ + softIRQ protocol processing,
  §2.2) charged on the NIC-designated core; ≈2× the app-side copy rate.
- ``remote_stall_factor`` (1.18): Observations 1 & 4 — a receive thread
  across QPI from the NIC loses ≈15% when CPU-bound (Figures 5, 11);
  remote loads stall its copy loop, so CPU-per-byte rises 18%.
- ``remote_stream_penalty`` (0.87): on window-limited paths the slower
  remote drain shrinks the effective TCP window; per-stream caps scale
  by 0.87 (the same ≈15% seen from the rate side).
- ``decompress_llc_factor`` (5.5): §3.3/Obs 3 — decompression hammers
  the execution socket's LLC with match-copy re-reads.  With the Xeon
  socket's 175 GB/s effective LLC bandwidth, 16 micro decompression
  threads on one socket cap at ≈32 GB/s versus ≈40 GB/s when split
  8 + 8 (the Figure 9a crossover), while Figure 14's 16 *pipeline*
  threads (26.6 GB/s × 5.5 = 146 GB/s) stay feasible — reconciling the
  two results the way the paper's own numbers demand.
- ``decompress_mc_factor`` (1.8): recent-output re-reads that miss LLC.

Rates are bytes/second *per reference core* (3.1 GHz Xeon Gold 6346);
cores at other clocks scale linearly (``MachineSpec.reference_ghz``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.errors import ValidationError

#: Per-codec (compress, decompress) throughput factors relative to the
#: calibrated LZ4 micro rates — rough single-core ratios for 3:1-ish
#: scientific payloads.  Used by :meth:`CostModel.for_codec` when a
#: plan's codec policy names a non-default codec, so the simulator's
#: stage costs track the live substrate's codec choice.
CODEC_COST_FACTORS: dict[str, tuple[float, float]] = {
    "lz4": (1.0, 1.0),
    "shuffle-lz4": (0.90, 0.90),
    "delta-shuffle-lz4": (0.85, 0.85),
    "zlib": (0.08, 0.35),
    "null": (12.0, 12.0),
}


@dataclass(frozen=True)
class CostModel:
    """Per-byte processing costs and penalty factors (see module doc)."""

    #: Sender-side source ingest (read + staging copy), bytes/s per core.
    ingest_rate: float = 1.55e9
    #: LZ4 compression *micro* rate, uncompressed input bytes/s per core.
    compress_rate: float = 0.826e9
    #: LZ4 decompression *micro* rate, uncompressed output bytes/s per
    #: core (≈3× compression, §3.3).
    decompress_rate: float = 2.478e9
    #: Fraction of the micro rate delivered inside the streaming
    #: pipeline (queue sync, messaging, allocation overheads).
    pipeline_efficiency: float = 0.70
    #: TCP send processing, wire bytes/s per core.
    send_cpu_rate: float = 4.125e9
    #: TCP receive processing (app-side copy), wire bytes/s per core.
    recv_cpu_rate: float = 4.125e9
    #: Kernel RX path (softIRQ) processing, wire bytes/s per core,
    #: charged on the NIC queue's IRQ-affinity core.
    softirq_rate: float = 8.25e9
    #: Receiver-side sink write (memcpy into application memory or page
    #: cache), bytes/s per core; only used when a stream configures an
    #: egest stage (Figure 2's "stores it back into memory or disk").
    egest_rate: float = 5.0e9

    #: CPU-cost multiplier when a stage's dominant read crosses QPI.
    remote_stall_factor: float = 1.18
    #: Per-stream TCP rate-cap multiplier when the receive thread is
    #: remote from the NIC (window-limited paths).
    remote_stream_penalty: float = 0.87

    #: LLC bytes touched per payload byte, by stage.
    compress_llc_factor: float = 1.5
    decompress_llc_factor: float = 5.5
    copy_llc_factor: float = 2.0

    #: Memory-controller bytes per output byte decompression adds beyond
    #: the plain output write (LLC-missing re-reads).
    decompress_mc_factor: float = 1.8

    def __post_init__(self) -> None:
        for name in (
            "ingest_rate",
            "compress_rate",
            "decompress_rate",
            "send_cpu_rate",
            "recv_cpu_rate",
            "softirq_rate",
            "egest_rate",
        ):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0")
        if not 0.0 < self.pipeline_efficiency <= 1.0:
            raise ValidationError("pipeline_efficiency must be in (0, 1]")
        if self.remote_stall_factor < 1.0:
            raise ValidationError("remote_stall_factor must be >= 1")
        if not 0.0 < self.remote_stream_penalty <= 1.0:
            raise ValidationError("remote_stream_penalty must be in (0, 1]")

    # -- derived -----------------------------------------------------------

    def stage_rate(self, micro_rate: float, *, pipeline: bool) -> float:
        """Effective per-core rate for a stage, micro or in-pipeline."""
        return micro_rate * (self.pipeline_efficiency if pipeline else 1.0)

    def with_overrides(self, **kwargs: float) -> "CostModel":
        """A copy with some constants replaced (for ablation benches)."""
        return replace(self, **kwargs)

    def for_codec(self, name: str) -> "CostModel":
        """A copy with compress/decompress rates scaled for one codec.

        Factors are relative to the calibrated LZ4 rates
        (:data:`CODEC_COST_FACTORS`); unknown codecs are an error so a
        plan cannot silently simulate with uncalibrated costs.
        """
        factors = CODEC_COST_FACTORS.get(name)
        if factors is None:
            raise ValidationError(
                f"no cost factors for codec {name!r}; "
                f"known: {sorted(CODEC_COST_FACTORS)}"
            )
        fc, fd = factors
        return self.with_overrides(
            compress_rate=self.compress_rate * fc,
            decompress_rate=self.decompress_rate * fd,
        )


@dataclass(frozen=True)
class PathSpec:
    """A network path between facilities.

    ``per_stream_cap_gbps`` models the TCP window/RTT limit of a single
    connection on this path; ``None`` means effectively unlimited
    (short-RTT LAN paths where the CPU is the per-connection limit).
    """

    name: str
    bandwidth_gbps: float
    rtt_ms: float = 0.05
    per_stream_cap_gbps: float | None = None
    #: Fraction of link rate deliverable as TCP goodput (framing, ACKs).
    efficiency: float = 0.97

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ValidationError("path bandwidth must be > 0")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValidationError("path efficiency must be in (0, 1]")
        if self.per_stream_cap_gbps is not None and self.per_stream_cap_gbps <= 0:
            raise ValidationError("per_stream_cap_gbps must be > 0")

    @property
    def goodput_Bps(self) -> float:
        """Deliverable aggregate goodput in bytes/s."""
        return self.bandwidth_gbps * 1e9 * self.efficiency / 8.0

    def stream_cap_Bps(self) -> float | None:
        """Per-connection cap in bytes/s (None = uncapped)."""
        if self.per_stream_cap_gbps is None:
            return None
        return self.per_stream_cap_gbps * 1e9 / 8.0


#: Intra-APS path used by Figures 11/12 (updraft1 → lynxdtn): short RTT,
#: one TCP connection can reach ≈33 Gbps before the receive CPU binds.
APS_LAN_PATH = PathSpec(
    name="aps-lan",
    bandwidth_gbps=100.0,
    rtt_ms=0.05,
    per_stream_cap_gbps=35.0,
)

#: ALCF → APS path used by Figure 5 (Polaris → lynxdtn): 200 Gbps,
#: 0.45 ms RTT ⇒ each connection is window-limited to ≈14 Gbps, which is
#: why the paper needs ≥16 processes to reach 190+ Gbps.
ALCF_APS_PATH = PathSpec(
    name="alcf-aps",
    bandwidth_gbps=200.0,
    rtt_ms=0.45,
    per_stream_cap_gbps=14.0,
)
