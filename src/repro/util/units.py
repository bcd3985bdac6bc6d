"""Unit conversions for sizes and rates.

Conventions used throughout the library:

- **sizes** are plain ``int`` byte counts;
- **rates** are ``float`` and explicitly suffixed: ``_bps`` (bits per
  second) for network quantities, ``_Bps`` (bytes per second) for memory
  and codec quantities.  The paper reports network numbers in Gbps.

Binary prefixes (KiB/MiB/GiB) are used for memory sizes (DIMMs,
buffers); the paper's chunk size (11.0592 MB = one X-ray projection) is
a decimal-MB quantity and is spelled out where it is used.
"""

from __future__ import annotations

#: Binary size multipliers (bytes).
KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB

#: Rate multiplier (bits per second).
Gbps: float = 1e9


def gbps_to_bytes_per_s(rate_gbps: float) -> float:
    """Convert a rate in Gbps to bytes/second."""
    return rate_gbps * Gbps / 8.0


def bytes_per_s_to_gbps(rate_Bps: float) -> float:
    """Convert a rate in bytes/second to Gbps."""
    return rate_Bps * 8.0 / Gbps
