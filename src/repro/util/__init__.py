"""Shared utilities: unit handling, deterministic RNG, tables, statistics.

These helpers are dependency-free (numpy only) and used by every other
subpackage.  Nothing in here knows about NUMA, streaming, or the paper —
keep it that way.
"""

from repro.util.errors import (
    ConfigurationError,
    ReproError,
    SimulationError,
    ValidationError,
)
from repro.util.rng import derive_seed, make_rng
from repro.util.tables import Table, format_table
from repro.util.timeseries import RateMeter, TimeSeries, WindowStats
from repro.util.units import (
    GiB,
    Gbps,
    KiB,
    MiB,
    gbps_to_bytes_per_s,
)

__all__ = [
    "ConfigurationError",
    "GiB",
    "Gbps",
    "KiB",
    "MiB",
    "RateMeter",
    "ReproError",
    "SimulationError",
    "Table",
    "TimeSeries",
    "ValidationError",
    "WindowStats",
    "derive_seed",
    "format_table",
    "gbps_to_bytes_per_s",
    "make_rng",
]
