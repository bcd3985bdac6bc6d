"""Unit-conversion helpers."""

import pytest

from repro.util.units import (
    GiB,
    Gbps,
    KiB,
    MiB,
    bytes_per_s_to_gbps,
    gbps_to_bytes_per_s,
)


class TestConstants:
    def test_binary_prefixes(self):
        assert KiB == 1024
        assert MiB == 1024**2
        assert GiB == 1024**3

    def test_gbps_is_decimal(self):
        assert Gbps == 1e9


class TestRateConversions:
    def test_gbps_to_bytes(self):
        assert gbps_to_bytes_per_s(8.0) == 1e9

    def test_bytes_to_gbps(self):
        assert bytes_per_s_to_gbps(1e9) == 8.0

    def test_roundtrip(self):
        assert bytes_per_s_to_gbps(gbps_to_bytes_per_s(105.41)) == pytest.approx(105.41)
