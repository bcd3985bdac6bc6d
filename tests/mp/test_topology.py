"""The process topology: per-domain CPU sets and the supervisor's layout."""

import multiprocessing
import os

import pytest

from repro.live.runtime import LiveConfig
from repro.mp.supervisor import DomainSupervisor, domain_cpu_sets
from repro.util.errors import ConfigurationError


class TestDomainCpuSets:
    def test_even_split_is_contiguous(self):
        assert domain_cpu_sets([0, 1, 2, 3], 2) == [(0, 1), (2, 3)]

    def test_remainder_goes_to_leading_domains(self):
        assert domain_cpu_sets([0, 1, 2, 3, 4], 2) == [(0, 1, 2), (3, 4)]
        assert domain_cpu_sets([8, 9, 10], 2) == [(8, 9), (10,)]

    def test_fewer_cpus_than_domains_leaves_tail_unpinned(self):
        assert domain_cpu_sets([4, 5], 4) == [(4,), (5,), (), ()]

    def test_no_cpus_means_everyone_unpinned(self):
        assert domain_cpu_sets(None, 3) == [(), (), ()]
        assert domain_cpu_sets([], 2) == [(), ()]

    def test_rejects_degenerate_domain_count(self):
        with pytest.raises(ConfigurationError):
            domain_cpu_sets([0], 0)


def shm_segments():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


class TestPlanTopology:
    """The supervisor lays the domains out from the lowered config."""

    def supervisor(self, **config_kwargs):
        return DomainSupervisor(
            LiveConfig(codec="zlib", mp_start_method="fork", **config_kwargs),
            codec_spec="zlib",
        )

    def test_domains_default_to_compress_threads(self):
        assert self.supervisor(compress_threads=3).domains == 3

    def test_explicit_domain_count_wins(self):
        sup = self.supervisor(compress_threads=4, process_domains=2)
        assert sup.domains == 2

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="starting a supervisor here needs the fork start method",
    )
    def test_ring_geometry_comes_from_config(self):
        sup = self.supervisor(
            compress_threads=2, ring_capacity=16, ring_slot_bytes=1 << 16,
        )
        before = shm_segments()
        sup.start()
        try:
            rings = [*sup.raw, *sup.comp]
            assert len(rings) == 4  # raw + comp per domain
            # ...and a run's only segments are its rings.
            if os.path.isdir("/dev/shm"):
                assert len(shm_segments() - before) == 4
            for ring in rings:
                assert ring.capacity == 16
                assert ring.slot_bytes == 1 << 16
        finally:
            sup.close_inputs()
            sup.join(10.0)
            sup.shutdown()

    def test_affinity_map_partitions_into_domains(self):
        sup = self.supervisor(
            compress_threads=2, affinity={"compress": [0, 1, 2, 3]},
        )
        assert sup.cpus == [(0, 1), (2, 3)]
