"""Tests for the network substrate: ISPs, IPs, topology, access links."""

import ipaddress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import (
    AccessBandwidthModel,
    AccessLink,
    AccessTechnology,
    ChinaTopology,
    ISP,
    IpAllocator,
    IpResolver,
    MAJOR_ISPS,
    default_registry,
)
from repro.netsim.isp import IspProfile, IspRegistry
from repro.netsim.link import ADSL_GOODPUT, TESTBED_ADSL, adsl_goodput
from repro.sim.clock import kbps, mbps


class TestIspRegistry:
    def test_population_shares_sum_to_one(self):
        shares = default_registry().population_shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_four_majors(self):
        registry = default_registry()
        assert len(MAJOR_ISPS) == 4
        for isp in MAJOR_ISPS:
            assert registry.is_major(isp)
        assert not registry.is_major(ISP.OTHER)

    def test_other_share_matches_barrier_population(self):
        # ~9.6% of users sit outside the four majors (paper section 4.2).
        shares = default_registry().population_shares()
        assert shares[ISP.OTHER] == pytest.approx(0.096)

    def test_sampling_follows_shares(self):
        registry = default_registry()
        rng = np.random.default_rng(0)
        draws = [registry.sample_isp(rng) for _ in range(4000)]
        other_share = sum(1 for isp in draws if isp is ISP.OTHER) / 4000
        assert 0.07 < other_share < 0.125

    def test_rejects_bad_share_sum(self):
        with pytest.raises(ValueError):
            IspRegistry((IspProfile(ISP.UNICOM, ("1.0.0.0/8",), 0.5),))

    def test_rejects_duplicate_isp(self):
        with pytest.raises(ValueError):
            IspRegistry((
                IspProfile(ISP.UNICOM, ("1.0.0.0/8",), 0.5),
                IspProfile(ISP.UNICOM, ("2.0.0.0/8",), 0.5),
            ))


class TestIpAllocation:
    def test_allocations_are_unique(self):
        allocator = IpAllocator()
        addresses = {allocator.allocate(ISP.UNICOM) for _ in range(1000)}
        assert len(addresses) == 1000

    def test_allocation_lands_in_isp_blocks(self):
        allocator = IpAllocator()
        registry = default_registry()
        for isp in registry.isps():
            address = ipaddress.ip_address(allocator.allocate(isp))
            assert any(address in network
                       for network in registry.profile(isp).networks())

    def test_resolver_roundtrip(self):
        allocator = IpAllocator()
        resolver = IpResolver()
        for isp in default_registry().isps():
            for _ in range(50):
                assert resolver.resolve(allocator.allocate(isp)) is isp

    def test_unallocated_space_resolves_to_none(self):
        resolver = IpResolver()
        assert resolver.resolve("8.8.8.8") is None
        assert resolver.resolve("255.255.255.254") is None

    def test_is_major(self):
        allocator = IpAllocator()
        resolver = IpResolver()
        assert resolver.is_major(allocator.allocate(ISP.TELECOM))
        assert not resolver.is_major(allocator.allocate(ISP.OTHER))
        assert not resolver.is_major("8.8.8.8")

    @staticmethod
    def reference_addresses(networks):
        """The addresses an allocator hands out, by ``ipaddress``
        arithmetic: offsets 1 .. num_addresses - 2 of each block."""
        for network in networks:
            for offset in range(1, network.num_addresses - 1):
                yield str(network.network_address + offset)

    def test_matches_ipaddress_for_every_isp(self):
        allocator = IpAllocator()
        registry = default_registry()
        for isp in registry.isps():
            expected = self.reference_addresses(
                registry.profile(isp).networks())
            for _ in range(300):
                assert allocator.allocate(isp) == next(expected)

    def test_rolls_over_blocks_then_exhausts(self):
        # Small blocks, so every ISP crosses block boundaries (a /31
        # and a /32 hold no usable address and are skipped) and runs
        # out of addresses.  ``addresses`` walks the same blocks.
        profiles = tuple(
            IspProfile(isp, (f"10.{row}.0.0/29", f"10.{row}.1.0/31",
                             f"10.{row}.2.255/32", f"10.{row}.3.0/30",
                             f"10.{row}.4.248/29"), 0.2)
            for row, isp in enumerate(default_registry().isps()))
        registry = IspRegistry(profiles)
        allocator = IpAllocator(registry)
        for isp in registry.isps():
            expected = list(self.reference_addresses(
                registry.profile(isp).networks()))
            assert len(expected) == 6 + 2 + 6
            values = [int(ipaddress.ip_address(address))
                      for address in expected]
            for first in range(len(values) + 1):
                for count in range(len(values) - first + 1):
                    assert allocator.addresses(isp, first, count) == \
                        values[first:first + count]
                with pytest.raises(RuntimeError, match="exhausted"):
                    allocator.addresses(isp, first, len(values) - first + 1)
            assert [allocator.allocate(isp) for _ in expected] == expected
            for _ in range(2):
                with pytest.raises(RuntimeError, match="exhausted"):
                    allocator.allocate(isp)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_resolution_never_crashes(self, raw):
        resolver = IpResolver()
        result = resolver.resolve(str(ipaddress.ip_address(raw)))
        assert result is None or isinstance(result, ISP)


class TestTopology:
    def test_same_isp_zero_hops(self):
        topology = ChinaTopology()
        assert topology.hop_count(ISP.UNICOM, ISP.UNICOM) == 0

    def test_majors_peer_directly(self):
        topology = ChinaTopology()
        for a in MAJOR_ISPS:
            for b in MAJOR_ISPS:
                if a is not b:
                    assert topology.hop_count(a, b) == 1

    def test_other_reaches_all_majors_within_two_hops(self):
        topology = ChinaTopology()
        for isp in MAJOR_ISPS:
            assert 1 <= topology.hop_count(ISP.OTHER, isp) <= 2

    def test_intra_path_is_fast_and_low_latency(self):
        quality = ChinaTopology().path_quality(ISP.UNICOM, ISP.UNICOM)
        assert quality.cap_median > mbps(50.0)
        assert quality.hops == 0

    def test_cross_path_is_the_barrier(self):
        topology = ChinaTopology()
        intra = topology.path_quality(ISP.UNICOM, ISP.UNICOM)
        cross = topology.path_quality(ISP.UNICOM, ISP.TELECOM)
        assert cross.cap_median < kbps(200.0)
        assert cross.cap_median < intra.cap_median / 100
        assert cross.latency_ms > intra.latency_ms

    def test_latency_grows_with_hops(self):
        topology = ChinaTopology()
        one_hop = topology.path_quality(ISP.UNICOM, ISP.TELECOM)
        two_hop = topology.path_quality(ISP.OTHER, ISP.CERNET)
        assert two_hop.latency_ms > one_hop.latency_ms
        assert two_hop.cap_median < one_hop.cap_median

    def test_crosses_barrier(self):
        topology = ChinaTopology()
        assert not topology.crosses_barrier(ISP.MOBILE, ISP.MOBILE)
        assert topology.crosses_barrier(ISP.MOBILE, ISP.UNICOM)

    def test_sample_cap_positive_and_varies(self):
        quality = ChinaTopology().path_quality(ISP.UNICOM, ISP.TELECOM)
        rng = np.random.default_rng(1)
        caps = [quality.sample_cap(rng) for _ in range(100)]
        assert all(cap > 0 for cap in caps)
        assert len(set(caps)) > 90


class TestAccessLinks:
    def test_link_validation(self):
        with pytest.raises(ValueError):
            AccessLink(AccessTechnology.ADSL, downstream=0.0,
                       upstream=1.0)

    def test_low_bandwidth_threshold(self):
        slow = AccessLink(AccessTechnology.ADSL, downstream=kbps(100.0),
                          upstream=kbps(10.0))
        fast = AccessLink(AccessTechnology.ADSL, downstream=mbps(2.0),
                          upstream=kbps(100.0))
        assert slow.is_low_bandwidth
        assert not fast.is_low_bandwidth

    def test_testbed_line_is_20mbps(self):
        assert TESTBED_ADSL.downstream == mbps(20.0)
        assert adsl_goodput(TESTBED_ADSL) == \
            pytest.approx(mbps(20.0) * ADSL_GOODPUT)
        # The paper's observed ceiling: ~2.37 MBps.
        assert adsl_goodput(TESTBED_ADSL) == pytest.approx(2.375e6)

    def test_bandwidth_model_low_tail_share(self):
        model = AccessBandwidthModel()
        rng = np.random.default_rng(2)
        draws = np.array([model.sample_downstream(rng)
                          for _ in range(8000)])
        below = (draws < kbps(125.0)).mean()
        # The paper attributes 10.8% of fetches to slow lines.
        assert 0.08 < below < 0.14

    def test_bandwidth_model_respects_ceiling(self):
        model = AccessBandwidthModel(max_downstream=mbps(50.0))
        rng = np.random.default_rng(3)
        draws = [model.sample_downstream(rng) for _ in range(2000)]
        assert max(draws) <= mbps(50.0)

    def test_bandwidth_model_validation(self):
        with pytest.raises(ValueError):
            AccessBandwidthModel(low_tail_fraction=1.5)

    def test_sample_link_upstream_below_downstream(self):
        model = AccessBandwidthModel()
        rng = np.random.default_rng(4)
        for _ in range(100):
            link = model.sample_link(rng)
            assert link.upstream <= link.downstream or \
                link.downstream < mbps(0.5)
