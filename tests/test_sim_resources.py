"""Tests for reservation pools and fair-share pools."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.resources import FairSharePool, ReservationPool


class TestReservationPool:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ReservationPool(0.0)

    def test_reserve_and_release_roundtrip(self):
        pool = ReservationPool(100.0)
        assert pool.commit(40.0, now=0.0)
        assert pool.committed == 40.0
        assert pool.available == 60.0
        pool.release(40.0, now=5.0)
        assert pool.committed == 0.0

    def test_over_capacity_raises_and_counts(self):
        # The name is kept from the raising ``reserve`` this first tested;
        # ``commit`` refuses without raising, and the counts are the same.
        pool = ReservationPool(100.0)
        assert pool.commit(80.0, now=0.0)
        assert not pool.commit(30.0, now=1.0)
        assert pool.committed == 80.0
        assert pool.rejections == 1
        assert pool.admissions == 1

    def test_try_reserve_returns_none_when_full(self):
        # The name is kept from ``try_reserve``; ``commit`` answers False.
        pool = ReservationPool(10.0)
        assert pool.commit(8.0, now=0.0)
        assert not pool.commit(5.0, now=0.0)
        assert pool.committed == 8.0

    def test_exact_fit_is_admitted(self):
        pool = ReservationPool(10.0)
        assert pool.commit(10.0, now=0.0)
        assert pool.available == 0.0

    def test_negative_rate_rejected(self):
        pool = ReservationPool(10.0)
        with pytest.raises(ValueError):
            pool.commit(-1.0, now=0.0)

    def test_float_residue_is_not_an_over_release(self):
        # 1e12 + 0.1 rounds the 0.1; handing both rates back leaves a
        # float residue below zero that is not a double release.
        pool = ReservationPool(None, name="x")
        pool.commit(1e12, now=0.0)
        pool.commit(0.1, now=0.0)
        pool.release(1e12, now=1.0)
        pool.release(0.1, now=1.0)
        assert pool.committed == 0.0

    def test_empty_pool_snaps_to_zero(self):
        pool = ReservationPool(10.0)
        for rate in (0.1, 0.2, 0.3):
            pool.commit(rate, now=0.0)
        for rate in (0.1, 0.2, 0.3):
            pool.release(rate, now=1.0)
        assert pool.committed == 0.0
        assert pool.step_levels[-1] == 0.0

    def test_releasing_more_flows_than_committed_raises(self):
        pool = ReservationPool(10.0, name="x")
        pool.commit(4.0, now=0.0)
        pool.release(4.0, now=1.0)
        with pytest.raises(RuntimeError, match="over-released"):
            pool.release(1e-9, now=2.0)

    def test_unmetered_pool_always_admits(self):
        pool = ReservationPool(None)
        for _ in range(10):
            assert pool.commit(1e12, now=0.0)
        assert pool.available == float("inf")

    def test_peak_committed_tracks_high_water_mark(self):
        pool = ReservationPool(100.0)
        pool.commit(60.0, now=0.0)
        pool.commit(30.0, now=1.0)
        pool.release(60.0, now=2.0)
        assert pool.peak_committed == 90.0
        assert pool.committed == 30.0

    @given(rates=st.lists(st.floats(min_value=0.1, max_value=30.0),
                          min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_committed_never_exceeds_capacity(self, rates):
        pool = ReservationPool(100.0)
        held = []
        for index, rate in enumerate(rates):
            if pool.commit(rate, now=float(index)):
                held.append(rate)
            assert 0.0 <= pool.committed <= pool.capacity + 1e-9
        for index, rate in enumerate(held):
            pool.release(rate, now=100.0 + index)
        assert pool.committed == 0.0


class TestFairSharePool:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FairSharePool(0.0)

    def test_single_flow_gets_min_of_demand_and_capacity(self):
        pool = FairSharePool(100.0)
        flow = pool.add_flow(demand=40.0)
        assert pool.share_of(flow) == 40.0
        big = pool.add_flow(demand=1000.0)
        assert pool.share_of(big) == 60.0

    def test_equal_demands_split_equally(self):
        pool = FairSharePool(90.0)
        flows = [pool.add_flow(demand=100.0) for _ in range(3)]
        assert [pool.share_of(f) for f in flows] == \
            pytest.approx([30.0, 30.0, 30.0])

    def test_small_flow_keeps_demand_and_rest_is_redistributed(self):
        pool = FairSharePool(100.0)
        small = pool.add_flow(demand=10.0)
        big_a = pool.add_flow(demand=1000.0)
        big_b = pool.add_flow(demand=1000.0)
        assert pool.share_of(small) == pytest.approx(10.0)
        assert pool.share_of(big_a) == pytest.approx(45.0)
        assert pool.share_of(big_b) == pytest.approx(45.0)

    def test_removing_a_flow_reallocates(self):
        pool = FairSharePool(100.0)
        first = pool.add_flow(demand=1000.0)
        second = pool.add_flow(demand=1000.0)
        pool.remove_flow(first)
        assert pool.share_of(second) == pytest.approx(100.0)

    def test_negative_demand_rejected(self):
        pool = FairSharePool(10.0)
        with pytest.raises(ValueError):
            pool.add_flow(demand=-5.0)

    @given(demands=st.lists(st.floats(min_value=0.0, max_value=500.0),
                            min_size=1, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_max_min_fairness_invariants(self, demands):
        pool = FairSharePool(100.0)
        flows = [pool.add_flow(demand=d) for d in demands]
        shares = [pool.share_of(f) for f in flows]
        # No flow exceeds its demand; total never exceeds capacity.
        for share, demand in zip(shares, demands):
            assert share <= demand + 1e-9
        assert sum(shares) <= pool.capacity + 1e-6
        # Work-conserving: either all demand is met or capacity is full.
        if sum(demands) >= pool.capacity:
            assert sum(shares) == pytest.approx(pool.capacity)
        else:
            assert shares == pytest.approx(demands)
        # Max-min: an unsatisfied flow's share is >= every other share
        # (minus epsilon), i.e. nobody smaller is starved for its sake.
        for share, demand in zip(shares, demands):
            if share < demand - 1e-9:
                assert all(share >= other - 1e-6 for other in shares)
