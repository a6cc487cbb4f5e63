"""Tests for cloud components: database, storage pool, uploads, fetch."""

import numpy as np
import pytest

from repro.cloud import (
    CloudConfig,
    ContentDatabase,
    CloudStoragePool,
    FetchSpeedModel,
    PreDownloaderFleet,
    UploadingServers,
)
from repro.netsim.isp import ISP, MAJOR_ISPS
from repro.netsim.topology import ChinaTopology
from repro.sim.clock import gbps, kbps, mbps
from repro.transfer.protocols import Protocol
from repro.workload.catalog import FileCatalog
from repro.workload.popularity import PopularityClass
from repro.workload.records import CatalogFile
from repro.workload.filetypes import FileType


def make_file(file_id="f1", size=1e8, demand=3,
              protocol=Protocol.BITTORRENT) -> CatalogFile:
    return CatalogFile(file_id=file_id, size=size,
                       file_type=FileType.VIDEO, protocol=protocol,
                       weekly_demand=demand,
                       source_url=f"{protocol.value}://origin/{file_id}")


class TestContentDatabase:
    def test_rows_created_on_demand(self):
        db = ContentDatabase()
        assert "x" not in db
        row = db.row("x", size=10.0)
        assert "x" in db
        assert row.size == 10.0
        assert len(db) == 1

    def test_request_recording_updates_popularity(self):
        db = ContentDatabase()
        for when in range(90):
            db.record_request("x", 5.0, float(when))
        assert db.popularity_of("x") == 90
        assert db.popularity_class_of("x") is \
            PopularityClass.HIGHLY_POPULAR
        assert db.row("x").last_request_time == 89.0

    def test_unseen_file_is_unpopular(self):
        db = ContentDatabase()
        assert db.popularity_of("ghost") == 0
        assert db.popularity_class_of("ghost") is \
            PopularityClass.UNPOPULAR
        assert not db.is_cached("ghost")

    def test_attempt_accounting(self):
        db = ContentDatabase()
        db.record_attempt("x", success=True)
        db.record_attempt("x", success=False)
        row = db.row("x")
        assert row.predownload_attempts == 2
        assert row.predownload_failures == 1

    def test_cache_flag(self):
        db = ContentDatabase()
        db.set_cached("x", True)
        assert db.is_cached("x")
        db.set_cached("x", False)
        assert not db.is_cached("x")


class TestCloudStoragePool:
    def test_lookup_counts_hits_and_misses(self):
        pool = CloudStoragePool(1e9)
        record = make_file()
        assert not pool.lookup(record.file_id)
        pool.insert(record.file_id, record.size)
        assert pool.lookup(record.file_id)
        assert pool.hit_ratio == 0.5

    def test_insert_tracks_bytes(self):
        pool = CloudStoragePool(1e9)
        pool.insert("x", 4e8)
        assert pool.used_bytes == 4e8
        assert len(pool) == 1

    def test_lru_eviction_under_pressure(self):
        pool = CloudStoragePool(1e9)
        pool.insert("a", 6e8)
        evicted = pool.insert("b", 6e8)
        assert evicted == ["a"]
        assert "a" not in pool and "b" in pool

    def test_preseed_probabilities(self):
        catalog = FileCatalog()
        catalog.generate(800, np.random.default_rng(0))
        pool = CloudStoragePool(1e15)
        seeded = pool.preseed(
            catalog,
            {PopularityClass.UNPOPULAR: 0.0,
             PopularityClass.POPULAR: 1.0,
             PopularityClass.HIGHLY_POPULAR: 1.0},
            np.random.default_rng(1))
        non_unpopular = sum(
            1 for record in catalog
            if record.popularity_class is not PopularityClass.UNPOPULAR)
        assert seeded == non_unpopular
        for record in catalog:
            expected = record.popularity_class is not \
                PopularityClass.UNPOPULAR
            assert (record.file_id in pool) == expected


class TestUploadingServers:
    def make_uploads(self, scale=1.0):
        return UploadingServers(CloudConfig(scale=scale),
                                ChinaTopology())

    def test_pools_cover_major_isps(self):
        uploads = self.make_uploads()
        assert set(uploads.pools) == set(MAJOR_ISPS)
        total = sum(pool.capacity for pool in uploads.pools.values())
        assert total == pytest.approx(gbps(30.0))

    def test_home_group_is_first_candidate(self):
        uploads = self.make_uploads()
        for isp in MAJOR_ISPS:
            candidates = uploads.candidate_groups(isp)
            assert candidates[0] is isp
            assert len(candidates) == 2

    def test_outside_users_get_two_alternatives(self):
        uploads = self.make_uploads()
        candidates = uploads.candidate_groups(ISP.OTHER)
        assert len(candidates) == 2
        assert ISP.OTHER not in candidates

    @staticmethod
    def admit(uploads, isp, speed):
        """Admit one fetch whose every path runs at ``speed`` B/s."""
        return uploads.admit(uploads.admission_row(isp),
                             lambda bandwidth, quality: bandwidth, speed)

    def test_privileged_selection_and_reservation(self):
        uploads = self.make_uploads()
        admitted = self.admit(uploads, ISP.UNICOM, kbps(400.0))
        assert admitted is not None
        choice, pool, rate = admitted
        assert choice.privileged
        assert choice.server_isp is ISP.UNICOM
        assert rate == pytest.approx(kbps(400.0))
        assert uploads.pools[ISP.UNICOM].committed == rate
        pool.release(rate)

    def test_rate_is_capped_at_max_fetch(self):
        uploads = self.make_uploads()
        admitted = self.admit(uploads, ISP.UNICOM, gbps(1.0))
        assert admitted is not None
        _choice, _pool, rate = admitted
        assert rate == pytest.approx(mbps(50.0))

    def test_full_home_group_overflows_cross_isp(self):
        # CERNET's pool holds ~2-3 flows at this scale; the next flow
        # must land on a cross-ISP alternative.
        uploads = self.make_uploads(scale=0.003)
        # Saturate CERNET's tiny pool.
        held = []
        while True:
            admitted = self.admit(uploads, ISP.CERNET, kbps(200.0))
            assert admitted is not None
            choice, pool, rate = admitted
            held.append((pool, rate))
            if not choice.privileged:
                assert choice.server_isp is not ISP.CERNET
                break
        assert uploads.rejected_fetches == 0

    def test_total_exhaustion_rejects(self):
        uploads = self.make_uploads(scale=1e-7)   # pools of a few KBps
        rejected = False
        for _ in range(100):
            admitted = self.admit(uploads, ISP.UNICOM, kbps(200.0))
            if admitted is None:
                rejected = True
                break
        assert rejected
        assert uploads.rejection_ratio > 0.0


class TestFetchSpeedModel:
    def test_speed_bounded_by_user_bandwidth(self):
        model = FetchSpeedModel(unknown_degradation_probability=0.0)
        quality = ChinaTopology().path_quality(ISP.UNICOM, ISP.UNICOM)
        rng = np.random.default_rng(0)
        for _ in range(300):
            assert model.sample_speed(kbps(100.0), quality, rng) <= \
                kbps(100.0)

    def test_cross_isp_path_throttles(self):
        model = FetchSpeedModel(unknown_degradation_probability=0.0)
        topology = ChinaTopology()
        intra = topology.path_quality(ISP.UNICOM, ISP.UNICOM)
        cross = topology.path_quality(ISP.UNICOM, ISP.TELECOM)
        rng = np.random.default_rng(1)
        intra_speeds = [model.sample_speed(mbps(10.0), intra, rng)
                        for _ in range(500)]
        cross_speeds = [model.sample_speed(mbps(10.0), cross, rng)
                        for _ in range(500)]
        assert np.median(cross_speeds) < np.median(intra_speeds) / 3

    def test_user_bandwidth_must_be_positive(self):
        model = FetchSpeedModel()
        quality = ChinaTopology().path_quality(ISP.UNICOM, ISP.UNICOM)
        with pytest.raises(ValueError):
            model.sample_speed(0.0, quality, np.random.default_rng(2))

    def test_degradation_occurs_at_configured_rate(self):
        model = FetchSpeedModel(unknown_degradation_probability=1.0,
                                unknown_degradation_low=0.1,
                                unknown_degradation_high=0.1)
        quality = ChinaTopology().path_quality(ISP.UNICOM, ISP.UNICOM)
        rng = np.random.default_rng(3)
        base = FetchSpeedModel(unknown_degradation_probability=0.0)
        degraded = [model.sample_speed(mbps(10.0), quality, rng)
                    for _ in range(200)]
        plain = [base.sample_speed(mbps(10.0), quality,
                                   np.random.default_rng(3))
                 for _ in range(200)]
        assert np.mean(degraded) < np.mean(plain)


class TestPreDownloaderFleet:
    def test_sources_are_cached_per_file(self):
        fleet = PreDownloaderFleet(CloudConfig())
        record = make_file()
        source = fleet.source_for(record.file_id, record.protocol,
                                  record.weekly_demand)
        assert fleet.source_for(record.file_id, record.protocol,
                                record.weekly_demand) is source

    def test_attempt_accounting_and_traffic(self):
        fleet = PreDownloaderFleet(CloudConfig())
        record = make_file(demand=1000)   # thriving swarm: succeeds
        rng = np.random.default_rng(4)
        outcome = fleet.attempt(record, rng)
        assert fleet.attempts == 1
        assert fleet.failures == (0 if outcome.success else 1)
        assert fleet.traffic_bytes == outcome.traffic

    def test_speed_capped_at_predownloader_bandwidth(self):
        fleet = PreDownloaderFleet(CloudConfig())
        record = make_file(demand=5000, size=1e9)
        rng = np.random.default_rng(5)
        for _ in range(40):
            outcome = fleet.attempt(record, rng)
            assert outcome.average_rate <= mbps(20.0) + 1e-6

    def test_no_cache_failure_ratio_request_weighted(self):
        fleet = PreDownloaderFleet(CloudConfig())
        dead = make_file("dead", demand=0)
        hot = make_file("hot", demand=2000)
        rng = np.random.default_rng(6)
        ratio = fleet.no_cache_failure_ratio([dead] * 10 + [hot] * 10,
                                             rng)
        assert 0.4 <= ratio <= 0.6   # the dead half fails, the hot half not
        assert fleet.attempts == 0   # counterfactual leaves stats alone
