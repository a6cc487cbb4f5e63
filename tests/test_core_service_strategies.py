"""Tests for the ODR service facade and the baseline strategies."""

import pytest

from repro.ap import NEWIFI
from repro.cloud.database import ContentDatabase
from repro.core import (
    Action,
    AlwaysHybridStrategy,
    AmsStrategy,
    CloudOnlyStrategy,
    DataSource,
    OdrMiddleware,
    OdrService,
    OdrStrategy,
    SmartApInfo,
    SmartApOnlyStrategy,
    UserContext,
)
from repro.core.service import parse_link
from repro.netsim.ip import IpAllocator
from repro.netsim.isp import ISP
from repro.sim.clock import mbps
from repro.transfer.protocols import Protocol

ALLOCATOR = IpAllocator()
UNICOM_IP = ALLOCATOR.allocate(ISP.UNICOM)


def ctx(bandwidth=mbps(8.0), ap=None) -> UserContext:
    return UserContext(ip_address=UNICOM_IP,
                       access_bandwidth=bandwidth, smart_ap=ap)


def make_db(popularity=0, cached=False,
            file_id="abc123") -> ContentDatabase:
    db = ContentDatabase()
    for when in range(popularity):
        db.record_request(file_id, 1e8, float(when))
    db.set_cached(file_id, cached)
    return db


class TestLinkParsing:
    def test_schemes_map_to_protocols(self):
        assert parse_link("http://host/abc") == (Protocol.HTTP, "abc")
        assert parse_link("https://host/p/abc") == (Protocol.HTTP, "abc")
        assert parse_link("ftp://host/abc") == (Protocol.FTP, "abc")
        assert parse_link("ed2k://host/abc") == (Protocol.EMULE, "abc")
        assert parse_link("bittorrent://origin/abc") == \
            (Protocol.BITTORRENT, "abc")

    def test_unsupported_scheme_rejected(self):
        with pytest.raises(ValueError):
            parse_link("gopher://host/abc")

    def test_trailing_slash_handled(self):
        assert parse_link("http://host/abc/")[1] == "abc"


class TestOdrService:
    def test_handle_request_returns_decision_and_explanation(self):
        service = OdrService(make_db(popularity=5, cached=True))
        response = service.handle_request(
            ctx(), "http://origin/abc123")
        assert response.decision.action is Action.CLOUD
        assert "cloud" in response.explanation
        assert response.file_id == "abc123"
        assert service.requests_served == 1

    def test_predownload_completion_flow(self):
        db = make_db(popularity=5, cached=False)
        service = OdrService(db)
        first = service.handle_request(ctx(),
                                       "bittorrent://origin/abc123")
        assert first.decision.action is Action.CLOUD_PREDOWNLOAD
        db.set_cached("abc123", True)
        done = service.handle_predownload_completion(ctx(), "abc123",
                                                     success=True)
        assert done.decision.action is Action.CLOUD
        failed = service.handle_predownload_completion(ctx(), "abc123",
                                                       success=False)
        assert failed.decision.action is Action.NOTIFY_FAILURE

    def test_explanation_names_bottlenecks(self):
        service = OdrService(make_db(popularity=200, cached=True))
        response = service.handle_request(
            ctx(ap=SmartApInfo.default_for(NEWIFI),
                bandwidth=mbps(20.0)),
            "bittorrent://origin/abc123")
        assert "Bottleneck 2" in response.explanation


class TestBaselineStrategies:
    def test_cloud_only_uses_cloud_always(self):
        strategy = CloudOnlyStrategy(make_db(cached=True))
        decision = strategy.decide(ctx(), "abc123", Protocol.BITTORRENT)
        assert decision.action is Action.CLOUD
        miss = CloudOnlyStrategy(make_db(cached=False)).decide(
            ctx(), "abc123", Protocol.BITTORRENT)
        assert miss.action is Action.CLOUD_PREDOWNLOAD

    def test_smart_ap_only_uses_the_ap(self):
        strategy = SmartApOnlyStrategy()
        with_ap = strategy.decide(
            ctx(ap=SmartApInfo.default_for(NEWIFI)), "abc123",
            Protocol.BITTORRENT)
        assert with_ap.action is Action.SMART_AP
        assert with_ap.data_source is DataSource.ORIGINAL
        without = strategy.decide(ctx(), "abc123", Protocol.BITTORRENT)
        assert without.action is Action.USER_DEVICE

    def test_always_hybrid_takes_the_longest_flow(self):
        db = make_db(cached=True)
        strategy = AlwaysHybridStrategy(db)
        decision = strategy.decide(
            ctx(ap=SmartApInfo.default_for(NEWIFI)), "abc123",
            Protocol.HTTP)
        assert decision.action is Action.CLOUD_THEN_SMART_AP
        uncached = AlwaysHybridStrategy(make_db(cached=False))
        assert uncached.decide(ctx(), "abc123", Protocol.HTTP).action \
            is Action.CLOUD_PREDOWNLOAD

    def test_ams_splits_on_popularity_only(self):
        db = make_db(popularity=200, cached=True)
        strategy = AmsStrategy(db)
        popular = strategy.decide(ctx(), "abc123", Protocol.BITTORRENT)
        assert popular.data_source is DataSource.ORIGINAL
        # AMS ignores storage: it will happily use a B4-risk AP.
        with_bad_ap = strategy.decide(
            ctx(ap=SmartApInfo.default_for(NEWIFI),
                bandwidth=mbps(20.0)),
            "abc123", Protocol.BITTORRENT)
        assert with_bad_ap.action is Action.SMART_AP
        unpopular = AmsStrategy(make_db(popularity=3, cached=True))
        assert unpopular.decide(ctx(), "abc123",
                                Protocol.BITTORRENT).action is \
            Action.CLOUD

    def test_ams_http_popular_still_cloud(self):
        strategy = AmsStrategy(make_db(popularity=200, cached=True))
        decision = strategy.decide(ctx(), "abc123", Protocol.HTTP)
        assert decision.action is Action.CLOUD

    def test_odr_strategy_delegates(self):
        db = make_db(popularity=5, cached=True)
        strategy = OdrStrategy(OdrMiddleware(db))
        assert strategy.decide(ctx(), "abc123",
                               Protocol.BITTORRENT).action is \
            Action.CLOUD
        assert strategy.decide_after_predownload(
            ctx(), "abc123", success=False).action is \
            Action.NOTIFY_FAILURE

    def test_default_reask_behaviour(self):
        strategy = SmartApOnlyStrategy()
        success = strategy.decide_after_predownload(ctx(), "abc123",
                                                    True)
        assert success.action is Action.CLOUD
        failure = strategy.decide_after_predownload(ctx(), "abc123",
                                                    False)
        assert failure.action is Action.NOTIFY_FAILURE
