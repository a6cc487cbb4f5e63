"""Tests for ODR: decisions, bottleneck detectors, the Fig. 15 machine."""

import pytest

from repro.ap import HIWIFI_1S, MIWIFI, NEWIFI
from repro.cloud.database import ContentDatabase
from repro.core import (
    Action,
    BottleneckDetector,
    DataSource,
    Decision,
    OdrMiddleware,
    SmartApInfo,
    UserContext,
)
from repro.core.webapp import build_context, parse_query, recall_aux
from repro.netsim.ip import IpAllocator
from repro.netsim.isp import ISP
from repro.sim.clock import kbps, mbps
from repro.storage import Filesystem, USB_FLASH_8GB, USB_HDD_5400
from repro.transfer.protocols import Protocol

ALLOCATOR = IpAllocator()
UNICOM_IP = ALLOCATOR.allocate(ISP.UNICOM)
OTHER_IP = ALLOCATOR.allocate(ISP.OTHER)

NEWIFI_NTFS = SmartApInfo(NEWIFI, USB_FLASH_8GB, Filesystem.NTFS)
NEWIFI_EXT4_HDD = SmartApInfo(NEWIFI, USB_HDD_5400, Filesystem.EXT4)
MIWIFI_DEFAULT = SmartApInfo.default_for(MIWIFI)


def ctx(ip=UNICOM_IP, bandwidth=mbps(20.0), ap=NEWIFI_NTFS
        ) -> UserContext:
    return UserContext(ip_address=ip,
                       access_bandwidth=bandwidth, smart_ap=ap)


def make_db(popularity=0, cached=False,
            file_id="file") -> ContentDatabase:
    db = ContentDatabase()
    for when in range(popularity):
        db.record_request(file_id, 1e8, float(when))
    db.set_cached(file_id, cached)
    return db


class TestDecisionValidation:
    def test_unknown_bottleneck_rejected(self):
        with pytest.raises(ValueError):
            Decision(Action.CLOUD, DataSource.CLOUD,
                     bottlenecks_addressed=(5,))

    def test_cloud_action_must_serve_from_cloud(self):
        with pytest.raises(ValueError):
            Decision(Action.CLOUD, DataSource.ORIGINAL)

    def test_bandwidth_and_terminal_flags(self):
        cloud = Decision(Action.CLOUD, DataSource.CLOUD)
        assert cloud.uses_cloud_bandwidth and cloud.is_terminal
        direct = Decision(Action.USER_DEVICE, DataSource.ORIGINAL)
        assert not direct.uses_cloud_bandwidth
        pending = Decision(Action.CLOUD_PREDOWNLOAD, DataSource.CLOUD)
        assert not pending.is_terminal


def first_of(fields):
    """The ``first(key)`` accessor the web app builds over a query."""
    return lambda key, default="": fields[key][0] if fields.get(key) \
        else default


def visit(query, remembered=""):
    """The context and ``odr_aux`` value of one visit's fields."""
    return build_context(
        first_of(recall_aux(parse_query(query),
                            f"odr_aux={remembered}")[0]), UNICOM_IP)


class TestAuxCookie:
    """The ``odr_aux`` codec: a visit's fields in, the next visit's
    gaps filled from them."""

    def test_merge_fills_gaps_from_previous_visit(self):
        _context, remembered = visit("bandwidth_mbps=10&ap=miwifi")
        assert remembered == "bandwidth_mbps=10.0&ap=miwifi"
        merged, again = visit("link=x", remembered)
        assert merged.access_bandwidth == mbps(10.0)
        assert merged.smart_ap == MIWIFI_DEFAULT
        assert again == remembered
        # ``repr`` keeps every bit; its exponent's ``+`` is escaped.
        huge, remembered = visit("bandwidth_mbps=1e300")
        assert remembered == "bandwidth_mbps=1e%2B300"
        assert visit("link=x", remembered)[0] == huge

    def test_fresh_values_win_and_refresh(self):
        remembered = "bandwidth_mbps=10.0&ap=newifi&device=usb-flash" \
            "&filesystem=ntfs"
        merged, refreshed = visit("bandwidth_mbps=2", remembered)
        assert merged.access_bandwidth == mbps(2.0)
        assert merged.smart_ap == NEWIFI_NTFS
        assert refreshed == "bandwidth_mbps=2.0&ap=newifi" \
            "&device=usb-flash&filesystem=ntfs"
        # A query AP replaces the remembered triple as a unit.
        merged, refreshed = visit("ap=miwifi", remembered)
        assert merged.smart_ap == MIWIFI_DEFAULT
        assert refreshed == "bandwidth_mbps=10.0&ap=miwifi"

    def test_no_cookie_passes_through(self):
        query = parse_query("link=x&device=sd&bandwidth_mbps=4")
        for cookie in ("", "session=1", "odr_user=u1", "a,b=c"):
            assert recall_aux(query, cookie) == (query, "")
        context, remembered = visit("link=x&device=sd")
        assert context == UserContext(UNICOM_IP, None, None)
        assert remembered == ""


class TestBottleneckDetector:
    def test_b1_low_bandwidth(self):
        detector = BottleneckDetector()
        assert detector.bottleneck1_risk(ctx(bandwidth=kbps(100.0)))
        assert not detector.bottleneck1_risk(ctx(bandwidth=mbps(4.0)))

    def test_b1_outside_major_isps(self):
        detector = BottleneckDetector()
        assert detector.bottleneck1_risk(ctx(ip=OTHER_IP,
                                             bandwidth=mbps(10.0)))

    def test_b1_unknown_bandwidth_in_major_isp_is_fine(self):
        detector = BottleneckDetector()
        assert not detector.bottleneck1_risk(ctx(bandwidth=None))

    def test_b4_ntfs_flash_on_fast_line(self):
        detector = BottleneckDetector()
        assert detector.bottleneck4_risk(ctx(ap=NEWIFI_NTFS,
                                             bandwidth=mbps(20.0)))

    def test_b4_not_on_slow_line(self):
        # Below 0.93 MBps even the worst write path keeps up (paper 6.1).
        detector = BottleneckDetector()
        assert not detector.bottleneck4_risk(
            ctx(ap=NEWIFI_NTFS, bandwidth=mbps(4.0)))

    def test_b4_good_storage_is_safe(self):
        detector = BottleneckDetector()
        assert not detector.bottleneck4_risk(
            ctx(ap=NEWIFI_EXT4_HDD, bandwidth=mbps(20.0)))
        assert not detector.bottleneck4_risk(
            ctx(ap=MIWIFI_DEFAULT, bandwidth=mbps(20.0)))

    def test_b4_without_ap_is_moot(self):
        detector = BottleneckDetector()
        assert not detector.bottleneck4_risk(ctx(ap=None))

    def test_b4_unknown_bandwidth_assumes_fast_line(self):
        detector = BottleneckDetector()
        assert detector.bottleneck4_risk(ctx(ap=NEWIFI_NTFS,
                                             bandwidth=None))


class TestFigure15Machine:
    """Each leaf of the decision diagram."""

    def test_highly_popular_p2p_with_b4_goes_to_user_device(self):
        odr = OdrMiddleware(make_db(popularity=200))
        decision = odr.decide(ctx(ap=NEWIFI_NTFS), "file",
                              Protocol.BITTORRENT)
        assert decision.action is Action.USER_DEVICE
        assert decision.data_source is DataSource.ORIGINAL
        assert set(decision.bottlenecks_addressed) == {2, 4}

    def test_highly_popular_p2p_without_b4_uses_the_ap(self):
        odr = OdrMiddleware(make_db(popularity=200))
        decision = odr.decide(ctx(ap=NEWIFI_EXT4_HDD), "file",
                              Protocol.EMULE)
        assert decision.action is Action.SMART_AP
        assert decision.data_source is DataSource.ORIGINAL
        assert 2 in decision.bottlenecks_addressed

    def test_highly_popular_p2p_without_ap_goes_direct(self):
        odr = OdrMiddleware(make_db(popularity=200))
        decision = odr.decide(ctx(ap=None), "file", Protocol.BITTORRENT)
        assert decision.action is Action.USER_DEVICE
        assert decision.data_source is DataSource.ORIGINAL

    def test_highly_popular_http_falls_back_on_the_cloud(self):
        odr = OdrMiddleware(make_db(popularity=200, cached=True))
        decision = odr.decide(ctx(), "file", Protocol.HTTP)
        assert decision.action is Action.CLOUD
        assert 2 in decision.bottlenecks_addressed

    def test_cached_with_b1_stages_through_the_ap(self):
        odr = OdrMiddleware(make_db(popularity=5, cached=True))
        decision = odr.decide(ctx(bandwidth=kbps(80.0)), "file",
                              Protocol.BITTORRENT)
        assert decision.action is Action.CLOUD_THEN_SMART_AP
        assert 1 in decision.bottlenecks_addressed

    def test_cached_with_b1_but_no_ap_still_uses_cloud(self):
        odr = OdrMiddleware(make_db(popularity=5, cached=True))
        decision = odr.decide(ctx(bandwidth=kbps(80.0), ap=None),
                              "file", Protocol.BITTORRENT)
        assert decision.action is Action.CLOUD

    def test_cached_healthy_path_fetches_from_cloud(self):
        odr = OdrMiddleware(make_db(popularity=5, cached=True))
        decision = odr.decide(ctx(bandwidth=mbps(8.0)), "file",
                              Protocol.HTTP)
        assert decision.action is Action.CLOUD

    def test_uncached_unpopular_waits_for_cloud_predownload(self):
        odr = OdrMiddleware(make_db(popularity=5, cached=False))
        decision = odr.decide(ctx(), "file", Protocol.BITTORRENT)
        assert decision.action is Action.CLOUD_PREDOWNLOAD
        assert 3 in decision.bottlenecks_addressed
        assert not decision.is_terminal

    def test_reask_after_successful_predownload(self):
        odr = OdrMiddleware(make_db(popularity=5, cached=True))
        decision = odr.decide_after_predownload(ctx(bandwidth=mbps(8.0)),
                                                "file", success=True)
        assert decision.action is Action.CLOUD

    def test_reask_after_successful_predownload_with_b1(self):
        odr = OdrMiddleware(make_db(popularity=5, cached=True))
        decision = odr.decide_after_predownload(
            ctx(bandwidth=kbps(60.0)), "file", success=True)
        assert decision.action is Action.CLOUD_THEN_SMART_AP

    def test_reask_after_failed_predownload_notifies(self):
        odr = OdrMiddleware(make_db(popularity=5))
        decision = odr.decide_after_predownload(ctx(), "file",
                                                success=False)
        assert decision.action is Action.NOTIFY_FAILURE

    def test_unknown_file_is_treated_as_unpopular(self):
        odr = OdrMiddleware(ContentDatabase())
        decision = odr.decide(ctx(), "never-seen", Protocol.BITTORRENT)
        assert decision.action is Action.CLOUD_PREDOWNLOAD
