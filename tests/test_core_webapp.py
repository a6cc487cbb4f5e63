"""Tests for the ODR web application, driven in-process, and for the
lifecycle of the process that serves it (the serving tier's HTTP round
trips live in ``tests/test_serve.py``)."""

import gc
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

from dataclasses import replace
from http.cookies import SimpleCookie
from urllib.parse import parse_qs, quote, urlparse

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends.registry import strategy_names
from repro.core import UserContext
from repro.core.webapp import OdrWebApp, build_context, parse_query, \
    render_decision, split_target
from repro.faults import FaultPlan, FaultSpec
from repro.serve import AsyncOdrServer, AsyncServerThread, \
    run_async_server
from repro.serve.chaos import STALL_DELAY
from tests.test_serve import DECIDE, get


def recorded_contexts(app):
    """The list the contexts ``app`` decides under its default policy
    go to."""
    contexts = []
    handle = app.service.handle_request

    def record(context, link):
        contexts.append(context)
        return handle(context, link)

    app.service.handle_request = record
    return contexts


def cookie_of(set_cookie):
    """The ``Cookie:`` header a browser sends back for ``set_cookie``."""
    jar = SimpleCookie()
    jar.load(set_cookie)
    return "; ".join(f"{name}={morsel.value}"
                     for name, morsel in jar.items())


class TestInProcessRouting:
    @pytest.fixture()
    def app(self):
        return OdrWebApp()

    def test_front_page(self, app):
        status, content_type, body, _cookie, _headers = app.handle("/")
        assert status == 200
        assert content_type == "text/html"
        assert "Offline Downloading Redirector" in body

    def test_healthz(self, app):
        status, _type, body, _cookie, _headers = app.handle("/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_unknown_path_is_404(self, app):
        status, _type, body, _cookie, _headers = app.handle("/nope")
        assert status == 404
        assert "error" in json.loads(body)

    def test_decide_requires_link(self, app):
        status, _type, body, _cookie, _headers = app.handle("/decide")
        assert status == 400
        assert "link" in json.loads(body)["error"]

    def test_decide_hot_p2p_with_bad_storage(self, app):
        status, _type, body, _cookie, _headers = app.handle(
            "/decide?link=magnet://origin/xyz&popularity=200"
            "&bandwidth_mbps=20&ap=newifi&device=usb-flash"
            "&filesystem=ntfs")
        assert status == 200
        payload = json.loads(body)
        assert payload["action"] == "user_device"
        assert payload["data_source"] == "original"
        assert 4 in payload["bottlenecks_addressed"]

    def test_decide_slow_line_cached_file(self, app):
        status, _type, body, _cookie, _headers = app.handle(
            "/decide?link=http://host/f1&popularity=3&cached=1"
            "&bandwidth_mbps=0.5&ap=hiwifi")
        payload = json.loads(body)
        assert status == 200
        assert payload["action"] == "cloud+ap"

    def test_query_mix_takes_three_routes(self, app):
        # Four query shapes: the user's device, cloud then AP, the
        # smart AP and (the unpopular FTP file) cloud pre-download.
        queries = [
            "/decide?link=magnet://origin/f{i}&popularity=200"
            "&bandwidth_mbps=20&ap=newifi&device=usb-flash"
            "&filesystem=ntfs",
            "/decide?link=http://host/f{i}&popularity=3&cached=1"
            "&bandwidth_mbps=0.5&ap=hiwifi",
            "/decide?link=ed2k://origin/f{i}&popularity=500"
            "&bandwidth_mbps=10&ap=miwifi",
            "/decide?link=ftp://host/f{i}&popularity=1&bandwidth_mbps=4",
        ]
        actions = set()
        for index in range(200):
            status, _type, body, _cookie, _headers = app.handle(
                queries[index % len(queries)].format(i=index))
            assert status == 200
            actions.add(json.loads(body)["action"])
        assert {"user_device", "cloud+ap", "smart_ap"} <= actions

    def test_bad_parameter_is_a_400_not_a_crash(self, app):
        status, _type, body, _cookie, _headers = app.handle(
            "/decide?link=gopher://host/f")
        assert status == 400

    def test_cookie_is_issued_and_honoured(self, app):
        contexts = recorded_contexts(app)
        _s, _t, _b, set_cookie, _h = app.handle(
            "/decide?link=http://host/f&bandwidth_mbps=8")
        assert set_cookie == "odr_aux=bandwidth_mbps=8.0; Path=/"
        # A repeat visit with the cookie gets no new cookie...
        _s, _t, _b, second, _h = app.handle(
            "/decide?link=http://host/f",
            cookie_header=cookie_of(set_cookie))
        assert second is None
        # ...and the remembered bandwidth is recalled.
        assert contexts[1].access_bandwidth == pytest.approx(1e6)

    def test_cookie_carries_aux_info_across_requests(self, app):
        link = "/decide?link=bittorrent://origin/abc123&popularity=200" \
            "&cached=1"
        _s, _t, body, set_cookie, _h = app.handle(
            link + "&bandwidth_mbps=8&ap=miwifi")
        assert json.loads(body)["action"] == "smart_ap"
        assert json.loads(app.handle(link)[2])["action"] != "smart_ap"
        # Second visit leaves the AP field blank; the cookie fills it.
        _s, _t, body, _c, _h = app.handle(link, cookie_of(set_cookie))
        assert json.loads(body)["action"] == "smart_ap"

    def test_bandwidth_must_be_finite_and_positive(self, app):
        for policy in strategy_names():
            for raw in ("-1", "0", "inf", "nan", "-inf", "x"):
                for path, cookie in (
                        (f"/decide?link=http://host/f&policy={policy}"
                         f"&bandwidth_mbps={raw}", ""),
                        (f"/decide?link=http://host/f&policy={policy}",
                         f"odr_aux=bandwidth_mbps={raw}")):
                    status, _t, body, set_cookie, _h = app.handle(
                        path, cookie)
                    assert status == 400, (policy, raw, body)
                    assert "bandwidth_mbps" in json.loads(body)["error"]
                    assert set_cookie is None

    def test_malformed_target_is_a_400(self, app):
        for response in (app.handle("//["),
                         app.handle_batch([("//[", "")])[0]):
            status, content_type, body, cookie, _headers = response
            assert status == 400
            assert content_type == "application/json"
            assert json.loads(body) == {
                "error": "malformed request target"}
            assert cookie is None


class TestDecisionBody:
    """``render_decision`` is ``json.dumps(payload, indent=2)``."""

    @pytest.mark.parametrize("bottlenecks", [(), (3,), (1, 3),
                                             (1, 2, 3, 4)])
    @pytest.mark.parametrize("explanation", [
        "plain", "", 'quo"te \\ back/slash', "tab\tnew\nline\x00\x1f",
        "non-ascii: é — 中文 \U0001f600", "\u2028\u2029\x7f"])
    def test_bytes_match_json_dumps_indent(self, bottlenecks,
                                           explanation):
        payload = {"action": "smart_ap", "data_source": "original",
                   "bottlenecks_addressed": list(bottlenecks),
                   "explanation": explanation,
                   "file_id": "f\u00e9", "protocol": "bittorrent",
                   "policy": "delay-aware"}
        assert render_decision(
            payload["action"], payload["data_source"], bottlenecks,
            explanation, payload["file_id"], payload["protocol"],
            payload["policy"]) == json.dumps(payload, indent=2)

    def test_served_bodies_match_json_dumps_indent(self):
        app = OdrWebApp()
        for _status, _t, body, _c, _h in app.handle_batch([
                ("/decide?link=magnet://origin/xyz&popularity=200"
                 "&bandwidth_mbps=20&ap=newifi&device=usb-flash"
                 "&filesystem=ntfs", ""),
                ("/decide?link=http://host/f1&popularity=3&cached=1"
                 "&bandwidth_mbps=0.5&ap=hiwifi", ""),
                ("/decide?link=http://host/f2&policy=cloud-only",
                 "odr_aux=bandwidth_mbps=2.0&ap=newifi")]):
            assert body == json.dumps(json.loads(body), indent=2)


#: Text that steers ``urlparse``/``parse_qs``: separators, escapes
#: (valid, invalid, truncated), brackets of IPv6 hosts, a space and
#: non-ASCII letters.  ``_ODD`` adds, rarely, the characters that take
#: a target off the fast path: a fragment, a tab/CR/LF (``urlsplit``
#: deletes those), a query and a netloc start.
_ESCAPES = st.sampled_from(["%41", "%2f", "%2F", "%3A", "%c3%a9", "%e9",
                            "%zz", "%4", "%", "+", "%2B", "%20"])
_TEXT = st.lists(st.one_of(st.sampled_from(list("/;:=&+[]@ ab09\u00e9"
                                                "\uff03")), _ESCAPES),
                 max_size=10).map("".join)
_ODD = st.sampled_from(["", "", "", "", "#", "\t", "\r", "\n", "?",
                        "//"])
_KEY = st.sampled_from(["link", "popularity", "", "a+b", "k%3D", "ap"])
_FIELD = st.one_of(
    st.tuples(_KEY, st.sampled_from(["=", ""]), _TEXT, _ODD, _TEXT)
    .map("".join), _TEXT)
_QUERY = st.lists(_FIELD, max_size=6).map("&".join)
_TARGET = st.one_of(
    st.tuples(st.sampled_from(["", "/", "//", "/decide", "//host",
                               "//[::1]", "//[", "//]x", "http://h",
                               "HTTP:", "x:", " /", "\t/", "\x00/",
                               "//\uff03@h", ";"]),
              _TEXT, _ODD, _TEXT,
              st.sampled_from(["", "?"]), _QUERY,
              st.sampled_from(["", "", "#", "#frag", "#a?b"]))
    .map("".join),
    st.text(max_size=40))


def _urllib_target(target):
    try:
        parsed = urlparse(target)
    except ValueError:
        return ValueError
    return parsed.path, parsed.query


def _our_target(target):
    try:
        return split_target(target)
    except ValueError:
        return ValueError


class TestRequestParsers:
    """The ``/decide`` parsers equal the ``urllib.parse`` calls they
    replace, on every input."""

    @given(target=_TARGET)
    @example(target="//[")
    @example(target="/decide;p?link=x;y#f")
    @example(target="/a;b?c")
    @example(target="/\t/x?q=1")
    @example(target="http://[::1/x")
    @example(target="//\uff03@x/")
    @settings(max_examples=600, deadline=None)
    def test_split_target_is_urlparse(self, target):
        assert _our_target(target) == _urllib_target(target)

    @given(query=_QUERY)
    @example(query="a=1&a=2&b=&=c&d&&e=%zz&f=%c3%a9+x&g+h=%2B")
    @settings(max_examples=600, deadline=None)
    def test_parse_query_is_parse_qs(self, query):
        assert list(parse_query(query).items()) == \
            list(parse_qs(query).items())

    def test_rejected_targets_are_rejected(self):
        for target in ("//[", "//]x", "http://[::1/x"):
            assert _urllib_target(target) is ValueError
            assert _our_target(target) is ValueError


#: Auxiliary-info fields, valid or not, and ``Cookie:`` headers built
#: from them and from ``_TEXT``: names the app ignores or
#: ``SimpleCookie`` rejects, quoting, and separators.
_AUX_FIELD = st.tuples(
    st.sampled_from(["bandwidth_mbps", "ap", "device", "filesystem"]),
    st.sampled_from(["=", ""]),
    st.one_of(st.sampled_from(["0.5", "8.0", "nan", "-1", "0", "1e%2B16",
                               "hiwifi", "newifi", "sd", "sata", "ntfs",
                               "x"]), _TEXT)).map("".join)
_AUX = st.lists(st.one_of(_AUX_FIELD, _FIELD), max_size=5).map("&".join)
_COOKIE = st.lists(st.one_of(
    st.tuples(st.sampled_from(["odr_aux", "odr_aux", "odr_user", "$Path",
                               "Path", "a,b", "", " odr_aux"]),
              st.sampled_from(["=", "=", "=\"", ""]),
              st.one_of(_AUX, _TEXT),
              st.sampled_from(["", "", "\"", "\\", ","]))
    .map("".join), _TEXT), max_size=3).map("; ".join)
#: RFC 6265 ``cookie-octet``s: no quoting is ever needed.
_SET_COOKIE = re.compile(
    r"odr_aux=[\x21\x23-\x2B\x2D-\x3A\x3C-\x5B\x5D-\x7E]*; Path=/")
_BANDWIDTHS = st.one_of(
    st.none(), st.sampled_from(["8", "0.064", "1e3", "100.000"]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    .map(lambda value: quote(repr(value))))
_APS = st.one_of(st.none(), st.sampled_from(["hiwifi", "miwifi",
                                             "newifi"]))
_DEVICES = st.one_of(st.none(), st.sampled_from(["sd", "usb-flash",
                                                 "usb-hdd", "sata"]))
_FILESYSTEMS = st.one_of(st.none(), st.sampled_from(["fat", "ntfs",
                                                     "ext4"]))


def _aux_query(bandwidth, ap, device, filesystem):
    return "".join(f"&{key}={value}" for key, value in (
        ("bandwidth_mbps", bandwidth), ("ap", ap), ("device", device),
        ("filesystem", filesystem)) if value is not None)


class TestAuxCookieWire:
    """The ``odr_aux`` cookie on the wire: what a response sets is what
    the next request recalls, on any app instance, and nothing else."""

    LINK = "/decide?link=magnet%3A%2F%2Forigin%2Fxyz&popularity=50"

    @given(bandwidth=_BANDWIDTHS, ap=_APS, device=_DEVICES,
           filesystem=_FILESYSTEMS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_set_cookie_recalls_an_equal_context(self, bandwidth, ap,
                                                 device, filesystem):
        app = OdrWebApp()
        contexts = recorded_contexts(app)
        status, _t, body, set_cookie, _h = app.handle(
            self.LINK + _aux_query(bandwidth, ap, device, filesystem))
        assert status == 200
        if bandwidth is None and ap is None:
            assert set_cookie is None
            return
        assert _SET_COOKIE.fullmatch(set_cookie)
        status, _t, recalled, again, _h = app.handle(
            self.LINK, cookie_of(set_cookie))
        assert status == 200
        assert again is None
        supplied, restored = contexts
        assert replace(restored, ip_address=supplied.ip_address) == \
            supplied
        assert recalled == body

    @given(bandwidth=_BANDWIDTHS, ap=_APS, device=_DEVICES,
           filesystem=_FILESYSTEMS)
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_two_apps_answer_a_cookie_alike(self, bandwidth, ap, device,
                                            filesystem):
        first, second = OdrWebApp(), OdrWebApp()
        aux = _aux_query(bandwidth, ap, device, filesystem)
        for policy in strategy_names():
            path = f"{self.LINK}&policy={policy}"
            set_cookie = first.handle(path + aux)[3]
            cookie = cookie_of(set_cookie) if set_cookie else ""
            assert first.handle(path, cookie) == \
                second.handle(path, cookie)

    @given(aux=_AUX, cookie=_COOKIE)
    @example(aux="", cookie="a,b=c; odr_aux=bandwidth_mbps=0.5")
    @example(aux="", cookie='odr_aux="ap=hiwifi')
    @example(aux="ap=hiwifi", cookie="odr_aux=ap=x&bandwidth_mbps=nan")
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_fuzzed_cookies_are_never_a_500(self, aux, cookie):
        app = OdrWebApp()
        for path in (f"{self.LINK}&{aux}", f"{self.LINK}&policy="
                     f"delay-aware&{aux}"):
            status, _t, body, set_cookie, _h = app.handle(path, cookie)
            assert status in (200, 400), body
            assert set_cookie is None or _SET_COOKIE.fullmatch(set_cookie)

    def test_a_cookie_field_the_query_overrides_is_not_checked(self):
        app = OdrWebApp()
        bad = "odr_aux=bandwidth_mbps=-1&ap=nowhere"
        status, _t, body, _c, _h = app.handle(self.LINK, bad)
        assert status == 400 and "bandwidth_mbps" in body
        status, _t, body, _c, _h = app.handle(
            self.LINK + "&bandwidth_mbps=2", bad)
        assert status == 400 and "unknown ap 'nowhere'" in body
        status, _t, _b, set_cookie, _h = app.handle(
            self.LINK + "&bandwidth_mbps=2&ap=hiwifi", bad)
        assert status == 200
        assert set_cookie == "odr_aux=bandwidth_mbps=2.0&ap=hiwifi; Path=/"

    def test_other_cookies_are_ignored(self):
        app = OdrWebApp()
        for cookie in ("odr_user=golden", "odr_aux=", "session=1",
                       "a,b=c; odr_aux=bandwidth_mbps=0.5"):
            status, _t, _b, set_cookie, _h = app.handle(self.LINK, cookie)
            assert (status, set_cookie) == (200, None), cookie

    def test_cookieless_requests_retain_nothing(self):
        app = OdrWebApp()
        batch = [(self.LINK + "&bandwidth_mbps=8&ap=hiwifi", "")] * 100

        def live_contexts():
            gc.collect()
            return sum(type(item) is UserContext
                       for item in gc.get_objects())

        app.handle_batch(batch)
        before = live_contexts()
        for _ in range(50):
            app.handle_batch(batch)
        assert live_contexts() == before


#: One ``/decide`` of a batch: few file ids, so files repeat, each with
#: its own ``cached`` flag, popularity, auxiliary info and policy.
_BATCH_REQUEST = st.tuples(
    st.sampled_from(["http://o/f", "http://o/g", "magnet://o/f"]),
    st.sampled_from(["", "&cached=1", "&cached=0"]),
    st.sampled_from(["", "&popularity=0", "&popularity=1",
                     "&popularity=3", "&popularity=7", "&popularity=84",
                     "&popularity=85", "&popularity=200"]),
    st.sampled_from(["", "&bandwidth_mbps=0.5&ap=hiwifi",
                     "&bandwidth_mbps=50"]),
    st.sampled_from(["", *(f"&policy={name}"
                           for name in strategy_names())])).map(
    lambda parts: "/decide?link=" + quote(parts[0], safe="")
    + "".join(parts[1:]))


class TestBatchEqualsOneByOne:
    """``handle_batch`` answers exactly as ``handle`` on each request in
    turn: no answer depends on which requests shared its loop tick."""

    @given(paths=st.lists(_BATCH_REQUEST, min_size=1, max_size=8))
    @example(paths=["/decide?link=http%3A%2F%2Fo%2Ff&cached=1&"
                    "popularity=3&bandwidth_mbps=0.5&ap=hiwifi",
                    "/decide?link=http%3A%2F%2Fo%2Ff&popularity=3"])
    @example(paths=["/decide?link=http%3A%2F%2Fo%2Ff&popularity=1",
                    "/decide?link=http%3A%2F%2Fo%2Ff&popularity=200"])
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_a_batch_answers_as_its_requests_one_by_one(self, paths):
        batch = OdrWebApp().handle_batch([(path, "") for path in paths])
        one_by_one = OdrWebApp()
        assert batch == [one_by_one.handle(path) for path in paths]


class TestDeadlinePropagation:
    """X-Deadline-Ms budgets reach the routing policies as
    ``UserContext.deadline_seconds`` -- and nowhere else."""

    @pytest.fixture()
    def app(self):
        return OdrWebApp()

    def test_deadline_becomes_remaining_budget(self, app):
        context, _cookie = build_context(
            lambda key, default="": default, ip_address="1.2.3.4",
            deadline=time.monotonic() + 2.0)
        assert context.deadline_seconds is not None
        assert 1.5 < context.deadline_seconds <= 2.0

    def test_no_deadline_leaves_the_field_unset(self, app):
        context, _cookie = build_context(
            lambda key, default="": default, ip_address="1.2.3.4")
        assert context.deadline_seconds is None

    def test_expired_deadline_clamps_to_zero(self, app):
        context, _cookie = build_context(
            lambda key, default="": default, ip_address="1.2.3.4",
            deadline=time.monotonic() - 5.0)
        assert context.deadline_seconds == 0.0

    def test_handle_with_deadline_matches_replay_bits(self, app):
        """A deadline must not leak into the decision of the default
        policy (replay paths never stamp one, and the golden digests
        depend on that)."""
        query = "/decide?link=http://host/f&bandwidth_mbps=8"
        _s, _t, body, set_cookie, _h = app.handle(
            query, deadline=time.monotonic() + 30.0)
        _s, _t, replay_body, _c, _h = app.handle(
            query, cookie_header=cookie_of(set_cookie))
        assert body == replay_body

    def test_deadline_never_persists_into_the_cookie_jar(self, app):
        _s, _t, _b, set_cookie, _h = app.handle(
            "/decide?link=http://host/f&bandwidth_mbps=8",
            deadline=time.monotonic() + 30.0)
        assert set_cookie == "odr_aux=bandwidth_mbps=8.0; Path=/"
        contexts = recorded_contexts(app)
        app.handle("/decide?link=http://host/f", cookie_of(set_cookie))
        assert contexts[0].deadline_seconds is None


class TestBackendResilience:
    """Regression: backend faults degrade to structured errors, and the
    breaker sheds load with 503 + Retry-After instead of crashing."""

    @staticmethod
    def _faulty_app(**overrides):
        from repro.faults.policies import ResiliencePolicies
        clock = {"now": 0.0}
        defaults = dict(breaker_window=4, breaker_threshold=0.5,
                        breaker_min_samples=2, breaker_cooldown=30.0)
        defaults.update(overrides)
        app = OdrWebApp(policies=ResiliencePolicies(**defaults),
                        clock=lambda: clock["now"])
        return app, clock

    def test_backend_exception_is_a_structured_500(self):
        app, _clock = self._faulty_app()

        def boom(context, link):
            raise RuntimeError("database on fire")

        app.service.handle_request = boom
        status, ctype, body, _cookie, headers = app.handle(
            "/decide?link=http://host/f")
        assert status == 500
        assert ctype == "application/json"
        payload = json.loads(body)
        assert payload["error"] == "internal error"
        assert "database on fire" in payload["detail"]
        assert headers == {}

    def test_breaker_opens_to_503_with_retry_after(self):
        app, clock = self._faulty_app()

        def boom(context, link):
            raise RuntimeError("boom")

        app.service.handle_request = boom
        for _ in range(2):
            status, *_rest = app.handle("/decide?link=http://host/f")
            assert status == 500
        status, _ctype, body, _cookie, headers = app.handle(
            "/decide?link=http://host/f")
        assert status == 503
        payload = json.loads(body)
        assert payload["error"] == "decision backend unavailable"
        assert int(headers["Retry-After"]) >= 1
        assert payload["retry_after_seconds"] == \
            int(headers["Retry-After"])

    def test_breaker_recloses_after_cooldown_and_recovery(self):
        app, clock = self._faulty_app()
        healthy = app.service.handle_request

        def boom(context, link):
            raise RuntimeError("boom")

        app.service.handle_request = boom
        for _ in range(2):
            app.handle("/decide?link=http://host/f")
        assert app.handle("/decide?link=http://host/f")[0] == 503
        # Backend recovers; after the cooldown the half-open probe goes
        # through and the circuit closes again.
        app.service.handle_request = healthy
        clock["now"] = 31.0
        assert app.handle(
            "/decide?link=http://host/f&bandwidth_mbps=8")[0] == 200
        assert app.handle(
            "/decide?link=http://host/f&bandwidth_mbps=8")[0] == 200

    def test_client_errors_do_not_trip_the_breaker(self):
        app, _clock = self._faulty_app()
        for _ in range(6):
            status, *_rest = app.handle("/decide?link=gopher://host/f")
            assert status == 400
        status, *_rest = app.handle(
            "/decide?link=http://host/f&bandwidth_mbps=8")
        assert status == 200


class TestServerLifecycle:
    def test_port_can_be_rebound_after_close(self):
        first = AsyncOdrServer(port=0)
        with AsyncServerThread(first):
            host, port = first.host, first.port
            assert get(host, port, "/healthz")[0] == 200
        second = AsyncOdrServer(host=host, port=port)
        with AsyncServerThread(second):
            assert second.port == port
            assert get(host, port, "/healthz")[0] == 200


class TestGracefulShutdown:
    """SIGTERM/SIGINT stop accepting, drain in-flight responses, then
    exit -- 0 when the drain finished, 1 when the grace ran out."""

    @pytest.mark.parametrize("signum",
                             [signal.SIGINT, signal.SIGTERM])
    def test_signal_stops_idle_server_cleanly(self, signum):
        server = AsyncOdrServer(port=0)
        ready = threading.Event()

        def trigger():
            ready.wait(5.0)
            signal.raise_signal(signum)

        threading.Thread(target=trigger, daemon=True).start()
        code = run_async_server(server, grace=2.0, quiet=True,
                                on_started=ready.set)
        assert code == 0
        assert server.inflight_requests == 0

    @staticmethod
    def _launch(tmp_path, stall_seconds, *extra):
        """``python -m repro.serve`` holding each /decide open for
        ``stall_seconds`` through a vm_stall serve plan."""
        plan = FaultPlan("hold", 1, [FaultSpec(
            "vm_stall", "*", 0.0, 3600.0,
            severity=stall_seconds / STALL_DELAY)])
        path = plan.to_file(tmp_path / "hold.json")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--faults", str(path), *extra],
            stdout=subprocess.PIPE, text=True, env=os.environ.copy())
        announce = process.stdout.readline()
        match = re.search(r"listening on http://([^:/]+):(\d+)/",
                          announce)
        assert match, announce
        return process, match.group(1), int(match.group(2))

    @staticmethod
    def _signal_mid_decide(process, host, port, results, signum):
        def fetch():
            try:
                results.append(get(host, port, DECIDE, timeout=10.0))
            except OSError as error:   # cut off past the grace
                results.append(error)

        client = threading.Thread(target=fetch, daemon=True)
        client.start()
        # /statz is admitted itself, so 2 in flight means the /decide
        # is inside its stall.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            _s, _h, body = get(host, port, "/statz")
            if json.loads(body)["inflight"] >= 2:
                break
            time.sleep(0.01)
        process.send_signal(signum)
        return client

    def test_sigterm_drains_inflight_request_before_closing(self,
                                                            tmp_path):
        process, host, port = self._launch(tmp_path, 0.15)
        results = []
        try:
            client = self._signal_mid_decide(process, host, port,
                                             results, signal.SIGTERM)
            assert process.wait(timeout=10.0) == 0
            client.join(timeout=5.0)
        finally:
            process.kill()
            process.stdout.close()
        assert results and results[0][0] == 200

    def test_drain_timeout_reports_unclean_exit(self, tmp_path):
        process, host, port = self._launch(tmp_path, 0.4,
                                           "--grace", "0.05")
        try:
            self._signal_mid_decide(process, host, port, [],
                                    signal.SIGINT)
            assert process.wait(timeout=10.0) == 1
        finally:
            process.kill()
            process.stdout.close()
