"""Tests for repro.serve: the asyncio serving tier.

The load-bearing properties:

* real HTTP round trips: keep-alive reuse, /decide, /healthz, /metrics,
  404s, 405s, malformed requests;
* bounded admission: a saturated server sheds with 503 + Retry-After,
  and the obs counters account for every request (admitted + rejected
  == sent);
* graceful drain: in-flight requests finish, idle keep-alive
  connections are closed, the server stops accepting;
* same-tick batching coalesces concurrent /decide arrivals into fewer
  handle_batch passes without changing any response;
* the fault-plan chaos gate injects 500s during (and only during) its
  windows.
"""

import http.client
import json
import threading
import time

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.obs import MetricsRegistry
from repro.serve import (
    AdmissionController,
    AsyncOdrServer,
    AsyncServerThread,
    endpoint_label,
)
from repro.serve.chaos import ServeChaos, WorkerChaos
from repro.faults.injector import FaultInjector

DECIDE = ("/decide?link=http%3A%2F%2Forigin%2Ffile.bin"
          "&popularity=500&bandwidth_mbps=20")


def get(host, port, path, timeout=5.0):
    connection = http.client.HTTPConnection(host, port,
                                            timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), \
            response.read()
    finally:
        connection.close()


@pytest.fixture()
def live_server():
    metrics = MetricsRegistry()
    server = AsyncOdrServer(metrics=metrics, max_inflight=32)
    with AsyncServerThread(server) as thread:
        yield server, thread, metrics


class TestEndpointLabel:
    def test_known_endpoints(self):
        assert endpoint_label("/decide?link=x") == "/decide"
        assert endpoint_label("/healthz") == "/healthz"
        assert endpoint_label("/metrics") == "/metrics"
        assert endpoint_label("/") == "/"
        assert endpoint_label("") == "/"

    def test_unknown_collapses_to_other(self):
        assert endpoint_label("/nope") == "other"
        assert endpoint_label("/a/b/c?d=e") == "other"


class TestHTTP:
    def test_healthz(self, live_server):
        server, thread, _metrics = live_server
        status, _headers, body = get(server.host, server.port,
                                     "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_decide_round_trip(self, live_server):
        server, _thread, _metrics = live_server
        status, headers, body = get(server.host, server.port, DECIDE)
        assert status == 200
        payload = json.loads(body)
        assert payload["action"]
        assert payload["data_source"]
        assert "Set-Cookie" in headers

    def test_front_page_and_404(self, live_server):
        server, _thread, _metrics = live_server
        status, _headers, body = get(server.host, server.port, "/")
        assert status == 200 and b"<form" in body
        status, _headers, _body = get(server.host, server.port,
                                      "/nothing-here")
        assert status == 404

    def test_metrics_endpoint_renders_prometheus(self, live_server):
        server, _thread, _metrics = live_server
        get(server.host, server.port, "/healthz")
        status, headers, body = get(server.host, server.port,
                                    "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert b"repro_serve_requests_total" in body

    def test_keep_alive_reuses_one_connection(self, live_server):
        server, _thread, _metrics = live_server
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=5.0)
        try:
            for _ in range(5):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert not response.will_close
                response.read()
            assert server.connections == 1
        finally:
            connection.close()

    def test_post_is_405(self, live_server):
        server, _thread, _metrics = live_server
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=5.0)
        try:
            connection.request("POST", "/decide", body=b"x")
            assert connection.getresponse().status == 405
        finally:
            connection.close()

    def test_port_zero_reports_bound_port(self, live_server):
        server, _thread, _metrics = live_server
        assert server.port != 0


class TestAdmissionController:
    def test_over_cap_is_rejected_and_counted(self):
        metrics = MetricsRegistry()
        admission = AdmissionController(2, metrics=metrics)
        assert admission.try_admit("/decide")
        assert admission.try_admit("/decide")
        assert not admission.try_admit("/decide")
        admitted = metrics.counter("repro_serve_admitted_total",
                                   endpoint="/decide").value
        rejected = metrics.counter("repro_serve_rejected_total",
                                   endpoint="/decide",
                                   reason="saturated").value
        assert (admitted, rejected) == (2, 1)
        admission.release("/decide", 0.01, 200)
        assert admission.try_admit("/decide")

    def test_retry_after_tracks_ewma_and_clamps(self):
        admission = AdmissionController(4)
        assert admission.retry_after() >= 1
        for _ in range(4):
            admission.try_admit("/decide")
        for _ in range(10):
            admission.release("/decide", 60.0, 200)
            admission.try_admit("/decide")
        assert admission.retry_after() <= 30

    def test_shed_body_is_json_with_retry_after(self):
        status, body, headers = AdmissionController(1).shed_body()
        assert status == 503
        assert "Retry-After" in headers
        assert int(headers["Retry-After"]) >= 1
        assert "retry_after_seconds" in json.loads(body)


class TestSaturation:
    def test_saturated_server_sheds_503_with_retry_after(self):
        """Requests past max_inflight get 503 + Retry-After while a
        slow request holds the only slot."""
        metrics = MetricsRegistry()
        server = AsyncOdrServer(metrics=metrics, max_inflight=1,
                                batch=False)
        release = threading.Event()
        original = server.app.handle

        def slow_handle(path, cookie=None, deadline=None):
            if path.startswith("/decide"):
                release.wait(timeout=10.0)
            return original(path, cookie)

        server.app.handle = slow_handle
        with AsyncServerThread(server) as thread:
            holder = threading.Thread(
                target=get,
                args=(server.host, server.port, DECIDE),
                kwargs={"timeout": 15.0}, daemon=True)
            holder.start()
            deadline = time.monotonic() + 5.0
            while server.inflight_requests == 0 \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            assert server.inflight_requests == 1

            status, headers, body = get(server.host, server.port,
                                        DECIDE)
            assert status == 503
            assert int(headers["Retry-After"]) >= 1
            assert "error" in json.loads(body)
            release.set()
            holder.join(timeout=10.0)
            # Slot freed: the next request is admitted again.
            status, _headers, _body = get(server.host, server.port,
                                          DECIDE)
            assert status == 200

        admitted = metrics.counter("repro_serve_admitted_total",
                                   endpoint="/decide").value
        rejected = metrics.counter("repro_serve_rejected_total",
                                   endpoint="/decide",
                                   reason="saturated").value
        sent = metrics.counter("repro_serve_requests_total",
                               endpoint="/decide").value
        assert admitted == 2
        assert rejected == 1
        assert admitted + rejected == sent == 3

    def test_admin_control_plane_bypasses_admission(self):
        """A saturated data plane must not starve supervision: the
        admin listener answers /healthz 200 and serves /statz while
        the only data slot is held -- the shed counters it exposes are
        the elastic controller's scale-up signal, so they have to be
        readable exactly when the worker is refusing data traffic."""
        metrics = MetricsRegistry()
        server = AsyncOdrServer(metrics=metrics, max_inflight=1,
                                batch=False, admin_port=0)
        release = threading.Event()
        original = server.app.handle

        def slow_handle(path, cookie=None, deadline=None):
            if path.startswith("/decide"):
                release.wait(timeout=10.0)
            return original(path, cookie)

        server.app.handle = slow_handle
        with AsyncServerThread(server):
            holder = threading.Thread(
                target=get,
                args=(server.host, server.port, DECIDE),
                kwargs={"timeout": 15.0}, daemon=True)
            holder.start()
            deadline = time.monotonic() + 5.0
            while server.inflight_requests == 0 \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            assert server.inflight_requests == 1
            # Data port: full, sheds.
            status, _headers, _body = get(server.host, server.port,
                                          DECIDE)
            assert status == 503
            # Admin port: control plane, never queued behind data.
            status, _headers, _body = get(server.host,
                                          server.admin_port,
                                          "/healthz")
            assert status == 200
            status, _headers, body = get(server.host,
                                         server.admin_port, "/statz")
            assert status == 200
            stats = json.loads(body)
            assert stats["sheds"] >= 1
            assert stats["inflight"] == 1
            release.set()
            holder.join(timeout=10.0)
        # Admin traffic holds no slot, so it neither admits nor sheds:
        # the accounting invariant stays a data-plane property.
        admitted = metrics.counter("repro_serve_admitted_total",
                                   endpoint="/healthz").value
        assert admitted == 0

    def test_obs_accounts_for_every_request(self, live_server):
        server, _thread, metrics = live_server
        for _ in range(7):
            get(server.host, server.port, DECIDE)
        for _ in range(3):
            get(server.host, server.port, "/healthz")
        for endpoint, count in (("/decide", 7), ("/healthz", 3)):
            sent = metrics.counter("repro_serve_requests_total",
                                   endpoint=endpoint).value
            admitted = metrics.counter("repro_serve_admitted_total",
                                       endpoint=endpoint).value
            ok = metrics.counter("repro_serve_responses_total",
                                 endpoint=endpoint,
                                 status="2xx").value
            assert sent == admitted == ok == count
        assert metrics.gauge("repro_serve_inflight").value == 0


class TestDrain:
    def test_drain_finishes_inflight_and_stops_accepting(self):
        server = AsyncOdrServer(max_inflight=8, batch=False)
        release = threading.Event()
        original = server.app.handle

        def slow_handle(path, cookie=None, deadline=None):
            if path.startswith("/decide"):
                release.wait(timeout=10.0)
            return original(path, cookie)

        server.app.handle = slow_handle
        thread = AsyncServerThread(server)
        thread.start()
        host, port = server.host, server.port
        results = []
        inflight = threading.Thread(
            target=lambda: results.append(
                get(host, port, DECIDE, timeout=15.0)),
            daemon=True)
        inflight.start()
        deadline = time.monotonic() + 5.0
        while server.inflight_requests == 0 \
                and time.monotonic() < deadline:
            time.sleep(0.005)
        assert server.inflight_requests == 1

        stopper = threading.Thread(target=thread.stop, daemon=True)
        stopper.start()
        time.sleep(0.05)
        release.set()
        stopper.join(timeout=10.0)
        inflight.join(timeout=10.0)
        assert not stopper.is_alive()
        assert results and results[0][0] == 200
        assert thread.drained
        with pytest.raises(OSError):
            get(host, port, "/healthz", timeout=0.5)

    def test_drain_closes_idle_keepalive_connections(self):
        server = AsyncOdrServer()
        thread = AsyncServerThread(server)
        thread.start()
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=5.0)
        connection.request("GET", "/healthz")
        connection.getresponse().read()
        assert server.connections == 1
        thread.stop()
        assert thread.drained
        assert server.connections == 0
        connection.close()


class TestBatching:
    def test_batching_coalesces_without_changing_responses(self):
        metrics = MetricsRegistry()
        server = AsyncOdrServer(metrics=metrics, max_inflight=64,
                                batch=True)
        with AsyncServerThread(server):
            barrier = threading.Barrier(8)
            results = []
            lock = threading.Lock()

            def fire():
                barrier.wait(timeout=5.0)
                result = get(server.host, server.port, DECIDE)
                with lock:
                    results.append(result)

            threads = [threading.Thread(target=fire, daemon=True)
                       for _ in range(8)]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(timeout=10.0)
        assert len(results) == 8
        assert all(status == 200 for status, _h, _b in results)
        assert server.batcher is not None
        assert server.batcher.batched_requests == 8
        assert server.batcher.batches <= 8
        assert server.batcher.mean_batch_size >= 1.0


class TestChaos:
    def test_chaos_window_injects_500s(self):
        plan = FaultPlan("crash-now", 1, [FaultSpec("server_crash", "*",
                                                    0.0, 3600.0)])
        metrics = MetricsRegistry()
        chaos = ServeChaos(FaultInjector(plan), clock=lambda: 0.0,
                           metrics=metrics)
        server = AsyncOdrServer(metrics=metrics, chaos=chaos)
        with AsyncServerThread(server):
            status, _headers, body = get(server.host, server.port,
                                         DECIDE)
            healthz, _h, _b = get(server.host, server.port,
                                  "/healthz")
        assert status == 500
        assert "injected fault" in json.loads(body)["detail"]
        # Readiness reflects the fault window: /healthz steers traffic
        # away while /decide is failing.
        assert healthz == 503
        assert metrics.counter(
            "repro_serve_chaos_failures_total").value >= 1

    def test_outside_window_is_clean(self):
        plan = FaultPlan("crash-later", 1,
                         [FaultSpec("server_crash", "*",
                                    7200.0, 3600.0)])
        chaos = ServeChaos(FaultInjector(plan), clock=lambda: 0.0)
        server = AsyncOdrServer(chaos=chaos)
        with AsyncServerThread(server):
            status, _headers, _body = get(server.host, server.port,
                                          DECIDE)
            healthz, _h, _b = get(server.host, server.port,
                                  "/healthz")
        assert status == 200
        assert healthz == 200


def get_with_headers(host, port, path, headers, timeout=5.0):
    connection = http.client.HTTPConnection(host, port,
                                            timeout=timeout)
    try:
        connection.request("GET", path, headers=headers)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), \
            response.read()
    finally:
        connection.close()


class TestDeadline:
    """X-Deadline-Ms propagation: hopeless requests are shed 504."""

    def test_exhausted_budget_sheds_504_at_admission(self,
                                                     live_server):
        server, _thread, metrics = live_server
        # Burn the EWMA up so any zero budget is hopeless even on an
        # idle server: predicted wait is inflight * ewma = 0 on idle,
        # so use a negative-ish budget of 0 and one in-flight isn't
        # needed -- 0 remaining > 0 predicted is false.
        status, _headers, body = get_with_headers(
            server.host, server.port, DECIDE,
            {"X-Deadline-Ms": "0"})
        assert status == 504
        payload = json.loads(body)
        assert payload["error"] == "deadline exceeded"
        assert payload["stage"] == "admission"
        assert metrics.counter("repro_serve_deadline_sheds_total",
                               stage="admission").value == 1
        assert metrics.counter("repro_serve_rejected_total",
                               endpoint="/decide",
                               reason="deadline").value == 1

    def test_generous_budget_is_served(self, live_server):
        server, _thread, metrics = live_server
        status, _headers, _body = get_with_headers(
            server.host, server.port, DECIDE,
            {"X-Deadline-Ms": "5000"})
        assert status == 200
        assert metrics.counter("repro_serve_deadline_sheds_total",
                               stage="admission").value == 0

    def test_accounting_invariant_holds_with_deadline_sheds(
            self, live_server):
        server, _thread, metrics = live_server
        for _ in range(4):
            get_with_headers(server.host, server.port, DECIDE,
                             {"X-Deadline-Ms": "0"})
        for _ in range(3):
            get(server.host, server.port, DECIDE)
        sent = metrics.counter("repro_serve_requests_total",
                               endpoint="/decide").value
        admitted = metrics.counter("repro_serve_admitted_total",
                                   endpoint="/decide").value
        rejected = sum(
            metrics.counter("repro_serve_rejected_total",
                            endpoint="/decide",
                            reason=reason).value
            for reason in ("deadline", "saturated"))
        assert sent == 7
        assert admitted + rejected == sent

    def test_malformed_budget_is_ignored(self, live_server):
        server, _thread, _metrics = live_server
        status, _headers, _body = get_with_headers(
            server.host, server.port, DECIDE,
            {"X-Deadline-Ms": "soon"})
        assert status == 200

    def test_batcher_expires_entries_before_dispatch(self):
        import asyncio

        from repro.cloud.database import ContentDatabase
        from repro.core.webapp import OdrWebApp
        from repro.serve.batching import DecisionBatcher

        async def scenario():
            metrics = MetricsRegistry()
            batcher = DecisionBatcher(
                OdrWebApp(ContentDatabase()), metrics=metrics)
            expired = batcher.submit(DECIDE, "",
                                     deadline=time.monotonic() - 1.0)
            live = batcher.submit(DECIDE, "",
                                  deadline=time.monotonic() + 30.0)
            responses = await asyncio.gather(expired, live)
            return responses, batcher, metrics

        responses, batcher, metrics = asyncio.run(scenario())
        assert responses[0][0] == 504
        assert json.loads(responses[0][2])["stage"] == "batch"
        assert responses[1][0] == 200
        assert batcher.expired == 1
        assert batcher.batched_requests == 1
        assert metrics.counter("repro_serve_deadline_sheds_total",
                               stage="batch").value == 1

    def test_admission_deadline_predicate(self):
        controller = AdmissionController(max_inflight=4)
        # Idle controller: zero predicted wait, any positive budget ok.
        assert controller.deadline_allows(0.010)
        assert not controller.deadline_allows(0.0)
        # Saturate the EWMA: 2 in flight at 1 s each predicts 2 s.
        controller.try_admit("/decide")
        controller.try_admit("/decide")
        controller._ewma_seconds = 1.0
        assert controller.predicted_wait_seconds() == \
            pytest.approx(2.0)
        assert not controller.deadline_allows(1.5)
        assert controller.deadline_allows(2.5)


class TestReadiness:
    """/healthz is a readiness probe, not just liveness."""

    def test_healthz_503_during_fault_window(self):
        plan = FaultPlan("crash-now", 1,
                         [FaultSpec("server_crash", "*",
                                    0.0, 3600.0)])
        chaos = ServeChaos(FaultInjector(plan), clock=lambda: 0.0)
        server = AsyncOdrServer(chaos=chaos)
        with AsyncServerThread(server):
            status, headers, body = get(server.host, server.port,
                                        "/healthz")
        assert status == 503
        payload = json.loads(body)
        assert payload == {"status": "fault-window", "ready": False}
        assert headers.get("Retry-After") == "1"

    def test_healthz_503_while_draining(self):
        # A draining server stops accepting, so the 503 is what an
        # in-flight keep-alive request sees; drive _respond directly.
        import asyncio
        server = AsyncOdrServer()
        server._draining = True

        async def scenario():
            return await server._respond("/healthz", "")

        status, _ctype, body, _cookie, headers = \
            asyncio.run(scenario())
        assert status == 503
        assert json.loads(body)["status"] == "draining"
        assert headers.get("Retry-After") == "1"

    def test_admin_listener_serves_healthz(self):
        server = AsyncOdrServer(admin_port=0)
        with AsyncServerThread(server):
            assert server.admin_port is not None
            assert server.admin_port != server.port
            status, _headers, body = get(server.host,
                                         server.admin_port,
                                         "/healthz")
            main_status, _h, _b = get(server.host, server.port,
                                      "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        assert main_status == 200


class TestWedgeInvariants:
    """The accounting invariant survives every serve-domain wedge.

    ``admitted + rejected == sent`` must hold whatever a process-state
    fault does to connections: requests a wedge swallows before the
    counting point (a blackholed park, a mid-request reset) never
    increment ``requests_total`` either, so the counted population
    stays balanced; requests that do get counted are either admitted
    or rejected with a named reason (``saturated`` -> 503,
    ``deadline`` -> 504).
    """

    @staticmethod
    def _wedged_server(kind, severity=1.0, **server_kwargs):
        plan = FaultPlan(f"wedge-{kind}", 1,
                         [FaultSpec(kind, "serve:worker-0",
                                    0.0, 1.0, severity=severity)])
        metrics = MetricsRegistry()
        # Pin the chaos clock at the window's open so the wedge is
        # adopted from the first request (adoption needs
        # born <= start <= now, and a real clock puts born just past
        # a start of 0).
        chaos = WorkerChaos(FaultInjector(plan), 0, metrics=metrics,
                            clock=lambda: 0.0)
        server = AsyncOdrServer(metrics=metrics, worker_chaos=chaos,
                                **server_kwargs)
        return server, metrics

    @staticmethod
    def _accounting(metrics):
        sent = metrics.counter("repro_serve_requests_total",
                               endpoint="/decide").value
        admitted = metrics.counter("repro_serve_admitted_total",
                                   endpoint="/decide").value
        rejected = sum(
            metrics.counter("repro_serve_rejected_total",
                            endpoint="/decide", reason=reason).value
            for reason in ("saturated", "deadline"))
        return sent, admitted, rejected

    @pytest.mark.parametrize("kind", ["probe_blackhole", "conn_reset"])
    def test_swallowed_requests_stay_balanced(self, kind):
        server, metrics = self._wedged_server(kind)
        with AsyncServerThread(server, grace=0.5):
            for _ in range(3):
                with pytest.raises(OSError):
                    connection = http.client.HTTPConnection(
                        server.host, server.port, timeout=0.3)
                    try:
                        connection.request("GET", DECIDE)
                        connection.getresponse()
                    finally:
                        connection.close()
        sent, admitted, rejected = self._accounting(metrics)
        assert sent == 0          # swallowed before the counting point
        assert admitted + rejected == sent
        assert metrics.counter("repro_serve_wedges_total",
                               kind=kind).value == 1

    def test_slowloris_counts_and_balances(self):
        # A tiny severity scales the byte delay down so the test can
        # actually read the dribbled responses; the accounting path is
        # identical to the full-speed wedge.
        server, metrics = self._wedged_server("admin_slowloris",
                                              severity=0.001)
        with AsyncServerThread(server, grace=0.5):
            for _ in range(2):
                status, _headers, _body = get_with_headers(
                    server.host, server.port, DECIDE,
                    {"X-Deadline-Ms": "0"}, timeout=10.0)
                assert status == 504
            status, _headers, _body = get(server.host, server.port,
                                          DECIDE, timeout=10.0)
            assert status == 200
        sent, admitted, rejected = self._accounting(metrics)
        assert sent == 3
        assert admitted == 1
        assert rejected == 2
        assert admitted + rejected == sent
        assert metrics.counter("repro_serve_wedges_total",
                               kind="admin_slowloris").value == 1

    def test_correlated_kill_plan_leaves_data_path_clean(self):
        # correlated_kill is a supervisor-side kill, not a wedge: a
        # worker loaded with such a plan serves normally, and the mix
        # of 504s, 503s, and successes still balances.
        plan = FaultPlan("ck", 1,
                         [FaultSpec("correlated_kill", "serve:*",
                                    0.0, 1.0, count=2)])
        metrics = MetricsRegistry()
        chaos = WorkerChaos(FaultInjector(plan), 0, metrics=metrics)
        server = AsyncOdrServer(metrics=metrics, worker_chaos=chaos,
                                max_inflight=1, batch=False)
        release = threading.Event()
        original = server.app.handle

        def slow_handle(path, cookie=None, deadline=None):
            if path.startswith("/decide"):
                release.wait(timeout=10.0)
            return original(path, cookie)

        server.app.handle = slow_handle
        with AsyncServerThread(server) as thread:
            holder = threading.Thread(
                target=get, args=(server.host, server.port, DECIDE),
                kwargs={"timeout": 15.0}, daemon=True)
            holder.start()
            deadline = time.monotonic() + 5.0
            while server.inflight_requests == 0 \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            status_503, _h, _b = get(server.host, server.port, DECIDE)
            status_504, _h, _b = get_with_headers(
                server.host, server.port, DECIDE,
                {"X-Deadline-Ms": "0"})
            release.set()
            holder.join(timeout=10.0)
        assert status_503 == 503
        assert status_504 == 504
        sent, admitted, rejected = self._accounting(metrics)
        assert sent == 3
        assert admitted == 1
        assert rejected == 2
        assert admitted + rejected == sent
        assert metrics.counter("repro_serve_wedges_total",
                               kind="correlated_kill").value == 0


def test_backend_exception_is_a_structured_500_over_http():
    """The executor-side failure reaches the client as JSON, and the
    connection loop keeps serving."""
    from repro.faults.policies import ResiliencePolicies
    server = AsyncOdrServer(policies=ResiliencePolicies())

    def boom(context, link):
        raise RuntimeError("backend exploded")

    server.app.service.handle_request = boom
    with AsyncServerThread(server):
        status, headers, body = get(server.host, server.port, DECIDE)
        healthz, _h, _b = get(server.host, server.port, "/healthz")
    assert status == 500
    assert headers["Content-Type"].startswith("application/json")
    assert "backend exploded" in json.loads(body)["detail"]
    assert healthz == 200


def raw_exchange(sock, request: bytes):
    """Send one raw request on ``sock``; (status, headers, body)."""
    sock.sendall(request)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, "connection closed without a response"
        data += chunk
    head, _sep, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    while len(body) < int(headers["Content-Length"]):
        body += sock.recv(65536)
    return int(lines[0].split()[1]), headers, body


class TestMalformedTarget:
    """A request target ``urlparse`` rejects gets a 400, not a drop."""

    def test_malformed_target_is_a_400_on_the_open_connection(self):
        import socket
        metrics = MetricsRegistry()
        server = AsyncOdrServer(metrics=metrics)
        with AsyncServerThread(server):
            with socket.create_connection((server.host, server.port),
                                          timeout=5.0) as sock:
                status, headers, body = raw_exchange(
                    sock, b"GET //[ HTTP/1.1\r\nHost: t\r\n\r\n")
                assert status == 400
                assert headers["Connection"] == "keep-alive"
                assert json.loads(body) == {
                    "error": "malformed request target"}
                # Same connection, next request: still served.
                status, _headers, _body = raw_exchange(
                    sock, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                assert status == 200
        assert metrics.counter("repro_serve_responses_total",
                               endpoint="other",
                               status="4xx").value == 1
        assert metrics.counter("repro_serve_responses_total",
                               endpoint="other",
                               status="5xx").value == 0

    @pytest.mark.parametrize("batch", [True, False])
    def test_escaped_exception_is_a_json_500(self, batch):
        server = AsyncOdrServer(batch=batch)

        def explode(*_args, **_kwargs):
            raise RuntimeError("app exploded")

        server.app.handle = explode
        server.app.handle_batch = explode
        with AsyncServerThread(server):
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=5.0)
            try:
                connection.request("GET", DECIDE)
                response = connection.getresponse()
                status, body = response.status, response.read()
                connection.request("GET", "/statz")
                statz = connection.getresponse()
                statz.read()
            finally:
                connection.close()
        assert status == 500
        assert "app exploded" in json.loads(body)["detail"]
        assert statz.status == 200
        assert server.admission.inflight == 0


class TestDispatch:
    """Batched decisions run on the loop; unbatched ones off it."""

    @pytest.mark.parametrize("batch", [True, False])
    def test_where_a_decision_runs(self, batch):
        server = AsyncOdrServer(batch=batch)
        threads = []
        name = "handle_batch" if batch else "handle"
        original = getattr(server.app, name)

        def recording(*args, **kwargs):
            threads.append(threading.get_ident())
            return original(*args, **kwargs)

        setattr(server.app, name, recording)
        with AsyncServerThread(server) as thread:
            status, _headers, _body = get(server.host, server.port,
                                          DECIDE)
            loop_thread = thread._thread.ident
        assert status == 200
        assert len(threads) == 1
        if batch:
            assert threads == [loop_thread]
        else:
            assert threads[0] != loop_thread

    def test_cached_instruments_are_the_registrys_own(self, live_server):
        server, _thread, metrics = live_server
        for _ in range(3):
            get(server.host, server.port, DECIDE)
        requests = metrics.counter("repro_serve_requests_total",
                                   endpoint="/decide")
        assert requests is server._requests["/decide"]
        assert requests.value == 3
        admitted, latency, responses = \
            server.admission._endpoints["/decide"]
        assert admitted is metrics.counter("repro_serve_admitted_total",
                                           endpoint="/decide")
        assert latency is metrics.histogram(
            "repro_serve_latency_seconds", endpoint="/decide")
        assert responses[2] is metrics.counter(
            "repro_serve_responses_total", endpoint="/decide",
            status="2xx")
        assert admitted.value == responses[2].value == 3
        assert latency.count == 3
        assert server.batcher._batch_size is metrics.histogram(
            "repro_serve_batch_size")

    def test_accounting_holds_across_a_mixed_batch(self):
        """One drain holding an expired and a live entry, beside an
        admission shed: ``admitted + rejected == sent``."""
        import asyncio
        metrics = MetricsRegistry()
        server = AsyncOdrServer(metrics=metrics)

        async def stall():
            # Runs after every submit and before the drain: the short
            # budget lapses while its entry waits for the tick.
            time.sleep(0.05)

        async def scenario():
            now = time.monotonic()
            return await asyncio.gather(
                server._respond(DECIDE, "", now + 0.02),
                server._respond(DECIDE, "", now + 30.0),
                server._respond(DECIDE, "", now - 1.0),
                server._respond(DECIDE, ""),
                stall())

        responses = asyncio.run(scenario())[:4]
        assert [response[0] for response in responses] == \
            [504, 200, 504, 200]
        assert json.loads(responses[0][2])["stage"] == "batch"
        assert json.loads(responses[2][2])["stage"] == "admission"
        assert server.batcher.batches == 1
        assert server.batcher.batched_requests == 2
        sent = metrics.counter("repro_serve_requests_total",
                               endpoint="/decide").value
        admitted = metrics.counter("repro_serve_admitted_total",
                                   endpoint="/decide").value
        rejected = sum(
            metrics.counter("repro_serve_rejected_total",
                            endpoint="/decide", reason=reason).value
            for reason in ("saturated", "deadline"))
        answered = sum(
            metrics.counter("repro_serve_responses_total",
                            endpoint="/decide", status=status).value
            for status in ("2xx", "4xx", "5xx"))
        assert sent == 4
        assert admitted == 3 and rejected == 1
        assert admitted + rejected == sent
        assert answered == admitted
        assert metrics.counter("repro_serve_deadline_sheds_total",
                               stage="batch").value == 1
        assert metrics.gauge("repro_serve_inflight").value == 0


def read_responses(sock, count):
    """Read ``count`` responses off ``sock``; [(status, headers, body)]
    in arrival order."""
    data = b""
    responses = []
    while len(responses) < count:
        end = data.find(b"\r\n\r\n")
        if end >= 0:
            lines = data[:end].decode("latin-1").split("\r\n")
            headers = dict(line.split(": ", 1) for line in lines[1:])
            length = int(headers["Content-Length"])
            if len(data) >= end + 4 + length:
                responses.append((int(lines[0].split()[1]), headers,
                                  data[end + 4:end + 4 + length]))
                data = data[end + 4 + length:]
                continue
        chunk = sock.recv(65536)
        assert chunk, "connection closed before every response came"
        data += chunk
    return responses


def request(path, headers=""):
    return f"GET {path} HTTP/1.1\r\nHost: t\r\n{headers}\r\n" \
        .encode("latin-1")


class TestTransport:
    """The connection protocol: buffered heads, pipelining in order,
    the head cap, disconnects mid-batch and flow control."""

    def test_pipelined_requests_are_answered_in_order(self):
        import socket
        server = AsyncOdrServer()
        with AsyncServerThread(server):
            with socket.create_connection((server.host, server.port),
                                          timeout=5.0) as sock:
                sock.sendall(request("/nothing-here") + request(DECIDE)
                             + request("/healthz"))
                responses = read_responses(sock, 3)
        assert [status for status, _h, _b in responses] == \
            [404, 200, 200]
        assert "action" in json.loads(responses[1][2])
        assert json.loads(responses[2][2])["status"] == "ok"
        assert all(headers["Connection"] == "keep-alive"
                   for _s, headers, _b in responses)

    def test_head_sent_one_byte_per_write_is_answered(self):
        import socket
        server = AsyncOdrServer()
        with AsyncServerThread(server):
            with socket.create_connection((server.host, server.port),
                                          timeout=5.0) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for byte in request(DECIDE):
                    sock.send(bytes([byte]))
                    time.sleep(0.0005)
                [(status, _headers, body)] = read_responses(sock, 1)
        assert status == 200
        assert "action" in json.loads(body)

    def test_oversized_head_is_431_and_closed(self):
        import socket

        from repro.serve.server import MAX_REQUEST_BYTES
        metrics = MetricsRegistry()
        server = AsyncOdrServer(metrics=metrics)
        with AsyncServerThread(server):
            with socket.create_connection((server.host, server.port),
                                          timeout=5.0) as sock:
                sock.sendall(b"GET /" + b"a" * (MAX_REQUEST_BYTES + 8192))
                [(status, headers, _body)] = read_responses(sock, 1)
                assert sock.recv(65536) == b""
        assert status == 431
        assert headers["Connection"] == "close"
        assert metrics.counter("repro_serve_rejected_total",
                               endpoint="other",
                               reason="http_431").value == 1

    @pytest.mark.parametrize("reset", [True, False])
    def test_disconnect_while_queued_leaves_nothing_in_flight(self,
                                                              reset):
        import asyncio
        import socket
        import struct
        metrics = MetricsRegistry()
        server = AsyncOdrServer(metrics=metrics)
        drain = server.batcher._drain
        queued = threading.Event()

        def later():
            # Hold the batch past the client's disconnect.
            queued.set()
            asyncio.get_running_loop().call_later(0.3, drain)

        server.batcher._drain = later
        with AsyncServerThread(server):
            sock = socket.create_connection((server.host, server.port),
                                            timeout=5.0)
            sock.sendall(request(DECIDE))
            assert queued.wait(5.0)
            if reset:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
            sock.close()
            deadline = time.monotonic() + 5.0
            while server.batcher.batches == 0 \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            while server.connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.connections == 0
            assert server.inflight_requests == 0
        assert server.batcher.batched_requests == 1
        assert metrics.gauge("repro_serve_inflight").value == 0
        sent = metrics.counter("repro_serve_requests_total",
                               endpoint="/decide").value
        admitted = metrics.counter("repro_serve_admitted_total",
                                   endpoint="/decide").value
        rejected = sum(
            metrics.counter("repro_serve_rejected_total",
                            endpoint="/decide", reason=reason).value
            for reason in ("saturated", "deadline"))
        assert sent == admitted == 1
        assert admitted + rejected == sent

    def test_client_that_stops_reading_is_not_buffered_unbounded(self):
        import socket
        import struct

        from repro.serve.server import MAX_REQUEST_BYTES
        server = AsyncOdrServer()
        pipelined = request(DECIDE) * 20000
        with AsyncServerThread(server):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(3.0)
            sock.connect((server.host, server.port))

            def flood():
                try:
                    sock.sendall(pipelined)
                except OSError:
                    pass   # the server stopped reading: as intended

            sender = threading.Thread(target=flood, daemon=True)
            sender.start()
            deadline = time.monotonic() + 5.0
            while not server.connections and time.monotonic() < deadline:
                time.sleep(0.01)
            [connection] = list(server._connections)
            # Wait for the server to stop answering: the kernel buffers
            # between the two sides are full.
            answered = -1
            deadline = time.monotonic() + 10.0
            while answered != server.batcher.batched_requests \
                    and time.monotonic() < deadline:
                answered = server.batcher.batched_requests
                time.sleep(0.3)
            assert 0 < answered < 20000
            assert connection._write_paused
            assert connection._reading_paused
            transport = connection.transport
            # At most the transport's high-water mark plus one response
            # waits in user space, and at most one head's worth of
            # input plus one read.
            assert transport.get_write_buffer_size() \
                <= transport.get_write_buffer_limits()[1] + 4096
            assert len(connection._buffer) \
                <= MAX_REQUEST_BYTES + 256 * 1024
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()
            sender.join(5.0)
        assert server.inflight_requests == 0
        assert server.admission.inflight == 0
