"""The asyncio ODR serving tier.

One event loop, keep-alive connections, and no thread per request.  The
request path is::

    connection loop (keep-alive) -> admission control -> chaos gate
        -> same-tick batcher -> OdrWebApp.handle_batch

* **Connection reuse** -- HTTP/1.1 keep-alive; a load generator's
  session pool pays the TCP handshake once per worker, not once per
  request.
* **Bounded admission** -- :class:`~repro.serve.admission.
  AdmissionController` caps in-flight requests; the excess is shed with
  ``503 + Retry-After`` derived from the EWMA service time.  The
  application-level circuit breaker (PR 4) still guards the decision
  backend underneath.
* **Batched evaluation** -- ``/decide`` requests arriving in the same
  loop tick are coalesced into one
  :meth:`~repro.core.webapp.OdrWebApp.handle_batch` pass (one breaker
  check, one lock scope for the batch), evaluated inline on the loop.
  Unbatched work -- other app endpoints, and every ``/decide`` with
  ``batch=False`` -- runs on the default executor.
* **Obs** -- per-endpoint request/response counters, an in-flight
  gauge, streaming latency histograms, and a ``/metrics`` endpoint
  rendering the registry in Prometheus text format.  Each labelled
  instrument is resolved once and reused.
* **Errors** -- an exception that escapes the app is answered with a
  JSON ``500`` on the open connection, never a dropped one.
* **Graceful drain** -- ``drain()`` stops accepting, lets in-flight
  requests finish (bounded by a grace period), then closes idle
  keep-alive connections; :func:`run_async_server` exits 0 on a clean
  drain and 1 when requests outlast the grace.

The server also runs multi-process: with ``reuse_port=True`` several
workers bind the same ``(host, port)`` through ``SO_REUSEPORT`` and the
kernel load-balances accepted connections (see
:mod:`repro.serve.workers`).
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from http import HTTPStatus
from typing import Callable, Optional

from repro.cloud.database import ContentDatabase
from repro.core.webapp import OdrWebApp, Response
from repro.faults.policies import ResiliencePolicies
from repro.obs.exporters import render_prometheus
from repro.obs.instruments import Counter
from repro.obs.registry import NOOP, AnyRegistry
from repro.serve.admission import DEFAULT_MAX_INFLIGHT, \
    AdmissionController, deadline_response
from repro.serve.batching import DecisionBatcher
from repro.serve.chaos import BLACKHOLE_HANG, SLOWLORIS_BYTE_DELAY, \
    ServeChaos, WorkerChaos

#: Cap on one request head (request line + headers).
MAX_REQUEST_BYTES = 32 * 1024

#: Endpoints with their own metric label; anything else is "other".
KNOWN_ENDPOINTS = ("/decide", "/healthz", "/metrics", "/statz", "/")


def endpoint_label(path: str) -> str:
    bare = path.split("?", 1)[0]
    if bare in ("", "/", "/index.html"):
        return "/"
    return bare if bare in KNOWN_ENDPOINTS else "other"


def _reason(status: int) -> str:
    try:
        return HTTPStatus(status).phrase
    except ValueError:
        return "Unknown"


def _internal_error(error: Exception) -> Response:
    return 500, "application/json", json.dumps(
        {"error": "internal error",
         "detail": f"{type(error).__name__}: {error}"}), None, {}


class AsyncOdrServer:
    """The asyncio serving tier around one :class:`OdrWebApp`."""

    def __init__(self, app: Optional[OdrWebApp] = None,
                 host: str = "127.0.0.1", port: int = 0, *,
                 database: Optional[ContentDatabase] = None,
                 policies: Optional[ResiliencePolicies] = None,
                 metrics: AnyRegistry = NOOP,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT,
                 batch: bool = True,
                 chaos: Optional[ServeChaos] = None,
                 worker_chaos: Optional[WorkerChaos] = None,
                 reuse_port: bool = False,
                 default_policy: str = "odr",
                 admin_port: Optional[int] = None):
        self.app = app if app is not None else OdrWebApp(
            database, policies=policies, metrics=metrics,
            default_policy=default_policy)
        self.host = host
        self._requested_port = port
        self.metrics = metrics
        self._requests: dict[str, Counter] = {}
        self.admission = AdmissionController(max_inflight,
                                             metrics=metrics)
        self.batcher = DecisionBatcher(self.app, metrics=metrics) \
            if batch else None
        self.chaos = chaos
        self.worker_chaos = worker_chaos
        self.reuse_port = reuse_port
        self._server: Optional[asyncio.base_events.Server] = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._connection_tasks: set[asyncio.Task] = set()
        self._handling = 0
        self._draining = False
        self.port: int = port
        # A second, private listener for supervision: with SO_REUSEPORT
        # the shared port load-balances across workers, so a probe of a
        # *specific* worker needs its own address.
        self._requested_admin_port = admin_port
        self.admin_port: Optional[int] = None
        self._admin_server: Optional[asyncio.base_events.Server] = None

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` holds the bound
        port afterwards (even when constructed with port 0)."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if self.reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):   # pragma: no cover
                sock.close()
                raise OSError("SO_REUSEPORT unsupported on this platform")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.host, self._requested_port))
        self.port = sock.getsockname()[1]
        self._server = await asyncio.start_server(
            self._client_connected, sock=sock,
            limit=MAX_REQUEST_BYTES)
        if self._requested_admin_port is not None:
            # The admin listener is a control plane: its probes bypass
            # data-plane admission (see _respond), so a saturated
            # worker still answers /healthz and serves /statz -- which
            # is exactly when the supervisor most needs both.
            self._admin_server = await asyncio.start_server(
                lambda reader, writer: self._client_connected(
                    reader, writer, admin=True),
                host=self.host,
                port=self._requested_admin_port,
                limit=MAX_REQUEST_BYTES)
            self.admin_port = \
                self._admin_server.sockets[0].getsockname()[1]

    @property
    def inflight_requests(self) -> int:
        return self._handling

    @property
    def connections(self) -> int:
        return len(self._writers)

    async def drain(self, grace: float = 10.0) -> bool:
        """Stop accepting, wait out in-flight requests, close idle
        connections.  True when everything finished within ``grace``."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._admin_server is not None:
            self._admin_server.close()
            await self._admin_server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + grace
        while self._handling > 0 and loop.time() < deadline:
            await asyncio.sleep(0.005)
        drained = self._handling == 0
        # Idle keep-alive connections are parked in readuntil(); closing
        # the transport unblocks their loops.
        for writer in list(self._writers):
            writer.close()
        # Let the connection tasks run to completion so loop teardown
        # never cancels one mid-wait_closed (which asyncio logs).
        me = asyncio.current_task()
        pending = {task for task in self._connection_tasks
                   if task is not me}
        if pending:
            await asyncio.wait(pending, timeout=1.0)
        return drained

    async def serve_until(self, stop: asyncio.Event,
                          grace: float = 10.0) -> bool:
        """Run until ``stop`` is set, then drain; True on clean drain."""
        if self._server is None:
            await self.start()
        await stop.wait()
        return await self.drain(grace)

    # -- connection handling -----------------------------------------------------

    async def _client_connected(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter,
                                admin: bool = False) -> None:
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
            task.add_done_callback(self._connection_tasks.discard)
        try:
            await self._connection_loop(reader, writer, admin=admin)
        except (ConnectionError, asyncio.IncompleteReadError,
                BrokenPipeError):
            pass   # client went away; nothing to answer
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    def _wedge_kind(self) -> Optional[str]:
        """The process-state fault this worker carries, or None."""
        if self.worker_chaos is None:
            return None
        spec = self.worker_chaos.wedge()
        return spec.kind if spec is not None else None

    async def _connection_loop(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter,
                               admin: bool = False) -> None:
        while not self._draining:
            if self._wedge_kind() == "probe_blackhole":
                # A hung process: the kernel backlog keeps accepting,
                # but nothing is ever read or answered -- on the data
                # port and the admin port alike.  Park the connection;
                # only a supervisor restart ends this.
                await asyncio.sleep(BLACKHOLE_HANG)
                return
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except asyncio.IncompleteReadError:
                return          # clean close between requests
            except asyncio.LimitOverrunError:
                await self._write_simple(writer, 431,
                                         "request head too large",
                                         keep_alive=False)
                return
            request = self._parse_head(head)
            if request is None:
                await self._write_simple(writer, 400,
                                         "malformed request",
                                         keep_alive=False)
                return
            method, path, cookie, keep_alive, deadline_ms = request
            if self._wedge_kind() == "conn_reset":
                # Corrupted socket state: the request was read, then
                # the connection dies with a reset mid-request.  Probes
                # see it too -- which is how the supervisor notices.
                writer.transport.abort()
                return
            if method != "GET":
                await self._write_simple(writer, 405,
                                         f"method {method} not allowed",
                                         keep_alive=keep_alive)
                continue
            keep_alive = keep_alive and not self._draining
            deadline = time.monotonic() + deadline_ms / 1e3 \
                if deadline_ms is not None else None
            self._handling += 1
            try:
                response = await self._respond(path, cookie, deadline,
                                               admin=admin)
                await self._write_response(writer, response, keep_alive)
            finally:
                self._handling -= 1
            if not keep_alive:
                return

    @staticmethod
    def _parse_head(head: bytes
                    ) -> Optional[tuple[str, str, str, bool,
                                        Optional[float]]]:
        """(method, path, cookie header, keep-alive, deadline budget in
        ms) or None when the request line is unparseable."""
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError:   # pragma: no cover - latin-1 total
            return None
        lines = text.split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            return None
        method, path, version = parts
        cookie = ""
        connection = ""
        deadline_ms: Optional[float] = None
        for line in lines[1:]:
            name, _sep, value = line.partition(":")
            lowered = name.strip().lower()
            if lowered == "cookie":
                cookie = value.strip()
            elif lowered == "connection":
                connection = value.strip().lower()
            elif lowered == "x-deadline-ms":
                try:
                    deadline_ms = float(value.strip())
                except ValueError:
                    deadline_ms = None   # malformed budget: best effort
        keep_alive = version != "HTTP/1.0" \
            if connection == "" else connection != "close"
        return method, path, cookie, keep_alive, deadline_ms

    # -- request dispatch --------------------------------------------------------

    def _unready_reason(self) -> Optional[str]:
        """Why ``/healthz`` should answer 503, or None when ready.

        Readiness is stricter than liveness: a draining server and one
        inside an injected-failure window are both still *alive* but
        should not receive new traffic, so probes steer load balancers
        (and the worker supervisor) away before requests start failing.
        """
        if self._draining:
            return "draining"
        if self.chaos is not None and self.chaos.unready():
            return "fault-window"
        return None

    def _guarded_handle(self, path: str, cookie: str,
                        deadline: Optional[float]) -> Response:
        """Executor-side handle with a deadline no-op guard: the
        ``execute`` shed stage, which only the unbatched path has."""
        if deadline is not None and time.monotonic() > deadline:
            self.admission.count_deadline_shed("execute")
            return deadline_response("execute")
        return self.app.handle(path, cookie, deadline=deadline)

    async def _respond(self, path: str, cookie: str,
                       deadline: Optional[float] = None,
                       admin: bool = False) -> Response:
        endpoint = endpoint_label(path)
        requests = self._requests.get(endpoint)
        if requests is None:
            requests = self._requests[endpoint] = self.metrics.counter(
                "repro_serve_requests_total", endpoint=endpoint)
        requests.inc()
        if not admin:
            if deadline is not None and endpoint == "/decide":
                # Shed before admission when the predicted queue wait
                # already exceeds the remaining budget: the answer
                # would come back expired, so 504 now is cheaper for
                # both sides.
                remaining = deadline - time.monotonic()
                if not self.admission.deadline_allows(remaining):
                    self.admission.shed_deadline(endpoint, "admission")
                    return deadline_response("admission",
                                             remaining * 1e3)
            if not self.admission.try_admit(endpoint):
                status, body, headers = self.admission.shed_body()
                return status, "application/json", body, None, headers
        started = time.perf_counter()
        status = 500
        try:
            if endpoint == "/healthz":
                reason = self._unready_reason()
                if reason is not None:
                    status = 503
                    body = json.dumps({"status": reason,
                                       "ready": False})
                    return status, "application/json", body, None, \
                        {"Retry-After": "1"}
            if self.chaos is not None and endpoint == "/decide":
                verdict = self.chaos.verdict()
                if verdict.delay > 0.0:
                    await asyncio.sleep(verdict.delay)
                if verdict.fail:
                    status, body, headers = self.chaos.injected_500()
                    return status, "application/json", body, None, \
                        headers
            try:
                response = await self._dispatch(endpoint, path, cookie,
                                                deadline)
            except Exception as error:   # noqa: BLE001 - boundary
                response = _internal_error(error)
            status = response[0]
            return response
        finally:
            # Admin traffic never took a slot, so it releases none --
            # and stays out of the data plane's latency histograms.
            if not admin:
                self.admission.release(endpoint,
                                       time.perf_counter() - started,
                                       status)

    async def _dispatch(self, endpoint: str, path: str, cookie: str,
                        deadline: Optional[float]) -> Response:
        if endpoint == "/statz":
            # Plain-JSON admission accounting for the supervisor's
            # elastic-capacity controller (cheaper to poll and to parse
            # than the full Prometheus rendering).
            return (200, "application/json",
                    json.dumps(self.admission.stats()), None, {})
        if endpoint == "/metrics":
            return (200, "text/plain; version=0.0.4",
                    render_prometheus(self.metrics), None, {})
        if self.batcher is not None and endpoint == "/decide":
            # Evaluated inline on the loop by the batcher's drain.
            return await self.batcher.submit(path, cookie, deadline)
        # The unbatched path keeps app.handle off the loop: a handle
        # that blocks stalls only its own request, and the admission
        # cap stays reachable.
        return await asyncio.get_running_loop().run_in_executor(
            None, self._guarded_handle, path, cookie, deadline)

    # -- response encoding -------------------------------------------------------

    async def _write_response(self, writer: asyncio.StreamWriter,
                              response: Response,
                              keep_alive: bool) -> None:
        status, content_type, body, set_cookie, headers = response
        payload = body.encode()
        head = [f"HTTP/1.1 {status} {_reason(status)}",
                f"Content-Type: {content_type}"
                + ("; charset=utf-8" if ";" not in content_type
                   else ""),
                f"Content-Length: {len(payload)}",
                "Connection: "
                + ("keep-alive" if keep_alive else "close")]
        if set_cookie:
            head.append(f"Set-Cookie: {set_cookie}")
        for name, value in headers.items():
            head.append(f"{name}: {value}")
        data = "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" \
            + payload
        if self._wedge_kind() == "admin_slowloris":
            await self._write_slowloris(writer, data)
            return
        writer.write(data)
        await writer.drain()

    async def _write_slowloris(self, writer: asyncio.StreamWriter,
                               data: bytes) -> None:
        """The slow-lorised write path: one byte, then a long pause.

        Every per-recv socket timeout on the other side is defeated by
        construction (a byte always arrives eventually); only a caller
        with a *total-time* budget -- like the supervisor's probe pass
        -- classifies this worker as dead.
        """
        spec = self.worker_chaos.wedge() \
            if self.worker_chaos is not None else None
        delay = SLOWLORIS_BYTE_DELAY * \
            (spec.severity if spec is not None else 1.0)
        for position in range(len(data)):
            writer.write(data[position:position + 1])
            await writer.drain()
            await asyncio.sleep(delay)

    async def _write_simple(self, writer: asyncio.StreamWriter,
                            status: int, detail: str,
                            keep_alive: bool) -> None:
        self.admission.reject(endpoint_label("other"),
                              reason=f"http_{status}")
        await self._write_response(
            writer,
            (status, "application/json",
             json.dumps({"error": detail}), None, {}),
            keep_alive)


# -- running the loop (CLI, tests, bench) ----------------------------------------


def run_async_server(server: AsyncOdrServer, *,
                     grace: float = 10.0,
                     install_signals: bool = True,
                     quiet: bool = False,
                     announce: bool = True,
                     on_started: Optional[Callable[[], None]] = None
                     ) -> int:
    """Run one server on a fresh event loop until SIGINT/SIGTERM.

    Returns 0 on a clean drain, 1 when requests were still in flight
    at the deadline.
    ``on_started`` fires once the ports are bound -- supervised workers
    use it to report their admin port back to the parent.
    """
    import signal

    async def main() -> bool:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        if install_signals:
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, stop.set)
                except (NotImplementedError, RuntimeError):
                    pass   # non-main thread or exotic platform
        await server.start()
        if on_started is not None:
            on_started()
        if announce and not quiet:
            print(f"ODR (async) listening on "
                  f"http://{server.host}:{server.port}/ "
                  f"(Ctrl-C or SIGTERM to stop)", flush=True)
        drained = await server.serve_until(stop, grace)
        if not drained and not quiet:
            print(f"ODR drain timed out after {grace:g}s with "
                  f"{server.inflight_requests} request(s) in flight")
        return drained

    try:
        return 0 if asyncio.run(main()) else 1
    except KeyboardInterrupt:   # pragma: no cover - interactive
        return 0


class AsyncServerThread:
    """An :class:`AsyncOdrServer` on a background thread's event loop.

    What tests, the load generator's self-tests, and the in-process
    bench harness use: ``start()`` returns once the port is bound,
    ``stop()`` drains and joins.
    """

    def __init__(self, server: AsyncOdrServer, grace: float = 10.0):
        self.server = server
        self.grace = grace
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._drained = True
        self._thread = threading.Thread(target=self._run,
                                        name="odr-async", daemon=True)

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            await self.server.start()
            self._started.set()
            self._drained = await self.server.serve_until(
                self._stop, self.grace)

        asyncio.run(main())

    def start(self, timeout: float = 5.0) -> "AsyncServerThread":
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("async server failed to start in time")
        return self

    @property
    def url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    @property
    def drained(self) -> bool:
        """Did the last drain finish with no requests in flight?"""
        return self._drained

    def stop(self, timeout: float = 10.0) -> bool:
        """Drain and join; True when the drain was clean."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout)
        return self._drained

    def __enter__(self) -> "AsyncServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
