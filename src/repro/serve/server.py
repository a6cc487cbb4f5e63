"""The asyncio ODR serving tier.

One event loop, keep-alive connections, and no thread or coroutine per
request.  The request path is::

    Connection (asyncio.Protocol) -> admission control -> chaos gate
        -> same-tick batcher -> OdrWebApp.handle_batch

* **Connections** -- one :class:`asyncio.Protocol` class serves the
  data and the admin listener.  It buffers bytes, cuts request heads
  at the blank line (a head over :data:`MAX_REQUEST_BYTES` is answered
  ``431``), keeps one request in flight so pipelined requests are
  answered in order, and writes each response with ``transport.write``
  from the request's completion callback.  HTTP/1.1 keep-alive means a
  load generator's session pool pays the TCP handshake once per worker,
  not once per request.  Flow control: while the peer does not read,
  ``pause_writing`` stops the connection from starting requests, and a
  full input buffer pauses reading, so neither side grows without
  bound.
* **Bounded admission** -- :class:`~repro.serve.admission.
  AdmissionController` caps in-flight requests; the excess is shed with
  ``503 + Retry-After`` derived from the EWMA service time.  The
  application-level circuit breaker (PR 4) still guards the decision
  backend underneath.
* **Batched evaluation** -- ``/decide`` requests arriving in the same
  loop tick are coalesced into one
  :meth:`~repro.core.webapp.OdrWebApp.handle_batch` pass (one breaker
  check for the batch), evaluated inline on the loop.
  Unbatched work -- other app endpoints, and every ``/decide`` with
  ``batch=False`` -- runs on the default executor and answers from the
  executor future's done callback.
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
from repro.core.webapp import OdrWebApp, Response, internal_error
from repro.faults.policies import ResiliencePolicies
from repro.obs.exporters import render_prometheus
from repro.obs.instruments import Counter
from repro.obs.registry import NOOP, AnyRegistry
from repro.serve.admission import DEFAULT_MAX_INFLIGHT, \
    AdmissionController, deadline_response
from repro.serve.batching import Done, DecisionBatcher, resolver
from repro.serve.chaos import BLACKHOLE_HANG, SLOWLORIS_BYTE_DELAY, \
    ServeChaos, WorkerChaos

#: Cap on one request head (request line + headers); also how much
#: unanswered input a connection buffers before it stops reading.
MAX_REQUEST_BYTES = 32 * 1024

#: Endpoints with their own metric label; anything else is "other".
KNOWN_ENDPOINTS = ("/decide", "/healthz", "/metrics", "/statz", "/")

_REASONS = {status.value: status.phrase for status in HTTPStatus}


def endpoint_label(path: str) -> str:
    bare = path.split("?", 1)[0]
    if bare in ("", "/", "/index.html"):
        return "/"
    return bare if bare in KNOWN_ENDPOINTS else "other"


def encode_response(response: Response, keep_alive: bool) -> bytes:
    """The wire bytes of one response: status line, headers, body."""
    status, content_type, body, set_cookie, headers = response
    payload = body.encode()
    if ";" not in content_type:
        content_type += "; charset=utf-8"
    head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n")
    if set_cookie:
        head += f"Set-Cookie: {set_cookie}\r\n"
    for name, value in headers.items():
        head += f"{name}: {value}\r\n"
    return (head + "\r\n").encode("latin-1") + payload


def parse_head(head: bytes
               ) -> Optional[tuple[str, str, str, bool, Optional[float]]]:
    """(method, path, cookie header, keep-alive, deadline budget in ms)
    of one request head, or None when the request line is
    unparseable."""
    lines = head.decode("latin-1").split("\r\n")
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


class Connection(asyncio.Protocol):
    """One client connection, on the data or the admin listener.

    At most one request is in flight: the next head in the buffer is
    cut only after the previous response was written, so pipelined
    requests are answered in order.  The process-state wedges of
    :class:`~repro.serve.chaos.WorkerChaos` act here, on every
    listener: ``probe_blackhole`` parks the connection unanswered,
    ``conn_reset`` aborts it once a head is read, and
    ``admin_slowloris`` dribbles each response a byte at a time.
    """

    def __init__(self, server: "AsyncOdrServer", admin: bool = False):
        self.server = server
        self.admin = admin
        self.transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        #: A request is in flight (or its response is still dribbling).
        self._busy = False
        #: The in-flight request counts in ``server.inflight_requests``.
        self._counted = False
        self._keep_alive = True
        self._eof = False
        self._pumping = False
        self._write_paused = False
        self._reading_paused = False
        self._parked = False
        self._timer: Optional[asyncio.TimerHandle] = None

    # -- asyncio.Protocol --------------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport   # type: ignore[assignment]
        self.server._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server._connections.discard(self)
        self.transport = None
        if self._timer is not None:
            self._timer.cancel()

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        if self._busy:
            self._limit_reading()
        else:
            self._pump()

    def eof_received(self) -> bool:
        # Half-closed by the peer: answer what is buffered, then close.
        self._eof = True
        if not self._busy:
            self._pump()
        return True

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        if not self._busy:
            self._pump()

    # -- requests ----------------------------------------------------------------

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()

    def abort(self) -> None:
        if self.transport is not None:
            self.transport.abort()

    def _pump(self) -> None:
        """Start buffered requests while the connection is free.

        A response that completes synchronously re-enters here through
        :meth:`_sent`; the flag turns that into the next loop
        iteration instead of a nested call.
        """
        if self._pumping:
            return
        self._pumping = True
        try:
            while not self._busy and not self._write_paused \
                    and self.transport is not None \
                    and not self.transport.is_closing() \
                    and self._next_request():
                pass
        finally:
            self._pumping = False
        self._limit_reading()

    def _limit_reading(self) -> None:
        """Stop reading while a full head's worth of input waits."""
        if self.transport is None or self._parked:
            return
        full = len(self._buffer) > MAX_REQUEST_BYTES
        if full != self._reading_paused:
            self._reading_paused = full
            if full:
                self.transport.pause_reading()
            else:
                self.transport.resume_reading()

    def _next_request(self) -> bool:
        """Cut and start the next buffered request; False when there
        is none to start (need more bytes, or the connection is done)."""
        server = self.server
        if server._draining:
            self.transport.close()
            return False
        buffer = self._buffer
        end = buffer.find(b"\r\n\r\n")
        if end < 0 or end > MAX_REQUEST_BYTES:
            if end >= 0 or len(buffer) > MAX_REQUEST_BYTES:
                self._reply_error(431, "request head too large", False)
            elif self._eof:
                self.transport.close()
            return False
        wedge = server._wedge_kind()
        if wedge == "probe_blackhole":
            # A hung process: the kernel backlog keeps accepting, but
            # nothing is ever read or answered -- on the data port and
            # the admin port alike.  Park the connection; only a
            # supervisor restart ends this.  A parked connection stays
            # busy, so nothing starts another request on it.
            self._parked = self._busy = True
            self.transport.pause_reading()
            self._timer = asyncio.get_running_loop().call_later(
                BLACKHOLE_HANG, self.close)
            return False
        request = parse_head(buffer[:end])
        del buffer[:end + 4]
        if request is None:
            self._reply_error(400, "malformed request", False)
            return False
        method, path, cookie, keep_alive, deadline_ms = request
        if wedge == "conn_reset":
            # Corrupted socket state: the request was read, then the
            # connection dies with a reset mid-request.  Probes see it
            # too -- which is how the supervisor notices.
            self.transport.abort()
            return False
        if method != "GET":
            self._reply_error(405, f"method {method} not allowed",
                              keep_alive)
            return True
        deadline = time.monotonic() + deadline_ms / 1e3 \
            if deadline_ms is not None else None
        self._busy = self._counted = True
        self._keep_alive = keep_alive
        server._handling += 1
        server._serve(path, cookie, deadline, self.admin, self._send)
        return True

    def _reply_error(self, status: int, detail: str,
                     keep_alive: bool) -> None:
        """Answer a request the server could not route."""
        self.server.admission.reject(endpoint_label("other"),
                                     reason=f"http_{status}")
        self._busy = True
        self._keep_alive = keep_alive
        self._send((status, "application/json",
                    json.dumps({"error": detail}), None, {}))

    def _send(self, response: Response) -> None:
        """Write the in-flight request's response (its completion
        callback)."""
        if self.transport is None:   # the client went away meanwhile
            self._sent()
            return
        server = self.server
        self._keep_alive = self._keep_alive and not server._draining
        data = encode_response(response, self._keep_alive)
        wedge = server.worker_chaos.wedge() \
            if server.worker_chaos is not None else None
        if wedge is not None and wedge.kind == "admin_slowloris":
            self._dribble(data, 0, SLOWLORIS_BYTE_DELAY * wedge.severity)
            return
        self.transport.write(data)
        self._sent()

    def _dribble(self, data: bytes, position: int,
                 delay: float) -> None:
        """The slow-lorised write path: one byte, then a long pause.

        Every per-recv socket timeout on the other side is defeated by
        construction (a byte always arrives eventually); only a caller
        with a *total-time* budget -- like the supervisor's probe pass
        -- classifies this worker as dead.
        """
        if self.transport is None or position == len(data):
            self._timer = None
            self._sent()
            return
        self.transport.write(data[position:position + 1])
        self._timer = asyncio.get_running_loop().call_later(
            delay, self._dribble, data, position + 1, delay)

    def _sent(self) -> None:
        if self._counted:
            self._counted = False
            self.server._handling -= 1
        self._busy = False
        if self.transport is None:
            return
        if not self._keep_alive:
            self.transport.close()
            return
        self._pump()


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
        self._connections: set[Connection] = set()
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
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: Connection(self), sock=sock)
        if self._requested_admin_port is not None:
            # The admin listener is a control plane: its probes bypass
            # data-plane admission (see _serve), so a saturated worker
            # still answers /healthz and serves /statz -- which is
            # exactly when the supervisor most needs both.
            self._admin_server = await loop.create_server(
                lambda: Connection(self, admin=True),
                host=self.host, port=self._requested_admin_port)
            self.admin_port = \
                self._admin_server.sockets[0].getsockname()[1]

    @property
    def inflight_requests(self) -> int:
        return self._handling

    @property
    def connections(self) -> int:
        return len(self._connections)

    async def drain(self, grace: float = 10.0) -> bool:
        """Stop accepting, wait out in-flight requests, close idle
        connections.  True when everything finished within ``grace``."""
        self._draining = True
        listeners = [listener for listener
                     in (self._server, self._admin_server)
                     if listener is not None]
        for listener in listeners:
            listener.close()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + grace
        while self._handling > 0 and loop.time() < deadline:
            await asyncio.sleep(0.005)
        drained = self._handling == 0
        # Idle keep-alive connections wait for a next request; close
        # them, let the writes flush for a moment, then cut whatever a
        # peer that stopped reading still holds open.
        for connection in list(self._connections):
            connection.close()
        deadline = loop.time() + 1.0
        while self._connections and loop.time() < deadline:
            await asyncio.sleep(0.005)
        for connection in list(self._connections):
            connection.abort()
        for listener in listeners:
            await listener.wait_closed()
        return drained

    async def serve_until(self, stop: asyncio.Event,
                          grace: float = 10.0) -> bool:
        """Run until ``stop`` is set, then drain; True on clean drain."""
        if self._server is None:
            await self.start()
        await stop.wait()
        return await self.drain(grace)

    def _wedge_kind(self) -> Optional[str]:
        """The process-state fault this worker carries, or None."""
        if self.worker_chaos is None:
            return None
        spec = self.worker_chaos.wedge()
        return spec.kind if spec is not None else None

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
        """:meth:`_serve` as an awaitable, for callers that hold no
        connection."""
        future = asyncio.get_running_loop().create_future()
        self._serve(path, cookie, deadline, admin, resolver(future))
        return await future

    def _serve(self, path: str, cookie: str, deadline: Optional[float],
               admin: bool, done: Done) -> None:
        """Count, admit and answer one request; ``done`` receives the
        Response, now or from a later loop callback."""
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
                    done(deadline_response("admission", remaining * 1e3))
                    return
            if not self.admission.try_admit(endpoint):
                status, body, headers = self.admission.shed_body()
                done((status, "application/json", body, None, headers))
                return
            # Admin traffic never took a slot, so it releases none --
            # and stays out of the data plane's latency histograms.
            done = self._releasing(endpoint, done)
        fail = False
        if self.chaos is not None and endpoint == "/decide":
            verdict = self.chaos.verdict()
            if verdict.delay > 0.0:
                asyncio.get_running_loop().call_later(
                    verdict.delay, self._run, endpoint, path, cookie,
                    deadline, done, verdict.fail)
                return
            fail = verdict.fail
        self._run(endpoint, path, cookie, deadline, done, fail)

    def _releasing(self, endpoint: str, done: Done) -> Done:
        """``done`` that first frees the admission slot taken now."""
        started = time.perf_counter()
        release = self.admission.release

        def answer(response: Response) -> None:
            release(endpoint, time.perf_counter() - started, response[0])
            done(response)

        return answer

    def _run(self, endpoint: str, path: str, cookie: str,
             deadline: Optional[float], done: Done, fail: bool) -> None:
        if fail:
            status, body, headers = self.chaos.injected_500()
            response: Optional[Response] = (
                status, "application/json", body, None, headers)
        else:
            try:
                response = self._dispatch(endpoint, path, cookie,
                                          deadline, done)
            except Exception as error:   # noqa: BLE001 - boundary
                response = internal_error(error)
        if response is not None:
            done(response)

    def _dispatch(self, endpoint: str, path: str, cookie: str,
                  deadline: Optional[float], done: Done
                  ) -> Optional[Response]:
        """The Response now, or None once ``done`` is handed to the
        batcher or an executor future."""
        if endpoint == "/healthz":
            reason = self._unready_reason()
            if reason is not None:
                return 503, "application/json", json.dumps(
                    {"status": reason, "ready": False}), None, \
                    {"Retry-After": "1"}
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
            self.batcher.enqueue(path, cookie, deadline, done)
            return None
        # The unbatched path keeps app.handle off the loop: a handle
        # that blocks stalls only its own request, and the admission
        # cap stays reachable.
        future = asyncio.get_running_loop().run_in_executor(
            None, self._guarded_handle, path, cookie, deadline)
        future.add_done_callback(
            lambda finished: done(_outcome(finished)))
        return None


def _outcome(future: "asyncio.Future[Response]") -> Response:
    """An executor future's Response, or the JSON 500 of its error."""
    error = future.exception()
    return internal_error(error) if error is not None \
        else future.result()


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
