"""The ODR web application: routing and decisions, no transport.

The paper deploys ODR as "a public web service ... on a low-end virtual
machine" (section 6.1): a front page where the user pastes a link and
her auxiliary info, and a redirection suggestion back.  This module is
that service's application layer; :mod:`repro.serve` puts it on the
wire (one asyncio loop, keep-alive, batched decisions)::

    python -m repro serve --port 8034
    curl 'localhost:8034/decide?link=magnet://origin/xyz&popularity=200\
&bandwidth_mbps=20&ap=newifi&device=usb-flash&filesystem=ntfs'

Endpoints:

* ``GET /``          -- the HTML front page with the request form;
* ``GET /decide``    -- the decision as JSON (query parameters below);
* ``GET /healthz``   -- liveness probe.

Query parameters of ``/decide``: ``link`` (required), ``popularity``
(observed weekly requests, default 0), ``cached`` (0/1),
``bandwidth_mbps``, ``isp``, ``ap``, ``device``, ``filesystem``, and
``policy`` (a registry strategy name, e.g. ``delay-aware``; default the
server's ``--policy``, normally ``odr``).

As the real ODR's cookie does, the ``odr_aux`` cookie remembers the
auxiliary info, spelled as the query spells it
(``odr_aux=bandwidth_mbps=0.5&ap=hiwifi``; see :func:`recall_aux`).  The
server keeps nothing per user, so every worker and every policy recall
a cookie alike.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http import cookies
from json.encoder import encode_basestring_ascii as _json_string
from typing import Callable, Optional
from urllib.parse import unquote, unquote_to_bytes, urlparse

import repro.ap.models as ap_models
import repro.storage.device as storage_devices
from repro.cloud.database import ContentDatabase
from repro.core.auxiliary import SmartApInfo, UserContext
from repro.core.service import OdrService, parse_link
from repro.faults.policies import ResiliencePolicies
from repro.netsim.ip import IpAllocator
from repro.netsim.isp import ISP
from repro.obs.registry import AnyRegistry, NOOP
from repro.sim.clock import mbps
from repro.storage.filesystem import Filesystem

#: (status, content-type, body, set-cookie, extra headers)
Response = tuple[int, str, str, Optional[str], dict[str, str]]

_AP_BY_NAME = {"hiwifi": ap_models.HIWIFI_1S, "miwifi": ap_models.MIWIFI,
               "newifi": ap_models.NEWIFI}
_DEVICE_BY_NAME = {"sd": storage_devices.SD_CARD_8GB,
                   "usb-flash": storage_devices.USB_FLASH_8GB,
                   "usb-hdd": storage_devices.USB_HDD_5400,
                   "sata": storage_devices.SATA_HDD_1TB}
_FILESYSTEM_BY_NAME = {fs.value: fs for fs in Filesystem}
#: The cookie that remembers the auxiliary-info fields of a query.
AUX_COOKIE = "odr_aux"
#: The fields a query without ``ap`` takes from the cookie as a unit.
_AP_FIELDS = ("ap", "device", "filesystem")

_FRONT_PAGE = """<!doctype html>
<html><head><title>ODR — Offline Downloading Redirector</title></head>
<body style="font-family: sans-serif; max-width: 42em; margin: 2em auto">
<h1>ODR — Offline Downloading Redirector</h1>
<p>Paste the link you want to download and your connection details;
ODR suggests where the download should run (cloud, smart AP, your own
device, or a combination) to dodge the four offline-downloading
bottlenecks.</p>
<form action="/decide" method="get">
  <p><label>Link:<br><input name="link" size="60"
      placeholder="magnet://... or http://..."></label></p>
  <p><label>Access bandwidth (Mbps):
      <input name="bandwidth_mbps" size="6"></label>
     <label>ISP: <select name="isp">
       <option>unicom</option><option>telecom</option>
       <option>mobile</option><option>cernet</option>
       <option>other</option></select></label></p>
  <p><label>Smart AP: <select name="ap"><option value="">none</option>
       <option>hiwifi</option><option>miwifi</option>
       <option>newifi</option></select></label>
     <label>Storage: <select name="device"><option value="">default
       </option><option>sd</option><option>usb-flash</option>
       <option>usb-hdd</option><option>sata</option></select></label>
     <label>Filesystem: <select name="filesystem">
       <option value="">default</option><option>fat</option>
       <option>ntfs</option><option>ext4</option></select></label></p>
  <p><button>Ask ODR</button> (append &format=json for the API)</p>
</form></body></html>
"""


def split_target(target: str) -> tuple[str, str]:
    """``urlparse(target)``'s path and query, ``ValueError`` included.

    An origin-form target (``/path?query``) with no fragment, no
    ``;params`` in its path and none of the tab/CR/LF characters
    ``urlsplit`` deletes is split on its first ``?``; anything else
    goes through ``urlparse`` itself.
    """
    path, _sep, query = target.partition("?")
    if path[:1] != "/" or path[1:2] == "/" or ";" in path \
            or "#" in target or "\t" in target or "\r" in target \
            or "\n" in target:
        parsed = urlparse(target)
        return parsed.path, parsed.query
    return path, query


def _unquote(text: str) -> str:
    """``unquote(text)``; ASCII text skips its split into ASCII and
    non-ASCII runs."""
    if text.isascii():
        return unquote_to_bytes(text).decode("utf-8", "replace")
    return unquote(text)


def parse_query(query: str) -> dict[str, list[str]]:
    """``urllib.parse.parse_qs(query)``: fields with a blank or missing
    value are dropped, ``+`` is a space, ``%`` escapes are decoded as
    UTF-8 with replacement."""
    fields: dict[str, list[str]] = {}
    if not query:
        return fields
    for field in query.split("&"):
        name, _sep, value = field.partition("=")
        if not value:
            continue
        if "+" in name:
            name = name.replace("+", " ")
        if "%" in name:
            name = _unquote(name)
        if "+" in value:
            value = value.replace("+", " ")
        if "%" in value:
            value = _unquote(value)
        values = fields.get(name)
        if values is None:
            fields[name] = [value]
        else:
            values.append(value)
    return fields


def _error(status: int, message: str) -> Response:
    """A JSON error response."""
    return status, "application/json", json.dumps({"error": message}), \
        None, {}


def internal_error(error: Exception) -> Response:
    """The JSON 500 for an exception that escaped a handler."""
    return 500, "application/json", json.dumps(
        {"error": "internal error",
         "detail": f"{type(error).__name__}: {error}"}), None, {}


def render_decision(action: str, data_source: str,
                    bottlenecks: tuple[int, ...], explanation: str,
                    file_id: str, protocol: str, policy: str) -> str:
    """The ``/decide`` body: byte for byte ``json.dumps(payload,
    indent=2)`` of the decision payload, built on the C string encoder
    (``indent`` would drop ``json`` to its pure-Python encoder)."""
    addressed = "[\n    " + ",\n    ".join(map(str, bottlenecks)) \
        + "\n  ]" if bottlenecks else "[]"
    return (f'{{\n  "action": {_json_string(action)},'
            f'\n  "data_source": {_json_string(data_source)},'
            f'\n  "bottlenecks_addressed": {addressed},'
            f'\n  "explanation": {_json_string(explanation)},'
            f'\n  "file_id": {_json_string(file_id)},'
            f'\n  "protocol": {_json_string(protocol)},'
            f'\n  "policy": {_json_string(policy)}\n}}')


def recall_aux(query: dict[str, list[str]], cookie_header: str
               ) -> tuple[dict[str, list[str]], str]:
    """``query`` with its gaps filled from the ``odr_aux`` cookie, and
    the cookie's value: empty when the ``Cookie:`` header has none or
    ``SimpleCookie`` cannot parse it.

    A query without ``bandwidth_mbps`` takes the cookie's; one without
    ``ap`` takes the cookie's ``ap``, ``device`` and ``filesystem``.
    """
    if not cookie_header:
        return query, ""
    cookie = cookies.SimpleCookie()
    try:
        cookie.load(cookie_header)
    except cookies.CookieError:
        return query, ""
    remembered = cookie[AUX_COOKIE].value if AUX_COOKIE in cookie else ""
    fields = parse_query(remembered)
    merged = dict(query)
    for group in (("bandwidth_mbps",), _AP_FIELDS):
        if group[0] in fields and group[0] not in query:
            for key in group:
                merged[key] = fields.get(key, [])
    return merged, remembered


def _named(first: Callable[[str], str], key: str, table: dict,
           default=None):
    """``table[first(key)]``, or ``default`` if blank; else raises."""
    name = first(key)
    if not name:
        return default
    if name not in table:
        raise ValueError(f"unknown {key} {name!r}; known: "
                         f"{', '.join(table)}")
    return table[name]


def build_context(first: Callable[[str], str], ip_address: str,
                  deadline: Optional[float] = None
                  ) -> tuple[UserContext, str]:
    """The request's :class:`UserContext` and the ``odr_aux`` value
    remembering its auxiliary info; a ``ValueError`` names the first
    invalid field.  The cookie holds ``repr`` of the bandwidth (``+``
    escaped for :func:`parse_query`), so it recalls the same float.
    """
    bandwidth = None
    remembered = []
    raw_bandwidth = first("bandwidth_mbps")
    if raw_bandwidth:
        try:
            value = float(raw_bandwidth)
        except ValueError:
            value = math.nan
        if not 0.0 < value < math.inf:
            raise ValueError("bandwidth_mbps must be a finite number > 0,"
                             f" not {raw_bandwidth!r}")
        remembered.append(f"bandwidth_mbps={value!r}".replace("+", "%2B"))
        bandwidth = mbps(value)
    smart_ap = None
    hardware = _named(first, "ap", _AP_BY_NAME)
    if hardware is not None:
        smart_ap = SmartApInfo(
            hardware, _named(first, "device", _DEVICE_BY_NAME,
                             hardware.default_device),
            _named(first, "filesystem", _FILESYSTEM_BY_NAME,
                   hardware.default_filesystem))
        remembered += [f"{key}={first(key)}" for key in _AP_FIELDS
                       if first(key)]
    # An absolute monotonic deadline becomes the remaining budget
    # at decide time; requests without one leave the field None so
    # policies keep their static defaults (and replay paths, which
    # never stamp deadlines, stay bit-identical).
    deadline_seconds = max(0.0, deadline - time.monotonic()) \
        if deadline is not None else None
    return UserContext(ip_address=ip_address,
                       access_bandwidth=bandwidth,
                       smart_ap=smart_ap,
                       deadline_seconds=deadline_seconds), \
        "&".join(remembered)


class OdrWebApp:
    """The HTTP application: routing plus the wrapped :class:`OdrService`.

    Transport-free: :class:`~repro.serve.server.AsyncOdrServer` owns the
    sockets, calls :meth:`handle_batch` on its event loop and
    :meth:`handle` on executor threads (hence ``_lock``), and tests
    drive it without sockets.
    """

    def __init__(self, database: Optional[ContentDatabase] = None,
                 policies: Optional[ResiliencePolicies] = None,
                 metrics: AnyRegistry = NOOP,
                 clock: Callable[[], float] = time.monotonic,
                 default_policy: str = "odr"):
        self.database = database or ContentDatabase()
        self.default_policy = default_policy
        self.service = OdrService(self.database, policy=default_policy)
        # One service per routing policy, all sharing the database;
        # built lazily as requests name them (?policy=...).
        self._services = {default_policy: self.service}
        self._allocator = IpAllocator()
        self._lock = threading.Lock()
        self._clock = clock
        # A circuit breaker over backend outcomes: while open, /decide
        # sheds load with 503 + Retry-After instead of hammering a
        # failing decision pipeline.
        self._breaker = policies.breaker("odr-web", metrics) \
            if policies is not None and policies.failover else None

    def _service_for(self, policy: str) -> OdrService:
        """The (lazily built) service routing with ``policy``.

        Raises ``ValueError`` for names the registry does not know --
        surfaced to the client as a 400 naming the valid set.
        """
        service = self._services.get(policy)
        if service is None:
            from repro.backends.registry import strategy_names
            if policy not in strategy_names():
                raise ValueError(
                    f"unknown policy {policy!r}; "
                    f"known: {', '.join(strategy_names())}")
            with self._lock:
                service = self._services.get(policy)
                if service is None:
                    service = OdrService(self.database, policy=policy)
                    self._services[policy] = service
        return service

    @property
    def requests_served(self) -> int:
        """Requests served across every policy's service."""
        return sum(service.requests_served
                   for service in self._services.values())

    # -- request handling --------------------------------------------------------

    def handle(self, path: str, cookie_header: str = "",
               deadline: Optional[float] = None) -> Response:
        """Process one GET; returns (status, content_type, body,
        set_cookie, extra_headers).

        ``deadline`` is the absolute ``time.monotonic()`` instant the
        serving tier parsed from ``X-Deadline-Ms``; the remaining
        budget rides into the routing policy layer via
        ``UserContext.deadline_seconds``.
        """
        return self.handle_batch([(path, cookie_header, deadline)])[0]

    def handle_batch(self, requests: list[tuple]
                     ) -> list[Response]:
        """Process many GETs coalesced into one evaluation pass.

        The serving tier (``repro.serve``) collects every ``/decide``
        request that arrives within one event-loop tick and evaluates
        them together: one breaker admission check covers the batch,
        and each request then registers and decides in order, so the
        answers equal those of :meth:`handle` called on each in turn.
        Each target is split once (:func:`split_target`) and each
        ``/decide`` query parsed once (:func:`parse_query`).

        Entries are ``(path, cookie_header)`` or ``(path,
        cookie_header, deadline)`` with the absolute monotonic deadline
        as :meth:`handle` takes it.
        """
        responses: list[Optional[Response]] = [None] * len(requests)
        decide_indices: list[int] = []
        batch: list[tuple[dict[str, list[str]], str,
                          Optional[float]]] = []
        for index, entry in enumerate(requests):
            try:
                path, query = split_target(entry[0])
            except ValueError:
                responses[index] = _error(400, "malformed request target")
                continue
            if path == "/decide":
                decide_indices.append(index)
                batch.append((parse_query(query), entry[1],
                              entry[2] if len(entry) > 2 else None))
            else:
                responses[index] = self._page(path)
        for index, response in zip(decide_indices,
                                   self._decide_batch(batch)):
            responses[index] = response
        return responses   # type: ignore[return-value]

    def _page(self, path: str) -> Response:
        """Every endpoint but ``/decide``."""
        if path in ("/", "/index.html"):
            return 200, "text/html", _FRONT_PAGE, None, {}
        if path == "/healthz":
            return 200, "application/json", json.dumps(
                {"status": "ok",
                 "requests_served": self.requests_served}), \
                None, {}
        return _error(404, f"no such endpoint {path!r}")

    def _shed_response(self, now: float) -> Optional[Response]:
        """The 503 while the breaker is open, or None when admitted."""
        if self._breaker is None or self._breaker.allow(now):
            return None
        retry_after = max(
            1, math.ceil(self._breaker.retry_after(now)))
        return 503, "application/json", json.dumps(
            {"error": "decision backend unavailable",
             "detail": "circuit breaker open; retry later",
             "retry_after_seconds": retry_after}), \
            None, {"Retry-After": str(retry_after)}

    def _decide_batch(self, items: list[tuple[dict[str, list[str]],
                                              str, Optional[float]]]
                      ) -> list[Response]:
        """Evaluate a batch of ``/decide`` queries in one pass.

        One breaker admission check and one clock read cover the whole
        batch.  Each request is then parsed and validated (400s early),
        registered under ``self._lock`` (IP allocation plus the
        popularity and cached flag that seed the database) and decided,
        in order, so a batch answers exactly as its requests would one
        by one.
        """
        responses: list[Optional[Response]] = [None] * len(items)
        now = self._clock()
        shed = self._shed_response(now) if items else None
        for index, (query, cookie_header, deadline) in enumerate(items):
            query, received = recall_aux(query, cookie_header)

            def first(key: str, default: str = "",
                      _query=query) -> str:
                values = _query.get(key)
                return values[0] if values else default

            link = first("link")
            if not link:
                responses[index] = _error(
                    400, "missing required parameter 'link'")
                continue
            if shed is not None:
                responses[index] = shed
                continue
            try:
                isp = ISP(first("isp", "unicom"))
                parsed_link = parse_link(link)
                popularity = int(first("popularity", "0") or 0)
                service = self._service_for(
                    first("policy", self.default_policy))
            except ValueError as error:
                responses[index] = _error(400, str(error))
                continue
            cached = first("cached", "0") in ("1", "true", "yes")

            # The real ODR queries Xuanfeng's live DB; here the request
            # seeds the database just before its own decision.
            file_id = parsed_link[1]
            with self._lock:
                address = self._allocator.allocate(isp)
                row = self.database.row(file_id, size=0.0)
                if row.request_count < popularity:
                    row.request_count = popularity
                self.database.set_cached(file_id, cached)

            try:
                context, remembered = build_context(
                    first, address, deadline)
                # The parsed link, so the service does not parse again.
                response = service.handle_request(context, parsed_link)
            except (ValueError, KeyError) as error:
                # Malformed input is the client's fault: it must not
                # trip the breaker or tear anything down.
                responses[index] = _error(400, str(error))
                continue
            except Exception as error:   # noqa: BLE001 - boundary handler
                # A backend bug used to propagate out of handle() and
                # kill the request thread mid-response; degrade to a
                # structured 500 and feed the breaker instead.
                if self._breaker is not None:
                    self._breaker.record(False, self._clock())
                responses[index] = internal_error(error)
                continue

            if self._breaker is not None:
                self._breaker.record(True, self._clock())
            set_cookie = f"{AUX_COOKIE}={remembered}; Path=/" \
                if remembered != received else None
            decision = response.decision
            responses[index] = 200, "application/json", render_decision(
                decision.action.value, decision.data_source.value,
                decision.bottlenecks_addressed, response.explanation,
                response.file_id, response.protocol.value,
                service.policy), set_cookie, {}
        return responses   # type: ignore[return-value]
