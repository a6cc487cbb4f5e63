"""The ODR web-service facade.

The deployed ODR is "a public web service ... on a low-end virtual
machine" (section 6.1): users open the front page, paste a link, fill in
(or let the cookie recall) their auxiliary info, and read back the
suggestion.  :class:`OdrService` reproduces that request/response
surface in-process: link parsing, decision, and a human-readable
explanation.  It keeps nothing per user: the web app recalls the
cookie's fields into the :class:`UserContext` it passes in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union
from urllib.parse import urlparse

from repro.cloud.database import ContentDatabase
from repro.core.auxiliary import UserContext
from repro.core.decision import Decision
from repro.core.odr import OdrConfig, OdrMiddleware
from repro.netsim.ip import IpResolver
from repro.transfer.protocols import Protocol

_SCHEME_TO_PROTOCOL = {
    "http": Protocol.HTTP,
    "https": Protocol.HTTP,
    "ftp": Protocol.FTP,
    "magnet": Protocol.BITTORRENT,
    "bittorrent": Protocol.BITTORRENT,
    "ed2k": Protocol.EMULE,
    "emule": Protocol.EMULE,
}


def parse_link(link: str) -> tuple[Protocol, str]:
    """Extract (protocol, file identifier) from a submitted link.

    File identity is the last path component -- the synthetic catalog
    builds links as ``<scheme>://origin/<content-id>``, and real links
    carry an info-hash the same way.
    """
    parsed = urlparse(link)
    protocol = _SCHEME_TO_PROTOCOL.get(parsed.scheme.lower())
    if protocol is None:
        raise ValueError(f"unsupported link scheme {parsed.scheme!r}")
    identifier = parsed.path.rstrip("/").rsplit("/", 1)[-1] or parsed.netloc
    if not identifier:
        raise ValueError(f"cannot extract a file identifier from {link!r}")
    return protocol, identifier


@dataclass(frozen=True)
class OdrResponse:
    """What the front page renders back to the user."""

    decision: Decision
    file_id: str
    protocol: Protocol
    explanation: str


class OdrService:
    """The public entry point wrapping the registry strategy that
    ``policy`` names (:func:`repro.backends.registry.strategy_names`).

    The default, ``"odr"``, wraps :class:`OdrMiddleware`, which stays
    reachable as ``self.middleware`` for tuning the Figure-15 knobs.
    """

    def __init__(self, database: ContentDatabase,
                 resolver: Optional[IpResolver] = None,
                 config: OdrConfig = OdrConfig(),
                 policy: str = "odr"):
        self.middleware = OdrMiddleware(database, resolver=resolver,
                                        config=config)
        self.policy = policy
        from repro.backends.registry import resolve_strategy
        self.strategy = resolve_strategy(
            policy, database=database,
            middleware=self.middleware if policy == "odr" else None)
        self.requests_served = 0

    def handle_request(self, context: UserContext,
                       link: Union[str, tuple[Protocol, str]]
                       ) -> OdrResponse:
        """One user interaction: decide, explain.

        ``link`` is the submitted link, or the ``(protocol, file_id)``
        that :func:`parse_link` already made of it.
        """
        protocol, file_id = parse_link(link) if isinstance(link, str) \
            else link
        decision = self.strategy.decide(context, file_id, protocol)
        self.requests_served += 1
        return OdrResponse(
            decision=decision, file_id=file_id, protocol=protocol,
            explanation=self._render(decision))

    def handle_predownload_completion(self, context: UserContext,
                                      file_id: str,
                                      success: bool) -> OdrResponse:
        """The notification + re-ask after a cloud pre-download."""
        decision = self.strategy.decide_after_predownload(
            context, file_id, success)
        return OdrResponse(
            decision=decision, file_id=file_id,
            protocol=Protocol.HTTP,     # served from the cloud regardless
            explanation=self._render(decision))

    @staticmethod
    def _render(decision: Decision) -> str:
        addressed = ", ".join(f"Bottleneck {n}"
                              for n in decision.bottlenecks_addressed)
        suffix = f" (addresses {addressed})" if addressed else ""
        return (f"Suggested route: {decision.action.value} from "
                f"{decision.data_source.value} -- "
                f"{decision.rationale}{suffix}")
