"""Original data sources: P2P swarms and HTTP/FTP origin servers.

A :class:`ContentSource` answers one question per download attempt: *is
the content obtainable right now, and at what sustainable rate?*  The
answer (:class:`AttemptDraw`) feeds the download-session machinery, which
applies the downloader's own caps (access link, storage write path) and
the stagnation-timeout failure rule.

Failure causes mirror the paper's section 5.2 post-mortem of smart-AP
failures: 86% insufficient seeds, 10% poor HTTP/FTP connections (the
server "failed to maintain a persistent/resumable download"), 4% system
bugs (the bug part belongs to the AP model, not to sources).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.sim.clock import kbps, mbps
from repro.transfer.protocols import Protocol
from repro.transfer.swarm import Swarm, SwarmModel

#: Failure-cause labels recorded in traces (stable strings, not enums, so
#: they serialise naturally into JSONL trace files).
CAUSE_INSUFFICIENT_SEEDS = "insufficient_seeds"
CAUSE_POOR_SERVER = "poor_server_connection"
CAUSE_SYSTEM_BUG = "system_bug"


@dataclass(frozen=True)
class DownloadVantage:
    """Where a download attempt runs from.

    ``seed_reach`` is the per-seed connection success probability for P2P
    (public, well-peered cloud pre-downloaders reach nearly everything; a
    NAT-ed home AP much less), and ``server_resume_bonus`` scales down the
    chance of losing an HTTP/FTP download (the cloud retries across
    vantage machines, a lone AP cannot).
    """

    label: str
    seed_reach: float
    server_resume_bonus: float = 1.0
    #: Scales the chance of dying mid-transfer: a multi-homed cloud VM
    #: re-peers and resumes far better than a lone client behind NAT.
    churn_resilience: float = 1.0


#: A Xuanfeng pre-downloader VM: public IP, datacenter peering.
CLOUD_VANTAGE = DownloadVantage("cloud", seed_reach=0.85,
                                server_resume_bonus=0.55,
                                churn_resilience=0.50)
#: A smart AP (or a user PC) on a residential line behind NAT.
HOME_VANTAGE = DownloadVantage("home", seed_reach=0.47,
                               server_resume_bonus=1.0,
                               churn_resilience=1.0)


@dataclass
class AttemptDraw:
    """Outcome of probing a source once at the start of an attempt.

    ``mid_failure_probability`` is the chance the source dies partway
    through the transfer (all reachable seeds churn out, or the server
    drops a non-resumable connection); the session model consumes it.
    """

    available: bool
    rate: float
    failure_cause: Optional[str] = None
    mid_failure_probability: float = 0.0
    #: Seeds the swarm reported at probe time (P2P sources only); surfaced
    #: so instrumented sessions can export swarm-health distributions.
    seed_count: Optional[int] = None

    def __post_init__(self):
        if self.available and self.rate <= 0:
            raise ValueError("available draw must carry a positive rate")
        if not self.available and self.failure_cause is None:
            raise ValueError("unavailable draw must carry a failure cause")
        if not 0.0 <= self.mid_failure_probability <= 1.0:
            raise ValueError("mid_failure_probability must be in [0, 1]")


class ContentSource:
    """Abstract source of one file's bytes."""

    protocol: Protocol

    def draw_attempt(self, rng: np.random.Generator,
                     vantage: DownloadVantage) -> AttemptDraw:
        raise NotImplementedError


class P2PSwarmSource(ContentSource):
    """A BitTorrent or eMule swarm as the data source."""

    def __init__(self, swarm: Swarm, protocol: Protocol = Protocol.BITTORRENT):
        if not protocol.is_p2p:
            raise ValueError(f"{protocol} is not a P2P protocol")
        self.swarm = swarm
        self.protocol = protocol

    def draw_attempt(self, rng: np.random.Generator,
                     vantage: DownloadVantage) -> AttemptDraw:
        seeds = self.swarm.sample_seed_count(rng)
        reachable = self.swarm.reachable_seeds(seeds, vantage.seed_reach, rng)
        if reachable == 0:
            return AttemptDraw(available=False, rate=0.0,
                               failure_cause=CAUSE_INSUFFICIENT_SEEDS,
                               seed_count=seeds)
        # Thin swarms also die mid-download: losing the last reachable
        # seed strands the transfer short of completion.
        churn = 0.30 * float(np.exp(-(reachable - 1) / 2.5))
        return AttemptDraw(
            available=True,
            rate=self.swarm.sample_rate(reachable, rng),
            mid_failure_probability=churn * vantage.churn_resilience,
            seed_count=seeds)


class HttpFtpSource(ContentSource):
    """An HTTP or FTP origin server as the data source.

    ``drop_probability`` is the chance the server fails to sustain a
    persistent/resumable download for a whole attempt; the cloud's
    ``server_resume_bonus`` (retrying from several machines) scales it
    down.  Rates are lognormal: origin servers are stabler than swarms
    but far from uniform.
    """

    def __init__(self, protocol: Protocol = Protocol.HTTP,
                 drop_probability: float = 0.12,
                 rate_median: float = kbps(110.0),
                 rate_sigma: float = 0.95,
                 rate_cap: float = mbps(40.0)):
        if protocol.is_p2p:
            raise ValueError(f"{protocol} is not a client-server protocol")
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be a probability")
        self.protocol = protocol
        self.drop_probability = drop_probability
        self.rate_median = rate_median
        self.rate_sigma = rate_sigma
        self.rate_cap = rate_cap

    def draw_attempt(self, rng: np.random.Generator,
                     vantage: DownloadVantage) -> AttemptDraw:
        effective_drop = self.drop_probability * vantage.server_resume_bonus
        if rng.random() < effective_drop:
            return AttemptDraw(available=False, rate=0.0,
                               failure_cause=CAUSE_POOR_SERVER)
        # ``sigma * z`` is ``rng.normal(0.0, sigma)`` exactly: numpy
        # computes ``0.0 + sigma * z`` from the same draw, which differs
        # only in the sign of a zero (exp maps both to 1.0).
        rate = self.rate_median * float(np.exp(
            self.rate_sigma * rng.standard_normal()))
        return AttemptDraw(
            available=True, rate=min(rate, self.rate_cap),
            mid_failure_probability=0.25 * effective_drop)


@dataclass
class SourceModel:
    """Factory that builds the source object for a catalogued file.

    The popularity coupling is the heart of the reproduction: P2P sources
    inherit the file's weekly demand through the swarm model, and origin
    servers hosting popular content are modestly more reliable (popular
    content sits on better-run servers and mirrors).
    """

    swarm_model: SwarmModel = field(default_factory=SwarmModel)
    http_drop_base: float = 0.22
    http_drop_popularity_scale: float = 35.0
    http_drop_floor: float = 0.05
    http_rate_median: float = kbps(110.0)
    http_rate_sigma: float = 0.95

    def server_drop_probability(self, weekly_demand: float) -> float:
        """Drop probability decaying with demand towards a floor."""
        decay = float(np.exp(-weekly_demand / self.http_drop_popularity_scale))
        return self.http_drop_floor + \
            (self.http_drop_base - self.http_drop_floor) * decay

    def build(self, file_id: str, protocol: Protocol,
              weekly_demand: float) -> ContentSource:
        if protocol.is_p2p:
            swarm = Swarm(file_id, weekly_demand, model=self.swarm_model)
            return P2PSwarmSource(swarm, protocol=protocol)
        return HttpFtpSource(
            protocol=protocol,
            drop_probability=self.server_drop_probability(weekly_demand),
            rate_median=self.http_rate_median,
            rate_sigma=self.http_rate_sigma)
