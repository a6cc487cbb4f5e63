"""AS-level topology and the ISP barrier.

China's inter-domain structure is modelled as a small graph of giant
per-ISP ASes (paper section 2.1, citing Tian et al.): every ISP is a
single node, intra-ISP paths ride the ISP's own backbone, and inter-ISP
paths traverse congested peering links -- the "ISP barrier" that degrades
cross-ISP delivery.

:class:`ChinaTopology` exposes a single question the rest of the system
asks: *what does the path between ISP A and ISP B support?*  The answer,
a :class:`PathQuality`, carries a bandwidth cap distribution and a
latency.  Caps are sampled per-flow (peering congestion varies), which is
what makes the measured cross-ISP fetch speeds a distribution rather than
a constant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.netsim.isp import ISP, IspRegistry, default_registry
from repro.sim.clock import kbps, mbps


@dataclass(frozen=True)
class PathQuality:
    """Capability of a network path between two ISP-homed endpoints.

    ``cap_median``/``cap_sigma`` parameterise a lognormal per-flow
    bandwidth cap; ``latency_ms`` is the one-way propagation latency.
    """

    cap_median: float
    cap_sigma: float
    latency_ms: float
    hops: int

    def sample_cap(self, rng: np.random.Generator) -> float:
        """Draw this path's bandwidth cap for one flow, in B/s."""
        return float(self.cap_median *
                     np.exp(rng.normal(0.0, self.cap_sigma)))


# Calibration notes:
#  * intra-ISP backbone paths are effectively unconstrained relative to
#    access links (median 12 MBps per flow);
#  * cross-ISP peering paths are the barrier: median ~90 KBps with high
#    variance, so most cross-ISP flows fall below the 125 KBps HD-video
#    threshold the paper uses to define an "impeded" fetch (section 4.2).
_INTRA_CAP_MEDIAN = mbps(96.0)
_INTRA_CAP_SIGMA = 0.35
_CROSS_CAP_MEDIAN = kbps(90.0)
_CROSS_CAP_SIGMA = 0.60
_INTRA_LATENCY_MS = 18.0
_CROSS_LATENCY_MS = 55.0


def _bfs_hops(graph: dict[ISP, frozenset[ISP]], src: ISP) -> dict[ISP, int]:
    """Hop count from ``src`` to every ISP reachable from it."""
    hops = {src: 0}
    frontier = deque([src])
    while frontier:
        node = frontier.popleft()
        for peer in graph[node]:
            if peer not in hops:
                hops[peer] = hops[node] + 1
                frontier.append(peer)
    return hops


class ChinaTopology:
    """The per-ISP AS mesh with peering-quality annotations."""

    def __init__(self, registry: Optional[IspRegistry] = None,
                 cross_cap_median: float = _CROSS_CAP_MEDIAN,
                 cross_cap_sigma: float = _CROSS_CAP_SIGMA,
                 intra_cap_median: float = _INTRA_CAP_MEDIAN,
                 intra_cap_sigma: float = _INTRA_CAP_SIGMA):
        self._registry = registry or default_registry()
        self._cross_cap_median = cross_cap_median
        self._cross_cap_sigma = cross_cap_sigma
        self._intra_cap_median = intra_cap_median
        self._intra_cap_sigma = intra_cap_sigma
        self._graph = self._build_graph()
        # The mesh is immutable and has a handful of nodes: every hop
        # count is known up front, and path qualities are memoised per
        # (src, dst) pair.
        self._hops = {(src, dst): hops for src in self._graph
                      for dst, hops in _bfs_hops(self._graph, src).items()}
        self._quality_cache: dict[tuple[ISP, ISP], PathQuality] = {}

    def _build_graph(self) -> dict[ISP, frozenset[ISP]]:
        isps = self._registry.isps()
        # Full peering mesh among the giants: China's majors interconnect
        # directly (through national exchange points), and the long-tail
        # "other" ISPs buy transit from Telecom and Unicom.
        majors = [isp for isp in isps if self._registry.is_major(isp)]
        links = [(a, b) for index, a in enumerate(majors)
                 for b in majors[index + 1:]]
        if ISP.OTHER in isps:
            links += [(ISP.OTHER, ISP.TELECOM), (ISP.OTHER, ISP.UNICOM)]
        peers: dict[ISP, set[ISP]] = {isp: set() for isp in isps}
        for a, b in links:
            peers[a].add(b)
            peers[b].add(a)
        return {isp: frozenset(near) for isp, near in peers.items()}

    @property
    def graph(self) -> dict[ISP, frozenset[ISP]]:
        """The mesh as an adjacency map: each ISP's directly peered
        (or transit-connected) ISPs."""
        return self._graph

    def hop_count(self, src: ISP, dst: ISP) -> int:
        """AS hops between two ISPs (0 when homed in the same ISP)."""
        if src == dst:
            return 0
        return self._hops[src, dst]

    def path_quality(self, src: ISP, dst: ISP) -> PathQuality:
        """Quality of the best path between endpoints homed at two ISPs."""
        key = (src, dst)
        quality = self._quality_cache.get(key)
        if quality is not None:
            return quality
        quality = self._compute_path_quality(src, dst)
        self._quality_cache[key] = quality
        return quality

    def _compute_path_quality(self, src: ISP, dst: ISP) -> PathQuality:
        hops = self.hop_count(src, dst)
        if hops == 0:
            return PathQuality(cap_median=self._intra_cap_median,
                               cap_sigma=self._intra_cap_sigma,
                               latency_ms=_INTRA_LATENCY_MS, hops=0)
        # Every additional AS hop crosses one more congested peering point;
        # the cap shrinks geometrically and latency grows additively.
        cap = self._cross_cap_median / (2.0 ** (hops - 1))
        latency = _INTRA_LATENCY_MS + hops * _CROSS_LATENCY_MS
        return PathQuality(cap_median=cap, cap_sigma=self._cross_cap_sigma,
                           latency_ms=latency, hops=hops)

    def crosses_barrier(self, src: ISP, dst: ISP) -> bool:
        """True when a flow between the two ISPs crosses the ISP barrier."""
        return src != dst
