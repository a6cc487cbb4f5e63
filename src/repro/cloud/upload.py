"""Uploading servers and privileged network paths.

Xuanfeng deploys uploading-server groups inside the four major ISPs and
always tries to serve a fetch from the user's own ISP, dodging the ISP
barrier (paper section 2.1).  Construction fails when (1) the user is
outside the four majors, or (2) the home group's upload bandwidth is
exhausted; either way an alternative group with the lowest latency to
the user is used -- crossing the barrier.  When *every* group is
exhausted the fetch request is rejected outright rather than degrading
active flows.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from repro.netsim.isp import ISP, MAJOR_ISPS
from repro.netsim.topology import ChinaTopology, PathQuality
from repro.sim.clock import kbps
from repro.sim.resources import ReservationPool
from repro.cloud.config import CloudConfig

#: A reservation below this rate is pointless to admit (the flow would be
#: unusable); used as the headroom test during group selection.
MIN_USEFUL_RATE = kbps(16.0)


class PathChoice(NamedTuple):
    """The outcome of privileged-path construction for one fetch.

    One instance exists per (server group, user ISP) pair, built with
    the pair's :class:`AdmissionRow` and shared by every fetch that the
    pair admits.
    """

    server_isp: ISP
    privileged: bool            # same-ISP, no barrier crossed
    quality: PathQuality


#: One server group as seen from one user ISP, in the order admission
#: unpacks it: the group's pool, the committed-rate threshold above
#: which it admits nothing more (the home limit on the privileged path,
#: the overflow limit otherwise, in absolute B/s), the group's label,
#: the path quality to the user, and the shared :class:`PathChoice` an
#: admission there returns.
Group = tuple[ReservationPool, float, str, PathQuality, PathChoice]


class AdmissionRow(NamedTuple):
    """Everything fetch admission needs about a user's ISP, resolved once.

    Path qualities, thresholds and latency tiers are static topology and
    config facts, so only pool headroom is read at admission time.  A
    task machine resolves one row per user when it is built; the
    per-fetch path then never hashes an :class:`ISP` member.
    """

    label: str                  # the user ISP's ``value``
    #: The privileged home group; ``None`` outside the four majors and
    #: under the ISP-blind ablation.
    home: Optional[Group]
    #: The non-home groups, grouped by ascending latency to the user.
    #: Within a tier they keep :data:`MAJOR_ISPS` order.
    tiers: tuple[tuple[Group, ...], ...]
    #: Every major group, in :data:`MAJOR_ISPS` order.
    groups: tuple[Group, ...]


def _most_headroom(tier: tuple[Group, ...]) -> Group:
    """The group of a latency tier with the most headroom; the strict
    ``>`` keeps the first of exact ties (a stable sort's choice)."""
    best = tier[0]
    if len(tier) > 1:
        pool = best[0]
        best_headroom = pool.capacity - pool.committed
        for group in tier[1:]:
            pool = group[0]
            headroom = pool.capacity - pool.committed
            if headroom > best_headroom:
                best, best_headroom = group, headroom
    return best


def _negative_headroom(group: Group) -> float:
    return -group[0].available


def _by_headroom(groups) -> list[Group]:
    """Groups ordered by descending headroom, stable among equals."""
    return sorted(groups, key=_negative_headroom)


class UploadingServers:
    """The per-ISP uploading-server groups and their admission logic."""

    def __init__(self, config: CloudConfig,
                 topology: Optional[ChinaTopology] = None):
        self.config = config
        self.topology = topology or ChinaTopology()
        self.pools: dict[ISP, ReservationPool] = {
            isp: ReservationPool(config.upload_capacity_of(isp),
                                 name=f"upload-{isp.value}")
            for isp in MAJOR_ISPS
        }
        self.rejected_fetches = 0
        self.total_fetches = 0
        self._max_fetch_rate = config.max_fetch_rate
        self._rows: dict[ISP, AdmissionRow] = {}

    # -- selection -------------------------------------------------------------

    def admission_row(self, user_isp: ISP) -> AdmissionRow:
        """The (cached) admission row of users homed in ``user_isp``."""
        row = self._rows.get(user_isp)
        if row is None:
            row = self._rows[user_isp] = self._build_row(user_isp)
        return row

    def _build_row(self, user_isp: ISP) -> AdmissionRow:
        config = self.config
        topology = self.topology
        groups: dict[ISP, Group] = {}
        for isp in MAJOR_ISPS:
            pool = self.pools[isp]
            privileged = isp is user_isp
            limit = config.admission_utilization_limit if privileged \
                else config.overflow_utilization_limit
            quality = topology.path_quality(isp, user_isp)
            groups[isp] = (pool, pool.capacity * limit, isp.value, quality,
                           PathChoice(isp, privileged, quality))
        ranked = sorted(
            ((groups[isp][3].latency_ms, isp)
             for isp in MAJOR_ISPS if isp is not user_isp),
            key=lambda pair: pair[0])
        tiers: list[list[Group]] = []
        last_latency: Optional[float] = None
        for latency, isp in ranked:
            if latency != last_latency:
                tiers.append([groups[isp]])
                last_latency = latency
            else:
                tiers[-1].append(groups[isp])
        home = groups.get(user_isp) if config.privileged_paths else None
        return AdmissionRow(user_isp.value, home,
                            tuple(tuple(tier) for tier in tiers),
                            tuple(groups[isp] for isp in MAJOR_ISPS))

    def _candidates(self, row: AdmissionRow) -> list[Group]:
        """Server groups tried, in order, for a user of ``row``.

        Per section 2.1: the home group first (privileged path), and when
        that fails -- or the user is outside the four majors -- the single
        alternative group with the shortest latency to the user.  If that
        alternative cannot admit the flow either, the fetch is rejected;
        Xuanfeng does not hunt across every group.
        """
        if not self.config.privileged_paths:
            # Ablation: ISP-blind selection, most headroom first.
            return _by_headroom(row.groups)[:2]
        if row.home is not None:
            # Home group plus the single lowest-latency alternative;
            # among latency-equals, the one with the most headroom.
            return [row.home, _most_headroom(row.tiers[0])]
        # Outside the four majors: the two lowest-latency alternatives,
        # headroom-ordered within each latency tier.
        chosen: list[Group] = []
        for tier in row.tiers:
            chosen.extend(tier if len(tier) == 1 else _by_headroom(tier))
            if len(chosen) >= 2:
                break
        return chosen[:2]

    def candidate_groups(self, user_isp: ISP) -> tuple[ISP, ...]:
        """Server groups tried for a user homed in ``user_isp``."""
        return tuple(group[4].server_isp for group
                     in self._candidates(self.admission_row(user_isp)))

    def admit(self, row: AdmissionRow, now: float,
              speed: Callable[[float, PathQuality], float],
              bandwidth: float,
              exclude: frozenset[str] = frozenset(),
              rate_scale: Optional[Callable[[str, float], float]] = None,
              ) -> Optional[tuple[PathChoice, ReservationPool, float]]:
        """Pick a group for one fetch, compute its rate, and commit it.

        ``speed(bandwidth, quality)`` is the speed the flow would
        actually achieve over a candidate path (the min of server rate,
        path cap and the user's ``bandwidth``); the group's pool commits
        that rate, capped at the config's maximum fetch rate.  Returns
        the shared path choice, the pool and the committed rate -- the
        caller hands the rate back with ``pool.release(rate)`` --
        or ``None`` when every candidate is exhausted (the fetch is
        rejected).

        ``exclude`` names server groups that are dark (fault injection:
        a crashed group is skipped as if exhausted); ``rate_scale(label,
        now)`` maps a candidate group to a degradation multiplier on its
        flow rate.  Both default to no-ops so the fault-free path is
        unchanged.
        """
        self.total_fetches += 1
        max_fetch_rate = self._max_fetch_rate
        home = row.home
        if home is not None:
            # Home-first fast path: most fetches admit at the privileged
            # group, so the alternative (whose headroom tiebreak reads
            # the same pool states either way -- a failed home attempt
            # commits nothing) is only resolved when home actually
            # fails.
            pool, threshold, label, quality, choice = home
            if label not in exclude:
                committed = pool.committed
                if committed < threshold and \
                        pool.capacity - committed >= MIN_USEFUL_RATE:
                    rate = min(speed(bandwidth, quality), max_fetch_rate)
                    if rate_scale is not None:
                        rate *= rate_scale(label, now)
                    if rate > 0 and pool.commit(rate):
                        return choice, pool, rate
            candidates = (_most_headroom(row.tiers[0]),)
        else:
            candidates = self._candidates(row)
        for pool, threshold, label, quality, choice in candidates:
            if label in exclude:
                continue
            committed = pool.committed
            if committed >= threshold or \
                    pool.capacity - committed < MIN_USEFUL_RATE:
                continue
            rate = min(speed(bandwidth, quality), max_fetch_rate)
            if rate_scale is not None:
                rate *= rate_scale(label, now)
            if rate <= 0:
                continue
            # "No limitation on the user's fetching speed": the flow is
            # admitted at its full rate or not at all -- Xuanfeng rejects
            # rather than degrade (section 2.1).
            if pool.commit(rate):
                return choice, pool, rate
        self.rejected_fetches += 1
        return None

    # -- accounting --------------------------------------------------------------

    @property
    def rejection_ratio(self) -> float:
        if self.total_fetches == 0:
            return 0.0
        return self.rejected_fetches / self.total_fetches
