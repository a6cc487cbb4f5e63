"""ISP identities and the registry of their address space.

The paper (section 2.1) describes China's topology as "a simple AS
topology with a small number of major ISPs", and Xuanfeng deploys
uploading servers inside exactly four of them: Unicom, Telecom, Mobile,
and CERNET.  Users outside these four (9.6% of fetch processes in the
measurement) cannot get a privileged path and hit the ISP barrier.

We model the four majors plus a catch-all ``OTHER`` for the long tail of
small ISPs, each owning a handful of /8-scale CIDR blocks loosely
patterned after real allocations.
"""

from __future__ import annotations

import enum
import ipaddress
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate


class ISP(enum.Enum):
    """An Internet service provider (autonomous system) in the model."""

    UNICOM = "unicom"
    TELECOM = "telecom"
    MOBILE = "mobile"
    CERNET = "cernet"
    OTHER = "other"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: The four ISPs in which Xuanfeng deploys uploading servers.
MAJOR_ISPS: tuple[ISP, ...] = (ISP.UNICOM, ISP.TELECOM, ISP.MOBILE,
                               ISP.CERNET)


@dataclass(frozen=True)
class IspProfile:
    """Static properties of one ISP's address space and population share."""

    isp: ISP
    cidrs: tuple[str, ...]
    #: Share of the modelled user population homed in this ISP.  Calibrated
    #: so that ~9.6% of users fall outside the four majors (paper 4.2).
    population_share: float

    def networks(self) -> list[ipaddress.IPv4Network]:
        # Copy the cached parse so callers that mutate the list (none in
        # tree, but the old contract allowed it) cannot poison the cache.
        return list(_parsed_networks(self.cidrs))


@lru_cache(maxsize=None)
def _parsed_networks(cidrs: tuple[str, ...]) -> tuple[
        ipaddress.IPv4Network, ...]:
    """CIDR parsing is ~10 us per block; profiles are immutable, so parse
    each block tuple once per process instead of per allocation."""
    return tuple(ipaddress.ip_network(cidr) for cidr in cidrs)


_DEFAULT_PROFILES: tuple[IspProfile, ...] = (
    IspProfile(ISP.TELECOM, ("58.32.0.0/11", "114.80.0.0/12",
                             "180.152.0.0/13"), 0.42),
    IspProfile(ISP.UNICOM, ("112.224.0.0/11", "123.112.0.0/12",
                            "221.192.0.0/13"), 0.28),
    IspProfile(ISP.MOBILE, ("111.0.0.0/10", "183.192.0.0/10"), 0.16),
    IspProfile(ISP.CERNET, ("166.111.0.0/16", "202.112.0.0/13",
                            "211.64.0.0/13"), 0.044),
    IspProfile(ISP.OTHER, ("43.224.0.0/11", "103.0.0.0/10",
                           "122.224.0.0/12"), 0.096),
)


class IspRegistry:
    """Lookup table of ISP profiles plus sampling of user home ISPs."""

    def __init__(self, profiles: tuple[IspProfile, ...] = _DEFAULT_PROFILES):
        total_share = sum(p.population_share for p in profiles)
        if abs(total_share - 1.0) > 1e-9:
            raise ValueError(
                f"population shares must sum to 1, got {total_share}")
        seen = set()
        for profile in profiles:
            if profile.isp in seen:
                raise ValueError(f"duplicate profile for {profile.isp}")
            seen.add(profile.isp)
        self._profiles = {p.isp: p for p in profiles}
        self._order = tuple(p.isp for p in profiles)
        # Inverse-CDF table for sample_isp, built exactly the way
        # Generator.choice builds its internal CDF (a sequential float64
        # cumsum renormalised by its last entry) so one bisect over one
        # uniform draw is bit-identical to the old per-call
        # rng.choice(len(order), p=shares).
        cdf = list(accumulate(float(p.population_share)
                              for p in profiles))
        self._share_cdf = [c / cdf[-1] for c in cdf]

    def profile(self, isp: ISP) -> IspProfile:
        return self._profiles[isp]

    def isps(self) -> tuple[ISP, ...]:
        return self._order

    def population_shares(self) -> dict[ISP, float]:
        return {isp: self._profiles[isp].population_share
                for isp in self._order}

    def is_major(self, isp: ISP) -> bool:
        """Is this one of the four ISPs hosting Xuanfeng uploading servers?"""
        return isp in MAJOR_ISPS

    def sample_isp(self, rng) -> ISP:
        """Draw a home ISP according to population shares."""
        index = bisect_right(self._share_cdf, rng.random())
        return self._order[min(index, len(self._order) - 1)]


_DEFAULT_REGISTRY: IspRegistry | None = None


def default_registry() -> IspRegistry:
    """The shared default registry (cheap, immutable, lazily built)."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = IspRegistry()
    return _DEFAULT_REGISTRY
