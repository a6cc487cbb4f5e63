"""P2P swarm dynamics.

The decisive property of a swarm is whether a downloader can find usable
seeds.  We model the instantaneous seed population of a file's swarm as
Poisson with mean proportional to the file's weekly demand -- popular
files have thriving swarms, unpopular files' swarms are often dead, which
is exactly the paper's Bottleneck 3 (86% of smart-AP failures were
"insufficient seeds in a P2P data swarm", section 5.2).

Downloader vantage matters: a cloud pre-downloader with a public address
and fat pipes reaches essentially every advertised seed, while a home AP
behind NAT on a consumer line reaches only a fraction (``reach``).  This
reachability gap is what makes the smart-AP failure ratio for unpopular
files (42%) so much worse than the cloud's per-attempt ratio, on top of
the cloud's collaborative cache.

The swarm also exposes the *bandwidth multiplier* from Li et al. (IWQoS
2012), used by the Figure 16 ODR evaluation: seeding a popular swarm with
cloud bandwidth :math:`S_i` yields aggregate distribution bandwidth
:math:`D_i` with :math:`D_i/S_i > 1`, so redirecting highly popular P2P
files to their swarms saves cloud upload bandwidth outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.clock import kbps

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SwarmModel:
    """Calibration constants for swarm synthesis.

    ``seeds_per_weekly_request``: mean instantaneous seeds contributed per
    weekly request of the file (captures fetch-at-most-once churn: users
    seed briefly after downloading).

    ``per_seed_rate_median`` / ``per_seed_rate_exponent`` /
    ``rate_sigma``: per-downloader throughput grows sublinearly with the
    seed count (new seeds overlap in upload capacity) with lognormal
    jitter for peer heterogeneity.
    """

    seeds_per_weekly_request: float = 0.8
    per_seed_rate_median: float = kbps(24.0)
    #: Throughput grows only weakly with seed count: extra seeds mostly
    #: duplicate each other's upload capacity, and measured AP replay
    #: speeds (median 27 KBps over a popularity-weighted sample, paper
    #: Fig. 13) show per-downloader speed is nearly popularity-blind --
    #: popularity decides *availability*, not speed.
    per_seed_rate_exponent: float = 0.10
    rate_sigma: float = 1.15
    leechers_per_weekly_request: float = 0.35

    def mean_seeds(self, weekly_demand: float) -> float:
        return self.seeds_per_weekly_request * max(weekly_demand, 0.0)


class Swarm:
    """The swarm for one file, parameterised by the file's weekly demand."""

    def __init__(self, file_id: str, weekly_demand: float,
                 model: SwarmModel | None = None):
        if weekly_demand < 0:
            raise ValueError("weekly_demand must be non-negative")
        self.file_id = file_id
        self.weekly_demand = weekly_demand
        self.model = model or SwarmModel()

    # -- population --------------------------------------------------------

    def sample_seed_count(self, rng: np.random.Generator) -> int:
        """Instantaneous advertised seed population at one attempt."""
        return int(rng.poisson(self.model.mean_seeds(self.weekly_demand)))

    def sample_leecher_count(self, rng: np.random.Generator) -> int:
        mean = self.model.leechers_per_weekly_request * self.weekly_demand
        return int(rng.poisson(mean))

    def reachable_seeds(self, seed_count: int, reach: float,
                        rng: np.random.Generator) -> int:
        """Seeds a downloader with connectivity ``reach`` can actually use.

        ``reach`` is the per-seed connection success probability:
        ~1.0 for a cloud pre-downloader, well below 1 for a NAT-ed home
        AP (port-mapping failures, peer-exchange limits, churn).
        """
        if not 0.0 <= reach <= 1.0:
            raise ValueError(f"reach must be in [0, 1], got {reach}")
        if seed_count <= 0:
            return 0
        return int(rng.binomial(seed_count, reach))

    def availability(self, reach: float) -> float:
        """Analytic P(at least one reachable seed) for a given vantage.

        Thinning a Poisson(m) seed population by ``reach`` gives
        Poisson(m*reach), so availability is ``1 - exp(-m*reach)``.
        Exposed for calibration tests and for ODR's popularity heuristics.
        """
        import numpy as np
        mean = self.model.mean_seeds(self.weekly_demand) * reach
        return 1.0 - float(np.exp(-mean))

    # -- throughput ---------------------------------------------------------

    def sample_rate(self, reachable_seeds: int,
                    rng: np.random.Generator) -> float:
        """Per-downloader throughput in B/s given usable seeds.

        Zero seeds means a stalled download (the stagnation-timeout rule
        in :mod:`repro.transfer.session` then turns it into a failure).
        """
        if reachable_seeds <= 0:
            return 0.0
        import numpy as np
        model = self.model
        scale = reachable_seeds ** model.per_seed_rate_exponent
        # ``sigma * z`` is ``rng.normal(0.0, sigma)`` exactly: numpy
        # computes ``0.0 + sigma * z`` from the same draw, which differs
        # only in the sign of a zero (exp maps both to 1.0).
        jitter = float(np.exp(model.rate_sigma * rng.standard_normal()))
        return model.per_seed_rate_median * scale * jitter

    # -- bandwidth multiplier (Li et al., IWQoS'12) --------------------------

    def bandwidth_multiplier(self, seeded_rate: float) -> float:
        """Aggregate-distribution gain of seeding this swarm at
        ``seeded_rate`` B/s of cloud bandwidth.

        A swarm with ``l`` leechers exchanging pieces achieves aggregate
        bandwidth roughly ``seeded_rate * (1 + eta * l)`` for a sharing
        efficiency ``eta`` well below 1 (tit-for-tat reciprocation is
        imperfect); the multiplier therefore grows with swarm size, which
        is why offloading *highly popular* files to their swarms is the
        bandwidth-saving move (paper section 4.2).
        """
        if seeded_rate <= 0:
            raise ValueError("seeded_rate must be positive")
        eta = 0.25
        leechers = self.model.leechers_per_weekly_request * \
            self.weekly_demand
        return 1.0 + eta * leechers
